#include "core/perf_map.hpp"

#include <algorithm>
#include <functional>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace adiv {

namespace {

/// Position of `value` in a strictly ascending axis, or axis.size().
std::size_t position(const std::vector<std::size_t>& axis, std::size_t value) noexcept {
    const auto it = std::lower_bound(axis.begin(), axis.end(), value);
    return it != axis.end() && *it == value
               ? static_cast<std::size_t>(it - axis.begin())
               : axis.size();
}

bool strictly_ascending(const std::vector<std::size_t>& axis) {
    return std::adjacent_find(axis.begin(), axis.end(), std::greater_equal<>()) ==
           axis.end();
}

}  // namespace

PerformanceMap::PerformanceMap(std::string detector_name,
                               std::vector<std::size_t> as_values,
                               std::vector<std::size_t> dw_values)
    : detector_name_(std::move(detector_name)),
      as_values_(std::move(as_values)),
      dw_values_(std::move(dw_values)) {
    require(!as_values_.empty() && !dw_values_.empty(),
            "performance map axes must be non-empty");
    require(strictly_ascending(as_values_),
            "anomaly sizes must be strictly ascending");
    require(strictly_ascending(dw_values_),
            "window lengths must be strictly ascending");
    cells_.resize(as_values_.size() * dw_values_.size());
}

std::size_t PerformanceMap::index_of(std::size_t anomaly_size,
                                     std::size_t window_length) const noexcept {
    const std::size_t a = position(as_values_, anomaly_size);
    const std::size_t w = position(dw_values_, window_length);
    if (a == as_values_.size() || w == dw_values_.size()) return cells_.size();
    return a * dw_values_.size() + w;
}

void PerformanceMap::set(std::size_t anomaly_size, std::size_t window_length,
                         SpanScore score) {
    const std::size_t a = position(as_values_, anomaly_size);
    const std::size_t w = position(dw_values_, window_length);
    require(a < as_values_.size(), "anomaly size outside the map grid");
    require(w < dw_values_.size(), "window length outside the map grid");
    cells_[a * dw_values_.size() + w] = score;
}

const SpanScore& PerformanceMap::at(std::size_t anomaly_size,
                                    std::size_t window_length) const {
    const std::size_t i = index_of(anomaly_size, window_length);
    if (i < cells_.size() && cells_[i].has_value()) return *cells_[i];
    throw InvalidArgument("performance map cell (" + std::to_string(anomaly_size) +
                          "," + std::to_string(window_length) + ") is unset");
}

bool PerformanceMap::has(std::size_t anomaly_size,
                         std::size_t window_length) const noexcept {
    const std::size_t i = index_of(anomaly_size, window_length);
    return i < cells_.size() && cells_[i].has_value();
}

std::size_t PerformanceMap::cell_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(cells_.begin(), cells_.end(),
                      [](const std::optional<SpanScore>& cell) { return cell.has_value(); }));
}

std::size_t PerformanceMap::count(DetectionOutcome outcome) const {
    return static_cast<std::size_t>(
        std::count_if(cells_.begin(), cells_.end(),
                      [&](const std::optional<SpanScore>& cell) {
                          return cell.has_value() && cell->outcome == outcome;
                      }));
}

std::string PerformanceMap::render() const {
    std::ostringstream out;
    out << "Performance map of " << detector_name_
        << " on MFS anomaly (detection threshold = 1)\n";
    for (auto it = dw_values_.rbegin(); it != dw_values_.rend(); ++it) {
        const std::size_t dw = *it;
        out << (dw < 10 ? "  " : " ") << dw << " |";
        out << "  u";  // undefined column for anomaly size 1
        for (std::size_t as : as_values_) {
            out << "  ";
            out << (has(as, dw) ? outcome_glyph(at(as, dw).outcome) : ' ');
        }
        out << '\n';
    }
    out << " DW +";
    out << std::string(3 * (as_values_.size() + 1), '-') << '\n';
    out << "       1";
    for (std::size_t as : as_values_)
        out << (as < 10 ? "  " : " ") << as;
    out << "  AS\n";
    out << " legend: * detect (maximal response in incident span)   + weak "
           "response   . blind   u undefined\n";
    return out.str();
}

void PerformanceMap::write_csv(std::ostream& out) const {
    CsvWriter csv(out);
    csv.row({"detector", "anomaly_size", "window_length", "outcome",
             "max_response"});
    for (std::size_t a = 0; a < as_values_.size(); ++a) {
        for (std::size_t w = 0; w < dw_values_.size(); ++w) {
            const std::optional<SpanScore>& cell = cells_[a * dw_values_.size() + w];
            if (!cell) continue;
            csv.row_of(detector_name_, as_values_[a], dw_values_[w],
                       to_string(cell->outcome), fixed(cell->max_response, 6));
        }
    }
}

}  // namespace adiv
