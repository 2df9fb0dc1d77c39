// Performance map: a detector's detection coverage over the
// (anomaly size, detector window) plane — Figures 3-6 of the paper.
//
// Each cell holds the classified outcome for one suite test stream; the
// renderer draws the paper's chart as text with detector window on the
// y-axis (descending), anomaly size on the x-axis, a '*' for each detection,
// '+' for weak responses, '.' for blindness, and a 'u' column for the
// undefined anomaly size of 1 (a size-1 sequence cannot be both foreign and
// rare).
//
// The grid is flat: one optional cell per (AS, DW) axis position, AS-major,
// so a map costs one allocation whatever the number of cells set.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/response.hpp"

namespace adiv {

class PerformanceMap {
public:
    /// as_values / dw_values: the grid axes, non-empty and strictly
    /// ascending (one cell per value).
    PerformanceMap(std::string detector_name, std::vector<std::size_t> as_values,
                   std::vector<std::size_t> dw_values);

    [[nodiscard]] const std::string& detector_name() const noexcept {
        return detector_name_;
    }
    [[nodiscard]] const std::vector<std::size_t>& anomaly_sizes() const noexcept {
        return as_values_;
    }
    [[nodiscard]] const std::vector<std::size_t>& window_lengths() const noexcept {
        return dw_values_;
    }

    void set(std::size_t anomaly_size, std::size_t window_length, SpanScore score);

    /// Throws InvalidArgument for cells outside the grid or never set.
    [[nodiscard]] const SpanScore& at(std::size_t anomaly_size,
                                      std::size_t window_length) const;

    [[nodiscard]] bool has(std::size_t anomaly_size,
                           std::size_t window_length) const noexcept;

    /// Number of cells set.
    [[nodiscard]] std::size_t cell_count() const noexcept;
    [[nodiscard]] std::size_t count(DetectionOutcome outcome) const;

    /// ASCII chart in the style of the paper's figures.
    [[nodiscard]] std::string render() const;

    /// CSV rows of the set cells, AS-major with DW ascending: anomaly_size,
    /// window_length, outcome, max_response.
    void write_csv(std::ostream& out) const;

private:
    /// Index of the (as, dw) cell in cells_, or cells_.size() when either
    /// value is off the grid.
    [[nodiscard]] std::size_t index_of(std::size_t anomaly_size,
                                       std::size_t window_length) const noexcept;

    std::string detector_name_;
    std::vector<std::size_t> as_values_;
    std::vector<std::size_t> dw_values_;
    std::vector<std::optional<SpanScore>> cells_;  // [as position][dw position]
};

}  // namespace adiv
