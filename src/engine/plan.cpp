#include "engine/plan.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/error.hpp"

namespace adiv {

ExperimentPlan::ExperimentPlan(const EvaluationSuite& suite)
    : suite_(&suite),
      window_lengths_(suite.window_lengths()),
      anomaly_sizes_(suite.anomaly_sizes()) {}

ExperimentPlan& ExperimentPlan::add_detector(std::string name,
                                             DetectorFactory factory) {
    require(!name.empty(), "plan detector needs a non-empty name");
    require(factory != nullptr, "plan detector needs a factory");
    detectors_.push_back({std::move(name), std::move(factory)});
    return *this;
}

ExperimentPlan& ExperimentPlan::add_detector(DetectorKind kind,
                                             const DetectorSettings& settings) {
    return add_detector(to_string(kind), factory_for(kind, settings));
}

ExperimentPlan& ExperimentPlan::with_window_lengths(
    std::vector<std::size_t> values) {
    window_lengths_ = std::move(values);
    return *this;
}

ExperimentPlan& ExperimentPlan::with_anomaly_sizes(
    std::vector<std::size_t> values) {
    anomaly_sizes_ = std::move(values);
    return *this;
}

void ExperimentPlan::validate() const {
    require(!detectors_.empty(), "experiment plan has no detectors");
    require(!window_lengths_.empty(), "experiment plan has no window lengths");
    require(!anomaly_sizes_.empty(), "experiment plan has no anomaly sizes");
    // The maps' grids hold one cell per axis value, so a repeated or
    // unsorted axis is refused here, before any column trains.
    const auto strictly_ascending = [](const std::vector<std::size_t>& axis) {
        return std::adjacent_find(axis.begin(), axis.end(),
                                  std::greater_equal<>()) == axis.end();
    };
    require(strictly_ascending(window_lengths_),
            "plan window lengths must be strictly ascending");
    require(strictly_ascending(anomaly_sizes_),
            "plan anomaly sizes must be strictly ascending");
    const auto in_suite = [](const std::vector<std::size_t>& axis,
                             std::size_t value) {
        return std::find(axis.begin(), axis.end(), value) != axis.end();
    };
    const std::vector<std::size_t> suite_dws = suite_->window_lengths();
    const std::vector<std::size_t> suite_as = suite_->anomaly_sizes();
    for (std::size_t dw : window_lengths_)
        require(in_suite(suite_dws, dw),
                "plan window length " + std::to_string(dw) +
                    " has no suite entries");
    for (std::size_t as : anomaly_sizes_)
        require(in_suite(suite_as, as),
                "plan anomaly size " + std::to_string(as) +
                    " has no suite entries");
}

}  // namespace adiv
