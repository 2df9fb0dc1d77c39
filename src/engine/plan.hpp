// ExperimentPlan: a declarative description of a map experiment — a grid of
// (detector) x (window lengths) x (anomaly sizes) over one evaluation suite.
//
// The plan replaces the ad-hoc per-binary loops that used to rebuild the
// AS x DW performance map one detector and one window at a time: a bench
// binary now *describes* the sweep (which detectors, which axes) and hands
// it to the scheduler (engine/scheduler.hpp), which runs one train-then-score
// task per (detector, DW) column on parallel_for. Axes default to the
// suite's full grid; restricting them runs a sub-grid without rebuilding the
// suite.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "anomaly/suite.hpp"
#include "detect/detector.hpp"
#include "detect/registry.hpp"

namespace adiv {

/// One detector family in a plan: the label of its performance map plus the
/// factory that builds the detector for each window length.
struct PlanDetector {
    std::string name;
    DetectorFactory factory;
};

class ExperimentPlan {
public:
    /// Plans over the suite's full AS x DW grid. The suite must outlive the
    /// plan and every run of it.
    explicit ExperimentPlan(const EvaluationSuite& suite);

    /// Adds a detector family under an explicit map label.
    ExperimentPlan& add_detector(std::string name, DetectorFactory factory);

    /// Adds a registry detector under its canonical name.
    ExperimentPlan& add_detector(DetectorKind kind,
                                 const DetectorSettings& settings = {});

    /// Restricts the window axis: strictly ascending values that all exist
    /// in the suite (checked by validate()).
    ExperimentPlan& with_window_lengths(std::vector<std::size_t> values);

    /// Restricts the anomaly-size axis: strictly ascending values that all
    /// exist in the suite (checked by validate()).
    ExperimentPlan& with_anomaly_sizes(std::vector<std::size_t> values);

    [[nodiscard]] const EvaluationSuite& suite() const noexcept { return *suite_; }
    [[nodiscard]] const std::vector<PlanDetector>& detectors() const noexcept {
        return detectors_;
    }
    [[nodiscard]] const std::vector<std::size_t>& window_lengths() const noexcept {
        return window_lengths_;
    }
    [[nodiscard]] const std::vector<std::size_t>& anomaly_sizes() const noexcept {
        return anomaly_sizes_;
    }

    /// Cells per map: |anomaly_sizes| x |window_lengths|.
    [[nodiscard]] std::size_t cells_per_map() const noexcept {
        return anomaly_sizes_.size() * window_lengths_.size();
    }

    /// Total scoring cells across all detectors.
    [[nodiscard]] std::size_t cell_count() const noexcept {
        return detectors_.size() * cells_per_map();
    }

    /// Throws InvalidArgument when the plan cannot run: no detectors, an
    /// empty axis, an axis that is not strictly ascending, or an axis value
    /// with no suite entry.
    void validate() const;

private:
    const EvaluationSuite* suite_;
    std::vector<PlanDetector> detectors_;
    std::vector<std::size_t> window_lengths_;
    std::vector<std::size_t> anomaly_sizes_;
};

}  // namespace adiv
