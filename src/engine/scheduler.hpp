// The plan scheduler: executes an ExperimentPlan and assembles one
// PerformanceMap per plan detector.
//
// Each (detector, DW) column is one task: build the detector via the
// factory, train it on the corpus training stream, score the column's cells
// in AS order, then drop the model. The tasks run on parallel_for
// (util/parallel.hpp), so at most `jobs` models are alive at once. Columns
// run widest window first, in plan order within one width: training cost
// grows with the window, so the longest columns start first. At jobs == 1
// the plan runs on the calling thread in that run order.
//
// Determinism: every cell result lands in a pre-sized slot addressed by its
// (detector, AS, DW) grid position, never by completion order, and detector
// training is independent of interleaving, so the assembled maps are
// bit-identical for any job count. Trace spans keep their canonical numbers
// (column * (1 + |AS|)), so the trace tree is too. Failures are
// deterministic: the first failing column in run order is rethrown, the one
// the jobs=1 loop meets first, so jobs=1 and jobs=N report the same
// exception.
#pragma once

#include <cstddef>
#include <vector>

#include "core/perf_map.hpp"
#include "engine/plan.hpp"

namespace adiv {

struct EngineOptions {
    /// Worker threads, the caller included; 1 = serial on the caller,
    /// 0 = hardware concurrency (default_jobs()).
    std::size_t jobs = 1;
};

/// Aggregate wall time spent in one detector's columns. At jobs > 1 the
/// columns overlap across workers, so they sum CPU-side cost and do not add
/// up to plan wall time.
struct MapTiming {
    double train_seconds = 0.0;
    double score_seconds = 0.0;
};

/// Per-plan throughput summary — the per-run replacement for the old
/// process-global `experiment.cells_per_second` gauge, which was
/// last-writer-wins when several maps ran in one process.
struct PlanSummary {
    std::size_t jobs = 1;
    std::size_t detector_count = 0;
    std::size_t cell_count = 0;
    double wall_seconds = 0.0;
    double cells_per_second = 0.0;
};

struct PlanRun {
    std::vector<PerformanceMap> maps;  ///< one per plan detector, plan order
    std::vector<MapTiming> timings;    ///< parallel to maps
    PlanSummary summary;
};

/// Runs the plan and returns every map. Throws the first error in run order
/// (invalid plan, factory failures, scoring failures).
PlanRun run_plan(const ExperimentPlan& plan, const EngineOptions& options = {});

/// Resolves a CLI-style job count: 0 -> hardware concurrency, otherwise n.
std::size_t resolve_jobs(std::size_t requested) noexcept;

}  // namespace adiv
