#include "engine/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <utility>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stopwatch.hpp"

namespace adiv {

namespace {

/// Builds and trains one (detector, DW) column model; its span is child
/// `task` of the plan span.
std::unique_ptr<SequenceDetector> train_column(const ExperimentPlan& plan,
                                               const PlanDetector& detector,
                                               std::size_t dw, TraceContext plan_ids,
                                               std::size_t task) {
    std::unique_ptr<SequenceDetector> model = detector.factory(dw);
    require(model != nullptr, "detector factory returned null");
    require(model->window_length() == dw,
            "factory produced detector with wrong window length");
    TraceSpan train_span("experiment.train", child_context(plan_ids, task),
                         plan_ids.span_id);
    train_span.attr("detector", detector.name)
        .attr("window", static_cast<std::uint64_t>(dw))
        .attr("events", static_cast<std::uint64_t>(
                            plan.suite().corpus().training().size()));
    model->train(plan.suite().corpus().training());
    return model;
}

/// Scores one (AS, DW) cell with its column's trained model; its span is
/// child `task` of the plan span.
SpanScore score_cell(const ExperimentPlan& plan, const PlanDetector& detector,
                     const SequenceDetector& model, std::size_t as,
                     std::size_t dw, Counter& cells_scored, Sketch& cell_us,
                     TraceContext plan_ids, std::size_t task) {
    TraceSpan cell_span("experiment.cell", child_context(plan_ids, task),
                        plan_ids.span_id);
    cell_span.attr("detector", detector.name)
        .attr("anomaly_size", static_cast<std::uint64_t>(as))
        .attr("window", static_cast<std::uint64_t>(dw));
    const Stopwatch cell_watch;
    const SpanScore score = score_entry(model, plan.suite().entry(as, dw));
    cell_us.record(cell_watch.seconds() * 1e6);
    cells_scored.add(1);
    return score;
}

}  // namespace

std::size_t resolve_jobs(std::size_t requested) noexcept {
    return requested == 0 ? default_jobs() : requested;
}

PlanRun run_plan(const ExperimentPlan& plan, const EngineOptions& options) {
    plan.validate();
    const std::size_t jobs = resolve_jobs(options.jobs);
    const std::vector<std::size_t>& dws = plan.window_lengths();
    const std::vector<std::size_t>& as_values = plan.anomaly_sizes();
    const std::size_t ndet = plan.detectors().size();
    const std::size_t ndw = dws.size();
    const std::size_t nas = as_values.size();

    TraceSpan plan_span("engine.plan");
    plan_span.attr("detectors", static_cast<std::uint64_t>(ndet))
        .attr("windows", static_cast<std::uint64_t>(ndw))
        .attr("anomaly_sizes", static_cast<std::uint64_t>(nas))
        .attr("jobs", static_cast<std::uint64_t>(jobs));
    // Each column's training and its per-AS cells are children of the plan
    // span numbered in canonical order, so the trace's tree is the same for
    // every jobs value.
    const TraceContext plan_ids = plan_span.context();
    const std::size_t tasks_per_column = 1 + nas;
    Counter& cells_scored = global_metrics().counter("experiment.cells_scored");
    Sketch& cell_us = global_metrics().sketch("experiment.cell_us");

    // Column c = d * ndw + w owns cells[c * nas, (c + 1) * nas) and
    // column_timings[c]; only its own task writes them.
    std::vector<SpanScore> cells(ndet * ndw * nas);
    std::vector<MapTiming> column_timings(ndet * ndw);

    // Task i runs column order[i]: widest window first, plan order within one
    // width. Every paper detector's training cost grows with its window or
    // stays flat, so the longest columns start first and the plan does not
    // end on one long column with the other workers idle.
    std::vector<std::size_t> order(ndet * ndw);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return dws[a % ndw] > dws[b % ndw];
    });

    const Stopwatch total;
    parallel_for(order.size(), jobs, [&](std::size_t task) {
        const std::size_t column = order[task];
        const PlanDetector& detector = plan.detectors()[column / ndw];
        const std::size_t dw = dws[column % ndw];
        const std::size_t column_base = column * tasks_per_column;
        MapTiming& timing = column_timings[column];
        const Stopwatch train_watch;
        const std::unique_ptr<SequenceDetector> model =
            train_column(plan, detector, dw, plan_ids, column_base);
        timing.train_seconds = train_watch.seconds();
        for (std::size_t a = 0; a < nas; ++a) {
            const Stopwatch score_watch;
            cells[column * nas + a] =
                score_cell(plan, detector, *model, as_values[a], dw, cells_scored,
                           cell_us, plan_ids, column_base + 1 + a);
            timing.score_seconds += score_watch.seconds();
        }
    });

    PlanRun run;
    run.maps.reserve(ndet);
    run.timings.resize(ndet);
    for (std::size_t d = 0; d < ndet; ++d) {
        PerformanceMap map(plan.detectors()[d].name, as_values, dws);
        for (std::size_t w = 0; w < ndw; ++w) {
            const std::size_t column = d * ndw + w;
            for (std::size_t a = 0; a < nas; ++a)
                map.set(as_values[a], dws[w], cells[column * nas + a]);
            run.timings[d].train_seconds += column_timings[column].train_seconds;
            run.timings[d].score_seconds += column_timings[column].score_seconds;
        }
        run.maps.push_back(std::move(map));
    }
    run.summary.jobs = jobs;
    run.summary.detector_count = ndet;
    run.summary.cell_count = plan.cell_count();
    run.summary.wall_seconds = total.seconds();
    run.summary.cells_per_second =
        run.summary.wall_seconds > 0.0
            ? static_cast<double>(run.summary.cell_count) /
                  run.summary.wall_seconds
            : 0.0;
    plan_span.attr("wall_seconds", run.summary.wall_seconds)
        .attr("cells_per_second", run.summary.cells_per_second);
    return run;
}

}  // namespace adiv
