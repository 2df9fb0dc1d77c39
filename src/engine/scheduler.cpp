#include "engine/scheduler.hpp"

#include <memory>
#include <mutex>
#include <utility>

#include "engine/sink.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

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

/// Scores one (AS, DW) cell with an already trained column model; its span
/// is child `task` of the plan span.
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
    return requested == 0 ? ThreadPool::default_jobs() : requested;
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
    // Each column's training task and its per-AS scoring tasks are children
    // of the plan span numbered in canonical order, so the trace's tree is
    // the same for every jobs value.
    const TraceContext plan_ids = plan_span.context();
    const std::size_t tasks_per_column = 1 + nas;
    Counter& cells_scored = global_metrics().counter("experiment.cells_scored");
    Sketch& cell_us = global_metrics().sketch("experiment.cell_us");

    // Cell results land in pre-sized slots addressed by grid position, so
    // assembly below is independent of completion order.
    std::vector<std::vector<SpanScore>> slots(
        ndet, std::vector<SpanScore>(nas * ndw));
    std::vector<MapTiming> timings(ndet);
    const auto slot_index = [nas, ndw](std::size_t as_idx, std::size_t dw_idx) {
        ADIV_ASSERT(as_idx < nas && dw_idx < ndw);
        return dw_idx * nas + as_idx;
    };

    const Stopwatch total;
    if (jobs == 1) {
        // Inline serial execution in canonical order — the historical loop.
        for (std::size_t d = 0; d < ndet; ++d) {
            const PlanDetector& detector = plan.detectors()[d];
            for (std::size_t w = 0; w < ndw; ++w) {
                const std::size_t column_base = (d * ndw + w) * tasks_per_column;
                const Stopwatch train_watch;
                const std::unique_ptr<SequenceDetector> model =
                    train_column(plan, detector, dws[w], plan_ids, column_base);
                timings[d].train_seconds += train_watch.seconds();
                for (std::size_t a = 0; a < nas; ++a) {
                    const Stopwatch score_watch;
                    const SpanScore score = score_cell(
                        plan, detector, *model, as_values[a], dws[w], cells_scored,
                        cell_us, plan_ids, column_base + 1 + a);
                    timings[d].score_seconds += score_watch.seconds();
                    slots[d][slot_index(a, w)] = score;
                    if (options.progress)
                        options.progress(as_values[a], dws[w], score);
                }
            }
        }
    } else {
        // One training job per (detector, DW) column; each fans out into
        // per-AS scoring jobs sharing the trained model. Task indices are
        // pre-assigned in canonical order so the first error is the same one
        // the serial path would throw.
        std::mutex timing_mutex;
        std::mutex progress_mutex;
        ThreadPool pool(jobs);
        TaskGroup group(pool);
        for (std::size_t d = 0; d < ndet; ++d) {
            for (std::size_t w = 0; w < ndw; ++w) {
                const std::size_t column_base =
                    (d * ndw + w) * tasks_per_column;
                group.run_indexed(column_base, [&, d, w, column_base] {
                    const PlanDetector& detector = plan.detectors()[d];
                    const Stopwatch train_watch;
                    // Shared by the scoring jobs below; score() is const and
                    // safe for concurrent calls on a trained detector.
                    const std::shared_ptr<const SequenceDetector> model =
                        train_column(plan, detector, dws[w], plan_ids,
                                     column_base);
                    {
                        const std::lock_guard<std::mutex> lock(timing_mutex);
                        timings[d].train_seconds += train_watch.seconds();
                    }
                    for (std::size_t a = 0; a < nas; ++a) {
                        // Captured by value: the scoring task can outlive
                        // this column task, whose locals [&] would name.
                        const std::size_t task = column_base + 1 + a;
                        group.run_indexed(task, [&, d, w, a, task, model] {
                            const Stopwatch score_watch;
                            const SpanScore score = score_cell(
                                plan, plan.detectors()[d], *model,
                                as_values[a], dws[w], cells_scored, cell_us,
                                plan_ids, task);
                            slots[d][slot_index(a, w)] = score;
                            const double seconds = score_watch.seconds();
                            {
                                const std::lock_guard<std::mutex> lock(
                                    timing_mutex);
                                timings[d].score_seconds += seconds;
                            }
                            if (options.progress) {
                                const std::lock_guard<std::mutex> lock(
                                    progress_mutex);
                                options.progress(as_values[a], dws[w], score);
                            }
                        });
                    }
                });
            }
        }
        group.wait();
    }

    PlanRun run;
    run.maps.reserve(ndet);
    for (std::size_t d = 0; d < ndet; ++d) {
        PerformanceMap map(plan.detectors()[d].name, as_values, dws);
        for (std::size_t w = 0; w < ndw; ++w)
            for (std::size_t a = 0; a < nas; ++a)
                map.set(as_values[a], dws[w], slots[d][slot_index(a, w)]);
        run.maps.push_back(std::move(map));
    }
    run.timings = std::move(timings);
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

PlanRun run_plan(const ExperimentPlan& plan, const EngineOptions& options,
                 ResultSink& sink) {
    PlanRun run = run_plan(plan, options);
    for (std::size_t d = 0; d < run.maps.size(); ++d)
        sink.map_ready(run.maps[d], run.timings[d]);
    sink.plan_finished(run.summary);
    return run;
}

}  // namespace adiv
