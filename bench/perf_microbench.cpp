// Engineering microbenchmarks (google-benchmark): training and scoring
// throughput of the four detectors plus the substrate operations they lean
// on. Not a figure from the paper — operational data for users sizing
// deployments.
//
// After the google-benchmark suite, the binary writes two snapshots:
//   * BENCH_observability.json — batch-scoring events/sec per detector (raw
//     vs observability-instrumented, so the instrumentation overhead is
//     pinned by a number), and per-cell latency percentiles from a reduced
//     map experiment;
//   * BENCH_engine_scaling.json — wall time and cells/sec of one four-
//     detector plan at jobs = 1, 2, 4, and hardware_concurrency, with the
//     speedup over the serial run. On a single-core host the jobs > 1 rows
//     measure scheduling overhead, not speedup.
// Use --benchmark_filter=NONE to skip straight to the snapshots.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "anomaly/mfs_builder.hpp"
#include "anomaly/subsequence_oracle.hpp"
#include "anomaly/suite.hpp"
#include "core/experiment.hpp"
#include "datagen/corpus.hpp"
#include "detect/instrumented.hpp"
#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "util/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "seq/conditional_model.hpp"
#include "seq/ngram_table.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace {

using namespace adiv;

const TrainingCorpus& corpus() {
    static const TrainingCorpus c = [] {
        CorpusSpec spec;
        spec.training_length = 200'000;
        return TrainingCorpus::generate(spec);
    }();
    return c;
}

const EventStream& heldout() {
    static const EventStream h = corpus().generate_heldout(50'000, 1234);
    return h;
}

void BM_NgramTableBuild(benchmark::State& state) {
    const auto length = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        NgramTable t = NgramTable::from_stream(corpus().training(), length);
        benchmark::DoNotOptimize(t.total());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(corpus().training().size()));
}
BENCHMARK(BM_NgramTableBuild)->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);

void BM_ConditionalModelBuild(benchmark::State& state) {
    const auto context = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ConditionalModel m(corpus().training(), context);
        benchmark::DoNotOptimize(m.distinct_contexts());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(corpus().training().size()));
}
BENCHMARK(BM_ConditionalModelBuild)->Arg(1)->Arg(5)->Arg(14)->Unit(benchmark::kMillisecond);

void BM_DetectorTrain(benchmark::State& state, DetectorKind kind) {
    const auto dw = static_cast<std::size_t>(state.range(0));
    DetectorSettings settings;
    settings.nn.epochs = 100;  // keep the NN benchmark bounded
    for (auto _ : state) {
        auto d = make_detector(kind, dw, settings);
        d->train(corpus().training());
        benchmark::DoNotOptimize(d.get());
    }
}
BENCHMARK_CAPTURE(BM_DetectorTrain, stide, DetectorKind::Stide)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, markov, DetectorKind::Markov)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, lane_brodley, DetectorKind::LaneBrodley)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorTrain, neural_net, DetectorKind::NeuralNet)
    ->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_DetectorScore(benchmark::State& state, DetectorKind kind) {
    const auto dw = static_cast<std::size_t>(state.range(0));
    DetectorSettings settings;
    settings.nn.epochs = 100;
    auto d = make_detector(kind, dw, settings);
    d->train(corpus().training());
    for (auto _ : state) {
        auto responses = d->score(heldout());
        benchmark::DoNotOptimize(responses.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(heldout().size()));
}
BENCHMARK_CAPTURE(BM_DetectorScore, stide, DetectorKind::Stide)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, markov, DetectorKind::Markov)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, lane_brodley, DetectorKind::LaneBrodley)
    ->Arg(2)->Arg(6)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, t_stide, DetectorKind::TStide)
    ->Arg(6)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DetectorScore, neural_net, DetectorKind::NeuralNet)
    ->Arg(2)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_MfsSynthesis(benchmark::State& state) {
    const auto size = static_cast<std::size_t>(state.range(0));
    const SubsequenceOracle oracle(corpus().training());
    const MfsBuilder builder(oracle);
    (void)builder.build(size);  // warm the oracle tables outside the loop
    for (auto _ : state) {
        auto mfs = builder.build(size);
        benchmark::DoNotOptimize(mfs.data());
    }
}
BENCHMARK(BM_MfsSynthesis)->Arg(2)->Arg(5)->Arg(9)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_observability.json snapshot

struct ScoreRates {
    double raw_events_per_sec = 0.0;
    double instrumented_events_per_sec = 0.0;
};

/// Measures batch score() throughput of the raw and instrumented detectors
/// with interleaved repetitions, so clock-frequency and cache drift hit both
/// sides equally — the overhead ratio is what matters, not the absolute rate.
ScoreRates measure_score_pair(const SequenceDetector& raw,
                              const SequenceDetector& instrumented,
                              const EventStream& stream) {
    for (const SequenceDetector* d : {&raw, &instrumented}) {
        auto warmup = d->score(stream);  // touch caches outside the timing
        benchmark::DoNotOptimize(warmup.data());
    }
    Stopwatch sw;
    std::size_t reps = 0;
    double raw_elapsed = 0.0;
    double instrumented_elapsed = 0.0;
    do {
        // Alternate which side runs first so any cost of occupying a rep's
        // second slot (cache refill, allocator state) cancels out.
        const bool raw_first = reps % 2 == 0;
        for (int side = 0; side < 2; ++side) {
            const bool timing_raw = (side == 0) == raw_first;
            const SequenceDetector& detector = timing_raw ? raw : instrumented;
            sw.restart();
            auto responses = detector.score(stream);
            benchmark::DoNotOptimize(responses.data());
            (timing_raw ? raw_elapsed : instrumented_elapsed) += sw.lap();
        }
        ++reps;
    } while (raw_elapsed + instrumented_elapsed < 2.0 || reps < 6);
    const double events = static_cast<double>(reps) * static_cast<double>(stream.size());
    return {events / raw_elapsed, events / instrumented_elapsed};
}

void write_observability_snapshot(const std::string& path) {
    const std::vector<DetectorKind> kinds = {
        DetectorKind::Stide, DetectorKind::Markov, DetectorKind::LaneBrodley};

    // Reduced grid: per-cell latency, not coverage, is the object here.
    SuiteConfig suite_config;
    suite_config.min_anomaly_size = 2;
    suite_config.max_anomaly_size = 4;
    suite_config.min_window = 2;
    suite_config.max_window = 6;
    suite_config.background_length = 1024;
    const EvaluationSuite suite = EvaluationSuite::build(corpus(), suite_config);

    std::printf("\n==== observability snapshot (%s) ====\n\n", path.c_str());
    TextTable table;
    table.header({"detector", "events/s raw", "events/s instr", "overhead",
                  "cell p50 us", "cell p95 us", "cell p99 us"});

    JsonWriter json;
    json.begin_object();
    json.key("schema").value("adiv-bench-observability/1");
    json.key("timestamp").value(now_iso8601());
    json.key("build_type").value(build_type_string());
    json.key("corpus_events").value(static_cast<std::uint64_t>(corpus().training().size()));
    json.key("score_stream_events").value(static_cast<std::uint64_t>(heldout().size()));
    json.key("detectors").begin_object();

    for (const DetectorKind kind : kinds) {
        // One trained model, scored both directly (wrapped->inner()) and
        // through the decorator: identical memory, so the delta is pure
        // instrumentation cost. The global trace sink is the null sink here,
        // the hot-path configuration.
        auto wrapped = std::make_unique<InstrumentedDetector>(make_detector(kind, 6));
        wrapped->train(corpus().training());
        const auto [raw_eps, instr_eps] =
            measure_score_pair(wrapped->inner(), *wrapped, heldout());
        const double overhead_pct = (raw_eps / instr_eps - 1.0) * 100.0;

        global_metrics().reset();
        (void)run_map_experiment(suite, to_string(kind), factory_for(kind));
        const Sketch* cell_us = global_metrics().find_sketch("experiment.cell_us");
        ADIV_ASSERT(cell_us != nullptr);
        const SketchSummary cells = cell_us->summary();

        table.add(to_string(kind), fixed(raw_eps, 0), fixed(instr_eps, 0),
                  fixed(overhead_pct, 2) + "%", fixed(cells.p50, 1),
                  fixed(cells.p95, 1), fixed(cells.p99, 1));

        json.key(to_string(kind)).begin_object();
        json.key("window").value(std::uint64_t{6});
        json.key("events_per_sec_raw").value(raw_eps);
        json.key("events_per_sec_instrumented").value(instr_eps);
        json.key("instrumentation_overhead_pct").value(overhead_pct);
        json.key("cell_latency_us").begin_object();
        json.key("cells").value(cells.count);
        json.key("p50").value(cells.p50);
        json.key("p95").value(cells.p95);
        json.key("p99").value(cells.p99);
        json.key("max").value(cells.max);
        json.end_object();
        json.end_object();
    }
    json.end_object();
    json.end_object();

    std::printf("%s", table.render().c_str());
    std::ofstream out(path);
    if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << json.str() << '\n';
    std::printf("\nsnapshot written to %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// BENCH_engine_scaling.json snapshot

void write_engine_scaling_snapshot(const std::string& path) {
    // The paper's four detectors on a reduced grid: large enough that the
    // training columns dominate, small enough to sweep four job counts.
    SuiteConfig suite_config;
    suite_config.min_anomaly_size = 2;
    suite_config.max_anomaly_size = 9;
    suite_config.min_window = 2;
    suite_config.max_window = 8;
    suite_config.background_length = 1024;
    const EvaluationSuite suite = EvaluationSuite::build(corpus(), suite_config);

    DetectorSettings settings;
    settings.nn.epochs = 100;
    ExperimentPlan plan(suite);
    for (DetectorKind kind : paper_detectors()) plan.add_detector(kind, settings);

    std::vector<std::size_t> job_counts = {1, 2, 4, ThreadPool::default_jobs()};
    std::sort(job_counts.begin(), job_counts.end());
    job_counts.erase(std::unique(job_counts.begin(), job_counts.end()),
                     job_counts.end());

    std::printf("\n==== engine scaling snapshot (%s) ====\n\n", path.c_str());
    std::printf("# plan: %zu detectors x DW %zu..%zu x AS %zu..%zu = %zu cells\n",
                plan.detectors().size(), suite_config.min_window,
                suite_config.max_window, suite_config.min_anomaly_size,
                suite_config.max_anomaly_size, plan.cell_count());

    TextTable table;
    table.header({"jobs", "wall s", "cells/s", "speedup vs jobs=1"});

    JsonWriter json;
    json.begin_object();
    json.key("schema").value("adiv-bench-engine-scaling/1");
    json.key("timestamp").value(now_iso8601());
    json.key("build_type").value(build_type_string());
    json.key("hardware_concurrency")
        .value(static_cast<std::uint64_t>(ThreadPool::default_jobs()));
    json.key("corpus_events")
        .value(static_cast<std::uint64_t>(corpus().training().size()));
    json.key("detectors").begin_array();
    for (const auto& detector : plan.detectors()) json.value(detector.name);
    json.end_array();
    json.key("cells").value(static_cast<std::uint64_t>(plan.cell_count()));
    json.key("runs").begin_array();

    double serial_wall = 0.0;
    for (const std::size_t jobs : job_counts) {
        EngineOptions options;
        options.jobs = jobs;
        const PlanRun run = run_plan(plan, options);
        if (jobs == 1) serial_wall = run.summary.wall_seconds;
        const double speedup = run.summary.wall_seconds > 0.0 && serial_wall > 0.0
                                   ? serial_wall / run.summary.wall_seconds
                                   : 0.0;
        table.add(jobs, fixed(run.summary.wall_seconds, 2),
                  fixed(run.summary.cells_per_second, 1), fixed(speedup, 2));
        json.begin_object();
        json.key("jobs").value(static_cast<std::uint64_t>(jobs));
        json.key("wall_seconds").value(run.summary.wall_seconds);
        json.key("cells_per_second").value(run.summary.cells_per_second);
        json.key("speedup_vs_1").value(speedup);
        json.end_object();
    }
    json.end_array();
    json.end_object();

    std::printf("%s", table.render().c_str());
    std::ofstream out(path);
    if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    out << json.str() << '\n';
    std::printf("\nsnapshot written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    write_observability_snapshot("BENCH_observability.json");
    write_engine_scaling_snapshot("BENCH_engine_scaling.json");
    return 0;
}
