// The maps workload: regenerates Figs. 3-6 in-process, the four paper
// detectors over the paper corpus and the full AS 2..9 x DW 2..15 suite,
// through run_plan at four jobs. Training dominates; no serve code runs.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>

#include "anomaly/suite.hpp"
#include "datagen/corpus.hpp"
#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kJobs = 4;
constexpr int kSetupRepeats = 5;

/// The paper's shapes (Figs. 3-6): Stide is capable exactly where DW >= AS,
/// Markov and the neural net on every cell, Lane & Brodley on none.
bool paper_shape(const std::string& detector, std::size_t as, std::size_t dw,
                 bool capable) {
    if (detector == "stide") return capable == (dw >= as);
    if (detector == "lane-brodley") return !capable;
    return capable;
}

/// The scoring time of every cell of one plan, collected from the engine's
/// worker threads.
struct CellTimes {
    std::mutex mutex;
    std::vector<double> seconds;  // guarded by mutex
};

/// Times each score() call of a detector: one call scores one map cell's
/// test stream with its column's trained model.
class CellTimer final : public adiv::SequenceDetector {
public:
    CellTimer(std::unique_ptr<adiv::SequenceDetector> inner, CellTimes& times)
        : inner_(std::move(inner)), times_(times) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    void train(const adiv::EventStream& training) override { inner_->train(training); }
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }
    [[nodiscard]] std::vector<double> score(const adiv::EventStream& test) const override {
        const Clock::time_point start = Clock::now();
        std::vector<double> responses = inner_->score(test);
        const double seconds = seconds_between(start, Clock::now());
        const std::lock_guard<std::mutex> lock(times_.mutex);
        times_.seconds.push_back(seconds);
        return responses;
    }
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

private:
    std::unique_ptr<adiv::SequenceDetector> inner_;
    CellTimes& times_;
};

struct PlanSample {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> cell_s;  // each cell's scoring time
    std::vector<adiv::PerformanceMap> maps;
};

PlanSample run_plan_once(const adiv::EvaluationSuite& suite, bool traced) {
    CellTimes cells;
    adiv::ExperimentPlan plan(suite);
    for (const adiv::DetectorKind kind : adiv::paper_detectors()) {
        plan.add_detector(adiv::to_string(kind), [kind, traced, &cells](std::size_t dw) {
            std::unique_ptr<adiv::SequenceDetector> model = adiv::make_detector(kind, dw);
            if (traced) model = std::make_unique<TimedDetector>(std::move(model));
            return std::unique_ptr<adiv::SequenceDetector>(
                std::make_unique<CellTimer>(std::move(model), cells));
        });
    }
    PlanSample sample;
    cells.seconds.reserve(plan.cell_count());
    adiv::EngineOptions options;
    options.jobs = kJobs;
    const Clock::time_point start = Clock::now();
    const double cpu_before = self_cpu_seconds();
    adiv::PlanRun run = adiv::run_plan(plan, options);
    sample.wall_s = seconds_between(start, Clock::now());
    sample.cpu_s = self_cpu_seconds() - cpu_before;
    sample.maps = std::move(run.maps);
    // run_plan has joined its workers and released every model.
    sample.cell_s = std::move(cells.seconds);
    return sample;
}

/// Events one plan pushes through detectors: every column trains on the
/// corpus, every cell scores its test stream.
double plan_events(const adiv::EvaluationSuite& suite) {
    const auto detectors = static_cast<double>(adiv::paper_detectors().size());
    double events = detectors * static_cast<double>(suite.window_lengths().size()) *
                    static_cast<double>(suite.corpus().training().size());
    for (const auto& entry : suite.entries())
        events += detectors * static_cast<double>(entry.stream.stream.size());
    return events;
}

/// Every cell must show the paper's shape and equal the reference plan's
/// cell bit for bit (maps do not depend on scheduling).
void check_maps(const PlanSample& sample, const PlanSample& reference, Result& result) {
    for (std::size_t d = 0; d < sample.maps.size(); ++d) {
        const adiv::PerformanceMap& map = sample.maps[d];
        std::uint64_t bad = 0;
        for (const std::size_t as : map.anomaly_sizes())
            for (const std::size_t dw : map.window_lengths()) {
                const adiv::SpanScore& cell = map.at(as, dw);
                const adiv::SpanScore& ref = reference.maps[d].at(as, dw);
                const bool capable = cell.outcome == adiv::DetectionOutcome::Capable;
                if (!paper_shape(map.detector_name(), as, dw, capable) ||
                    cell.outcome != ref.outcome || cell.max_response != ref.max_response)
                    ++bad;
            }
        result.check_many(map.cell_count(), bad,
                          map.detector_name() + " map differs from the paper's shape");
    }
}

struct Summary {
    double maps_s, p50_ms, capacity_eps, cpu_us_per_event;
};

Summary summarize(const std::vector<PlanSample>& samples, double events) {
    // A plan keeps every core busy, and other tenants of the shared host
    // stretch single plans by half or more, wall and CPU time alike: the
    // plan-wide figures come from the run's least disturbed plan. Cells are
    // short and many, so their median pools every plan's cells.
    double wall = std::numeric_limits<double>::infinity();
    double cpu = std::numeric_limits<double>::infinity();
    std::vector<double> cells;
    for (const PlanSample& s : samples) {
        wall = std::min(wall, s.wall_s);
        cpu = std::min(cpu, s.cpu_s);
        cells.insert(cells.end(), s.cell_s.begin(), s.cell_s.end());
    }
    return {wall, median(cells) * 1e3, events / wall, cpu / events * 1e6};
}

}  // namespace

Result run_maps(const Options& options) {
    Result result;
    // The paper corpus itself, whatever --seed says: the shapes checked below
    // are the paper's claims about this corpus. On other corpora the neural
    // net can miss a cell (corpus seed 9 leaves one weak), which would fail
    // a correct program.
    const adiv::CorpusSpec spec;

    // Set-up: the paper corpus and the 112-stream suite, built five times.
    std::vector<double> setup_s, corpus_s, suite_s;
    std::unique_ptr<adiv::EvaluationSuite> suite;
    std::unique_ptr<adiv::TrainingCorpus> corpus;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        suite.reset();
        corpus.reset();
        const Clock::time_point start = Clock::now();
        corpus = std::make_unique<adiv::TrainingCorpus>(adiv::TrainingCorpus::generate(spec));
        const Clock::time_point generated = Clock::now();
        suite = std::make_unique<adiv::EvaluationSuite>(adiv::EvaluationSuite::build(*corpus));
        const Clock::time_point built = Clock::now();
        setup_s.push_back(seconds_between(start, built));
        corpus_s.push_back(seconds_between(start, generated));
        suite_s.push_back(seconds_between(generated, built));
    }
    const double events = plan_events(*suite);
    std::printf("maps: paper corpus (seed %llu), %zu events, %zu test streams, "
                "%.0f events per plan\n",
                static_cast<unsigned long long>(spec.seed), corpus->training().size(),
                suite->entry_count(), events);

    // A warm-up plan, which is also every later plan's reference.
    const PlanSample reference = run_plan_once(*suite, false);
    check_maps(reference, reference, result);

    // Plans until the run's time is up; a traced run alternates plain and
    // traced plans so the two compare under the same conditions.
    if (options.trace) recorder().set_phase("maps.traced");
    std::vector<PlanSample> plain, traced;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    const std::size_t min_plans = options.trace ? 2 : 3;
    while (Clock::now() < deadline || plain.size() < min_plans ||
           (options.trace && traced.size() < min_plans)) {
        const bool trace_this = options.trace && traced.size() < plain.size();
        PlanSample sample = run_plan_once(*suite, trace_this);
        check_maps(sample, reference, result);
        std::printf("plan %zu%s: %.3f s wall, %.3f s cpu, median cell scored in %.4f ms\n",
                    plain.size() + traced.size() + 1, trace_this ? " (traced)" : "",
                    sample.wall_s, sample.cpu_s, median(sample.cell_s) * 1e3);
        (trace_this ? traced : plain).push_back(std::move(sample));
    }
    for (const adiv::PerformanceMap& map : reference.maps)
        std::printf("map %-12s capable %3zu  weak %3zu  blind %3zu of %zu cells\n",
                    map.detector_name().c_str(), map.count(adiv::DetectionOutcome::Capable),
                    map.count(adiv::DetectionOutcome::Weak),
                    map.count(adiv::DetectionOutcome::Blind), map.cell_count());

    // A traced run reports its own plans' end-to-end numbers.
    const Summary summary = summarize(options.trace ? traced : plain, events);
    result.end_to_end["setup_s"] = median(setup_s);
    result.end_to_end["maps_s"] = summary.maps_s;
    result.end_to_end["p50_ms"] = summary.p50_ms;
    result.end_to_end["capacity_eps"] = summary.capacity_eps;
    result.end_to_end["server_cpu_us_per_event"] = summary.cpu_us_per_event;
    result.end_to_end["peak_rss_mb"] = proc_status_field(0, "VmHWM") / 1024.0;
    if (!options.trace) return result;

    const Summary untraced = summarize(plain, events);
    auto& layer = result.per_layer;
    layer["datagen.corpus_s"] = median(corpus_s);
    layer["anomaly.suite_s"] = median(suite_s);
    const auto self = recorder().self_times("maps.traced");
    const auto plans = static_cast<double>(traced.size());
    double traced_wall_s = 0.0;
    for (const PlanSample& sample : traced) traced_wall_s += sample.wall_s;
    double busy_ns = 0.0;
    for (const adiv::DetectorKind kind : adiv::paper_detectors()) {
        const std::string name = adiv::to_string(kind);
        const auto train = self.find("detect.train." + name);
        const auto score = self.find("detect.score." + name);
        if (train == self.end() || score == self.end()) continue;
        layer["detect.train_s." + name] = train->second.self_ns / plans * 1e-9;
        layer["detect.score_ns_per_event." + name] =
            score->second.self_ns / static_cast<double>(std::max<std::uint64_t>(score->second.events, 1));
        busy_ns += train->second.total_ns + score->second.total_ns;
    }
    layer["engine.busy_s"] = busy_ns / plans * 1e-9;
    layer["engine.efficiency"] = busy_ns * 1e-9 / (static_cast<double>(kJobs) * traced_wall_s);
    layer["trace.overhead_pct"] = (summary.maps_s / untraced.maps_s - 1.0) * 100.0;
    std::printf("untraced plans: maps_s %.4f  p50_ms %.4f  capacity_eps %.0f\n",
                untraced.maps_s, untraced.p50_ms, untraced.capacity_eps);
    return result;
}

}  // namespace perfbench
