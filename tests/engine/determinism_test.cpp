// The engine's core guarantee: parallel plan runs produce bit-identical maps
// to the serial path, for every detector kind, regardless of job count — and
// the same trace tree.
//
// The scheduler writes each cell into a pre-sized slot addressed by grid
// position, so assembly never depends on completion order; this test pins
// that property cell-by-cell (outcome, exact response, argmax position) for
// all eight detectors on a reduced grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "obs/trace.hpp"
#include "obs/traceview.hpp"
#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

/// Reduced grid over the shared small corpus: AS 2..5 x DW 2..6 keeps eight
/// detectors (including the HMM and the NN) affordable.
const EvaluationSuite& reduced_suite() {
    static const EvaluationSuite suite = [] {
        SuiteConfig config;
        config.min_anomaly_size = 2;
        config.max_anomaly_size = 5;
        config.min_window = 2;
        config.max_window = 6;
        config.background_length = 512;
        return EvaluationSuite::build(test::small_corpus(), config);
    }();
    return suite;
}

ExperimentPlan all_detector_plan() {
    DetectorSettings settings;
    settings.nn.epochs = 100;
    settings.hmm.iterations = 10;
    ExperimentPlan plan(reduced_suite());
    for (DetectorKind kind : all_detectors()) plan.add_detector(kind, settings);
    return plan;
}

PlanRun run_with_jobs(std::size_t jobs) {
    EngineOptions options;
    options.jobs = jobs;
    return run_plan(all_detector_plan(), options);
}

TEST(EngineDeterminism, ParallelMapsAreBitIdenticalToSerial) {
    const PlanRun serial = run_with_jobs(1);
    const PlanRun parallel = run_with_jobs(4);

    ASSERT_EQ(serial.maps.size(), all_detectors().size());
    ASSERT_EQ(parallel.maps.size(), serial.maps.size());
    for (std::size_t d = 0; d < serial.maps.size(); ++d) {
        const PerformanceMap& a = serial.maps[d];
        const PerformanceMap& b = parallel.maps[d];
        EXPECT_EQ(a.detector_name(), b.detector_name());
        for (std::size_t as : reduced_suite().anomaly_sizes()) {
            for (std::size_t dw : reduced_suite().window_lengths()) {
                const SpanScore& sa = a.at(as, dw);
                const SpanScore& sb = b.at(as, dw);
                EXPECT_EQ(sa.outcome, sb.outcome)
                    << a.detector_name() << " AS=" << as << " DW=" << dw;
                // Bit-identical, not approximately equal: the parallel path
                // must run the exact same computation on the exact same data.
                EXPECT_EQ(sa.max_response, sb.max_response)
                    << a.detector_name() << " AS=" << as << " DW=" << dw;
                EXPECT_EQ(sa.argmax_window, sb.argmax_window)
                    << a.detector_name() << " AS=" << as << " DW=" << dw;
            }
        }
    }
}

TEST(EngineDeterminism, SummaryCountsAreIndependentOfJobs) {
    const PlanRun serial = run_with_jobs(1);
    const PlanRun parallel = run_with_jobs(3);
    EXPECT_EQ(serial.summary.cell_count, parallel.summary.cell_count);
    EXPECT_EQ(serial.summary.detector_count, parallel.summary.detector_count);
    EXPECT_EQ(serial.summary.jobs, 1u);
    EXPECT_EQ(parallel.summary.jobs, 3u);
    EXPECT_GT(parallel.summary.wall_seconds, 0.0);
    EXPECT_GT(parallel.summary.cells_per_second, 0.0);
}

TEST(EngineDeterminism, ParallelErrorMatchesSerialError) {
    // A factory that fails for one window must surface the same error type
    // from any job count (canonical-index rethrow).
    const DetectorFactory broken = [](std::size_t dw) {
        return make_detector(DetectorKind::Stide, dw == 4 ? dw + 1 : dw);
    };
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ExperimentPlan plan(reduced_suite());
        plan.add_detector("broken", broken);
        EngineOptions options;
        options.jobs = jobs;
        EXPECT_THROW((void)run_plan(plan, options), InvalidArgument)
            << "jobs=" << jobs;
    }
}

TEST(EngineDeterminism, ParallelErrorMessageMatchesSerial) {
    // Two columns fail with different messages. Columns run widest window
    // first, so DW 5 is the one the serial loop meets first; it fails later,
    // so at jobs=4 DW 3's failure arrives first. Every job count must still
    // report DW 5's error, as the serial loop does.
    const DetectorFactory broken = [](std::size_t dw) {
        if (dw == 5) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw DataError("column DW=5 failed");
        }
        if (dw == 3) throw DataError("column DW=3 failed");
        return make_detector(DetectorKind::Stide, dw);
    };
    for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        ExperimentPlan plan(reduced_suite());
        plan.add_detector("broken", broken);
        EngineOptions options;
        options.jobs = jobs;
        try {
            (void)run_plan(plan, options);
            ADD_FAILURE() << "jobs=" << jobs << ": run_plan must throw";
        } catch (const DataError& e) {
            EXPECT_STREQ(e.what(), "column DW=5 failed") << "jobs=" << jobs;
        }
    }
}

/// Counts the live instances of the detectors it wraps.
class LiveCounted final : public SequenceDetector {
public:
    LiveCounted(std::unique_ptr<SequenceDetector> inner, std::atomic<int>& live,
                std::atomic<int>& peak)
        : inner_(std::move(inner)), live_(live) {
        const int now = live_.fetch_add(1) + 1;
        int seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
    }
    ~LiveCounted() override { live_.fetch_sub(1); }
    LiveCounted(const LiveCounted&) = delete;
    LiveCounted& operator=(const LiveCounted&) = delete;

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    void train(const EventStream& training) override { inner_->train(training); }
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override {
        return inner_->score(test);
    }
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

private:
    std::unique_ptr<SequenceDetector> inner_;
    std::atomic<int>& live_;
};

TEST(EngineScheduler, RunsWidestWindowsFirst) {
    // At jobs=1 the run order is the factory-call order: window lengths
    // descending, and plan order among the columns of one width.
    std::vector<std::pair<std::string, std::size_t>> calls;
    ExperimentPlan plan(reduced_suite());
    for (const char* name : {"first", "second"})
        plan.add_detector(name, [&calls, name](std::size_t dw) {
            calls.emplace_back(name, dw);
            return make_detector(DetectorKind::Stide, dw);
        });
    plan.with_window_lengths({2, 3, 5});
    (void)run_plan(plan, EngineOptions{});
    const std::vector<std::pair<std::string, std::size_t>> expected{
        {"first", 5}, {"second", 5}, {"first", 3},
        {"second", 3}, {"first", 2}, {"second", 2}};
    EXPECT_EQ(calls, expected);
}

TEST(EngineScheduler, AtMostJobsTrainedModelsAreAliveAtOnce) {
    // Each column's model lives only while its own task trains and scores
    // it, so the four paper detectors x DW 2..6 (20 columns) never hold
    // more than `jobs` models.
    constexpr std::size_t kJobs = 4;
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    DetectorSettings settings;
    settings.nn.epochs = 100;
    ExperimentPlan plan(reduced_suite());
    for (DetectorKind kind : paper_detectors())
        plan.add_detector(to_string(kind), [&, kind](std::size_t dw) {
            return std::unique_ptr<SequenceDetector>(std::make_unique<LiveCounted>(
                factory_for(kind, settings)(dw), live, peak));
        });
    EngineOptions options;
    options.jobs = kJobs;
    (void)run_plan(plan, options);
    EXPECT_EQ(live.load(), 0);
    EXPECT_GE(peak.load(), 1);
    EXPECT_LE(peak.load(), static_cast<int>(kJobs));
}

/// The traced (name, span id, parent id) rows of one stide + markov plan run
/// at `jobs` under a fixed installed context, sorted, plus the linked spans.
RequestAnalysis traced_plan(std::size_t jobs) {
    constexpr std::uint64_t kTrace = 0x5eedULL;
    std::ostringstream out;
    auto previous = set_global_trace_sink(std::make_shared<StreamTraceSink>(out));
    {
        const ScopedTraceContext scope(TraceContext{kTrace, 0x1ULL});
        ExperimentPlan plan(reduced_suite());
        plan.add_detector(DetectorKind::Stide);
        plan.add_detector(DetectorKind::Markov);
        EngineOptions options;
        options.jobs = jobs;
        (void)run_plan(plan, options);
    }
    set_global_trace_sink(std::move(previous));
    std::istringstream in(out.str());
    return analyze_request(in, hex16(kTrace));
}

TEST(EngineDeterminism, TraceTreeIsTheSameForEveryJobCount) {
    using Row = std::tuple<std::string, std::uint64_t, std::uint64_t>;
    const auto rows = [](const RequestAnalysis& analysis) {
        std::vector<Row> out;
        for (const SpanNode& node : analysis.spans)
            out.emplace_back(node.name, node.span, node.parent);
        std::sort(out.begin(), out.end());
        return out;
    };
    const RequestAnalysis serial = traced_plan(1);
    const RequestAnalysis parallel = traced_plan(4);
    ASSERT_FALSE(serial.spans.empty());
    EXPECT_EQ(rows(serial), rows(parallel));

    // Every experiment.* span, whichever worker ran it, chains up to the
    // plan's engine.plan span.
    for (const RequestAnalysis* analysis : {&serial, &parallel}) {
        std::map<std::uint64_t, const SpanNode*> by_id;
        for (const SpanNode& node : analysis->spans) by_id.emplace(node.span, &node);
        std::size_t experiment_spans = 0;
        for (const SpanNode& node : analysis->spans) {
            if (node.name.rfind("experiment.", 0) != 0) continue;
            ++experiment_spans;
            const SpanNode* up = &node;
            for (std::size_t hop = 0; up != nullptr && up->name != "engine.plan"; ++hop) {
                ASSERT_LT(hop, analysis->spans.size()) << "parent cycle";
                const auto it = by_id.find(up->parent);
                up = it == by_id.end() ? nullptr : it->second;
            }
            EXPECT_NE(up, nullptr) << node.name << " does not reach engine.plan";
        }
        // 2 detectors x 5 windows x (1 training + 4 cells), plus the cells'
        // experiment.score spans.
        EXPECT_GE(experiment_spans, 50u);
    }
}

}  // namespace
}  // namespace adiv
