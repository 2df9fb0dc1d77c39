// Instrumentation agreement: the metrics an OnlineScorer reports to its
// registry must match both the scorer's own accessors and ground truth
// computed from the batch responses.
#include <gtest/gtest.h>

#include "anomaly/mfs_builder.hpp"
#include "anomaly/subsequence_oracle.hpp"
#include "core/online.hpp"
#include "detect/registry.hpp"
#include "obs/metrics.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv {
namespace {

TEST(OnlineScorerMetrics, RegistryAgreesWithAccessorsAndBatch) {
    auto d = make_detector(DetectorKind::Stide, 4);
    d->train(test::small_corpus().training());

    // A stream ending in a minimal foreign sequence, so the windows covering
    // it are guaranteed foreign to the training data and alarm.
    EventStream stream = test::small_corpus().background(512, 7);
    const SubsequenceOracle oracle(test::small_corpus().training());
    for (const Symbol s : MfsBuilder(oracle).build(2)) stream.push_back(s);
    const auto batch = d->score(stream);
    std::size_t batch_alarms = 0;
    for (const double r : batch)
        if (r >= kMaximalResponse) ++batch_alarms;
    ASSERT_GT(batch_alarms, 0u) << "fixture should trigger at least one alarm";
    ASSERT_LT(batch_alarms, batch.size()) << "fixture should not be all alarms";

    MetricsRegistry metrics;
    OnlineScorer scorer(*d, /*buffer_capacity=*/0, metrics);
    std::size_t online_windows = 0;
    for (std::size_t i = 0; i < stream.size(); ++i)
        if (scorer.push(stream[i])) ++online_windows;

    // Scorer accessors vs ground truth.
    EXPECT_EQ(scorer.events_consumed(), stream.size());
    EXPECT_EQ(scorer.windows_scored(), online_windows);
    EXPECT_EQ(scorer.windows_scored(), batch.size());
    EXPECT_EQ(scorer.alarms(), batch_alarms);
    EXPECT_DOUBLE_EQ(scorer.alarm_rate(), static_cast<double>(batch_alarms) /
                                              static_cast<double>(batch.size()));

    // Registry instruments vs scorer accessors.
    ASSERT_NE(metrics.find_counter("online.events_consumed"), nullptr);
    EXPECT_EQ(metrics.find_counter("online.events_consumed")->value(),
              scorer.events_consumed());
    ASSERT_NE(metrics.find_gauge("online.alarm_rate"), nullptr);
    EXPECT_DOUBLE_EQ(metrics.find_gauge("online.alarm_rate")->value(),
                     scorer.alarm_rate());
    // No per-push timer: the scorer reads no clock (the served per-PUSH
    // latency is serve.push_latency_us).
    EXPECT_EQ(metrics.find_sketch("online.push_latency_us"), nullptr);
}

TEST(OnlineScorerMetrics, AlarmRateZeroBeforeFirstWindow) {
    auto d = make_detector(DetectorKind::Stide, 4);
    d->train(test::small_corpus().training());
    MetricsRegistry metrics;
    OnlineScorer scorer(*d, 0, metrics);
    EXPECT_DOUBLE_EQ(scorer.alarm_rate(), 0.0);
    scorer.push(0);  // warmup: no window scored yet
    EXPECT_EQ(scorer.windows_scored(), 0u);
    EXPECT_DOUBLE_EQ(scorer.alarm_rate(), 0.0);
    EXPECT_EQ(metrics.find_counter("online.events_consumed")->value(), 1u);
}

TEST(OnlineScorerMetrics, RegistryCountsSurviveScorerReset) {
    // Scorer-local accessors reset; registry instruments are cumulative.
    auto d = make_detector(DetectorKind::Stide, 3);
    d->train(test::small_corpus().training());
    MetricsRegistry metrics;
    OnlineScorer scorer(*d, 0, metrics);
    for (const int s : {0, 1, 2, 3, 0}) scorer.push(static_cast<Symbol>(s));
    const std::uint64_t consumed_before =
        metrics.find_counter("online.events_consumed")->value();
    EXPECT_EQ(consumed_before, 5u);
    scorer.reset();
    EXPECT_EQ(scorer.events_consumed(), 0u);
    EXPECT_EQ(scorer.windows_scored(), 0u);
    EXPECT_EQ(scorer.alarms(), 0u);
    EXPECT_EQ(metrics.find_counter("online.events_consumed")->value(),
              consumed_before);
    scorer.push(1);
    EXPECT_EQ(metrics.find_counter("online.events_consumed")->value(),
              consumed_before + 1);
}

TEST(OnlineScorerMetrics, TwoScorersShareOneRegistry) {
    auto d = make_detector(DetectorKind::Stide, 3);
    d->train(test::small_corpus().training());
    MetricsRegistry metrics;
    OnlineScorer a(*d, 0, metrics);
    OnlineScorer b(*d, 0, metrics);
    a.push(0);
    a.push(1);
    b.push(2);
    EXPECT_EQ(a.events_consumed(), 2u);
    EXPECT_EQ(b.events_consumed(), 1u);
    EXPECT_EQ(metrics.find_counter("online.events_consumed")->value(), 3u);
}

}  // namespace
}  // namespace adiv
