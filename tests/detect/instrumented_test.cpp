#include "detect/instrumented.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "detect/registry.hpp"
#include "obs/trace.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv {
namespace {

TEST(InstrumentedDetector, ForwardsIdentityAndScores) {
    MetricsRegistry metrics;
    auto bare = make_detector(DetectorKind::Stide, 5);
    bare->train(test::small_corpus().training());
    const EventStream probe = test::small_corpus().background(256, 3);
    const auto expected = bare->score(probe);

    auto wrapped = instrument(make_detector(DetectorKind::Stide, 5), metrics);
    wrapped->train(test::small_corpus().training());
    EXPECT_EQ(wrapped->name(), "stide");
    EXPECT_EQ(wrapped->window_length(), 5u);
    EXPECT_EQ(wrapped->alphabet_size(), bare->alphabet_size());

    const auto actual = wrapped->score(probe);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < actual.size(); ++i)
        EXPECT_DOUBLE_EQ(actual[i], expected[i]) << "window " << i;
}

TEST(InstrumentedDetector, CountsTrainAndScoreTraffic) {
    MetricsRegistry metrics;
    auto d = instrument(make_detector(DetectorKind::Markov, 4), metrics);
    const EventStream& training = test::small_corpus().training();
    d->train(training);

    ASSERT_NE(metrics.find_counter("detect.train_calls"), nullptr);
    EXPECT_EQ(metrics.find_counter("detect.train_calls")->value(), 1u);
    EXPECT_EQ(metrics.find_counter("detect.train_events")->value(),
              training.size());
    EXPECT_EQ(metrics.find_sketch("detect.train_us")->summary().count, 1u);
    EXPECT_GT(metrics.find_sketch("detect.train_us")->summary().max, 0.0);

    const EventStream probe = test::small_corpus().background(128, 1);
    const auto r1 = d->score(probe);
    (void)d->score(probe);
    EXPECT_EQ(metrics.find_counter("detect.score_calls")->value(), 2u);
    EXPECT_EQ(metrics.find_counter("detect.score_windows")->value(),
              2 * r1.size());
    EXPECT_EQ(metrics.find_sketch("detect.score_us")->summary().count, 2u);
}

TEST(InstrumentedDetector, EmitsTrainAndScoreSpans) {
    std::ostringstream out;
    auto previous = set_global_trace_sink(std::make_shared<StreamTraceSink>(out));
    MetricsRegistry metrics;
    auto d = instrument(make_detector(DetectorKind::Stide, 4), metrics);
    d->train(test::small_corpus().training());
    (void)d->score(test::small_corpus().background(64, 2));
    set_global_trace_sink(std::move(previous));

    const std::string trace = out.str();
    EXPECT_NE(trace.find("\"name\":\"detect.train\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"detect.score\""), std::string::npos);
    EXPECT_NE(trace.find("\"detector\":\"stide\""), std::string::npos);
}

TEST(InstrumentedDetector, InnerAccessorExposesWrappedDetector) {
    MetricsRegistry metrics;
    auto d = std::make_unique<InstrumentedDetector>(
        make_detector(DetectorKind::Stide, 3), metrics);
    EXPECT_EQ(d->inner().name(), "stide");
    EXPECT_EQ(d->inner().window_length(), 3u);
}

}  // namespace
}  // namespace adiv
