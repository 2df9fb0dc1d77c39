// QuantileSketch: the documented relative-error bound against exact offline
// quantiles, bit-identical determinism across recording orders, merge
// associativity down to the exposition string, exemplar selection, and the
// registry instrument under concurrent recorders.
#include "obs/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/openmetrics.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

/// Exact nearest-rank quantile over a copy — the offline reference the
/// sketch's estimates are bounded against.
double exact_quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/// A reproducible latency-like sample: log-uniform over [1, 1e6) us.
std::vector<double> log_uniform_sample(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        values.push_back(std::pow(10.0, 6.0 * rng.uniform()));
    return values;
}

TEST(QuantileSketch, EmptySummaryIsAllZeros) {
    const QuantileSketch sketch;
    const SketchSummary s = sketch.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.sum, 0.0);
    EXPECT_EQ(s.p50, 0.0);
    EXPECT_EQ(s.p99, 0.0);
    EXPECT_FALSE(s.has_exemplar());
}

TEST(QuantileSketch, SingleValueCollapsesEveryQuantile) {
    QuantileSketch sketch;
    sketch.record(42.0);
    const SketchSummary s = sketch.summary();
    EXPECT_EQ(s.count, 1u);
    EXPECT_EQ(s.min, 42.0);
    EXPECT_EQ(s.max, 42.0);
    // Quantiles are clamped to [min, max], so one sample reports exactly.
    EXPECT_EQ(s.p50, 42.0);
    EXPECT_EQ(s.p99, 42.0);
}

TEST(QuantileSketch, QuantilesHonorTheDocumentedErrorBound) {
    const std::vector<double> values = log_uniform_sample(20'000, 97);
    QuantileSketch sketch;
    for (const double v : values) sketch.record(v);
    const double alpha = sketch.relative_error();
    for (const double q : {0.5, 0.95, 0.99}) {
        const double exact = exact_quantile(values, q);
        const double estimate = sketch.quantile(q);
        // The estimate must sit within alpha (relative) of the exact
        // nearest-rank quantile — the bound the file comment documents.
        EXPECT_NEAR(estimate, exact, exact * alpha)
            << "q=" << q << " exact=" << exact << " estimate=" << estimate;
    }
    const SketchSummary s = sketch.summary();
    double exact_sum = 0.0;
    for (const double v : values) exact_sum += v;
    EXPECT_NEAR(s.sum, exact_sum, exact_sum * alpha);
    EXPECT_EQ(s.count, values.size());
}

TEST(QuantileSketch, SummaryIsDeterministicAcrossRecordingOrders) {
    std::vector<double> values = log_uniform_sample(5'000, 11);
    QuantileSketch forward;
    for (const double v : values) forward.record(v);
    QuantileSketch backward;
    for (auto it = values.rbegin(); it != values.rend(); ++it)
        backward.record(*it);
    const SketchSummary a = forward.summary();
    const SketchSummary b = backward.summary();
    // Bit-identical, not approximately equal: the digest is a pure function
    // of the recorded multiset.
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
}

TEST(QuantileSketch, MergeIsAssociativeDownToTheSummaryBits) {
    const std::vector<double> a_values = log_uniform_sample(3'000, 1);
    const std::vector<double> b_values = log_uniform_sample(4'000, 2);
    const std::vector<double> c_values = log_uniform_sample(5'000, 3);
    QuantileSketch a, b, c;
    for (const double v : a_values) a.record(v, 0xaaULL, 0x1ULL);
    for (const double v : b_values) b.record(v, 0xbbULL, 0x2ULL);
    for (const double v : c_values) c.record(v, 0xccULL, 0x3ULL);

    // (a + b) + c
    QuantileSketch left(a);
    left.merge_from(b);
    left.merge_from(c);
    // a + (b + c), built by merging into c in reverse order
    QuantileSketch right(c);
    right.merge_from(b);
    right.merge_from(a);

    const SketchSummary l = left.summary();
    const SketchSummary r = right.summary();
    EXPECT_EQ(l.count, r.count);
    EXPECT_EQ(l.sum, r.sum);  // reconstructed from buckets: order-free
    EXPECT_EQ(l.p50, r.p50);
    EXPECT_EQ(l.p95, r.p95);
    EXPECT_EQ(l.p99, r.p99);
    EXPECT_EQ(l.min, r.min);
    EXPECT_EQ(l.max, r.max);
    // The exemplar follows the lexicographic (value, trace, span) maximum,
    // so both merge orders elect the same one.
    EXPECT_EQ(l.exemplar_trace, r.exemplar_trace);
    EXPECT_EQ(l.exemplar_span, r.exemplar_span);
    EXPECT_EQ(l.exemplar_value, r.exemplar_value);
}

TEST(QuantileSketch, ExemplarTracksTheLargestTracedObservation) {
    QuantileSketch sketch;
    sketch.record(10.0, 0x1111ULL, 0xaULL);
    sketch.record(99.0, 0x2222ULL, 0xbULL);
    sketch.record(50.0, 0x3333ULL, 0xcULL);
    const SketchSummary s = sketch.summary();
    ASSERT_TRUE(s.has_exemplar());
    EXPECT_EQ(s.exemplar_trace, 0x2222ULL);
    EXPECT_EQ(s.exemplar_span, 0xbULL);
    EXPECT_EQ(s.exemplar_value, 99.0);
}

TEST(QuantileSketch, UntracedObservationsLeaveNoExemplar) {
    QuantileSketch sketch;
    sketch.record(10.0);
    sketch.record(99.0, /*trace_id=*/0, /*span_id=*/7);  // 0 = no context
    EXPECT_FALSE(sketch.summary().has_exemplar());
}

TEST(QuantileSketch, ExemplarTiesBreakLexicographically) {
    QuantileSketch a, b;
    // Same value from two contexts, recorded in opposite orders: both
    // sketches must elect the lexicographically larger (trace, span).
    a.record(5.0, 0x1ULL, 0x9ULL);
    a.record(5.0, 0x2ULL, 0x4ULL);
    b.record(5.0, 0x2ULL, 0x4ULL);
    b.record(5.0, 0x1ULL, 0x9ULL);
    EXPECT_EQ(a.summary().exemplar_trace, 0x2ULL);
    EXPECT_EQ(b.summary().exemplar_trace, 0x2ULL);
}

TEST(QuantileSketch, NonPositiveAndHugeValuesLandInEdgeBuckets) {
    QuantileSketch sketch;
    sketch.record(0.0);
    sketch.record(-3.0);
    sketch.record(1e12);  // beyond max_tracked()
    const SketchSummary s = sketch.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.max, 1e12);          // max is tracked exactly
    EXPECT_LE(sketch.quantile(0.0), QuantileSketch::min_tracked());
}

TEST(QuantileSketch, ResetClearsCountsAndExemplar) {
    QuantileSketch sketch;
    sketch.record(7.0, 0x77ULL, 0x7ULL);
    sketch.reset();
    const SketchSummary s = sketch.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_FALSE(s.has_exemplar());
    EXPECT_EQ(sketch.quantile(0.99), 0.0);
}

TEST(SketchInstrument, ConcurrentRecordersMatchOneSerialSketch) {
    // Four threads record interleaved quarters of one sample into one
    // registry sketch; its digest must equal a serial sketch's.
    MetricsRegistry registry;
    Sketch& shared = registry.sketch("serve.stage.total_us");
    QuantileSketch reference;
    const std::vector<double> values = log_uniform_sample(4'000, 5);
    for (const double value : values) reference.record(value);
    std::vector<std::thread> recorders;
    for (std::size_t t = 0; t < 4; ++t)
        recorders.emplace_back([&, t] {
            for (std::size_t i = t; i < values.size(); i += 4)
                shared.record(values[i]);
        });
    for (std::thread& recorder : recorders) recorder.join();
    const SketchSummary concurrent = shared.summary();
    const SketchSummary serial = reference.summary();
    EXPECT_EQ(concurrent.count, serial.count);
    EXPECT_EQ(concurrent.sum, serial.sum);
    EXPECT_EQ(concurrent.min, serial.min);
    EXPECT_EQ(concurrent.max, serial.max);
    EXPECT_EQ(concurrent.p50, serial.p50);
    EXPECT_EQ(concurrent.p99, serial.p99);
}

TEST(SketchInstrument, TracksExactSumMinMax) {
    // The sum is kept in integer ticks, not rebuilt from bucket estimates:
    // it is exact for values on the 1e-3 grid, out-of-range values included.
    Sketch sketch;
    sketch.record(5.0);
    sketch.record(50.0);
    sketch.record(2e9);  // beyond max_tracked()
    const SketchSummary s = sketch.summary();
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.sum, 2000000055.0);
    EXPECT_EQ(s.mean, 2000000055.0 / 3.0);
    EXPECT_EQ(s.min, 5.0);
    EXPECT_EQ(s.max, 2e9);
}

TEST(SketchInstrument, RegistrySnapshotCarriesTheSketch) {
    MetricsRegistry registry;
    Sketch& sketch = registry.sketch("serve.stage.probe_us");
    sketch.record(10.0, 0xfeedULL, 0xbeefULL);
    const MetricsRegistry::Snapshot snap = registry.snapshot();
    ASSERT_EQ(snap.sketches.size(), 1u);
    EXPECT_EQ(snap.sketches[0].first, "serve.stage.probe_us");
    EXPECT_EQ(snap.sketches[0].second.count, 1u);
    EXPECT_EQ(snap.sketches[0].second.exemplar_trace, 0xfeedULL);
    // find_sketch sees it; a registry reset clears it.
    EXPECT_NE(registry.find_sketch("serve.stage.probe_us"), nullptr);
    registry.reset();
    EXPECT_EQ(registry.sketch("serve.stage.probe_us").summary().count, 0u);
}

TEST(SketchInstrument, ShardMergeOrderCannotChangeTheExposition) {
    // Two registries record the same three shards' streams, but in
    // different interleavings; the rendered exposition must be
    // byte-identical.
    MetricsRegistry first, second;
    Sketch& a = first.sketch("serve.stage.order_us");
    Sketch& b = second.sketch("serve.stage.order_us");
    const std::vector<double> values = log_uniform_sample(999, 8);
    for (const double value : values) a.record(value);
    for (std::size_t shard = 0; shard < 3; ++shard)
        for (std::size_t i = shard; i < values.size(); i += 3)
            b.record(values[i]);
    EXPECT_EQ(metrics_to_openmetrics(first), metrics_to_openmetrics(second));
}

}  // namespace
}  // namespace adiv
