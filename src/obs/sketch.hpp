// Mergeable streaming quantile sketch with trace-id exemplars.
//
// QuantileSketch is a DDSketch-style relative-error quantile estimator:
// values land in log-spaced buckets with growth factor
// gamma = (1 + alpha) / (1 - alpha), so any quantile estimate is within a
// relative error of alpha of some observed value (the documented bound the
// tests assert). The bucket layout is FIXED at construction — every sketch
// built with the same alpha has the same buckets — which buys the two
// properties the serve path needs and interpolated histograms cannot give:
//
//   * Deterministic: the summary is a pure function of the multiset of
//     recorded values. Two runs that record the same values report
//     bit-identical quantiles, whatever the thread interleaving.
//   * Mergeable: merge_from() is bucketwise integer addition, so merging
//     sketches recorded apart is exact, commutative, and associative —
//     merging in any order yields the identical exposition (pinned by tests).
//
// To keep merges associative down to the last bit, the reported `sum` (and
// `mean`) are accumulated as an integer count of fixed ticks (1e-3 of the
// recorded unit), not as a running double: integer addition is exact and
// order-free, so the sum is exact to the tick and bit-identical under any
// merge order, while a double sum would depend on addition order.
//
// Exemplars: record(value, trace, span) remembers the trace context of the
// largest observation (ties broken lexicographically on (value, trace,
// span), keeping merge associative). The OpenMetrics renderer attaches it
// to the p99 sample, so a scraped tail latency links straight to the spans
// that produced it in the trace file.
//
// Thread-safety: record() is lock-free on the bucket counters (relaxed
// atomics), so any number of threads may record into one sketch; the
// exemplar takes a tiny mutex only when a new maximum arrives, which happens
// O(log n) times per stream. The registry instrument (Sketch, below and
// obs/metrics.hpp) is one QuantileSketch.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

namespace adiv {

/// Point-in-time digest of a sketch: the one quantile digest every
/// renderer (table, JSON, OpenMetrics) reports.
struct SketchSummary {
    std::uint64_t count = 0;
    double sum = 0.0;   ///< exact to 1e-3 of the recorded unit
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Trace context of the largest recorded value; trace 0 = no exemplar.
    std::uint64_t exemplar_trace = 0;
    std::uint64_t exemplar_span = 0;
    double exemplar_value = 0.0;

    [[nodiscard]] bool has_exemplar() const noexcept {
        return exemplar_trace != 0;
    }
};

class QuantileSketch {
public:
    /// The default relative-error bound; ~1% keeps the bucket table at a
    /// few kilobytes while beating interpolated histogram tails by an order
    /// of magnitude.
    static constexpr double kDefaultRelativeError = 0.01;

    explicit QuantileSketch(double relative_error = kDefaultRelativeError);

    /// Snapshot copy (loads every counter; the source may keep recording).
    /// Assignment is deleted: a sketch's bucket layout is fixed at birth.
    QuantileSketch(const QuantileSketch& other);
    QuantileSketch& operator=(const QuantileSketch&) = delete;

    /// Records one value. Non-positive values land in the underflow bucket
    /// (reported as <= min_tracked()); values beyond max_tracked() land in
    /// the overflow bucket (reported as the observed max).
    void record(double value) noexcept;

    /// As record(), also offering the value's trace context as an exemplar
    /// (kept when the value is the new maximum). trace 0 = no context.
    void record(double value, std::uint64_t trace_id,
                std::uint64_t span_id) noexcept;

    /// Bucketwise merge; both sketches must share one relative_error (the
    /// bucket layout). Exact, commutative, and associative.
    void merge_from(const QuantileSketch& other) noexcept;

    /// Quantile estimate for q in [0, 1]; 0 when empty. Within
    /// relative_error() of an observed value, clamped to [min, max].
    [[nodiscard]] double quantile(double q) const noexcept;

    [[nodiscard]] SketchSummary summary() const;

    [[nodiscard]] std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] double relative_error() const noexcept { return alpha_; }

    /// Smallest / largest magnitudes resolved by the log buckets.
    [[nodiscard]] static double min_tracked() noexcept;
    [[nodiscard]] static double max_tracked() noexcept;

    void reset() noexcept;

private:
    [[nodiscard]] std::size_t bucket_of(double value) const noexcept;
    [[nodiscard]] double estimate_of(std::size_t bucket) const noexcept;
    void offer_exemplar(double value, std::uint64_t trace_id,
                        std::uint64_t span_id) noexcept;

    double alpha_;
    double log_gamma_;  // log((1 + alpha) / (1 - alpha))
    // Dense counters: [0] underflow (<= min_tracked), [1..B] log buckets,
    // [B+1] overflow (> max_tracked).
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::int64_t> sum_ticks_{0};  // sum in 1e-3 units
    std::atomic<double> min_{0.0};  // valid when count_ > 0
    std::atomic<double> max_{0.0};

    // Exemplar slot: the (value, trace, span) of the current maximum.
    // Guarded by a mutex because three fields must move together; the
    // atomic max_ above gates the lock so the steady state never takes it.
    mutable std::mutex exemplar_mutex_;
    double exemplar_value_ = 0.0;          // guarded by exemplar_mutex_
    std::uint64_t exemplar_trace_ = 0;     // guarded by exemplar_mutex_
    std::uint64_t exemplar_span_ = 0;      // guarded by exemplar_mutex_
};

/// The registry instrument (obs/metrics.hpp).
using Sketch = QuantileSketch;

}  // namespace adiv
