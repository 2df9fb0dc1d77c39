#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace adiv {

namespace {

// Tracked magnitude range: 1e-3 .. 1e9. The serve path records microsecond
// latencies, so this spans sub-nanosecond to ~17 minutes; anything outside
// lands in the underflow / overflow buckets and is reported via the exact
// observed min / max.
constexpr double kMinTracked = 1e-3;
constexpr double kMaxTracked = 1e9;

// The sum's fixed tick: 1e-3 of the recorded unit (a nanosecond for the
// microsecond latencies). A value is rounded to the nearest tick once, at
// record time; from then on every addition is exact integer arithmetic.
constexpr double kTicksPerUnit = 1e3;

std::int64_t to_ticks(double value) noexcept {
    // 2^53 ticks: the largest magnitude a double still holds to the tick.
    // NaN contributes nothing.
    constexpr double kMaxTicks = 9007199254740992.0;
    const double ticks = value * kTicksPerUnit;
    if (std::isnan(ticks)) return 0;
    return std::llround(std::clamp(ticks, -kMaxTicks, kMaxTicks));
}

void atomic_fetch_min(std::atomic<double>& target, double value) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

void atomic_fetch_max(std::atomic<double>& target, double value) noexcept {
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

}  // namespace

double QuantileSketch::min_tracked() noexcept { return kMinTracked; }
double QuantileSketch::max_tracked() noexcept { return kMaxTracked; }

QuantileSketch::QuantileSketch(double relative_error) : alpha_(relative_error) {
    require(alpha_ > 0.0 && alpha_ < 0.5,
            "sketch relative error must be in (0, 0.5)");
    log_gamma_ = std::log((1.0 + alpha_) / (1.0 - alpha_));
    const auto log_buckets = static_cast<std::size_t>(
        std::ceil(std::log(kMaxTracked / kMinTracked) / log_gamma_));
    buckets_ = std::vector<std::atomic<std::uint64_t>>(log_buckets + 2);
}

QuantileSketch::QuantileSketch(const QuantileSketch& other)
    : alpha_(other.alpha_),
      log_gamma_(other.log_gamma_),
      buckets_(other.buckets_.size()) {
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i].store(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    count_.store(other.count_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    sum_ticks_.store(other.sum_ticks_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    min_.store(other.min_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    max_.store(other.max_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(other.exemplar_mutex_);
    exemplar_value_ = other.exemplar_value_;
    exemplar_trace_ = other.exemplar_trace_;
    exemplar_span_ = other.exemplar_span_;
}

std::size_t QuantileSketch::bucket_of(double value) const noexcept {
    if (!(value > kMinTracked)) return 0;  // NaN lands here too
    if (value > kMaxTracked) return buckets_.size() - 1;
    // Log bucket i (1-based) covers (min * gamma^(i-1), min * gamma^i].
    const auto index = static_cast<std::size_t>(
        std::ceil(std::log(value / kMinTracked) / log_gamma_));
    return std::min(std::max<std::size_t>(index, 1), buckets_.size() - 2);
}

double QuantileSketch::estimate_of(std::size_t bucket) const noexcept {
    if (bucket == 0) return min_.load(std::memory_order_relaxed);
    if (bucket == buckets_.size() - 1)
        return max_.load(std::memory_order_relaxed);
    // The DDSketch midpoint 2 * gamma^i * m / (gamma + 1): for any x in the
    // bucket, estimate / x lies in [1 - alpha, 1 + alpha].
    const double gamma = (1.0 + alpha_) / (1.0 - alpha_);
    const double upper =
        kMinTracked * std::exp(log_gamma_ * static_cast<double>(bucket));
    return 2.0 * upper / (gamma + 1.0);
}

void QuantileSketch::record(double value) noexcept {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    sum_ticks_.fetch_add(to_ticks(value), std::memory_order_relaxed);
    if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
        min_.store(value, std::memory_order_relaxed);
        max_.store(value, std::memory_order_relaxed);
    }
    atomic_fetch_min(min_, value);
    atomic_fetch_max(max_, value);
}

void QuantileSketch::record(double value, std::uint64_t trace_id,
                            std::uint64_t span_id) noexcept {
    record(value);
    if (trace_id != 0) offer_exemplar(value, trace_id, span_id);
}

void QuantileSketch::offer_exemplar(double value, std::uint64_t trace_id,
                                    std::uint64_t span_id) noexcept {
    // The lock is cold: an exemplar only changes when a new maximum traced
    // value arrives, O(log n) times over a random stream. The tie-break on
    // the full (value, trace, span) tuple keeps merging associative.
    const std::lock_guard<std::mutex> lock(exemplar_mutex_);
    const bool wins =
        exemplar_trace_ == 0 || value > exemplar_value_ ||
        (value == exemplar_value_ &&
         (trace_id > exemplar_trace_ ||
          (trace_id == exemplar_trace_ && span_id > exemplar_span_)));
    if (!wins) return;
    exemplar_value_ = value;
    exemplar_trace_ = trace_id;
    exemplar_span_ = span_id;
}

void QuantileSketch::merge_from(const QuantileSketch& other) noexcept {
    if (other.count() == 0) return;
    const bool was_empty = count() == 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
        if (n != 0) buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_ticks_.fetch_add(other.sum_ticks_.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    const double other_min = other.min_.load(std::memory_order_relaxed);
    const double other_max = other.max_.load(std::memory_order_relaxed);
    if (was_empty) {
        min_.store(other_min, std::memory_order_relaxed);
        max_.store(other_max, std::memory_order_relaxed);
    } else {
        atomic_fetch_min(min_, other_min);
        atomic_fetch_max(max_, other_max);
    }
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    double value = 0.0;
    {
        const std::lock_guard<std::mutex> lock(other.exemplar_mutex_);
        trace = other.exemplar_trace_;
        span = other.exemplar_span_;
        value = other.exemplar_value_;
    }
    if (trace != 0) offer_exemplar(value, trace, span);
}

double QuantileSketch::quantile(double q) const noexcept {
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    const double min = min_.load(std::memory_order_relaxed);
    const double max = max_.load(std::memory_order_relaxed);
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const auto in_bucket =
            static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
        if (in_bucket == 0.0) continue;
        cumulative += in_bucket;
        if (cumulative >= rank)
            return std::clamp(estimate_of(i), min, max);
    }
    return max;  // q == 1 or counter races mid-snapshot
}

SketchSummary QuantileSketch::summary() const {
    SketchSummary s;
    s.count = count();
    if (s.count == 0) return s;
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    s.sum = static_cast<double>(sum_ticks_.load(std::memory_order_relaxed)) /
            kTicksPerUnit;
    s.mean = s.sum / static_cast<double>(s.count);
    s.p50 = quantile(0.50);
    s.p95 = quantile(0.95);
    s.p99 = quantile(0.99);
    {
        const std::lock_guard<std::mutex> lock(exemplar_mutex_);
        s.exemplar_trace = exemplar_trace_;
        s.exemplar_span = exemplar_span_;
        s.exemplar_value = exemplar_value_;
    }
    return s;
}

void QuantileSketch::reset() noexcept {
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_ticks_.store(0, std::memory_order_relaxed);
    min_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(exemplar_mutex_);
    exemplar_value_ = 0.0;
    exemplar_trace_ = 0;
    exemplar_span_ = 0;
}

}  // namespace adiv
