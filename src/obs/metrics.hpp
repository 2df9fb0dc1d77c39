// Metrics registry: named counters, gauges, and mergeable quantile
// sketches (obs/sketch.hpp) — the one quantile instrument.
//
// Instruments are lock-free on the hot path (relaxed atomics); the registry
// itself takes a mutex only on name lookup, so callers that care about
// per-event cost resolve their instruments once and keep the references —
// instrument addresses are stable for the registry's lifetime.
//
// A process-global registry (`global_metrics()`) lets any layer report
// without plumbing; tests and benchmarks inject a local registry instead to
// observe instrumentation in isolation.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sketch.hpp"

namespace adiv {

/// Monotonic event counter.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge (e.g. a rate or a fill level).
class Gauge {
public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { set(0.0); }

private:
    std::atomic<double> value_{0.0};
};

/// Named instrument store. Lookup creates on first use; references returned
/// stay valid for the registry's lifetime.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    /// Mergeable quantile sketch (obs/sketch.hpp); `relative_error` applies
    /// on first creation (later lookups ignore it).
    Sketch& sketch(const std::string& name,
                   double relative_error = QuantileSketch::kDefaultRelativeError);

    /// Lookup without creation; nullptr when the name is unknown.
    [[nodiscard]] const Counter* find_counter(const std::string& name) const;
    [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
    [[nodiscard]] const Sketch* find_sketch(const std::string& name) const;

    struct Snapshot {
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        std::vector<std::pair<std::string, double>> gauges;
        std::vector<std::pair<std::string, SketchSummary>> sketches;

        [[nodiscard]] bool empty() const noexcept {
            return counters.empty() && gauges.empty() && sketches.empty();
        }
    };

    /// Name-sorted point-in-time view of every instrument.
    [[nodiscard]] Snapshot snapshot() const;

    /// Zeroes every instrument. Handles held by callers stay valid.
    void reset();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Sketch>> sketches_;
};

/// The process-global registry every built-in instrumentation point uses by
/// default.
MetricsRegistry& global_metrics();

/// Human-readable dump: one util/table per instrument kind.
std::string render_metrics_table(const MetricsRegistry& registry);

/// Machine-readable dump: a single JSON object
/// {"counters":{...},"gauges":{...},
///  "sketches":{name:{count,..,p99,exemplar_trace,...},...}}; every block is
/// present, even when empty.
std::string metrics_to_json(const MetricsRegistry& registry);

}  // namespace adiv
