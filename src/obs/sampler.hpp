// TelemetrySampler: periodic registry snapshots as a JSON-lines time series.
//
// A background thread wakes on a fixed interval, snapshots a MetricsRegistry,
// and writes one `metrics_sample` JSON line per tick to a TraceSink-shaped
// destination (its own file, stderr, or a shared trace stream):
//
//   {"type":"metrics_sample","seq":0,"timestamp":"2026-08-07T12:00:00Z",
//    "counters":{"serve.events_pushed":{"total":512,"delta":512}}, ...}
//
// Counters carry both the cumulative total and the delta since the previous
// sample, so consumers get rates without re-deriving them; sketches carry
// the digest (count/mean/p50/p95/p99/max) plus the count delta. stop() (and
// the destructor) takes one final sample before joining, so a short run
// still ends with a flushed, complete series.
//
// Timestamps come from an injectable ManifestClock — tests pin the clock and
// drive ticks through sample_once(), making the emitted lines byte-exact;
// the background thread is only a scheduler around the same method.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace adiv {

struct TelemetrySamplerConfig {
    /// Tick period for the background thread (start()/stop() lifecycle).
    std::chrono::milliseconds interval{1000};
    /// Timestamp source; nullptr = the process manifest clock (wall time
    /// unless a test pinned it via set_manifest_clock()).
    ManifestClock clock = nullptr;
};

class TelemetrySampler {
public:
    /// The registry and sink must outlive the sampler.
    TelemetrySampler(MetricsRegistry& registry, std::shared_ptr<TraceSink> sink,
                     TelemetrySamplerConfig config = {});

    TelemetrySampler(const TelemetrySampler&) = delete;
    TelemetrySampler& operator=(const TelemetrySampler&) = delete;

    /// Calls stop().
    ~TelemetrySampler();

    /// Launches the background thread; no-op when already running.
    void start();

    /// Takes a final sample, flushes the sink, joins the thread. Idempotent.
    void stop();

    /// Takes one snapshot and writes one line (the thread's tick body;
    /// public so tests drive deterministic series without timing).
    void sample_once();

    [[nodiscard]] std::uint64_t samples_written() const noexcept;

    /// The JSON line for one tick — exposed for tests that pin the format.
    [[nodiscard]] std::string render_sample_line(
        const MetricsRegistry::Snapshot& snap);

private:
    void run();
    [[nodiscard]] std::string timestamp() const;

    MetricsRegistry* registry_;
    std::shared_ptr<TraceSink> sink_;
    TelemetrySamplerConfig config_;

    std::mutex mutex_;  // guards the delta baselines and seq against
                        // stop()-vs-tick races on the final sample
    std::map<std::string, std::uint64_t> counter_baseline_;
    std::map<std::string, std::uint64_t> sketch_baseline_;
    std::uint64_t seq_ = 0;

    // stop() ordering: stop_mutex_ is held across the whole shutdown —
    // signal, join, final sample, flush — and stopped_ flips only at the
    // end. A concurrent stop() (e.g. the destructor racing an explicit
    // stop() from a draining server) therefore blocks until the final
    // sample is *written*, not merely scheduled; no caller can return from
    // stop() and then mutate the registry ahead of the shutdown snapshot.
    std::mutex stop_mutex_;
    std::mutex wake_mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
    bool stopped_ = false;
    std::thread thread_;
};

}  // namespace adiv
