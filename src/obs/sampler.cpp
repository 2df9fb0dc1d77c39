#include "obs/sampler.hpp"

#include <utility>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace adiv {

TelemetrySampler::TelemetrySampler(MetricsRegistry& registry,
                                   std::shared_ptr<TraceSink> sink,
                                   TelemetrySamplerConfig config)
    : registry_(&registry), sink_(std::move(sink)), config_(config) {
    require(sink_ != nullptr, "sampler needs a sink");
    require(config_.interval.count() > 0, "sampler interval must be positive");
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    // stopping_ covers the window where stop() has joined the thread but
    // not yet flipped stopped_: restarting there would leak an unjoined
    // thread behind the in-flight shutdown.
    if (thread_.joinable() || stopping_ || stopped_) return;
    thread_ = std::thread([this] { run(); });
}

void TelemetrySampler::stop() {
    // Serialize the whole shutdown (see stop_mutex_ in the header): the
    // final sample must be taken *after* the caller's quiesce point — e.g.
    // after Server::shutdown() drained its sessions — and a second stop()
    // caller must not return before that sample exists.
    const std::lock_guard<std::mutex> stop_lock(stop_mutex_);
    {
        const std::lock_guard<std::mutex> lock(wake_mutex_);
        if (stopped_) return;
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
    // The shutdown flush: whatever accumulated since the last tick still
    // reaches the series, even if the sampler never got a full interval.
    sample_once();
    sink_->flush();
    const std::lock_guard<std::mutex> lock(wake_mutex_);
    stopped_ = true;
}

void TelemetrySampler::run() {
    std::unique_lock<std::mutex> lock(wake_mutex_);
    for (;;) {
        if (wake_.wait_for(lock, config_.interval, [this] { return stopping_; }))
            return;  // stop() takes the final sample after the join
        lock.unlock();
        sample_once();
        lock.lock();
    }
}

void TelemetrySampler::sample_once() {
    const MetricsRegistry::Snapshot snap = registry_->snapshot();
    const std::string line = render_sample_line(snap);
    if (sink_->enabled()) sink_->write_line(line);
}

std::uint64_t TelemetrySampler::samples_written() const noexcept {
    // seq_ is only advanced under mutex_, but a relaxed read suffices for
    // reporting; callers wanting an exact figure call after stop().
    return seq_;
}

std::string TelemetrySampler::timestamp() const {
    return config_.clock ? iso8601_utc(config_.clock()) : now_iso8601();
}

std::string TelemetrySampler::render_sample_line(
    const MetricsRegistry::Snapshot& snap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter w;
    w.begin_object();
    w.key("type").value("metrics_sample");
    w.key("seq").value(seq_++);
    w.key("timestamp").value(timestamp());
    w.key("counters").begin_object();
    for (const auto& [name, total] : snap.counters) {
        std::uint64_t& baseline = counter_baseline_[name];
        // Counters are monotone, but a registry reset() between ticks moves
        // them backwards; report the restart as a zero delta, not underflow.
        const std::uint64_t delta = total >= baseline ? total - baseline : 0;
        baseline = total;
        w.key(name).begin_object();
        w.key("total").value(total);
        w.key("delta").value(delta);
        w.end_object();
    }
    w.end_object();
    w.key("gauges").begin_object();
    for (const auto& [name, value] : snap.gauges) w.key(name).value(value);
    w.end_object();
    w.key("sketches").begin_object();
    for (const auto& [name, s] : snap.sketches) {
        std::uint64_t& baseline = sketch_baseline_[name];
        const std::uint64_t delta = s.count >= baseline ? s.count - baseline : 0;
        baseline = s.count;
        w.key(name).begin_object();
        w.key("count").value(s.count);
        w.key("delta").value(delta);
        w.key("mean").value(s.mean);
        w.key("p50").value(s.p50);
        w.key("p95").value(s.p95);
        w.key("p99").value(s.p99);
        w.key("max").value(s.max);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    return w.str();
}

}  // namespace adiv
