// Online scoring: push events one at a time, receive per-window responses —
// the deployment-facing wrapper around the batch detectors.
//
// The scorer keeps a bounded buffer of recent events. Each push that
// completes a window scores the buffered suffix with the wrapped detector
// and emits the newest window's response. For the window-local detectors
// (Stide, t-Stide, Markov, L&B, neural net, rule) this is EXACTLY the value
// batch score() would produce at that position. The HMM detector conditions
// on the entire stream prefix, so its online responses are computed from a
// bounded restart horizon (the buffer) — an approximation that converges to
// the batch value as the buffer grows; buffer_capacity controls the
// trade-off.
//
// push_batch() consumes a whole PUSH payload at once. For window-local
// detectors it scores ONE stream covering every window that ends inside the
// batch — the per-event path rescored the entire buffer per event, so this
// is the serve hot path's main algorithmic win — and window locality makes
// the responses bit-identical to the per-event path. The HMM detector falls
// back to the serial per-event loop (its bounded-horizon approximation
// depends on the buffer state at every single event, so batching would
// change the numbers).
//
// Instrumentation: every scorer reports to a metrics registry (the
// process-global one unless a test injects its own):
//   online.events_consumed   counter, one per push
//   online.alarm_rate        gauge, maximal-response windows / windows scored
// No clock is read per push; a served PUSH is timed once, by the session
// layer (serve.push_latency_us).
// Scorer-local accessors (events_consumed, windows_scored, alarms) expose
// the same quantities without the registry; registry metrics are cumulative
// across scorers and survive reset().
#pragma once

#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "obs/metrics.hpp"

namespace adiv {

class OnlineScorer {
public:
    /// The detector must be trained and must outlive the scorer.
    /// buffer_capacity is clamped to at least the detector window.
    explicit OnlineScorer(const SequenceDetector& detector,
                          std::size_t buffer_capacity = 0,
                          MetricsRegistry& metrics = global_metrics());

    /// Consumes one event. Returns the response of the window ending at this
    /// event, or nullopt while fewer than DW events have been seen.
    std::optional<double> push(Symbol event);

    /// Consumes `count` events and appends one response per completed window
    /// (in stream order) to `out`; returns the number appended. Bit-identical
    /// to calling push() per event — window-local detectors score the whole
    /// batch in one detector call, the HMM falls back to the per-event loop.
    /// Throws DataError on an out-of-alphabet event; like push(), events
    /// before the bad one have already been consumed.
    std::size_t push_batch(const Symbol* events, std::size_t count,
                           std::vector<double>& out);

    /// Events consumed since construction or the last reset.
    [[nodiscard]] std::size_t events_consumed() const noexcept { return consumed_; }

    /// Windows scored (pushes that returned a response) since construction
    /// or the last reset.
    [[nodiscard]] std::size_t windows_scored() const noexcept { return windows_; }

    /// Scored windows whose response was maximal (>= kMaximalResponse).
    [[nodiscard]] std::size_t alarms() const noexcept { return alarms_; }

    /// alarms() / windows_scored(); 0 before the first scored window.
    [[nodiscard]] double alarm_rate() const noexcept {
        return windows_ == 0 ? 0.0
                             : static_cast<double>(alarms_) /
                                   static_cast<double>(windows_);
    }

    /// Drops all buffered history (e.g. at a session boundary).
    void reset();

    [[nodiscard]] const SequenceDetector& detector() const noexcept {
        return *detector_;
    }

private:
    /// Appends validated events and scores every window they complete in one
    /// detector call (window-local detectors only). Returns windows appended.
    std::size_t score_window_local(const Symbol* events, std::size_t count,
                                   std::vector<double>& out);
    /// Drops events beyond capacity_ from the live suffix; compacts the
    /// vector once the dead prefix dominates (amortized O(1) per event).
    void trim();

    const SequenceDetector* detector_;
    std::size_t capacity_;
    std::size_t alphabet_size_;
    // Live events are buffer_[head_..); a vector + offset rather than a
    // deque so the scoring slice is contiguous and allocation-free.
    std::vector<Symbol> buffer_;
    std::size_t head_ = 0;
    std::size_t consumed_ = 0;
    std::size_t windows_ = 0;
    std::size_t alarms_ = 0;
    Counter& events_counter_;
    Gauge& alarm_rate_gauge_;
};

}  // namespace adiv
