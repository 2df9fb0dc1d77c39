// Instrumented decorator: wraps any SequenceDetector with trace spans and
// metrics, leaving the wrapped algorithm untouched.
//
// Per train() call: a "detect.train" span plus `detect.train_calls` /
// `detect.train_events` counters and a `detect.train_us` latency sketch.
// Per score() call: a "detect.score" span plus `detect.score_calls` /
// `detect.score_windows` counters and a `detect.score_us` sketch. With
// the default null trace sink a span formats nothing and costs, once per
// train() or score() call, a clock read and one atomic load, no lock
// (obs/trace.hpp).
//
// Persistence: io/model_io unwraps the decorator and saves the inner
// detector, so an instrumented detector round-trips like a bare one.
#pragma once

#include <memory>

#include "detect/detector.hpp"
#include "obs/metrics.hpp"

namespace adiv {

class InstrumentedDetector final : public SequenceDetector {
public:
    /// The decorator owns the inner detector. Metrics go to `metrics`
    /// (default: the process-global registry).
    explicit InstrumentedDetector(std::unique_ptr<SequenceDetector> inner,
                                  MetricsRegistry& metrics = global_metrics());

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }

    void train(const EventStream& training) override;
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override;
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

    [[nodiscard]] const SequenceDetector& inner() const noexcept { return *inner_; }

private:
    std::unique_ptr<SequenceDetector> inner_;
    Counter& train_calls_;
    Counter& train_events_;
    Sketch& train_us_;
    Counter& score_calls_;
    Counter& score_windows_;
    Sketch& score_us_;
};

/// Convenience wrapper: instrument(make_detector(...)).
std::unique_ptr<SequenceDetector> instrument(
    std::unique_ptr<SequenceDetector> inner,
    MetricsRegistry& metrics = global_metrics());

}  // namespace adiv
