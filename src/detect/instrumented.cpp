#include "detect/instrumented.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace adiv {

InstrumentedDetector::InstrumentedDetector(std::unique_ptr<SequenceDetector> inner,
                                           MetricsRegistry& metrics)
    : inner_(std::move(inner)),
      train_calls_(metrics.counter("detect.train_calls")),
      train_events_(metrics.counter("detect.train_events")),
      train_us_(metrics.sketch("detect.train_us")),
      score_calls_(metrics.counter("detect.score_calls")),
      score_windows_(metrics.counter("detect.score_windows")),
      score_us_(metrics.sketch("detect.score_us")) {
    require(inner_ != nullptr, "cannot instrument a null detector");
}

void InstrumentedDetector::train(const EventStream& training) {
    TraceSpan span("detect.train");
    span.attr("detector", inner_->name())
        .attr("window", static_cast<std::uint64_t>(inner_->window_length()))
        .attr("events", static_cast<std::uint64_t>(training.size()));
    const Stopwatch sw;
    inner_->train(training);
    train_us_.record(sw.seconds() * 1e6);
    train_calls_.add(1);
    train_events_.add(training.size());
}

std::vector<double> InstrumentedDetector::score(const EventStream& test) const {
    TraceSpan span("detect.score");
    const Stopwatch sw;
    std::vector<double> responses = inner_->score(test);
    score_us_.record(sw.seconds() * 1e6);
    score_calls_.add(1);
    score_windows_.add(responses.size());
    span.attr("detector", inner_->name())
        .attr("windows", static_cast<std::uint64_t>(responses.size()));
    return responses;
}

std::unique_ptr<SequenceDetector> instrument(std::unique_ptr<SequenceDetector> inner,
                                             MetricsRegistry& metrics) {
    return std::make_unique<InstrumentedDetector>(std::move(inner), metrics);
}

}  // namespace adiv
