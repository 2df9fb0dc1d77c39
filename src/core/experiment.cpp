#include "core/experiment.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv {

SpanScore score_entry(const SequenceDetector& detector,
                      const EvaluationSuite::Entry& entry) {
    require(detector.window_length() == entry.window_length,
            "detector window does not match suite entry window");
    TraceSpan span("experiment.score");
    span.attr("detector", detector.name())
        .attr("anomaly_size", static_cast<std::uint64_t>(entry.anomaly_size))
        .attr("window", static_cast<std::uint64_t>(entry.window_length));
    const std::vector<double> responses = detector.score(entry.stream.stream);
    return classify_span(responses, entry.stream.span);
}

}  // namespace adiv
