// OpenMetrics / Prometheus text exposition for the metrics registry.
//
// The registry names instruments `subsystem.metric` (enforced by the lint
// metric-name rule); OpenMetrics names are `[a-zA-Z_:][a-zA-Z0-9_:]*`, so
// the renderer maps every dot to '_' and prefixes `adiv_`:
//
//   serve.events_pushed   (counter)    ->  adiv_serve_events_pushed_total
//   serve.sessions_active (gauge)      ->  adiv_serve_sessions_active
//   serve.push_latency_us (sketch)     ->  adiv_serve_push_latency_us
//                                          {quantile="0.5"|"0.95"|"0.99"},
//                                          plus _sum and _count series
//
// Sketches are exposed as OpenMetrics summaries (the registry keeps
// pre-digested quantiles, not cumulative buckets); a zero-sample sketch
// renders every quantile as 0, never NaN. The p99 sample carries an
// OpenMetrics exemplar (` # {trace_id="...",span_id="..."} value`) naming
// the trace context of the largest traced observation, when there is one.
// The exposition ends with `# EOF` so stock Prometheus accepts it as
// openmetrics-text 1.0.
//
// parse_openmetrics() is the matching self-check: it re-parses an exposition
// into samples and validates the grammar (TYPE before samples, counter
// `_total` suffixes, finite counter values, terminal `# EOF`). Every scrape
// client goes through it: serve::scrape_metrics, behind adiv_top and
// adiv_loadgen --scrape-http.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace adiv {

/// Maps a registry instrument name to a valid OpenMetrics metric name:
/// `adiv_` prefix, dots to underscores, anything outside [a-zA-Z0-9_] to '_'.
std::string openmetrics_name(std::string_view name);

/// Formats a sample value: decimal for finite doubles, "+Inf"/"-Inf"/"NaN"
/// for the non-finite values OpenMetrics spells out.
std::string openmetrics_number(double value);

/// Renders the full exposition (TYPE lines, samples, terminal "# EOF\n").
std::string metrics_to_openmetrics(const MetricsRegistry& registry);

/// One parsed sample line: `name{labels} value` (labels verbatim, no
/// braces), optionally followed by an OpenMetrics exemplar
/// `# {exemplar_labels} exemplar_value` — the renderer attaches one to the
/// p99 sample of sketch summaries, carrying trace_id/span_id labels.
struct OpenMetricsSample {
    std::string name;
    std::string labels;
    double value = 0.0;
    bool has_exemplar = false;
    std::string exemplar_labels;  // verbatim, no braces
    double exemplar_value = 0.0;
};

/// Parsed exposition: samples in document order plus the family -> type map.
struct OpenMetricsDocument {
    std::vector<OpenMetricsSample> samples;
    std::vector<std::pair<std::string, std::string>> types;  // family, type

    /// First sample matching name (and labels, when given).
    [[nodiscard]] std::optional<double> value(
        std::string_view name, std::string_view labels = "") const;

    /// Type declared for a family; empty when undeclared.
    [[nodiscard]] std::string type_of(std::string_view family) const;
};

/// Parses and validates an exposition. Throws DataError on any grammar or
/// consistency violation: malformed names or values, a sample without a
/// preceding TYPE for its family, a counter sample not ending in `_total`,
/// a non-finite or negative counter, or a missing / non-terminal `# EOF`.
OpenMetricsDocument parse_openmetrics(std::string_view text);

}  // namespace adiv
