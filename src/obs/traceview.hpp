// Trace analysis: aggregates a JSON-lines span trace (obs/trace.hpp) into
// per-span-name statistics and per-run critical paths.
//
// The input is the stream a --trace run writes: `manifest` lines opening
// each run, `span_begin`/`span_end` pairs carrying name, depth, and wall
// duration. Aggregation works off the span_end lines alone:
//
//   * Per name: count, total and self time, exact nearest-rank p50/p95/p99
//     over the observed durations (exact, not bucketed — the trace holds
//     every sample, so the tool reproduces percentiles bit-identically from
//     a pinned fixture).
//   * Self time subtracts direct-child durations, reconstructed from the
//     depth column: a span ending at depth d is a child of the next span to
//     end at depth d-1. The reconstruction is exact for single-threaded
//     traces; when several threads interleave spans in one stream the
//     attribution is approximate (clamped at >= 0), which the tool reports
//     rather than hides.
//   * Per run (manifest line to manifest line): total root-span time and the
//     critical path — the chain built by following the longest direct child
//     from the longest root span down.
//
// `adiv_traceview` is a thin CLI over these functions; tests pin both
// renderings against fixture traces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace adiv {

/// Aggregate statistics for one span name. Durations are seconds.
struct SpanStats {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  ///< total minus direct-child time, clamped >= 0
    double p50_s = 0.0;
    double p95_s = 0.0;
    double p99_s = 0.0;
    double max_s = 0.0;
};

/// One link of a run's critical path, root first.
struct CriticalPathNode {
    std::string name;
    double dur_s = 0.0;
    double self_s = 0.0;
};

/// One run: a manifest line and the spans that followed it.
struct RunSummary {
    std::string tool;
    std::string detector;
    std::string timestamp;
    std::uint64_t spans = 0;       ///< span_end lines attributed to this run
    double root_total_s = 0.0;     ///< summed depth-0 span durations
    std::vector<CriticalPathNode> critical_path;
};

struct TraceAnalysis {
    std::vector<SpanStats> spans;   ///< sorted by name
    std::vector<RunSummary> runs;   ///< document order; a headerless trace
                                    ///< yields one run with empty manifest
                                    ///< fields once spans appear
    std::uint64_t lines = 0;        ///< input lines seen
    std::uint64_t skipped = 0;      ///< lines that were not well-formed
                                    ///< manifest/span_end records
    std::uint64_t unterminated = 0; ///< span_begin lines with no span_end
                                    ///< (killed daemon); closed at EOF with
                                    ///< the last observed timestamp
};

/// Streams the trace and aggregates it. Unparseable lines are counted in
/// `skipped`, never fatal — a live trace may end mid-line. Spans left open
/// by a killed writer (a span_begin with no matching span_end) are closed
/// at end of input using the latest timestamp seen, counted in
/// `unterminated`, and reported as a warning rather than failing the
/// analysis.
TraceAnalysis analyze_trace(std::istream& in);

// --- request view (adiv_traceview --request) --------------------------------
//
// Reconstructs the causal tree of one traced request: every span_end line
// carrying the requested 16-hex trace id, linked parent -> child through
// the top-level "span"/"parent" fields the trace writer emits for traced
// spans (obs/trace.hpp). Client and daemon write to different sinks, so the
// input is typically a concatenation of both trace files; ids — not depths
// or threads — do the stitching.

/// One span of a request's causal tree.
struct RequestSpan {
    std::string name;
    std::string span;     ///< 16-hex span id
    std::string parent;   ///< 16-hex parent id; all zeros for a root
    double start_t = 0.0; ///< end t minus dur_s (the writer's shared clock)
    double dur_s = 0.0;
    double self_s = 0.0;  ///< dur minus direct-child time, clamped >= 0
    std::vector<std::size_t> children;  ///< indices, ordered by start_t
};

struct RequestAnalysis {
    std::string trace_id;               ///< normalized 16-hex
    std::vector<RequestSpan> spans;     ///< document order
    std::vector<std::size_t> roots;     ///< spans whose parent is absent
    std::uint64_t lines = 0;
    std::uint64_t skipped = 0;
};

/// Streams the trace and keeps only the requested trace's spans.
/// `trace_id` accepts any hex spelling of the id (case / leading zeros);
/// throws DataError when it is not valid hex.
RequestAnalysis analyze_request(std::istream& in, std::string_view trace_id);

/// Human rendering: the indented causal tree with per-span duration and
/// self-time.
std::string render_request(const RequestAnalysis& analysis);

/// Machine rendering: one JSON document with the same content.
std::string request_to_json(const RequestAnalysis& analysis);

/// Human rendering: per-span table (sorted by total time, descending) plus
/// a per-run critical-path section.
std::string render_traceview(const TraceAnalysis& analysis);

/// Machine rendering: one JSON document with the same content, spans sorted
/// by name.
std::string traceview_to_json(const TraceAnalysis& analysis);

}  // namespace adiv
