// Trace analysis: turns a JSON-lines span trace (obs/trace.hpp) into an
// id-linked tree of spans, then reads that tree two ways.
//
// The input is the stream a --trace run writes: `manifest` lines opening
// each run, `span_begin`/`span_end` pairs carrying name, wall duration and
// the span's trace/span/parent ids. Both views read the same tree:
//
//   * Each span_end line is a span. A span_begin with no span_end (a killed
//     writer) is a span too, closed at its run's last timestamp, counted in
//     `unterminated` and called out in a warning.
//   * A span's parent is the span whose id its "parent" field names. A span
//     with no parent in the set (including one with no ids, or one naming
//     itself) is a root. Spans on a parent cycle belong to no root.
//   * Self time is a span's duration minus its direct children's, clamped
//     at 0.
//
// The span view (analyze_trace) links each run — manifest line to manifest
// line — on its own, since ids minted by different processes can collide.
// It reports, per name, count, total and self time and exact nearest-rank
// p50/p95/p99 (the trace holds every sample, so a pinned fixture
// reproduces them bit-identically), and per run the summed root time and
// the critical path: the chain built by following the longest direct child
// from the longest root down.
//
// The request view (analyze_request) keeps the spans of one trace id from
// all its input — the client's and the daemon's files concatenated — and
// links them into that request's causal tree.
//
// `adiv_traceview` is a thin CLI over these functions; tests pin every
// rendering against fixture traces.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
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
    std::uint64_t spans = 0;       ///< spans attributed to this run
    double root_total_s = 0.0;     ///< summed root-span durations
    std::vector<CriticalPathNode> critical_path;
};

struct TraceAnalysis {
    std::vector<SpanStats> spans;   ///< sorted by name
    std::vector<RunSummary> runs;   ///< document order; a headerless trace
                                    ///< yields one run with empty manifest
                                    ///< fields once spans appear
    std::uint64_t lines = 0;        ///< input lines seen
    std::uint64_t skipped = 0;      ///< lines that were not well-formed
                                    ///< manifest/span records
    std::uint64_t unterminated = 0; ///< span_begin lines with no span_end
};

/// Streams the trace and aggregates it. Unparseable lines are counted in
/// `skipped`, never fatal — a live trace may end mid-line.
TraceAnalysis analyze_trace(std::istream& in);

/// One span of the id-linked tree.
struct SpanNode {
    std::string name;
    std::uint64_t span = 0;    ///< 0 when the line carried no span id
    std::uint64_t parent = 0;  ///< 0 when the line named no parent
    double start_t = 0.0;      ///< start on the writer's clock
    double dur_s = 0.0;
    double self_s = 0.0;       ///< dur minus direct-child time, clamped >= 0
    std::vector<std::size_t> children;  ///< indices, ordered by start_t
};

struct RequestAnalysis {
    std::string trace_id;               ///< normalized 16-hex
    std::vector<SpanNode> spans;        ///< document order
    std::vector<std::size_t> roots;     ///< ordered by start_t
    std::uint64_t lines = 0;
    std::uint64_t skipped = 0;
    std::uint64_t unterminated = 0;     ///< of this trace's spans
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
