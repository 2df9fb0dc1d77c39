// Structured trace events: RAII spans streamed as JSON-lines.
//
// A TraceSpan brackets a unit of work. On construction it emits a
// `span_begin` line, on destruction a `span_end` line carrying the wall-time
// duration (measured with util/Stopwatch) and any key=value attributes
// attached in between. Nesting depth is tracked per thread, so the flat
// line stream reconstructs the call tree:
//
//   {"type":"span_begin","name":"experiment.map","depth":0,"t":0.001}
//   {"type":"span_begin","name":"experiment.train","depth":1,"t":0.002}
//   {"type":"span_end","name":"experiment.train","depth":1,...,"dur_s":0.41}
//   ...
//
// Lines go to a pluggable TraceSink. The process-global sink defaults to a
// null sink; when it is null, spans skip all formatting, so instrumentation
// left in hot paths costs two thread-local increments and a clock read.
//
// Request tracing: a TraceContext (trace id + span id) can accompany the
// spans. When a context is active on the thread AND the sink is enabled —
// the double gate that keeps untraced runs on the two-increment fast path —
// each span derives its own deterministic span id (SplitMix64 over the
// parent's id and a per-parent child index, so ids are independent of
// thread interleaving) and emits top-level "trace"/"span"/"parent" fields
// as 16-hex-digit strings. adiv_traceview --request stitches those lines,
// across processes, into one causal tree: the client span carries the same
// ids the wire protocol ships, and the daemon installs the shipped context
// (ScopedTraceContext) around the connection reader's handling of that
// request.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stopwatch.hpp"

namespace adiv {

/// Destination for JSON-lines trace output. Implementations must be safe to
/// call from multiple threads.
class TraceSink {
public:
    virtual ~TraceSink() = default;

    /// Writes one line (no trailing newline in `line`).
    virtual void write_line(const std::string& line) = 0;

    /// False when writes are discarded — producers skip formatting entirely.
    [[nodiscard]] virtual bool enabled() const noexcept { return true; }

    virtual void flush() {}
};

/// Discards everything; the default global sink.
class NullTraceSink final : public TraceSink {
public:
    void write_line(const std::string&) override {}
    [[nodiscard]] bool enabled() const noexcept override { return false; }
};

/// Writes to a caller-owned ostream (which must outlive the sink).
class StreamTraceSink final : public TraceSink {
public:
    explicit StreamTraceSink(std::ostream& out) : out_(&out) {}
    void write_line(const std::string& line) override;
    void flush() override;

private:
    std::mutex mutex_;
    std::ostream* out_;
};

/// Writes to stderr (line-buffered via fprintf, safe across processes).
class StderrTraceSink final : public TraceSink {
public:
    void write_line(const std::string& line) override;
};

/// Owns an output file. Throws DataError when the file cannot be opened.
class FileTraceSink final : public TraceSink {
public:
    explicit FileTraceSink(const std::string& path);
    void write_line(const std::string& line) override;
    void flush() override;

private:
    std::mutex mutex_;
    std::ofstream out_;
};

/// Builds a sink from a CLI spec: "" or "null" -> null sink, "-" -> stderr,
/// anything else -> file at that path.
std::shared_ptr<TraceSink> open_trace_sink(const std::string& spec);

/// Global sink used by spans constructed without an explicit sink. Passing
/// nullptr restores the null sink. Returns the previous sink.
std::shared_ptr<TraceSink> set_global_trace_sink(std::shared_ptr<TraceSink> sink);
std::shared_ptr<TraceSink> global_trace_sink();

/// Seconds since the first call in this process; the spans' shared "t" axis.
double trace_clock_seconds();

/// Current per-thread span nesting depth (0 outside any span).
int current_trace_depth() noexcept;

/// Request-scoped trace context: which request a span belongs to (trace_id)
/// and which span is the current causal parent (span_id). trace_id 0 means
/// "no context" — the wire protocol and the span lines both use that as the
/// absent value, so a valid trace id is never 0.
struct TraceContext {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;

    [[nodiscard]] bool active() const noexcept { return trace_id != 0; }
};

/// The calling thread's current context ({0,0} when none is installed).
TraceContext current_trace_context() noexcept;

/// Deterministic child-span id: SplitMix64 over (trace, parent span, child
/// index). Never returns 0, so a derived id is always "present" on the wire
/// and in span lines.
std::uint64_t derive_span_id(std::uint64_t trace_id, std::uint64_t parent_span,
                             std::uint64_t child_index) noexcept;

/// 16-hex-digit lowercase rendering of a trace/span id. Ids travel as hex
/// strings (wire tokens, JSON fields, exemplar labels) because a uint64 as a
/// JSON number loses precision beyond 2^53.
std::string hex16(std::uint64_t value);

/// Parses up to 16 hex digits into `value`; false on malformed input.
bool parse_hex16(std::string_view text, std::uint64_t& value) noexcept;

/// RAII installer for a received context (e.g. the daemon installing the
/// trace/span ids shipped with a PUSH before handling it). Resets the
/// per-parent child-index counter so derived ids depend only on the request,
/// not on what the thread did before; restores both on destruction.
class ScopedTraceContext {
public:
    explicit ScopedTraceContext(TraceContext context) noexcept;
    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;
    ~ScopedTraceContext();

private:
    TraceContext saved_context_;
    std::uint64_t saved_child_index_;
};

/// RAII span; see file comment. Not copyable or movable — bind it to a scope.
class TraceSpan {
public:
    explicit TraceSpan(std::string_view name);
    TraceSpan(std::shared_ptr<TraceSink> sink, std::string_view name);
    /// Span with explicit ids: `context` names this span itself (its trace
    /// and span id), `parent_span` its causal parent (0 = root). Used where
    /// the id must match a value that travels elsewhere — the client-side
    /// request span IS the span id shipped on the wire. The span installs
    /// `context` as the thread's current context while it lives.
    TraceSpan(std::string_view name, TraceContext context,
              std::uint64_t parent_span = 0);
    TraceSpan(const TraceSpan&) = delete;
    TraceSpan& operator=(const TraceSpan&) = delete;
    ~TraceSpan();

    /// Attaches a key=value attribute, emitted with the span_end line.
    TraceSpan& attr(std::string_view key, std::string_view value);
    TraceSpan& attr(std::string_view key, const char* value) {
        return attr(key, std::string_view(value));
    }
    TraceSpan& attr(std::string_view key, const std::string& value) {
        return attr(key, std::string_view(value));
    }
    TraceSpan& attr(std::string_view key, std::uint64_t value);
    TraceSpan& attr(std::string_view key, std::int64_t value);
    TraceSpan& attr(std::string_view key, int value) {
        return attr(key, static_cast<std::int64_t>(value));
    }
    TraceSpan& attr(std::string_view key, double value);
    TraceSpan& attr(std::string_view key, bool value);

    /// The nesting depth this span was opened at.
    [[nodiscard]] int depth() const noexcept { return depth_; }

    /// This span's trace context ({0,0} when the span is untraced).
    [[nodiscard]] TraceContext context() const noexcept { return context_; }

private:
    void open(std::string_view name);

    std::shared_ptr<TraceSink> sink_;
    std::string name_;
    // Attribute values pre-rendered as JSON tokens, so heterogenous types
    // share one vector.
    std::vector<std::pair<std::string, std::string>> attrs_;
    Stopwatch watch_;
    double start_t_ = 0.0;
    int depth_ = 0;
    bool emit_ = false;
    // Request-tracing state: this span's own ids, its parent span id, and
    // the thread-context save slots (restored on destruction).
    TraceContext context_;
    std::uint64_t parent_span_ = 0;
    TraceContext saved_context_;
    std::uint64_t saved_child_index_ = 0;
    bool pushed_context_ = false;
};

}  // namespace adiv
