// Structured trace events: RAII spans streamed as JSON-lines.
//
// A TraceSpan brackets a unit of work. On construction it emits a
// `span_begin` line, on destruction a `span_end` line carrying the wall-time
// duration (measured with util/Stopwatch) and any key=value attributes
// attached in between. Every line names its trace, its span and its parent
// span as 16-hex ids (the root's parent is all zeros), and the ids alone
// rebuild the call tree, whichever threads the spans ran on:
//
//   {"type":"span_begin","name":"engine.plan","t":0.3,"trace":…,"span":…,"parent":…}
//   {"type":"span_end","name":"engine.plan","t":0.9,"dur_s":0.6,"trace":…,"attrs":{…}}
//
// Each thread has a current TraceContext. A span opened under one is its
// next child (span id = SplitMix64 over trace, parent id and a per-parent
// child index) and is the thread's context while it lives; a span opened
// with none is a root and mints a trace id from the number of root spans
// the process has opened. A task on another thread opens its span with
// explicit ids (child_context), so ids never depend on thread interleaving.
// Request tracing rides the same ids across processes: the client span
// carries the ids the wire protocol ships, and the daemon installs them
// (ScopedTraceContext) around the connection reader's handling.
//
// Lines go to a pluggable TraceSink; the process-global one defaults to a
// null sink. On a null sink a span formats nothing, derives no id, touches
// no thread-local state and takes no lock: it costs a clock read (its
// Stopwatch member) and, opened without a sink while the global one is
// null, one atomic load of a flag that set_global_trace_sink() keeps, or,
// opened with a null sink passed in, one virtual enabled() call.
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
/// nullptr restores the null sink. Returns the previous sink. The new sink's
/// enabled() is read once, here: a span opened without a sink while it was
/// false goes to no sink at all.
std::shared_ptr<TraceSink> set_global_trace_sink(std::shared_ptr<TraceSink> sink);
std::shared_ptr<TraceSink> global_trace_sink();

/// Seconds since the first call in this process; the spans' shared "t" axis.
double trace_clock_seconds();

/// Trace context: which trace a span belongs to (trace_id) and which span
/// is the current causal parent (span_id). trace_id 0 means
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

/// The ids of child number `index` under `parent`, for a span that must
/// take its place in the tree from its caller rather than from the thread
/// that opens it (a task on a worker thread):
///   TraceSpan span("x.y", child_context(parent, i), parent.span_id);
/// Inactive, and nothing derived, when `parent` is inactive.
TraceContext child_context(TraceContext parent, std::uint64_t index) noexcept;

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
    /// request span IS the span id shipped on the wire — or where a task's
    /// place in the tree must not depend on the thread running it. An
    /// inactive `context` falls back to what the other constructors do.
    /// Like every emitting span, it is the thread's current context while
    /// it lives.
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

    /// This span's ids ({0,0} when the sink is disabled).
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
    bool emit_ = false;
    // This span's own ids, its parent span id, and the thread-context save
    // slots (restored on destruction).
    TraceContext context_;
    std::uint64_t parent_span_ = 0;
    TraceContext saved_context_;
    std::uint64_t saved_child_index_ = 0;
};

}  // namespace adiv
