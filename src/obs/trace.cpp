#include "obs/trace.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "obs/json.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {

namespace {

// The thread's current context, plus the next child index under the
// context's span — together they make derived span ids a pure function of
// what the thread did under that span, independent of other threads.
thread_local TraceContext t_trace_context;
thread_local std::uint64_t t_child_index = 0;

// Root spans opened so far; the next root's trace id derives from it.
std::atomic<std::uint64_t> g_roots_opened{0};

// The installed global sink's enabled(), so a span on the default null sink
// skips the mutex and the shared_ptr copy. Written under global_sink_mutex().
std::atomic<bool> g_global_sink_enabled{false};

std::mutex& global_sink_mutex() {
    static std::mutex m;
    return m;
}

std::shared_ptr<TraceSink>& global_sink_slot() {
    static std::shared_ptr<TraceSink> sink = std::make_shared<NullTraceSink>();
    return sink;
}

}  // namespace

void StreamTraceSink::write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    *out_ << line << '\n';
}

void StreamTraceSink::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    out_->flush();
}

void StderrTraceSink::write_line(const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
}

FileTraceSink::FileTraceSink(const std::string& path) : out_(path) {
    require_data(out_.good(), "cannot open trace output file '" + path + "'");
}

void FileTraceSink::write_line(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << '\n';
}

void FileTraceSink::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    out_.flush();
}

std::shared_ptr<TraceSink> open_trace_sink(const std::string& spec) {
    if (spec.empty() || spec == "null") return std::make_shared<NullTraceSink>();
    if (spec == "-") return std::make_shared<StderrTraceSink>();
    return std::make_shared<FileTraceSink>(spec);
}

std::shared_ptr<TraceSink> set_global_trace_sink(std::shared_ptr<TraceSink> sink) {
    if (!sink) sink = std::make_shared<NullTraceSink>();
    const std::lock_guard<std::mutex> lock(global_sink_mutex());
    g_global_sink_enabled.store(sink->enabled());
    std::swap(global_sink_slot(), sink);
    return sink;  // the previous sink
}

std::shared_ptr<TraceSink> global_trace_sink() {
    const std::lock_guard<std::mutex> lock(global_sink_mutex());
    return global_sink_slot();
}

double trace_clock_seconds() {
    static const Stopwatch epoch;
    return epoch.seconds();
}

TraceContext current_trace_context() noexcept { return t_trace_context; }

std::uint64_t derive_span_id(std::uint64_t trace_id, std::uint64_t parent_span,
                             std::uint64_t child_index) noexcept {
    SplitMix64 outer(trace_id ^ parent_span);
    SplitMix64 inner(outer.next() ^ child_index);
    const std::uint64_t id = inner.next();
    return id == 0 ? 1 : id;  // 0 means "absent" everywhere ids travel
}

TraceContext child_context(TraceContext parent, std::uint64_t index) noexcept {
    if (!parent.active()) return {};
    return {parent.trace_id, derive_span_id(parent.trace_id, parent.span_id, index)};
}

std::string hex16(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

bool parse_hex16(std::string_view text, std::uint64_t& value) noexcept {
    if (text.empty() || text.size() > 16) return false;
    const char* const begin = text.data();
    const char* const end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value, 16);
    return ec == std::errc() && ptr == end;
}

ScopedTraceContext::ScopedTraceContext(TraceContext context) noexcept
    : saved_context_(t_trace_context), saved_child_index_(t_child_index) {
    t_trace_context = context;
    t_child_index = 0;
}

ScopedTraceContext::~ScopedTraceContext() {
    t_trace_context = saved_context_;
    t_child_index = saved_child_index_;
}

TraceSpan::TraceSpan(std::string_view name) { open(name); }

TraceSpan::TraceSpan(std::shared_ptr<TraceSink> sink, std::string_view name)
    : sink_(std::move(sink)) {
    open(name);
}

TraceSpan::TraceSpan(std::string_view name, TraceContext context,
                     std::uint64_t parent_span)
    : context_(context), parent_span_(parent_span) {
    open(name);
}

void TraceSpan::open(std::string_view name) {
    if (!sink_) {
        if (!g_global_sink_enabled.load()) return;  // emit_ stays false
        sink_ = global_trace_sink();
    }
    emit_ = sink_->enabled();
    if (!emit_) return;
    if (!context_.active()) {
        if (t_trace_context.active()) {
            parent_span_ = t_trace_context.span_id;
            context_ = child_context(t_trace_context, t_child_index++);
        } else {
            parent_span_ = 0;
            context_.trace_id = derive_span_id(
                0, 0, g_roots_opened.fetch_add(1, std::memory_order_relaxed));
            context_.span_id = derive_span_id(context_.trace_id, 0, 0);
        }
    }
    saved_context_ = t_trace_context;
    saved_child_index_ = t_child_index;
    t_trace_context = context_;
    t_child_index = 0;
    name_ = name;
    start_t_ = trace_clock_seconds();
    JsonWriter w;
    w.begin_object();
    w.key("type").value("span_begin");
    w.key("name").value(name_);
    w.key("t").value(start_t_);
    // Top-level 16-hex strings (not attrs): uint64 JSON numbers lose
    // precision past 2^53, and traceview's flat reader only sees top-level
    // fields.
    w.key("trace").value(hex16(context_.trace_id));
    w.key("span").value(hex16(context_.span_id));
    w.key("parent").value(hex16(parent_span_));
    w.end_object();
    sink_->write_line(w.str());
    watch_.restart();  // exclude our own formatting from the measured span
}

TraceSpan::~TraceSpan() {
    if (!emit_) return;
    t_trace_context = saved_context_;
    t_child_index = saved_child_index_;
    JsonWriter w;
    w.begin_object();
    w.key("type").value("span_end");
    w.key("name").value(name_);
    w.key("t").value(trace_clock_seconds());
    w.key("dur_s").value(watch_.seconds());
    w.key("trace").value(hex16(context_.trace_id));
    w.key("span").value(hex16(context_.span_id));
    w.key("parent").value(hex16(parent_span_));
    if (!attrs_.empty()) {
        w.key("attrs").begin_object();
        for (const auto& [key, token] : attrs_) w.key(key).raw(token);
        w.end_object();
    }
    w.end_object();
    sink_->write_line(w.str());
}

TraceSpan& TraceSpan::attr(std::string_view key, std::string_view value) {
    if (emit_) attrs_.emplace_back(key, '"' + json_escape(value) + '"');
    return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, std::uint64_t value) {
    if (emit_) attrs_.emplace_back(key, std::to_string(value));
    return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, std::int64_t value) {
    if (emit_) attrs_.emplace_back(key, std::to_string(value));
    return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, double value) {
    if (emit_) attrs_.emplace_back(key, json_number(value));
    return *this;
}

TraceSpan& TraceSpan::attr(std::string_view key, bool value) {
    if (emit_) attrs_.emplace_back(key, value ? "true" : "false");
    return *this;
}

}  // namespace adiv
