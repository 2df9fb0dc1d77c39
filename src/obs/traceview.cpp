#include "obs/traceview.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <istream>
#include <map>
#include <optional>

#include "obs/json.hpp"
#include "obs/trace.hpp"  // hex16 / parse_hex16 for --request ids
#include "util/error.hpp"
#include "util/table.hpp"

namespace adiv {

namespace {

// --- minimal JSON-line reader ----------------------------------------------
// The trace writer (obs/trace.cpp) emits one flat object per line; this
// reader recovers the top-level string/number fields and skips everything
// nested (span attrs). It is deliberately private: the repo's JSON contract
// is still "emit, don't parse" everywhere except this analyzer.

struct FieldValue {
    bool is_string = false;
    std::string text;
    double number = 0.0;
};

using FlatObject = std::map<std::string, FieldValue>;

class Cursor {
public:
    explicit Cursor(const std::string& line) : s_(line) {}

    void skip_ws() {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
    }

    [[nodiscard]] char peek() const {
        require_data(i_ < s_.size(), "trace line: truncated JSON");
        return s_[i_];
    }

    char get() {
        const char c = peek();
        ++i_;
        return c;
    }

    void expect(char c) {
        require_data(get() == c, std::string("trace line: expected '") + c + "'");
    }

    [[nodiscard]] bool done() const noexcept { return i_ >= s_.size(); }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            const char c = get();
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = get();
            switch (esc) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u':
                    // Trace output only \u-escapes control bytes; a literal
                    // placeholder keeps the reader simple.
                    for (int k = 0; k < 4; ++k) (void)get();
                    out += '?';
                    break;
                default: out += esc;
            }
        }
    }

    double parse_number() {
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
                s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
                s_[i_] == 'e' || s_[i_] == 'E'))
            ++i_;
        require_data(i_ > start, "trace line: malformed number");
        return std::stod(s_.substr(start, i_ - start));
    }

    void skip_literal(const char* word) {
        for (const char* p = word; *p != '\0'; ++p) expect(*p);
    }

    /// Consumes any JSON value without keeping it (nested attrs objects).
    void skip_value() {
        skip_ws();
        const char c = peek();
        if (c == '"') {
            (void)parse_string();
        } else if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            (void)get();
            skip_ws();
            if (peek() == close) {
                (void)get();
                return;
            }
            for (;;) {
                if (c == '{') {
                    (void)parse_string();
                    skip_ws();
                    expect(':');
                }
                skip_value();
                skip_ws();
                if (peek() == close) {
                    (void)get();
                    return;
                }
                expect(',');
                skip_ws();
            }
        } else if (c == 't') {
            skip_literal("true");
        } else if (c == 'f') {
            skip_literal("false");
        } else if (c == 'n') {
            skip_literal("null");
        } else {
            (void)parse_number();
        }
    }

private:
    const std::string& s_;
    std::size_t i_ = 0;
};

FlatObject parse_flat_object(const std::string& line) {
    Cursor cur(line);
    FlatObject fields;
    cur.skip_ws();
    cur.expect('{');
    cur.skip_ws();
    if (cur.peek() == '}') return fields;
    for (;;) {
        cur.skip_ws();
        std::string key = cur.parse_string();
        cur.skip_ws();
        cur.expect(':');
        cur.skip_ws();
        const char head = cur.peek();
        FieldValue value;
        if (head == '"') {
            value.is_string = true;
            value.text = cur.parse_string();
            fields.emplace(std::move(key), std::move(value));
        } else if (head == '{' || head == '[' || head == 't' || head == 'f' ||
                   head == 'n') {
            cur.skip_value();  // nested / non-scalar: not needed here
        } else {
            value.number = cur.parse_number();
            fields.emplace(std::move(key), std::move(value));
        }
        cur.skip_ws();
        const char next = cur.get();
        if (next == '}') break;
        require_data(next == ',', "trace line: expected ',' or '}'");
    }
    return fields;
}

const FieldValue* find_string(const FlatObject& fields, const char* key) {
    const auto it = fields.find(key);
    return it != fields.end() && it->second.is_string ? &it->second : nullptr;
}

const FieldValue* find_number(const FlatObject& fields, const char* key) {
    const auto it = fields.find(key);
    return it != fields.end() && !it->second.is_string ? &it->second : nullptr;
}

// --- aggregation -----------------------------------------------------------

/// Completed spans at one depth, waiting for their parent to end.
struct DepthAccum {
    double child_total = 0.0;
    double max_dur = -1.0;
    std::vector<CriticalPathNode> max_path;  // root-first chain of the
                                             // longest child at this depth
};

struct NameAccum {
    std::uint64_t count = 0;
    double total = 0.0;
    double self_total = 0.0;
    std::vector<double> durations;
};

/// A span_begin still waiting for its span_end — alive when the writer died.
struct OpenSpan {
    std::string name;
    std::size_t depth = 0;
    double begin_t = 0.0;
};

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

TraceAnalysis analyze_trace(std::istream& in) {
    TraceAnalysis analysis;
    std::map<std::string, NameAccum> by_name;
    std::vector<DepthAccum> accum;
    std::optional<RunSummary> run;
    std::vector<OpenSpan> open;
    double max_t = 0.0;  // latest "t" seen; the close time for orphans

    const auto record_span = [&](const std::string& name, std::size_t d,
                                 double duration) {
        if (!run) run.emplace();  // headerless trace: one anonymous run
        ++run->spans;
        double child_total = 0.0;
        std::vector<CriticalPathNode> path;
        if (d + 1 < accum.size()) {
            child_total = accum[d + 1].child_total;
            path = std::move(accum[d + 1].max_path);
        }
        // Interleaved traces (several threads, one stream) can attribute a
        // sibling's children here; the clamp keeps self-time sane.
        const double self = std::max(0.0, duration - child_total);
        path.insert(path.begin(), CriticalPathNode{name, duration, self});
        accum.resize(d + 1);  // drops consumed deeper levels
        DepthAccum& mine = accum[d];
        mine.child_total += duration;
        if (duration > mine.max_dur) {
            mine.max_dur = duration;
            mine.max_path = std::move(path);
        }

        NameAccum& stats = by_name[name];
        ++stats.count;
        stats.total += duration;
        stats.self_total += self;
        stats.durations.push_back(duration);
    };

    // A killed writer leaves span_begin lines with no span_end. Close them
    // at the last timestamp the stream reached — deepest first, so a dying
    // call stack aggregates like a normally unwinding one — and count them.
    const auto close_open_spans = [&] {
        if (open.empty()) return;
        std::stable_sort(open.begin(), open.end(),
                         [](const OpenSpan& a, const OpenSpan& b) {
                             return a.depth > b.depth;
                         });
        for (const OpenSpan& orphan : open) {
            ++analysis.unterminated;
            record_span(orphan.name, orphan.depth,
                        std::max(0.0, max_t - orphan.begin_t));
        }
        open.clear();
    };

    const auto finish_run = [&] {
        close_open_spans();
        if (!run) return;
        if (!accum.empty()) {
            run->root_total_s = accum[0].child_total;
            run->critical_path = std::move(accum[0].max_path);
        }
        accum.clear();
        analysis.runs.push_back(std::move(*run));
        run.reset();
    };

    std::string line;
    while (std::getline(in, line)) {
        ++analysis.lines;
        if (line.empty()) continue;
        FlatObject fields;
        try {
            fields = parse_flat_object(line);
        } catch (const DataError&) {
            ++analysis.skipped;
            continue;
        }
        const FieldValue* type = find_string(fields, "type");
        if (type == nullptr) {
            ++analysis.skipped;
            continue;
        }
        if (type->text == "manifest") {
            finish_run();
            run.emplace();
            if (const FieldValue* tool = find_string(fields, "tool"))
                run->tool = tool->text;
            if (const FieldValue* detector = find_string(fields, "detector"))
                run->detector = detector->text;
            if (const FieldValue* ts = find_string(fields, "timestamp"))
                run->timestamp = ts->text;
            continue;
        }
        if (type->text == "span_begin") {
            const FieldValue* name = find_string(fields, "name");
            const FieldValue* depth = find_number(fields, "depth");
            const FieldValue* t = find_number(fields, "t");
            if (name == nullptr || depth == nullptr || t == nullptr ||
                depth->number < 0)
                continue;  // harmless: aggregation works off span_end
            max_t = std::max(max_t, t->number);
            open.push_back(OpenSpan{name->text,
                                    static_cast<std::size_t>(depth->number),
                                    t->number});
            continue;
        }
        if (type->text != "span_end") continue;  // metrics_sample etc.
        const FieldValue* name = find_string(fields, "name");
        const FieldValue* depth = find_number(fields, "depth");
        const FieldValue* dur = find_number(fields, "dur_s");
        if (name == nullptr || depth == nullptr || dur == nullptr ||
            depth->number < 0) {
            ++analysis.skipped;
            continue;
        }
        if (const FieldValue* t = find_number(fields, "t"))
            max_t = std::max(max_t, t->number);
        const auto d = static_cast<std::size_t>(depth->number);
        // Retire the matching span_begin: most recent (name, depth) pair.
        for (std::size_t i = open.size(); i > 0; --i)
            if (open[i - 1].depth == d && open[i - 1].name == name->text) {
                open.erase(open.begin() + static_cast<std::ptrdiff_t>(i - 1));
                break;
            }
        record_span(name->text, d, dur->number);
    }
    finish_run();

    for (auto& [name, stats] : by_name) {
        std::sort(stats.durations.begin(), stats.durations.end());
        SpanStats row;
        row.name = name;
        row.count = stats.count;
        row.total_s = stats.total;
        row.self_s = stats.self_total;
        row.p50_s = nearest_rank(stats.durations, 0.50);
        row.p95_s = nearest_rank(stats.durations, 0.95);
        row.p99_s = nearest_rank(stats.durations, 0.99);
        row.max_s = stats.durations.back();
        analysis.spans.push_back(std::move(row));
    }
    return analysis;
}

std::string render_traceview(const TraceAnalysis& analysis) {
    std::string out;
    if (analysis.spans.empty()) {
        out += "(no spans in trace)\n";
    } else {
        std::vector<const SpanStats*> order;
        order.reserve(analysis.spans.size());
        for (const SpanStats& row : analysis.spans) order.push_back(&row);
        std::sort(order.begin(), order.end(),
                  [](const SpanStats* a, const SpanStats* b) {
                      if (a->total_s != b->total_s) return a->total_s > b->total_s;
                      return a->name < b->name;
                  });
        TextTable table;
        table.header({"span", "count", "total_s", "self_s", "p50_s", "p95_s",
                      "p99_s", "max_s"});
        for (const SpanStats* row : order)
            table.add(row->name, row->count, fixed(row->total_s, 6),
                      fixed(row->self_s, 6), fixed(row->p50_s, 6),
                      fixed(row->p95_s, 6), fixed(row->p99_s, 6),
                      fixed(row->max_s, 6));
        out += table.render();
    }
    for (std::size_t i = 0; i < analysis.runs.size(); ++i) {
        const RunSummary& run = analysis.runs[i];
        out += "\nrun " + std::to_string(i + 1);
        if (!run.tool.empty()) out += " tool=" + run.tool;
        if (!run.detector.empty()) out += " detector=" + run.detector;
        if (!run.timestamp.empty()) out += " at=" + run.timestamp;
        out += " spans=" + std::to_string(run.spans);
        out += " roots_total_s=" + fixed(run.root_total_s, 6);
        out += "\n";
        if (run.critical_path.empty()) {
            out += "  (no complete root span)\n";
            continue;
        }
        out += "  critical path:\n";
        for (std::size_t link = 0; link < run.critical_path.size(); ++link) {
            const CriticalPathNode& node = run.critical_path[link];
            out += "  " + std::string(2 * link, ' ') + node.name + "  dur_s=" +
                   fixed(node.dur_s, 6) + " self_s=" + fixed(node.self_s, 6) +
                   "\n";
        }
    }
    if (analysis.unterminated > 0)
        out += "\n(warning: " + std::to_string(analysis.unterminated) +
               " span(s) had no span_end; closed at end of trace)\n";
    if (analysis.skipped > 0)
        out += "\n(" + std::to_string(analysis.skipped) + " of " +
               std::to_string(analysis.lines) + " lines skipped as malformed)\n";
    return out;
}

std::string traceview_to_json(const TraceAnalysis& analysis) {
    JsonWriter w;
    w.begin_object();
    w.key("spans").begin_array();
    for (const SpanStats& row : analysis.spans) {
        w.begin_object();
        w.key("name").value(row.name);
        w.key("count").value(row.count);
        w.key("total_s").value(row.total_s);
        w.key("self_s").value(row.self_s);
        w.key("p50_s").value(row.p50_s);
        w.key("p95_s").value(row.p95_s);
        w.key("p99_s").value(row.p99_s);
        w.key("max_s").value(row.max_s);
        w.end_object();
    }
    w.end_array();
    w.key("runs").begin_array();
    for (const RunSummary& run : analysis.runs) {
        w.begin_object();
        w.key("tool").value(run.tool);
        w.key("detector").value(run.detector);
        w.key("timestamp").value(run.timestamp);
        w.key("spans").value(run.spans);
        w.key("root_total_s").value(run.root_total_s);
        w.key("critical_path").begin_array();
        for (const CriticalPathNode& node : run.critical_path) {
            w.begin_object();
            w.key("name").value(node.name);
            w.key("dur_s").value(node.dur_s);
            w.key("self_s").value(node.self_s);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("lines").value(analysis.lines);
    w.key("skipped").value(analysis.skipped);
    w.key("unterminated").value(analysis.unterminated);
    w.end_object();
    return w.str();
}

// --- request view -----------------------------------------------------------

RequestAnalysis analyze_request(std::istream& in, std::string_view trace_id) {
    std::uint64_t wanted = 0;
    require_data(parse_hex16(trace_id, wanted) && wanted != 0,
                 "--request expects a nonzero hex trace id");
    RequestAnalysis analysis;
    analysis.trace_id = hex16(wanted);

    std::map<std::string, std::size_t> by_span;  // span id -> index
    std::string line;
    while (std::getline(in, line)) {
        ++analysis.lines;
        if (line.empty()) continue;
        FlatObject fields;
        try {
            fields = parse_flat_object(line);
        } catch (const DataError&) {
            ++analysis.skipped;
            continue;
        }
        const FieldValue* type = find_string(fields, "type");
        if (type == nullptr) {
            ++analysis.skipped;
            continue;
        }
        if (type->text != "span_end") continue;
        const FieldValue* trace = find_string(fields, "trace");
        if (trace == nullptr || trace->text != analysis.trace_id)
            continue;  // untraced span or a different request
        const FieldValue* name = find_string(fields, "name");
        const FieldValue* span = find_string(fields, "span");
        const FieldValue* parent = find_string(fields, "parent");
        const FieldValue* t = find_number(fields, "t");
        const FieldValue* dur = find_number(fields, "dur_s");
        if (name == nullptr || span == nullptr || parent == nullptr ||
            t == nullptr || dur == nullptr) {
            ++analysis.skipped;
            continue;
        }
        RequestSpan node;
        node.name = name->text;
        node.span = span->text;
        node.parent = parent->text;
        node.dur_s = dur->number;
        node.start_t = t->number - dur->number;
        node.self_s = dur->number;
        by_span.emplace(node.span, analysis.spans.size());
        analysis.spans.push_back(std::move(node));
    }

    // Link children and subtract direct-child time. Client and daemon run
    // separate clocks, so self-time uses only same-process children — which
    // is exactly what the parent link encodes.
    for (std::size_t i = 0; i < analysis.spans.size(); ++i) {
        const auto it = by_span.find(analysis.spans[i].parent);
        if (it == by_span.end() || it->second == i) {
            analysis.roots.push_back(i);
            continue;
        }
        RequestSpan& parent = analysis.spans[it->second];
        parent.children.push_back(i);
        parent.self_s =
            std::max(0.0, parent.self_s - analysis.spans[i].dur_s);
    }
    const auto by_start = [&](std::size_t a, std::size_t b) {
        if (analysis.spans[a].start_t != analysis.spans[b].start_t)
            return analysis.spans[a].start_t < analysis.spans[b].start_t;
        return analysis.spans[a].span < analysis.spans[b].span;
    };
    for (RequestSpan& node : analysis.spans)
        std::sort(node.children.begin(), node.children.end(), by_start);
    std::sort(analysis.roots.begin(), analysis.roots.end(), by_start);
    return analysis;
}

namespace {

void render_request_node(const RequestAnalysis& analysis, std::size_t index,
                         std::size_t indent, std::string& out) {
    const RequestSpan& node = analysis.spans[index];
    out += std::string(2 * indent, ' ') + node.name + "  span=" + node.span +
           " dur_s=" + fixed(node.dur_s, 6) + " self_s=" +
           fixed(node.self_s, 6) + "\n";
    for (const std::size_t child : node.children)
        render_request_node(analysis, child, indent + 1, out);
}

void request_node_to_json(const RequestAnalysis& analysis, std::size_t index,
                          JsonWriter& w) {
    const RequestSpan& node = analysis.spans[index];
    w.begin_object();
    w.key("name").value(node.name);
    w.key("span").value(node.span);
    w.key("parent").value(node.parent);
    w.key("start_t").value(node.start_t);
    w.key("dur_s").value(node.dur_s);
    w.key("self_s").value(node.self_s);
    w.key("children").begin_array();
    for (const std::size_t child : node.children)
        request_node_to_json(analysis, child, w);
    w.end_array();
    w.end_object();
}

}  // namespace

std::string render_request(const RequestAnalysis& analysis) {
    std::string out = "trace " + analysis.trace_id + ": " +
                      std::to_string(analysis.spans.size()) + " span(s)\n";
    if (analysis.spans.empty()) {
        out += "  (no spans carry this trace id)\n";
    } else {
        for (const std::size_t root : analysis.roots)
            render_request_node(analysis, root, 1, out);
    }
    if (analysis.skipped > 0)
        out += "\n(" + std::to_string(analysis.skipped) + " of " +
               std::to_string(analysis.lines) + " lines skipped as malformed)\n";
    return out;
}

std::string request_to_json(const RequestAnalysis& analysis) {
    JsonWriter w;
    w.begin_object();
    w.key("trace").value(analysis.trace_id);
    w.key("span_count").value(
        static_cast<std::uint64_t>(analysis.spans.size()));
    w.key("roots").begin_array();
    for (const std::size_t root : analysis.roots)
        request_node_to_json(analysis, root, w);
    w.end_array();
    w.key("lines").value(analysis.lines);
    w.key("skipped").value(analysis.skipped);
    w.end_object();
    return w.str();
}

}  // namespace adiv
