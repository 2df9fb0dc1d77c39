#include "obs/traceview.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <map>
#include <optional>

#include "obs/json.hpp"
#include "obs/trace.hpp"  // hex16 / parse_hex16 for span ids
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
        double value = 0.0;
        const auto [end, ec] = std::from_chars(s_.data() + start, s_.data() + i_, value);
        require_data(ec == std::errc() && end == s_.data() + i_ && std::isfinite(value),
                     "trace line: malformed number");
        return value;
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

/// A 16-hex id field, or 0 when it is absent or malformed.
std::uint64_t find_id(const FlatObject& fields, const char* key) {
    std::uint64_t id = 0;
    const FieldValue* field = find_string(fields, key);
    return field != nullptr && parse_hex16(field->text, id) ? id : 0;
}

// --- the span tree ----------------------------------------------------------

/// Streams `in` run by run: a run is the lines from one manifest to the
/// next, and lines before the first manifest form a headerless run. Calls
/// `on_run(run, spans)` for every run that has a manifest or a span, with
/// the manifest's fields in `run` and, in document order, one span per
/// span_end line and then one per span_begin that never ended, closed at
/// the run's last t. A nonzero `only_trace` keeps that trace's spans alone.
template <typename OnRun>
void read_runs(std::istream& in, std::uint64_t only_trace, std::uint64_t& lines,
               std::uint64_t& skipped, std::uint64_t& unterminated,
               OnRun&& on_run) {
    std::optional<RunSummary> run;
    std::vector<SpanNode> spans;
    std::vector<SpanNode> open;  // begun, not yet ended
    double last_t = 0.0;
    const auto finish_run = [&] {
        for (SpanNode& orphan : open) {
            orphan.dur_s = std::max(0.0, last_t - orphan.start_t);
            spans.push_back(std::move(orphan));
            ++unterminated;
        }
        if (run || !spans.empty()) on_run(run ? *run : RunSummary{}, spans);
        run.reset();
        spans.clear();
        open.clear();
        last_t = 0.0;
    };

    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        if (line.empty()) continue;
        FlatObject fields;
        try {
            fields = parse_flat_object(line);
        } catch (const DataError&) {
            ++skipped;
            continue;
        }
        const FieldValue* type = find_string(fields, "type");
        if (type == nullptr) {
            ++skipped;
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
        const bool begin = type->text == "span_begin";
        if (!begin && type->text != "span_end") continue;  // other record types
        const FieldValue* name = find_string(fields, "name");
        const FieldValue* t = find_number(fields, "t");
        const FieldValue* dur = find_number(fields, "dur_s");
        if (name == nullptr || t == nullptr || (!begin && dur == nullptr)) {
            if (!begin) ++skipped;  // a begin is only needed for orphans
            continue;
        }
        last_t = std::max(last_t, t->number);
        if (only_trace != 0 && find_id(fields, "trace") != only_trace) continue;
        SpanNode node;
        node.name = name->text;
        node.span = find_id(fields, "span");
        node.parent = find_id(fields, "parent");
        if (begin) {
            node.start_t = t->number;
            if (node.span != 0) open.push_back(std::move(node));
            continue;
        }
        node.dur_s = dur->number;
        node.start_t = t->number - dur->number;
        for (std::size_t i = open.size(); node.span != 0 && i > 0; --i)
            if (open[i - 1].span == node.span) {
                open.erase(open.begin() + static_cast<std::ptrdiff_t>(i - 1));
                break;
            }
        spans.push_back(std::move(node));
    }
    finish_run();
}

/// Links `spans` parent -> child by id, fills each span's children and self
/// time, and returns the roots. Children and roots are ordered by start.
std::vector<std::size_t> link_spans(std::vector<SpanNode>& spans) {
    std::map<std::uint64_t, std::size_t> by_id;  // the first span with each id
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].span != 0) by_id.emplace(spans[i].span, i);
    std::vector<double> child_total(spans.size(), 0.0);
    std::vector<std::size_t> roots;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto it = by_id.find(spans[i].parent);
        if (it == by_id.end() || it->second == i) {
            roots.push_back(i);
            continue;
        }
        spans[it->second].children.push_back(i);
        child_total[it->second] += spans[i].dur_s;
    }
    const auto by_start = [&](std::size_t a, std::size_t b) {
        if (spans[a].start_t != spans[b].start_t)
            return spans[a].start_t < spans[b].start_t;
        return spans[a].span < spans[b].span;
    };
    for (std::size_t i = 0; i < spans.size(); ++i) {
        spans[i].self_s = std::max(0.0, spans[i].dur_s - child_total[i]);
        std::sort(spans[i].children.begin(), spans[i].children.end(), by_start);
    }
    std::sort(roots.begin(), roots.end(), by_start);
    return roots;
}

struct NameAccum {
    std::uint64_t count = 0;
    double total = 0.0;
    double self_total = 0.0;
    std::vector<double> durations;
};

double nearest_rank(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index = rank <= 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

std::string unterminated_warning(std::uint64_t unterminated) {
    if (unterminated == 0) return "";
    return "\n(warning: " + std::to_string(unterminated) +
           " span(s) had no span_end; closed at end of trace)\n";
}

std::string skipped_note(std::uint64_t skipped, std::uint64_t lines) {
    if (skipped == 0) return "";
    return "\n(" + std::to_string(skipped) + " of " + std::to_string(lines) +
           " lines skipped as malformed)\n";
}

}  // namespace

TraceAnalysis analyze_trace(std::istream& in) {
    TraceAnalysis analysis;
    std::map<std::string, NameAccum> by_name;
    const auto add_run = [&](RunSummary run, std::vector<SpanNode>& spans) {
        const std::vector<std::size_t> roots = link_spans(spans);
        run.spans = spans.size();
        for (const std::size_t root : roots) run.root_total_s += spans[root].dur_s;
        // The longest root, then each link's longest child (earliest on a tie).
        for (const std::vector<std::size_t>* next = &roots; !next->empty();) {
            const SpanNode& link = spans[*std::max_element(
                next->begin(), next->end(), [&](std::size_t a, std::size_t b) {
                    return spans[a].dur_s < spans[b].dur_s;
                })];
            run.critical_path.push_back({link.name, link.dur_s, link.self_s});
            next = &link.children;
        }
        for (const SpanNode& node : spans) {
            NameAccum& stats = by_name[node.name];
            ++stats.count;
            stats.total += node.dur_s;
            stats.self_total += node.self_s;
            stats.durations.push_back(node.dur_s);
        }
        analysis.runs.push_back(std::move(run));
    };
    read_runs(in, 0, analysis.lines, analysis.skipped, analysis.unterminated, add_run);

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
    out += unterminated_warning(analysis.unterminated);
    out += skipped_note(analysis.skipped, analysis.lines);
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
    // Client and daemon write separate files, each its own run; the request
    // links across all of them. Self time still uses only same-process
    // children, which is exactly what a parent link encodes.
    read_runs(in, wanted, analysis.lines, analysis.skipped, analysis.unterminated,
              [&](const RunSummary&, std::vector<SpanNode>& spans) {
                  for (SpanNode& node : spans)
                      analysis.spans.push_back(std::move(node));
              });
    analysis.roots = link_spans(analysis.spans);
    return analysis;
}

namespace {

void render_request_node(const RequestAnalysis& analysis, std::size_t index,
                         std::size_t indent, std::string& out) {
    const SpanNode& node = analysis.spans[index];
    out += std::string(2 * indent, ' ') + node.name + "  span=" + hex16(node.span) +
           " dur_s=" + fixed(node.dur_s, 6) + " self_s=" +
           fixed(node.self_s, 6) + "\n";
    for (const std::size_t child : node.children)
        render_request_node(analysis, child, indent + 1, out);
}

void request_node_to_json(const RequestAnalysis& analysis, std::size_t index,
                          JsonWriter& w) {
    const SpanNode& node = analysis.spans[index];
    w.begin_object();
    w.key("name").value(node.name);
    w.key("span").value(hex16(node.span));
    w.key("parent").value(hex16(node.parent));
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
    out += unterminated_warning(analysis.unterminated);
    out += skipped_note(analysis.skipped, analysis.lines);
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
