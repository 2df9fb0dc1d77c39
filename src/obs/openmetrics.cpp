#include "obs/openmetrics.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "obs/trace.hpp"  // hex16 for exemplar trace/span ids
#include "util/error.hpp"

namespace adiv {

namespace {

bool valid_exposition_name(std::string_view name) {
    if (name.empty()) return false;
    const auto head = static_cast<unsigned char>(name.front());
    if (!(std::isalpha(head) != 0 || name.front() == '_' || name.front() == ':'))
        return false;
    for (const char c : name) {
        const auto u = static_cast<unsigned char>(c);
        if (!(std::isalnum(u) != 0 || c == '_' || c == ':')) return false;
    }
    return true;
}

void append_sample(std::string& out, const std::string& name,
                   std::string_view labels, const std::string& value) {
    out += name;
    if (!labels.empty()) {
        out += '{';
        out += labels;
        out += '}';
    }
    out += ' ';
    out += value;
    out += '\n';
}

void append_quantile(std::string& out, const std::string& name,
                     const char* quantile, double value) {
    append_sample(out, name, std::string("quantile=\"") + quantile + "\"",
                  openmetrics_number(value));
}

}  // namespace

std::string openmetrics_name(std::string_view name) {
    std::string out = "adiv_";
    for (const char c : name) {
        const auto u = static_cast<unsigned char>(c);
        out += (std::isalnum(u) != 0 && std::isupper(u) == 0) || c == '_'
                   ? c
                   : '_';
    }
    return out;
}

std::string openmetrics_number(double value) {
    if (std::isnan(value)) return "NaN";
    if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    return buf;
}

std::string metrics_to_openmetrics(const MetricsRegistry& registry) {
    const MetricsRegistry::Snapshot snap = registry.snapshot();
    std::string out;
    for (const auto& [name, value] : snap.counters) {
        const std::string family = openmetrics_name(name);
        out += "# TYPE " + family + " counter\n";
        append_sample(out, family + "_total", "", std::to_string(value));
    }
    for (const auto& [name, value] : snap.gauges) {
        const std::string family = openmetrics_name(name);
        out += "# TYPE " + family + " gauge\n";
        append_sample(out, family, "", openmetrics_number(value));
    }
    for (const auto& [name, s] : snap.sketches) {
        const std::string family = openmetrics_name(name);
        out += "# TYPE " + family + " summary\n";
        // SketchSummary reports 0 (never NaN) for every field of an empty
        // sketch, so a zero-sample summary renders as all zeros.
        append_quantile(out, family, "0.5", s.p50);
        append_quantile(out, family, "0.95", s.p95);
        // The tail quantile carries the exemplar: the trace/span ids of the
        // largest traced observation, so a scraped p99 links back to the
        // request's spans in the trace file.
        out += family + "{quantile=\"0.99\"} " + openmetrics_number(s.p99);
        if (s.has_exemplar()) {
            out += " # {trace_id=\"" + hex16(s.exemplar_trace) +
                   "\",span_id=\"" + hex16(s.exemplar_span) + "\"} " +
                   openmetrics_number(s.exemplar_value);
        }
        out += '\n';
        append_sample(out, family + "_sum", "", openmetrics_number(s.sum));
        append_sample(out, family + "_count", "", std::to_string(s.count));
    }
    out += "# EOF\n";
    return out;
}

std::optional<double> OpenMetricsDocument::value(std::string_view name,
                                                 std::string_view labels) const {
    for (const OpenMetricsSample& sample : samples)
        if (sample.name == name && (labels.empty() || sample.labels == labels))
            return sample.value;
    return std::nullopt;
}

std::string OpenMetricsDocument::type_of(std::string_view family) const {
    for (const auto& [name, type] : types)
        if (name == family) return type;
    return {};
}

namespace {

const std::set<std::string>& known_metric_types() {
    static const std::set<std::string> kTypes{
        "counter", "gauge",    "summary",  "histogram",
        "unknown", "untyped",  "info",     "stateset",
        "gaugehistogram"};
    return kTypes;
}

double parse_sample_value(const std::string& token, std::size_t line_no) {
    if (token == "+Inf" || token == "Inf") return HUGE_VAL;
    if (token == "-Inf") return -HUGE_VAL;
    if (token == "NaN") return NAN;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    require_data(end == token.c_str() + token.size() && !token.empty(),
                 "openmetrics line " + std::to_string(line_no) +
                     ": malformed sample value '" + token + "'");
    return value;
}

/// The declared family a sample name belongs to, given the suffix grammar
/// ("" = exact match for gauge / summary-quantile samples).
std::string family_of(const std::string& name,
                      const std::map<std::string, std::string>& types) {
    if (types.count(name) > 0) return name;
    static const char* kSuffixes[] = {"_total", "_sum", "_count", "_created",
                                      "_bucket"};
    for (const char* suffix : kSuffixes) {
        const std::string_view tail(suffix);
        if (name.size() > tail.size() &&
            name.compare(name.size() - tail.size(), tail.size(), tail) == 0) {
            const std::string family = name.substr(0, name.size() - tail.size());
            if (types.count(family) > 0) return family;
        }
    }
    return {};
}

}  // namespace

OpenMetricsDocument parse_openmetrics(std::string_view text) {
    OpenMetricsDocument doc;
    std::map<std::string, std::string> types;
    bool saw_eof = false;
    std::size_t line_no = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = std::min(text.find('\n', pos), text.size());
        const std::string line(text.substr(pos, nl - pos));
        pos = nl + 1;
        ++line_no;
        const std::string at = "openmetrics line " + std::to_string(line_no);
        require_data(!saw_eof, at + ": content after # EOF");
        if (line.empty()) {
            require_data(pos >= text.size(), at + ": blank line");
            continue;
        }
        if (line[0] == '#') {
            if (line == "# EOF") {
                saw_eof = true;
                continue;
            }
            // "# KEYWORD ..."; a bare "#" is a comment with no keyword.
            const std::size_t word = line.find(' ', 2);
            const std::string keyword =
                line.size() < 2 ? std::string() : line.substr(2, word - 2);
            if (keyword == "TYPE") {
                require_data(word != std::string::npos, at + ": truncated TYPE");
                const std::size_t name_end = line.find(' ', word + 1);
                require_data(name_end != std::string::npos, at + ": truncated TYPE");
                const std::string family = line.substr(word + 1, name_end - word - 1);
                const std::string type = line.substr(name_end + 1);
                require_data(valid_exposition_name(family),
                             at + ": invalid metric name '" + family + "'");
                require_data(known_metric_types().count(type) > 0,
                             at + ": unknown metric type '" + type + "'");
                require_data(types.emplace(family, type).second,
                             at + ": duplicate TYPE for '" + family + "'");
                doc.types.emplace_back(family, type);
            }
            // HELP / UNIT / arbitrary comments pass through unchecked.
            continue;
        }
        OpenMetricsSample sample;
        std::size_t cut = line.find_first_of("{ ");
        require_data(cut != std::string::npos, at + ": sample without a value");
        sample.name = line.substr(0, cut);
        require_data(valid_exposition_name(sample.name),
                     at + ": invalid metric name '" + sample.name + "'");
        if (line[cut] == '{') {
            const std::size_t close = line.find('}', cut);
            require_data(close != std::string::npos, at + ": unterminated labels");
            sample.labels = line.substr(cut + 1, close - cut - 1);
            cut = close + 1;
            require_data(cut < line.size() && line[cut] == ' ',
                         at + ": missing value after labels");
        }
        std::string value_token = line.substr(cut + 1);
        // An exemplar rides after the value as ` # {labels} value`.
        const std::size_t exemplar_at = value_token.find(" # ");
        if (exemplar_at != std::string::npos) {
            const std::string exemplar = value_token.substr(exemplar_at + 3);
            value_token.resize(exemplar_at);
            require_data(!exemplar.empty() && exemplar.front() == '{',
                         at + ": exemplar must start with '{'");
            const std::size_t close = exemplar.find('}');
            require_data(close != std::string::npos,
                         at + ": unterminated exemplar labels");
            require_data(close + 2 < exemplar.size() && exemplar[close + 1] == ' ',
                         at + ": missing exemplar value");
            const std::string exemplar_value = exemplar.substr(close + 2);
            require_data(exemplar_value.find(' ') == std::string::npos,
                         at + ": trailing content after exemplar value");
            sample.has_exemplar = true;
            sample.exemplar_labels = exemplar.substr(1, close - 1);
            sample.exemplar_value = parse_sample_value(exemplar_value, line_no);
        }
        require_data(value_token.find(' ') == std::string::npos,
                     at + ": trailing content after sample value");
        sample.value = parse_sample_value(value_token, line_no);
        const std::string family = family_of(sample.name, types);
        require_data(!family.empty(),
                     at + ": sample '" + sample.name + "' has no preceding TYPE");
        if (types[family] == "counter") {
            require_data(sample.name == family + "_total" ||
                             sample.name == family + "_created",
                         at + ": counter sample '" + sample.name +
                             "' must use the _total suffix");
            require_data(std::isfinite(sample.value) && sample.value >= 0.0,
                         at + ": counter value must be finite and non-negative");
        }
        doc.samples.push_back(std::move(sample));
    }
    require_data(saw_eof, "openmetrics exposition is missing the terminal # EOF");
    return doc;
}

}  // namespace adiv
