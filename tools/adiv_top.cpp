// adiv_top: live terminal dashboard over a running adiv_serve daemon.
//
//   adiv_top --port 9100                 # refresh every second
//   adiv_top --port 9100 --interval-ms 250
//   adiv_top --port 9100 --once          # one frame, no screen clear (CI)
//
// Each frame is one HTTP GET /metrics against the daemon's --metrics-port
// (connect and reads both bounded, so a wedged daemon fails fast), parsed
// through the validating OpenMetrics parser. The dashboard shows:
//
//   * headline rates — events/s, fused-alarm rate per scored window, and
//     active sessions — computed from counter deltas between frames;
//   * every counter with its lifetime total and per-second rate;
//   * every summary family (the serve.stage.* sketches, the wait sites'
//     wait_us sketches, serve.push_latency_us) with count/p50/p95/p99 — and, when
//     the p99 sample carries an exemplar, the trace id of the request
//     behind the tail, ready for `adiv_traceview --request`.
//
// The first frame has no predecessor, so rates read 0 until the second
// scrape. Exits nonzero only when --once cannot produce a frame; the live
// loop reports scrape errors in-place and keeps trying (daemons restart).
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "adiv.hpp"

using namespace adiv;

namespace {

/// A summary family folded out of its quantile/_sum/_count samples.
struct SummaryRow {
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::uint64_t count = 0;
    std::string exemplar;  ///< p99 exemplar labels; empty when absent
};

struct Frame {
    std::map<std::string, double> counters;     // family -> _total value
    std::map<std::string, double> gauges;       // family -> value
    std::map<std::string, SummaryRow> summaries;
    double at_s = 0.0;  ///< monotonic scrape time, for rate denominators
};

Frame fold_frame(const OpenMetricsDocument& doc, double at_s) {
    Frame frame;
    frame.at_s = at_s;
    std::map<std::string, std::string> types;
    for (const auto& [family, type] : doc.types) types[family] = type;
    for (const OpenMetricsSample& sample : doc.samples) {
        constexpr std::string_view kTotal = "_total";
        if (sample.name.size() > kTotal.size() &&
            sample.name.compare(sample.name.size() - kTotal.size(),
                                kTotal.size(), kTotal) == 0) {
            const std::string family =
                sample.name.substr(0, sample.name.size() - kTotal.size());
            if (types[family] == "counter") {
                frame.counters[family] = sample.value;
                continue;
            }
        }
        const auto type = types.find(sample.name);
        if (type != types.end() && type->second == "gauge") {
            frame.gauges[sample.name] = sample.value;
            continue;
        }
        // Summary quantile samples carry the family name itself.
        if (type != types.end() && type->second == "summary" &&
            !sample.labels.empty()) {
            SummaryRow& row = frame.summaries[sample.name];
            if (sample.labels == "quantile=\"0.5\"") row.p50 = sample.value;
            if (sample.labels == "quantile=\"0.95\"") row.p95 = sample.value;
            if (sample.labels == "quantile=\"0.99\"") {
                row.p99 = sample.value;
                if (sample.has_exemplar) row.exemplar = sample.exemplar_labels;
            }
            continue;
        }
        constexpr std::string_view kCount = "_count";
        if (sample.name.size() > kCount.size() &&
            sample.name.compare(sample.name.size() - kCount.size(),
                                kCount.size(), kCount) == 0) {
            const std::string family =
                sample.name.substr(0, sample.name.size() - kCount.size());
            if (types[family] == "summary")
                frame.summaries[family].count =
                    static_cast<std::uint64_t>(sample.value);
        }
    }
    return frame;
}

/// Counter delta per second between frames; 0 on the first frame.
double rate_of(const Frame& now, const Frame* prev, const std::string& family) {
    if (prev == nullptr || now.at_s <= prev->at_s) return 0.0;
    const auto before = prev->counters.find(family);
    const auto after = now.counters.find(family);
    if (after == now.counters.end()) return 0.0;
    const double base = before == prev->counters.end() ? 0.0 : before->second;
    return (after->second - base) / (now.at_s - prev->at_s);
}

/// p99 exemplar labels -> the bare trace id, for the dashboard column.
std::string exemplar_trace(const std::string& labels) {
    const std::string key = "trace_id=\"";
    const std::size_t at = labels.find(key);
    if (at == std::string::npos) return "-";
    const std::size_t end = labels.find('"', at + key.size());
    if (end == std::string::npos) return "-";
    return labels.substr(at + key.size(), end - at - key.size());
}

std::string render_frame(const Frame& frame, const Frame* prev,
                         const std::string& endpoint) {
    std::string out = "adiv_top — " + endpoint + "\n";
    const double events_rate = rate_of(frame, prev, "adiv_serve_events_pushed");
    const double fused_windows =
        rate_of(frame, prev, "adiv_fusion_fused_windows");
    const double fused_alarms = rate_of(frame, prev, "adiv_fusion_fused_alarms");
    const auto sessions = frame.gauges.find("adiv_serve_sessions_active");
    out += "throughput=" + fixed(events_rate, 0) + " events/s";
    out += "  sessions=" +
           fixed(sessions == frame.gauges.end() ? 0.0 : sessions->second, 0);
    out += "  fused_alarm_rate=" +
           (fused_windows > 0.0 ? fixed(fused_alarms / fused_windows, 4)
                                : std::string("-")) +
           "/window\n\n";

    if (!frame.counters.empty()) {
        TextTable table;
        table.header({"counter", "total", "per_sec"});
        for (const auto& [family, value] : frame.counters)
            table.add(family, fixed(value, 0),
                      fixed(rate_of(frame, prev, family), 1));
        out += table.render();
        out += "\n";
    }
    if (!frame.summaries.empty()) {
        TextTable table;
        table.header({"latency", "count", "p50", "p95", "p99", "p99_trace"});
        for (const auto& [family, row] : frame.summaries)
            table.add(family, row.count, fixed(row.p50, 1), fixed(row.p95, 1),
                      fixed(row.p99, 1),
                      row.exemplar.empty() ? std::string("-")
                                           : exemplar_trace(row.exemplar));
        out += table.render();
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("adiv_top",
                  "live dashboard over a running adiv_serve daemon's "
                  "GET /metrics endpoint");
    cli.add_option("port", "0", "the daemon's --metrics-port (required)");
    cli.add_option("host", "127.0.0.1", "daemon host");
    cli.add_option("interval-ms", "1000", "refresh interval");
    cli.add_flag("once", "render a single frame and exit (no screen clear)");
    try {
        if (!cli.parse(argc, argv)) return 0;
        const int port = cli.get_int("port");
        require(port > 0 && port <= 65535, "--port is required");
        const std::string host = cli.get("host");
        const int interval_ms = cli.get_int("interval-ms");
        require(interval_ms > 0, "--interval-ms must be positive");
        const bool once = cli.get_flag("once");
        const std::string endpoint = host + ":" + std::to_string(port);

        const Stopwatch clock;
        Frame previous;
        bool have_previous = false;
        for (;;) {
            std::string body;
            try {
                const OpenMetricsDocument doc =
                    serve::scrape_metrics(host, static_cast<std::uint16_t>(port));
                const Frame frame = fold_frame(doc, clock.seconds());
                body = render_frame(
                    frame, have_previous ? &previous : nullptr, endpoint);
                previous = frame;
                have_previous = true;
            } catch (const std::exception& e) {
                if (once) throw;
                body = "adiv_top — " + endpoint + "\nscrape failed: " +
                       e.what() + " (retrying)\n";
            }
            if (once) {
                std::fputs(body.c_str(), stdout);
                return 0;
            }
            // Home + clear-to-end keeps the frame flicker-free on any VT100.
            std::fputs("\x1b[H\x1b[J", stdout);
            std::fputs(body.c_str(), stdout);
            std::fflush(stdout);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_top: %s\n", e.what());
        return 1;
    }
}
