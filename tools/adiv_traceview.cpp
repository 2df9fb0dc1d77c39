// adiv_traceview: aggregate a --trace JSON-lines span stream into tables.
//
//   adiv_traceview run.trace.jsonl
//   adiv_traceview --json run.trace.jsonl other.trace.jsonl
//   some_tool --trace - 2>&1 | adiv_traceview -
//
// Both views read one tree: spans linked to their parents by the ids every
// traced span carries (obs/traceview.hpp). The span view prints one row per
// span name — count, total time, self time (total minus direct children),
// and exact nearest-rank p50/p95/p99/max — sorted by total time; then one
// section per run manifest with its summed root time and critical path
// (the longest-child chain under the longest root span). --json emits the
// same content as one JSON document, spans sorted by name. Malformed lines
// are counted, never fatal, and spans that never ended are closed at their
// run's last timestamp and counted, so a cut-off trace still analyzes.
//
// --request TRACEID switches to the request view: the causal tree of one
// traced request, linked across files — pass both the client's and the
// daemon's trace files and the client verb span parents the daemon's
// handling spans. Combines with --json.
//
//   adiv_traceview --request 9b2f... client.jsonl daemon.jsonl
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "adiv.hpp"

using namespace adiv;

int main(int argc, char** argv) {
    CliParser cli("adiv_traceview",
                  "aggregate a JSON-lines span trace: per-span statistics and "
                  "per-run critical paths");
    cli.add_flag("json", "emit one JSON document instead of tables");
    cli.add_option("request", "",
                   "request view: the causal tree of one traced request "
                   "(16-hex trace id)");
    try {
        if (!cli.parse(argc, argv)) return 0;
        const std::vector<std::string>& inputs = cli.positionals();
        require(!inputs.empty(),
                "usage: adiv_traceview [--json] [--request TRACEID] "
                "TRACE.jsonl ... ('-' = stdin)");
        std::stringstream merged;
        for (const std::string& path : inputs) {
            std::ostringstream text;
            if (path == "-") {
                text << std::cin.rdbuf();
            } else {
                std::ifstream in(path);
                require_data(in.good(), "cannot open '" + path + "'");
                text << in.rdbuf();
            }
            const std::string content = text.str();
            merged << content;
            // End an unterminated last line, so two files never glue, and add
            // no line the input does not have.
            if (!content.empty() && content.back() != '\n') merged << '\n';
        }
        if (const std::string request = cli.get("request"); !request.empty()) {
            const RequestAnalysis analysis = analyze_request(merged, request);
            if (cli.get_flag("json"))
                std::printf("%s\n", request_to_json(analysis).c_str());
            else
                std::fputs(render_request(analysis).c_str(), stdout);
            return 0;
        }
        const TraceAnalysis analysis = analyze_trace(merged);
        if (cli.get_flag("json"))
            std::printf("%s\n", traceview_to_json(analysis).c_str());
        else
            std::fputs(render_traceview(analysis).c_str(), stdout);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "adiv_traceview: %s\n", e.what());
        return 1;
    }
}
