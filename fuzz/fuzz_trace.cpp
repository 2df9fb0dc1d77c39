// Fuzz target for the trace reader behind adiv_traceview (obs/traceview.hpp),
// which parses trace files a killed or foreign writer may have left in any
// state: analyze_trace and analyze_request over the raw bytes, then all four
// renderings. Whatever the bytes — truncated lines, malformed numbers,
// self-parented spans, parent cycles, duplicate span ids — the analysis
// must not throw, crash or hang, and its counts must agree: every span is
// counted once per name and once per run, and every tree index is in range.
//
// The same entry point runs under libFuzzer (ADIV_FUZZ=ON with Clang) and
// under the deterministic corpus-replay main in replay_main.cpp.
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

#include "obs/traceview.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    const std::string bytes(reinterpret_cast<const char*>(data), size);

    std::istringstream trace_in(bytes);
    const adiv::TraceAnalysis trace = adiv::analyze_trace(trace_in);
    std::uint64_t by_name = 0;
    std::uint64_t by_run = 0;
    for (const adiv::SpanStats& row : trace.spans) by_name += row.count;
    for (const adiv::RunSummary& run : trace.runs) by_run += run.spans;
    if (by_name != by_run || trace.skipped > trace.lines) __builtin_trap();
    (void)adiv::render_traceview(trace);
    (void)adiv::traceview_to_json(trace);

    // The corpus's request-shaped seeds use trace id 0xaa.
    std::istringstream request_in(bytes);
    const adiv::RequestAnalysis request = adiv::analyze_request(request_in, "aa");
    for (const std::size_t root : request.roots)
        if (root >= request.spans.size()) __builtin_trap();
    for (const adiv::SpanNode& node : request.spans) {
        for (const std::size_t child : node.children)
            if (child >= request.spans.size()) __builtin_trap();
        if (!(node.self_s >= 0.0)) __builtin_trap();
    }
    (void)adiv::render_request(request);
    (void)adiv::request_to_json(request);
    return 0;
}
