// perfbench: the repository's benchmark program. perfbench/run.py builds it
// and runs
//
//   perfbench --workload maps|serve_small|serve_fused --seed N --seconds S
//             --trace 0|1 --daemon <adiv_serve> --workdir <dir>
//
// It prints a human-readable report, then, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
    const char* name;
    const char* unit;
};

// Keep in step with BENCHMARK.json; perfbench/README.md says what each
// means on each workload.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"maps_s", "s"},
    {"p50_ms", "ms"},
    {"capacity_eps", "events/s"},
    {"server_cpu_us_per_event", "us/event"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"datagen.corpus_s", "s"},
    {"anomaly.suite_s", "s"},
    {"detect.train_s.stide", "s"},
    {"detect.train_s.markov", "s"},
    {"detect.train_s.lane-brodley", "s"},
    {"detect.train_s.neural-net", "s"},
    {"engine.busy_s", "s"},
    {"engine.efficiency", "ratio"},
    {"detect.score_ns_per_event.stide", "ns/event"},
    {"detect.score_ns_per_event.markov", "ns/event"},
    {"detect.score_ns_per_event.lane-brodley", "ns/event"},
    {"detect.score_ns_per_event.neural-net", "ns/event"},
    {"core.online_self_ns_per_event", "ns/event"},
    {"fusion.self_ns_per_event", "ns/event"},
    {"serve.session_self_ns_per_event", "ns/event"},
    {"serve.open_us", "us"},
    {"serve.decode_ns_per_event", "ns/event"},
    {"serve.encode_ns_per_event", "ns/event"},
    {"serve.daemon_cpu_ns_per_event", "ns/event"},
    {"serve.unattributed_ns_per_event", "ns/event"},
    {"serve.threads", "count"},
    {"io.model_load_s", "s"},
    {"gen.late_p99_ms", "ms"},
    {"gen.decode_ns_per_event", "ns/event"},
    {"gen.p90_ms", "ms"},
    {"gen.p99_ms", "ms"},
    {"gen.samples", "count"},
    {"traffic.alarm_share", "ratio"},
    {"traffic.novel_window_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload maps|serve_small|serve_fused "
                 "--seed N --seconds S --trace 0|1 --daemon PATH --workdir DIR\n",
                 why);
    return 2;
}

/// Prints a metric table and returns the JSON "metrics" members for it.
template <std::size_t N>
std::string report(const char* title, const MetricSpec (&specs)[N],
                   const std::map<std::string, double>& values, bool& finite) {
    std::printf("%s:\n", title);
    std::string json;
    for (const MetricSpec& spec : specs) {
        const auto it = values.find(spec.name);
        // A layer the workload never reaches did no work: it reads 0.
        double value = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(value)) {
            finite = false;
            value = 0.0;
        }
        std::printf("  %-40s %16.6g %s\n", spec.name, value, spec.unit);
        char member[256];
        std::snprintf(member, sizeof member, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", spec.name, value, spec.unit);
        json += member;
    }
    return json;
}

}  // namespace

int main(int argc, char** argv) {
    Options options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") options.workload = value;
        else if (flag == "--seed") options.seed = std::stoull(value);
        else if (flag == "--seconds") options.seconds = std::stod(value);
        else if (flag == "--trace") options.trace = value == "1";
        else if (flag == "--daemon") options.daemon = value;
        else if (flag == "--workdir") options.workdir = value;
        else return usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 != 1) return usage("every flag takes a value");
    if (options.seconds <= 0.0) return usage("--seconds must be positive");
    const bool serve = options.workload == "serve_small" || options.workload == "serve_fused";
    if (options.workload != "maps" && !serve) return usage("unknown workload");
    if (serve && (options.daemon.empty() || options.workdir.empty()))
        return usage("serve workloads need --daemon and --workdir");

    try {
        perfbench::recorder().set_enabled(options.trace);
        if (!options.workdir.empty()) std::filesystem::create_directories(options.workdir);
        std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d\n",
                    options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                    options.seconds, options.trace ? 1 : 0);
        const Result result =
            serve ? perfbench::run_serve(options) : perfbench::run_maps(options);
        for (const std::string& failure : result.failures)
            std::printf("FAILED: %s\n", failure.c_str());

        // A traced run prints its own end-to-end numbers, then reports the
        // per-layer ones.
        bool finite = true;
        std::string metrics = report("end-to-end", kEndToEnd, result.end_to_end, finite);
        if (options.trace) {
            metrics = report("per-layer", kPerLayer, result.per_layer, finite);
            if (!options.workdir.empty()) {
                const std::string path = options.workdir + "/trace-" + options.workload +
                                         "-" + std::to_string(options.seed) + ".jsonl";
                const std::size_t spans = perfbench::recorder().write_jsonl(path);
                std::printf("trace: %zu spans in %s\n", spans, path.c_str());
            }
        }
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                    result.failed == 0 && finite ? "true" : "false",
                    static_cast<unsigned long long>(result.attempted),
                    static_cast<unsigned long long>(result.failed), metrics.c_str());
        return 0;
    } catch (const std::exception& error) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
}
