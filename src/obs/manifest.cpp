#include "obs/manifest.hpp"

#include <atomic>
#include <ctime>

#include "obs/json.hpp"

#ifndef ADIV_BUILD_TYPE
#define ADIV_BUILD_TYPE "unknown"
#endif

namespace adiv {

RunManifest make_manifest(std::string tool) {
    RunManifest manifest;
    manifest.tool = std::move(tool);
    manifest.build_type = build_type_string();
    manifest.timestamp = now_iso8601();
    return manifest;
}

namespace {

// The one sanctioned wall-clock read: manifests exist to record when a run
// happened, and every consumer that needs reproducibility pins the clock
// with set_manifest_clock() instead.
std::int64_t wall_clock_seconds() {
    return static_cast<std::int64_t>(
        // adiv-lint: allow(nondeterminism, "the one sanctioned wall-clock read; reproducible runs pin set_manifest_clock()")
        std::time(nullptr));
}

std::atomic<ManifestClock> g_manifest_clock{nullptr};

}  // namespace

void set_manifest_clock(ManifestClock clock) noexcept {
    g_manifest_clock.store(clock, std::memory_order_relaxed);
}

std::string iso8601_utc(std::int64_t seconds_since_epoch) {
    const std::time_t t = static_cast<std::time_t>(seconds_since_epoch);
    std::tm utc{};
    gmtime_r(&t, &utc);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
    return buf;
}

std::string now_iso8601() {
    const ManifestClock clock = g_manifest_clock.load(std::memory_order_relaxed);
    return iso8601_utc(clock ? clock() : wall_clock_seconds());
}

std::string build_type_string() { return ADIV_BUILD_TYPE; }

std::string manifest_json_line(const RunManifest& m) {
    JsonWriter w;
    w.begin_object();
    w.key("type").value("manifest");
    w.key("tool").value(m.tool);
    w.key("detector").value(m.detector);
    w.key("build_type").value(m.build_type);
    w.key("timestamp").value(m.timestamp);
    w.key("seed").value(m.seed);
    w.key("alphabet_size").value(static_cast<std::uint64_t>(m.alphabet_size));
    w.key("training_length").value(static_cast<std::uint64_t>(m.training_length));
    w.key("deviation_rate").value(m.deviation_rate);
    w.key("deviation_targets").value(static_cast<std::uint64_t>(m.deviation_targets));
    w.key("rare_threshold").value(m.rare_threshold);
    w.key("min_anomaly_size").value(static_cast<std::uint64_t>(m.min_anomaly_size));
    w.key("max_anomaly_size").value(static_cast<std::uint64_t>(m.max_anomaly_size));
    w.key("min_window").value(static_cast<std::uint64_t>(m.min_window));
    w.key("max_window").value(static_cast<std::uint64_t>(m.max_window));
    w.end_object();
    return w.str();
}

}  // namespace adiv
