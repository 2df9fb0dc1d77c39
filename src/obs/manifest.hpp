// Run manifests: the reproducibility record emitted at the head of every
// trace stream.
//
// A manifest pins everything needed to regenerate a run's outputs: the
// corpus parameters and seed, the detector under test, the AS/DW sweep
// ranges, the build type, and a wall-clock timestamp. It leaves a run only
// as the first JSON line of a trace file, so any CSV or map written
// alongside is reproducible from its manifest alone.
#pragma once

#include <cstdint>
#include <string>

namespace adiv {

struct RunManifest {
    std::string tool;      ///< program that produced the run ("adiv_score", ...)
    std::string detector;  ///< detector name, or "" when not detector-specific
    std::string build_type;  ///< CMake build type baked into the library
    std::string timestamp;   ///< ISO-8601 UTC creation time

    // Corpus parameters (mirrors datagen/CorpusSpec; duplicated here so the
    // observability layer stays below datagen in the dependency order).
    std::uint64_t seed = 0;
    std::size_t alphabet_size = 0;
    std::size_t training_length = 0;
    double deviation_rate = 0.0;
    std::size_t deviation_targets = 0;
    double rare_threshold = 0.0;

    // Sweep ranges (min == max == 0 when no sweep is involved).
    std::size_t min_anomaly_size = 0;
    std::size_t max_anomaly_size = 0;
    std::size_t min_window = 0;
    std::size_t max_window = 0;
};

/// Manifest with tool name, build type, and timestamp filled in.
RunManifest make_manifest(std::string tool);

/// Source of the seconds-since-epoch value manifests are stamped with.
using ManifestClock = std::int64_t (*)();

/// Injects the clock used by make_manifest()/now_iso8601(). Pass nullptr to
/// restore the default wall clock. Tests pin a fixed clock so manifests (and
/// everything derived from them) are byte-reproducible.
void set_manifest_clock(ManifestClock clock) noexcept;

/// Formats seconds-since-epoch as "YYYY-MM-DDTHH:MM:SSZ".
std::string iso8601_utc(std::int64_t seconds_since_epoch);

/// Current time (per the injected clock) as "YYYY-MM-DDTHH:MM:SSZ".
std::string now_iso8601();

/// The CMake build type this library was compiled under.
std::string build_type_string();

/// One JSON line: {"type":"manifest",...}.
std::string manifest_json_line(const RunManifest& manifest);

}  // namespace adiv
