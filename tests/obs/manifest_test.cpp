#include "obs/manifest.hpp"

#include <gtest/gtest.h>

namespace adiv {
namespace {

RunManifest sample_manifest() {
    RunManifest m;
    m.tool = "adiv_score";
    m.detector = "markov";
    m.build_type = "RelWithDebInfo";
    m.timestamp = "2026-08-07T12:00:00Z";
    m.seed = 20050628;
    m.alphabet_size = 8;
    m.training_length = 1'000'000;
    m.deviation_rate = 0.01;
    m.deviation_targets = 2;
    m.rare_threshold = 0.001;
    m.min_anomaly_size = 2;
    m.max_anomaly_size = 9;
    m.min_window = 2;
    m.max_window = 15;
    return m;
}

TEST(RunManifest, MakeManifestFillsProvenanceFields) {
    const RunManifest m = make_manifest("adiv_train");
    EXPECT_EQ(m.tool, "adiv_train");
    EXPECT_FALSE(m.build_type.empty());
    // ISO-8601 UTC shape: YYYY-MM-DDTHH:MM:SSZ.
    ASSERT_EQ(m.timestamp.size(), 20u);
    EXPECT_EQ(m.timestamp[4], '-');
    EXPECT_EQ(m.timestamp[10], 'T');
    EXPECT_EQ(m.timestamp.back(), 'Z');
}

TEST(RunManifest, InjectedClockPinsTimestamps) {
    set_manifest_clock([]() -> std::int64_t { return 1785974400; });
    const RunManifest first = make_manifest("adiv_train");
    const RunManifest second = make_manifest("adiv_train");
    set_manifest_clock(nullptr);
    EXPECT_EQ(first.timestamp, "2026-08-06T00:00:00Z");
    // Reproducibility: two runs under the same pinned clock stamp identically.
    EXPECT_EQ(first.timestamp, second.timestamp);
}

TEST(RunManifest, Iso8601FormatsEpochSeconds) {
    EXPECT_EQ(iso8601_utc(0), "1970-01-01T00:00:00Z");
    EXPECT_EQ(iso8601_utc(1119916800), "2005-06-28T00:00:00Z");  // DSN 2005
}

TEST(RunManifest, JsonLineShape) {
    const std::string line = manifest_json_line(sample_manifest());
    EXPECT_EQ(line.find("{\"type\":\"manifest\""), 0u);
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);  // a single JSON line
    EXPECT_NE(line.find("\"tool\":\"adiv_score\""), std::string::npos);
    EXPECT_NE(line.find("\"detector\":\"markov\""), std::string::npos);
    EXPECT_NE(line.find("\"seed\":20050628"), std::string::npos);
    EXPECT_NE(line.find("\"alphabet_size\":8"), std::string::npos);
    EXPECT_NE(line.find("\"training_length\":1000000"), std::string::npos);
    EXPECT_NE(line.find("\"deviation_rate\":0.01"), std::string::npos);
    EXPECT_NE(line.find("\"min_window\":2"), std::string::npos);
    EXPECT_NE(line.find("\"max_window\":15"), std::string::npos);
}

}  // namespace
}  // namespace adiv
