// ObsSession wiring: sink install specs, global-sink restoration and the
// final metrics dump.
#include "obs/session.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

std::vector<std::string> file_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

TEST(ObsSessionInstall, EmptyTraceSpecLeavesGlobalSinkAlone) {
    const std::shared_ptr<TraceSink> before = global_trace_sink();
    {
        ObsSession session("", "", make_manifest("adiv_test"));
        EXPECT_FALSE(session.tracing());
        EXPECT_FALSE(session.metrics_requested());
        EXPECT_EQ(global_trace_sink(), before);
    }
    EXPECT_EQ(global_trace_sink(), before);
}

TEST(ObsSessionInstall, NullSpecInstallsDisabledSinkAndRestores) {
    const std::shared_ptr<TraceSink> before = global_trace_sink();
    {
        ObsSession session("", "null", make_manifest("adiv_test"));
        // Installed but discarding: spans still measure, tracing() is false.
        EXPECT_FALSE(session.tracing());
        EXPECT_NE(global_trace_sink(), before);
        EXPECT_FALSE(global_trace_sink()->enabled());
    }
    EXPECT_EQ(global_trace_sink(), before);
}

TEST(ObsSessionInstall, DashSpecMeansStderr) {
    const std::shared_ptr<TraceSink> before = global_trace_sink();
    {
        ObsSession session("", "-", make_manifest("adiv_test"));
        EXPECT_TRUE(session.tracing());
        EXPECT_NE(global_trace_sink(), before);
    }
    EXPECT_EQ(global_trace_sink(), before);
}

TEST(ObsSessionInstall, FileSpecWritesManifestFirstLine) {
    const std::string path = test::temp_path("adiv_session_trace.jsonl");
    const std::shared_ptr<TraceSink> before = global_trace_sink();
    {
        ObsSession session("", path, make_manifest("adiv_test"));
        EXPECT_TRUE(session.tracing());
        TraceSpan span("test.work");
    }
    EXPECT_EQ(global_trace_sink(), before);
    const std::vector<std::string> lines = file_lines(path);
    ASSERT_GE(lines.size(), 3u);  // manifest + span_begin + span_end
    EXPECT_EQ(lines[0].find("{\"type\":\"manifest\""), 0u);
    EXPECT_NE(lines[0].find("\"tool\":\"adiv_test\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"span_begin\""), std::string::npos);
}

TEST(ObsSessionInstall, UnwritableTracePathThrowsDataError) {
    EXPECT_THROW((void)open_trace_sink("/nonexistent_adiv_dir/trace.jsonl"),
                 DataError);
    EXPECT_THROW(
        ObsSession("", "/nonexistent_adiv_dir/trace.jsonl",
                   make_manifest("adiv_test")),
        DataError);
}

TEST(ObsSessionMetrics, DumpWritesJsonFile) {
    const std::string path = test::temp_path("adiv_session_metrics.json");
    global_metrics().counter("test.dump_events").add(2);
    ObsSession session(path, "", make_manifest("adiv_test"));
    EXPECT_TRUE(session.metrics_requested());
    session.dump_metrics();
    session.dump_metrics();  // idempotent
    const std::vector<std::string> lines = file_lines(path);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"test.dump_events\""), std::string::npos);
}

}  // namespace
}  // namespace adiv
