// The profiled serve pipeline end to end over loopback transports: stage
// sketches fill while profiling is on and stay empty while it is off, the
// sampled event_stage stream honours the stage-sum <= total invariant, and
// the DUMP verb replays each session's flight recorder.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "detect/registry.hpp"
#include "obs/profile.hpp"
#include "obs/traceview.hpp"
#include "serve/client.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv::serve {
namespace {

std::shared_ptr<const SequenceDetector> trained_stide() {
    auto detector = make_detector(DetectorKind::Stide, 6);
    detector->train(test::small_corpus().training());
    return detector;
}

std::unique_ptr<Transport> connect(Server& server) {
    auto [client_end, server_end] = make_loopback_pair();
    EXPECT_TRUE(server.attach(std::move(server_end)));
    return std::move(client_end);
}

std::uint64_t stage_count(const MetricsRegistry::Snapshot& snap,
                          const std::string& name) {
    for (const auto& [metric, summary] : snap.sketches)
        if (metric == name) return summary.count;
    return 0;
}

/// Runs one OPEN + pushes + DRAIN (+ optional DUMP) session; returns the
/// DUMP body ("" when not requested).
std::string drive_session(Server& server, bool dump) {
    Client client(connect(server));
    (void)client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(1'024, 7);
    for (std::size_t pos = 0; pos < events.size(); pos += 128)
        (void)client.push(events.view().subspan(
            pos, std::min<std::size_t>(128, events.size() - pos)));
    (void)client.drain();
    std::string body;
    if (dump) body = client.dump();
    (void)client.close_session();
    client.disconnect();
    server.wait_connections_closed();
    return body;
}

class ProfilingGuard {
public:
    ProfilingGuard() { set_profiling_enabled(true); }
    ~ProfilingGuard() { set_profiling_enabled(false); }
};

TEST(StageProfile, OffByDefaultLeavesHistogramsAndFlightEmpty) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    MetricsRegistry metrics;
    Server server({.profile_sample_every = 1}, metrics);
    server.add_model("stide/6", trained_stide());
    const std::string dump = drive_session(server, /*dump=*/true);
    // No profiling: no stage samples, and the flight ring never filled.
    EXPECT_EQ(stage_count(metrics.snapshot(), "serve.stage.total_us"), 0u);
    EXPECT_EQ(dump, "");
    server.shutdown();
}

TEST(StageProfile, StampsEveryStageAndKeepsTheSumInvariant) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    // Sample every PUSH so the captured stream holds every event's stamps.
    std::ostringstream captured;
    const auto sink = std::make_shared<StreamTraceSink>(captured);
    const auto previous = set_global_trace_sink(sink);
    MetricsRegistry metrics;
    Server server({.flight_capacity = 8, .profile_sample_every = 1}, metrics);
    server.add_model("stide/6", trained_stide());
    const std::string dump = drive_session(server, /*dump=*/true);
    server.shutdown();
    set_global_trace_sink(previous);

    // Every request stamps all six stage sketches together.
    const MetricsRegistry::Snapshot snap = metrics.snapshot();
    const std::uint64_t total = stage_count(snap, "serve.stage.total_us");
    EXPECT_GT(total, 0u);
    for (const char* name :
         {"serve.stage.recv_wait_us", "serve.stage.recv_read_us",
          "serve.stage.parse_us", "serve.stage.score_us",
          "serve.stage.reply_us"})
        EXPECT_EQ(stage_count(snap, name), total) << name;

    // The flight ring replays the most recent requests, PUSHes included.
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(dump.rfind("seq=", 0), 0u);
    EXPECT_NE(dump.find("verb=PUSH"), std::string::npos);
    EXPECT_NE(dump.find("outcome=ok"), std::string::npos);

    // The sampled stream aggregates cleanly, and the disjoint-stage design
    // keeps the summed stages within the end-to-end total.
    std::istringstream stream(captured.str());
    const ContentionAnalysis analysis = analyze_contention(stream);
    EXPECT_GT(analysis.events, 0u);
    EXPECT_EQ(analysis.skipped, 0u);
    double stage_sum = 0.0;
    double total_sum = 0.0;
    for (const StageBreakdown& row : analysis.stages) {
        if (row.stage == "total")
            total_sum = row.total_us;
        else
            stage_sum += row.total_us;
    }
    EXPECT_GT(total_sum, 0.0);
    EXPECT_LE(stage_sum, total_sum * (1.0 + 1e-9));
}

TEST(StageProfile, DumpNeedsAnOpenSession) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained_stide());
    Client client(connect(server));
    EXPECT_THROW((void)client.dump(), ServeError);
    client.disconnect();
    server.shutdown();
}

TEST(StageProfile, FlightRingIsBoundedPerSession) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry metrics;
    // Tiny ring: 1024 events in 128-batches = 8 PUSHes + OPEN + DRAIN, far
    // past 4 slots, so the dump holds exactly the last 4 records.
    Server server({.flight_capacity = 4, .profile_sample_every = 0}, metrics);
    server.add_model("stide/6", trained_stide());
    const std::string dump = drive_session(server, /*dump=*/true);
    server.shutdown();
    ASSERT_FALSE(dump.empty());
    std::size_t lines = 0;
    for (const char c : dump)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, 4u);
}

}  // namespace
}  // namespace adiv::serve
