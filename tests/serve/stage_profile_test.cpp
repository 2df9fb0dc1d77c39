// The profiled serve pipeline end to end over in-process socketpairs: stage
// sketches fill while profiling is on and stay empty while it is off, the
// stage-sum <= total invariant holds both in the registry's sketch sums and
// in every flight record, and the DUMP verb replays each session's flight
// recorder.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "detect/registry.hpp"
#include "obs/profile.hpp"
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

SketchSummary sketch_of(const MetricsRegistry::Snapshot& snap,
                        const std::string& name) {
    for (const auto& [metric, summary] : snap.sketches)
        if (metric == name) return summary;
    return {};
}

std::uint64_t counter_of(const MetricsRegistry::Snapshot& snap,
                         const std::string& name) {
    for (const auto& [metric, value] : snap.counters)
        if (metric == name) return value;
    return 0;
}

/// The number after ` <key>=` in one flight-record line.
double field_of(const std::string& line, const std::string& key) {
    const std::size_t at = line.find(" " + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " in: " << line;
    return at == std::string::npos ? 0.0
                                   : std::stod(line.substr(at + key.size() + 2));
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
    Server server({}, metrics);
    server.add_model("stide/6", trained_stide());
    const std::string dump = drive_session(server, /*dump=*/true);
    // No profiling: no stage samples, and the flight ring never filled.
    EXPECT_EQ(sketch_of(metrics.snapshot(), "serve.stage.total_us").count, 0u);
    EXPECT_EQ(dump, "");
    server.shutdown();
}

TEST(StageProfile, StampsEveryStageAndKeepsTheSumInvariant) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry metrics;
    Server server({.flight_capacity = 8}, metrics);
    server.add_model("stide/6", trained_stide());
    const std::string dump = drive_session(server, /*dump=*/true);
    server.shutdown();

    // Every request stamps all six stage sketches together.
    const MetricsRegistry::Snapshot snap = metrics.snapshot();
    const SketchSummary total = sketch_of(snap, "serve.stage.total_us");
    EXPECT_GT(total.count, 0u);
    double stage_sum = 0.0;
    for (const char* name :
         {"serve.stage.recv_wait_us", "serve.stage.recv_read_us",
          "serve.stage.parse_us", "serve.stage.score_us",
          "serve.stage.reply_us"}) {
        const SketchSummary stage = sketch_of(snap, name);
        EXPECT_EQ(stage.count, total.count) << name;
        stage_sum += stage.sum;
    }

    // Stages are disjoint sub-intervals of each request's total, so the
    // registry's exact sums keep the partition: the five stage sums add up
    // to at most the total's, up to one 1e-3 us tick of rounding per value
    // recorded into the six sketches.
    EXPECT_GT(total.sum, 0.0);
    EXPECT_LE(stage_sum,
              total.sum + 1e-3 * 6.0 * static_cast<double>(total.count));

    // The session's shard lock is the manager's wait site, registered in the
    // server's registry. Each of the 12 requests (OPEN, 8 PUSH, DRAIN, DUMP,
    // CLOSE) passes through it once and CLOSE's erase once more; the
    // profiler records into the flight ring the reader took at OPEN, so it
    // adds no pass of its own.
    EXPECT_EQ(counter_of(snap, "serve.shard.table.acquires"), 13u);

    // The flight ring replays the most recent requests, PUSHes included.
    ASSERT_FALSE(dump.empty());
    EXPECT_EQ(dump.rfind("seq=", 0), 0u);
    EXPECT_NE(dump.find("verb=PUSH"), std::string::npos);
    EXPECT_NE(dump.find("outcome=ok"), std::string::npos);

    // The same partition per request: in every DUMP line the five stages add
    // up to at most total_us. The ring stores floats (half an epsilon of
    // relative error each for the stage sum and the total) and the renderer
    // rounds each of the six fields to 3 decimals.
    std::istringstream lines(dump);
    std::string line;
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        ++records;
        const double line_total = field_of(line, "total_us");
        const double line_stages =
            field_of(line, "recv_wait_us") + field_of(line, "recv_read_us") +
            field_of(line, "parse_us") + field_of(line, "score_us") +
            field_of(line, "reply_us");
        EXPECT_LE(line_stages,
                  line_total + 6 * 0.0005 +
                      line_total * std::numeric_limits<float>::epsilon())
            << line;
    }
    EXPECT_EQ(records, 8u);
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
    Server server({.flight_capacity = 4}, metrics);
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
