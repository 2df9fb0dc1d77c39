// Flight recorder: token truncation, ring wraparound, the byte-exact DUMP
// rendering, and the ring's one writer racing a snapshotting reader (the
// TSan target for the lock-free ring).
#include "obs/flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace adiv {
namespace {

FlightRecord make_record(std::string_view verb, std::uint32_t events,
                         std::uint32_t scores) {
    FlightRecord record;
    record.set_verb(verb);
    record.set_outcome("ok");
    record.events = events;
    record.scores = scores;
    return record;
}

TEST(FlightRecord, TokensAreNulPaddedAndTruncated) {
    FlightRecord record;
    record.set_verb("PUSH");
    EXPECT_EQ(record.verb_view(), "PUSH");
    record.set_verb("METRICSVERYLONG");  // longer than the 8-byte field
    EXPECT_EQ(record.verb_view(), "METRICS");
    record.set_outcome("");
    EXPECT_EQ(record.outcome_view(), "");
}

TEST(FlightRecorder, KeepsAllRecordsUnderCapacity) {
    FlightRecorder ring(8);
    for (std::uint32_t i = 0; i < 5; ++i) ring.record(make_record("PUSH", i, i));
    const std::vector<FlightRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), 5u);
    for (std::uint64_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, i);
        EXPECT_EQ(records[i].events, i);
    }
    EXPECT_EQ(ring.recorded(), 5u);
}

TEST(FlightRecorder, WraparoundKeepsTheMostRecentCapacityRecords) {
    FlightRecorder ring(4);
    for (std::uint32_t i = 0; i < 10; ++i) ring.record(make_record("PUSH", i, i));
    const std::vector<FlightRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), 4u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].seq, 6u + i);
        EXPECT_EQ(records[i].events, 6u + i);
    }
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.recorded(), 10u);
}

TEST(FlightRecorder, RejectsZeroCapacityAndWorksWithOneSlot) {
    EXPECT_THROW(FlightRecorder(0), InvalidArgument);
    FlightRecorder ring(1);
    EXPECT_EQ(ring.capacity(), 1u);
    ring.record(make_record("OPEN", 0, 0));
    ring.record(make_record("PUSH", 1, 1));
    const std::vector<FlightRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].verb_view(), "PUSH");
}

TEST(FlightRecorder, RenderIsByteExact) {
    // The pinned DUMP fixture: the exact body a DUMPED response carries for
    // these two records.
    FlightRecord first;
    first.set_verb("PUSH");
    first.set_outcome("ok");
    first.events = 64;
    first.scores = 59;
    first.recv_wait_us = 1.0F;
    first.recv_read_us = 0.5F;
    first.parse_us = 2.25F;
    first.score_us = 100.125F;
    first.reply_us = 4.0F;
    first.total_us = 120.5F;
    FlightRecord second;
    second.set_verb("DRAIN");
    second.set_outcome("err");
    FlightRecorder ring(8);
    ring.record(first);
    ring.record(second);
    EXPECT_EQ(render_flight_records(ring.snapshot()),
              "seq=0 verb=PUSH outcome=ok events=64 scores=59 "
              "recv_wait_us=1.000 recv_read_us=0.500 parse_us=2.250 "
              "score_us=100.125 reply_us=4.000 "
              "total_us=120.500\n"
              "seq=1 verb=DRAIN outcome=err events=0 scores=0 "
              "recv_wait_us=0.000 recv_read_us=0.000 parse_us=0.000 "
              "score_us=0.000 reply_us=0.000 "
              "total_us=0.000\n");
    EXPECT_EQ(render_flight_records({}), "");
}

TEST(FlightRecorderStress, WriterLappingTheRingNeverTearsRecords) {
    // The TSan target: the ring's one writer laps a small ring while a
    // reader snapshots continuously. Every surfaced record must be
    // internally consistent (scores == events + 1 is the writer's invariant)
    // and seq-ascending.
    FlightRecorder ring(16);
    constexpr std::uint32_t kMinRecords = 8000;
    constexpr std::uint64_t kMinSnapshots = 200;
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> snapshots{0};
    std::atomic<std::uint64_t> torn{0};
    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            const std::vector<FlightRecord> records = ring.snapshot();
            snapshots.fetch_add(1);
            std::uint64_t previous_seq = 0;
            bool have_previous = false;
            for (const FlightRecord& record : records) {
                if (record.scores != record.events + 1) torn.fetch_add(1);
                if (have_previous && record.seq <= previous_seq) torn.fetch_add(1);
                previous_seq = record.seq;
                have_previous = true;
            }
        }
    });
    // Keep lapping until the reader has raced many snapshots against it.
    std::uint32_t written = 0;
    while (written < kMinRecords || snapshots.load() < kMinSnapshots) {
        ring.record(make_record(written % 2 == 0 ? "PUSH" : "STATS", written,
                                written + 1));
        ++written;
    }
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(ring.recorded(), written);
    // With one writer nothing is dropped: the ring holds exactly the last
    // 16 records.
    const std::vector<FlightRecord> records = ring.snapshot();
    ASSERT_EQ(records.size(), ring.capacity());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const std::uint64_t seq = written - ring.capacity() + i;
        EXPECT_EQ(records[i].seq, seq);
        EXPECT_EQ(records[i].events, seq);
        EXPECT_EQ(records[i].scores, seq + 1);
    }
}

}  // namespace
}  // namespace adiv
