// Shard determinism: the sharded session table must not change a single bit
// of any session's score stream. Every shard count in the sweep — including
// counts that force several sessions into the same shard — replays
// bit-identical to a serial per-event replay, and sessions that hash to the
// same shard stay isolated from each other. Every other session in the grid
// is an ENSEMBLE session (vote-fused, aggressively recalibrated) whose oracle
// is a serial EnsembleScorer — fused scoring and calibrated rule state ride
// the same readers as plain sessions and must be just as replay-exact.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "fusion/spec.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/corpus_fixture.hpp"
#include "util/rng.hpp"

namespace adiv::serve {
namespace {

constexpr std::size_t kSessions = 8;
constexpr std::size_t kEvents = 2'048;
constexpr std::size_t kBatch = 96;  // not a divisor of kEvents: ragged tail

// every=16 forces ~125 calibration epochs inside one session's stream, so a
// single out-of-order frame would move a threshold and change later bits.
constexpr const char* kEnsembleTarget = "stide/6+markov/4;fuse=vote;every=16";

std::shared_ptr<const SequenceDetector> trained_stide() {
    auto detector = make_detector(DetectorKind::Stide, 6);
    detector->train(test::small_corpus().training());
    return detector;
}

std::shared_ptr<const SequenceDetector> trained_markov() {
    auto detector = make_detector(DetectorKind::Markov, 4);
    detector->train(test::small_corpus().training());
    return detector;
}

/// Odd grid sessions open the ensemble spec, even ones the plain model.
const char* target_for(std::size_t session) {
    return session % 2 == 1 ? kEnsembleTarget : "stide/6";
}

/// Per-session stream drawn from the *model's* alphabet (heldout corpus
/// streams may carry anomaly symbols the detector never trained on, which
/// the server rightly rejects).
Sequence session_events(const SequenceDetector& model, std::size_t session) {
    Rng rng(100 + session);
    Sequence events(kEvents);
    for (Symbol& s : events) s = static_cast<Symbol>(rng.below(model.alphabet_size()));
    return events;
}

/// The ground truth for a plain session: a serial per-event replay.
std::vector<double> serial_scores(const SequenceDetector& model,
                                  std::size_t session) {
    OnlineScorer replay(model);
    std::vector<double> scores;
    for (const Symbol event : session_events(model, session))
        if (const auto score = replay.push(event)) scores.push_back(*score);
    return scores;
}

/// Grid oracle: plain replay for even sessions, a local EnsembleScorer for
/// odd ones (batch split is irrelevant — the scorer's parity suite owns
/// that property, this test owns shard placement).
std::vector<double> oracle_scores(
    const std::shared_ptr<const SequenceDetector>& stide,
    const std::shared_ptr<const SequenceDetector>& markov,
    std::size_t session) {
    if (session % 2 == 0) return serial_scores(*stide, session);
    MetricsRegistry quiet;
    fusion::EnsembleScorer replay(fusion::parse_ensemble_spec(kEnsembleTarget),
                                  {stide, markov}, 0, quiet);
    const Sequence events = session_events(*stide, session);
    std::vector<double> scores;
    replay.push_batch(events.data(), events.size(), scores);
    return scores;
}

/// Runs kSessions concurrent client sessions against a server with the given
/// shard count and returns each session's served score stream. Odd sessions
/// open the vote-fused ensemble, even ones the plain model.
std::vector<std::vector<double>> served_scores(
    const std::shared_ptr<const SequenceDetector>& model,
    const std::shared_ptr<const SequenceDetector>& markov, std::size_t shards) {
    MetricsRegistry metrics;
    Server server({.shards = shards}, metrics);
    server.add_model("stide/6", model);
    server.add_model("markov/4", markov);
    std::vector<std::vector<double>> scores(kSessions);
    std::vector<std::thread> clients;
    clients.reserve(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i)
        clients.emplace_back([&server, &scores, &model, i] {
            auto [client_end, server_end] = make_loopback_pair();
            ASSERT_TRUE(server.attach(std::move(server_end)));
            Client client(std::move(client_end));
            (void)client.open(target_for(i));
            const Sequence events = session_events(*model, i);
            for (std::size_t pos = 0; pos < events.size(); pos += kBatch) {
                const auto batch = SymbolView(events).subspan(
                    pos, std::min(kBatch, events.size() - pos));
                const std::vector<double> replies = client.push(batch);
                scores[i].insert(scores[i].end(), replies.begin(),
                                 replies.end());
            }
            (void)client.close_session();
            client.disconnect();
        });
    for (std::thread& t : clients) t.join();
    server.wait_connections_closed();
    server.shutdown();
    return scores;
}

void expect_bit_identical(const std::vector<double>& served,
                          const std::vector<double>& serial,
                          std::size_t session, std::size_t shards) {
    ASSERT_EQ(served.size(), serial.size())
        << "session " << session << " shards=" << shards;
    for (std::size_t k = 0; k < serial.size(); ++k)
        ASSERT_EQ(served[k], serial[k])
            << "session " << session << " score " << k << " shards=" << shards;
}

TEST(ShardDeterminism, EveryShardJobPointReplaysBitIdentical) {
    const auto model = trained_stide();
    const auto markov = trained_markov();
    std::vector<std::vector<double>> serial(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i)
        serial[i] = oracle_scores(model, markov, i);
    // 8 sessions over 1, 2, and 7 shards: every point forces at least two
    // sessions into one shard (pigeonhole), so same-shard isolation and
    // cross-shard parallelism are both on trial — for plain and ensemble
    // sessions alike.
    for (const std::size_t shards : {1UL, 2UL, 7UL}) {
        const auto served = served_scores(model, markov, shards);
        for (std::size_t i = 0; i < kSessions; ++i)
            expect_bit_identical(served[i], serial[i], i, shards);
    }
}

TEST(ShardDeterminism, InterleavedSameShardSessionsStayIsolated) {
    // One shard: every session shares the single table shard. Two clients
    // interleave batch-by-batch from one thread; each stream must still
    // match its own serial replay exactly.
    const auto model = trained_stide();
    MetricsRegistry metrics;
    Server server({.shards = 1}, metrics);
    server.add_model("stide/6", model);
    auto connect = [&server] {
        auto [client_end, server_end] = make_loopback_pair();
        EXPECT_TRUE(server.attach(std::move(server_end)));
        return std::make_unique<Client>(std::move(client_end));
    };
    const auto a = connect();
    const auto b = connect();
    (void)a->open("stide/6");
    (void)b->open("stide/6");
    const Sequence ea = session_events(*model, 0);
    const Sequence eb = session_events(*model, 1);
    std::vector<double> sa;
    std::vector<double> sb;
    for (std::size_t pos = 0; pos < kEvents; pos += kBatch) {
        const std::size_t len = std::min(kBatch, kEvents - pos);
        const auto ra = a->push(SymbolView(ea).subspan(pos, len));
        sa.insert(sa.end(), ra.begin(), ra.end());
        const auto rb = b->push(SymbolView(eb).subspan(pos, len));
        sb.insert(sb.end(), rb.begin(), rb.end());
    }
    a->disconnect();
    b->disconnect();
    server.wait_connections_closed();
    server.shutdown();
    expect_bit_identical(sa, serial_scores(*model, 0), 0, 1);
    expect_bit_identical(sb, serial_scores(*model, 1), 1, 1);
}

TEST(ShardDeterminism, ShardCountIsNotPartOfTheAlarmCount) {
    // DRAIN's counters (windows, alarms) are score-derived, so they too must
    // be invariant across shard counts.
    const auto model = trained_stide();
    std::vector<SessionCounts> drained;
    for (const std::size_t shards : {1UL, 7UL}) {
        MetricsRegistry metrics;
        Server server({.shards = shards}, metrics);
        server.add_model("stide/6", model);
        auto [client_end, server_end] = make_loopback_pair();
        ASSERT_TRUE(server.attach(std::move(server_end)));
        Client client(std::move(client_end));
        (void)client.open("stide/6");
        const Sequence events = session_events(*model, 3);
        for (std::size_t pos = 0; pos < kEvents; pos += kBatch)
            (void)client.push(SymbolView(events).subspan(
                pos, std::min(kBatch, kEvents - pos)));
        drained.push_back(client.drain());
        (void)client.close_session();
        client.disconnect();
        server.wait_connections_closed();
        server.shutdown();
    }
    EXPECT_EQ(drained[0].events, drained[1].events);
    EXPECT_EQ(drained[0].windows, drained[1].windows);
    EXPECT_EQ(drained[0].alarms, drained[1].alarms);
}

}  // namespace
}  // namespace adiv::serve
