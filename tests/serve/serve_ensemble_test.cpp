// Ensemble sessions through the real server: OPEN with a spec token, fused
// scoring bit-identical to a serial EnsembleScorer replay, spec errors as
// ERR frames (connection survives), per-session isolation of calibrated
// rules, and the fusion.* metrics surfaced through the registry.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "fusion/spec.hpp"
#include "obs/openmetrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv::serve {
namespace {

std::shared_ptr<const SequenceDetector> trained(DetectorKind kind,
                                                std::size_t dw) {
    auto detector = make_detector(kind, dw);
    detector->train(test::small_corpus().training());
    return detector;
}

std::unique_ptr<Transport> connect(Server& server) {
    auto [client_end, server_end] = make_loopback_pair();
    EXPECT_TRUE(server.attach(std::move(server_end)));
    return std::move(client_end);
}

/// Serial reference: the same spec over the same events through a local
/// EnsembleScorer, one push_batch (batch split cannot matter — that is the
/// point of the parity suites).
std::vector<double> ensemble_replay(
    const std::string& target,
    std::vector<std::shared_ptr<const SequenceDetector>> members,
    SymbolView events) {
    MetricsRegistry quiet;
    fusion::EnsembleScorer scorer(fusion::parse_ensemble_spec(target),
                                  std::move(members), 0, quiet);
    std::vector<double> scores;
    scorer.push_batch(events.data(), events.size(), scores);
    return scores;
}

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class ServeEnsemble : public ::testing::Test {
protected:
    void SetUp() override {
        stide_ = trained(DetectorKind::Stide, 6);
        markov_ = trained(DetectorKind::Markov, 4);
        server_ = std::make_unique<Server>(ServerConfig{.shards = 2},
                                           metrics_);
        server_->add_model("stide/6", stide_);
        server_->add_model("markov/4", markov_);
    }
    void TearDown() override { server_->shutdown(); }

    MetricsRegistry metrics_;
    std::shared_ptr<const SequenceDetector> stide_;
    std::shared_ptr<const SequenceDetector> markov_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeEnsemble, OpenEchoesCanonicalSpecAndMaxWindow) {
    Client client(connect(*server_));
    const OpenInfo info = client.open("stide/6+markov/4;fuse=ds");
    EXPECT_EQ(info.detector, "stide/6+markov/4;fuse=ds;w=0.9;dst=0.95");
    EXPECT_EQ(info.window, 6u);  // max member DW, not the first member's
    EXPECT_EQ(info.alphabet, stide_->alphabet_size());
    client.close_session();
}

TEST_F(ServeEnsemble, MalformedSpecsAnswerErrAndConnectionSurvives) {
    Client client(connect(*server_));
    // Parse error, unknown rule, unknown member, duplicate member: all ERR.
    EXPECT_THROW((void)client.open("stide/6+"), ServeError);
    EXPECT_THROW((void)client.open("stide/6+markov/4;fuse=quorum"),
                 ServeError);
    EXPECT_THROW((void)client.open("stide/6+quantum/9"), ServeError);
    EXPECT_THROW((void)client.open("stide/6+stide/6"), ServeError);
    // The reader loop is intact: a valid ensemble OPEN still succeeds.
    EXPECT_NO_THROW(client.open("stide/6+markov/4"));
}

TEST_F(ServeEnsemble, ServedScoresMatchSerialReplayForEveryRule) {
    EventStream stream = test::small_corpus().background(1500, 0);
    stream.push_back(1);  // deviation near the end
    const Sequence& events = stream.events();
    for (const std::string rule : {"union", "intersect", "vote", "ds"}) {
        const std::string target = "stide/6+markov/4;fuse=" + rule;
        Client client(connect(*server_));
        client.open(target);
        std::vector<double> served;
        // Mixed batch sizes so responses span PUSH boundaries.
        std::size_t at = 0;
        for (const std::size_t batch : {7u, 64u, 129u}) {
            const auto scores = client.push(
                SymbolView(events.data() + at, batch));
            served.insert(served.end(), scores.begin(), scores.end());
            at += batch;
        }
        const auto rest = client.push(
            SymbolView(events.data() + at, events.size() - at));
        served.insert(served.end(), rest.begin(), rest.end());
        const SessionCounts counts = client.close_session();
        EXPECT_EQ(counts.events, events.size()) << rule;
        EXPECT_EQ(counts.windows, served.size()) << rule;
        EXPECT_TRUE(bit_identical(
            served, ensemble_replay(target, {stide_, markov_}, events)))
            << rule;
    }
}

TEST_F(ServeEnsemble, CalibratedRuleStateIsPerSession) {
    // Two concurrent vote sessions fed different prefixes must not share
    // thresholds: each session owns its rule instance.
    const EventStream stream = test::small_corpus().background(2000, 0);
    const Sequence& events = stream.events();
    const std::string target = "stide/6+markov/4;fuse=vote;every=16";
    Client busy(connect(*server_));
    Client fresh(connect(*server_));
    busy.open(target);
    fresh.open(target);
    (void)busy.push(SymbolView(events.data(), 1000));
    // `fresh` saw nothing: its replay must match a from-scratch oracle even
    // though `busy` has calibrated far past its initial thresholds.
    const auto served = fresh.push(SymbolView(events.data(), 400));
    EXPECT_TRUE(bit_identical(
        served, ensemble_replay(target, {stide_, markov_},
                                SymbolView(events.data(), 400))));
    busy.close_session();
    fresh.close_session();
}

TEST_F(ServeEnsemble, FusionMetricsFlowThroughTheRegistry) {
    Client client(connect(*server_));
    client.open("stide/6+markov/4;fuse=vote");
    const EventStream stream = test::small_corpus().background(500, 0);
    const Sequence& events = stream.events();
    (void)client.push(SymbolView(events.data(), events.size()));
    client.drain();
    EXPECT_EQ(metrics_.counter("fusion.sessions_opened").value(), 1u);
    EXPECT_GT(metrics_.counter("fusion.fused_windows").value(), 0u);
    // The per-member threshold gauges exist and sit inside [0, 1].
    const std::string exposition = metrics_to_openmetrics(metrics_);
    EXPECT_NE(exposition.find("fusion_sessions_opened"), std::string::npos);
    EXPECT_NE(exposition.find("fusion_threshold_m0"), std::string::npos);
    EXPECT_NE(exposition.find("fusion_threshold_m1"), std::string::npos);
    client.close_session();
}

}  // namespace
}  // namespace adiv::serve
