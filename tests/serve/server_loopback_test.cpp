// End-to-end server behavior over in-process socketpairs: session
// lifecycle, concurrent multi-session scoring bit-identical to a serial
// OnlineScorer replay, response ordering, DRAIN semantics, error handling,
// graceful shutdown, and the reader-per-connection model (one send per read,
// request order across a reopen, a blocked scorer that holds only its own
// connection, finished connections reaped). No TCP socket but one: the HTTP
// scrape of the server's registry listens on an ephemeral localhost port.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <latch>
#include <optional>
#include <semaphore>
#include <string>
#include <thread>

#include "core/online.hpp"
#include "detect/registry.hpp"
#include "fusion/ensemble_scorer.hpp"
#include "fusion/spec.hpp"
#include "obs/openmetrics.hpp"
#include "serve/client.hpp"
#include "serve/http_metrics.hpp"
#include "support/corpus_fixture.hpp"
#include "support/proc_status.hpp"

namespace adiv::serve {
namespace {

std::shared_ptr<const SequenceDetector> trained(DetectorKind kind,
                                                std::size_t dw) {
    auto detector = make_detector(kind, dw);
    detector->train(test::small_corpus().training());
    return detector;
}

/// Attaches a fresh loopback connection to the server, returns the client end.
std::unique_ptr<Transport> connect(Server& server) {
    auto [client_end, server_end] = make_loopback_pair();
    EXPECT_TRUE(server.attach(std::move(server_end)));
    return std::move(client_end);
}

/// Serial reference replay of `events` through the model's OnlineScorer.
std::vector<double> replay(const SequenceDetector& model, SymbolView events,
                           std::size_t buffer = 0) {
    MetricsRegistry quiet;
    OnlineScorer scorer(model, buffer, quiet);
    std::vector<double> scores;
    for (const Symbol event : events)
        if (const auto response = scorer.push(event)) scores.push_back(*response);
    return scores;
}

/// One request, framed for the wire; bursts concatenate these.
std::string frame(RequestType type, SymbolView events = {},
                  std::string target = {}) {
    Request request;
    request.type = type;
    request.events.assign(events.begin(), events.end());
    request.target = std::move(target);
    return encode_frame(serialize(request));
}

void send(Transport& transport, const std::string& bytes) {
    transport.write_all(bytes.data(), bytes.size());
}

std::uint64_t alarms_in(const std::vector<double>& scores) {
    return static_cast<std::uint64_t>(
        std::count_if(scores.begin(), scores.end(),
                      [](double score) { return score >= kMaximalResponse; }));
}

/// A transport that counts the server's write_all calls.
class CountingTransport final : public Transport {
public:
    CountingTransport(std::unique_ptr<Transport> inner,
                      std::atomic<std::size_t>& writes)
        : inner_(std::move(inner)), writes_(&writes) {}

    std::size_t read_some(char* buffer, std::size_t capacity) override {
        return inner_->read_some(buffer, capacity);
    }
    void write_all(const char* data, std::size_t size) override {
        writes_->fetch_add(1);
        inner_->write_all(data, size);
    }
    void shutdown_input() override { inner_->shutdown_input(); }
    void close() override { inner_->close(); }
    void set_timeout(int timeout_ms) override { inner_->set_timeout(timeout_ms); }

private:
    std::unique_ptr<Transport> inner_;
    std::atomic<std::size_t>* writes_;
};

/// Forwards every call to a trained model; GatedDetector overrides score()
/// only.
class DelegatingDetector : public SequenceDetector {
public:
    explicit DelegatingDetector(std::shared_ptr<const SequenceDetector> inner)
        : inner_(std::move(inner)) {}

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    void train(const EventStream& /*training*/) override {}
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override {
        return inner_->score(test);
    }
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

private:
    std::shared_ptr<const SequenceDetector> inner_;
};

/// Its first score() call blocks until open() — pinning the reader that
/// scores it inside.
class GatedDetector final : public DelegatingDetector {
public:
    using DelegatingDetector::DelegatingDetector;

    [[nodiscard]] std::vector<double> score(const EventStream& test) const override {
        if (!scored_.exchange(true)) {
            entered_.count_down();
            gate_.wait();
        }
        return DelegatingDetector::score(test);
    }

    void wait_entered() const { entered_.wait(); }
    void open() const { gate_.count_down(); }

private:
    mutable std::atomic<bool> scored_{false};
    mutable std::latch entered_{1};
    mutable std::latch gate_{1};
};

TEST(ServerLoopback, OpenPushDrainCloseLifecycle) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    Client client(connect(server));
    const OpenInfo info = client.open("stide/6");
    EXPECT_EQ(info.detector, "stide");
    EXPECT_EQ(info.window, 6u);
    EXPECT_EQ(info.alphabet, model->alphabet_size());

    const EventStream events = test::small_corpus().generate_heldout(2'000, 11);
    std::vector<double> scores;
    for (std::size_t pos = 0; pos < events.size(); pos += 256) {
        const std::size_t n = std::min<std::size_t>(256, events.size() - pos);
        const auto batch = client.push(events.view().subspan(pos, n));
        scores.insert(scores.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(scores, replay(*model, events.view()));

    const SessionCounts drained = client.drain();
    EXPECT_EQ(drained.events, events.size());
    EXPECT_EQ(drained.windows, scores.size());
    const SessionCounts closed = client.close_session();
    EXPECT_EQ(closed.events, drained.events);
    EXPECT_EQ(closed.windows, drained.windows);
    EXPECT_EQ(closed.alarms, drained.alarms);
    client.disconnect();
    server.wait_connections_closed();
    EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerLoopback, ConcurrentSessionsScoreBitIdentically) {
    // The acceptance property at test scale: sessions over shared models
    // (the paper's four detectors, a second Markov window and their vote
    // ensemble), scored concurrently by their readers, each bit-identical
    // to a serial replay of its own stream. The streams carry 1% uniform
    // events, so Lane & Brodley's database scan and the neural net's
    // forward pass also run concurrently on one shared model.
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto stide = trained(DetectorKind::Stide, 6);
    const auto markov4 = trained(DetectorKind::Markov, 4);
    const auto markov = trained(DetectorKind::Markov, 6);
    const auto lane_brodley = trained(DetectorKind::LaneBrodley, 6);
    const auto neural_net = trained(DetectorKind::NeuralNet, 6);
    server.add_model("stide/6", stide);
    server.add_model("markov/4", markov4);
    server.add_model("markov/6", markov);
    server.add_model("lane-brodley/6", lane_brodley);
    server.add_model("neural-net/6", neural_net);
    const std::string vote = "stide/6+markov/6+lane-brodley/6+neural-net/6;fuse=vote";

    struct Target {
        std::string name;
        std::function<std::vector<double>(SymbolView)> replay;
    };
    const auto single = [](std::string name, const SequenceDetector& model) {
        return Target{std::move(name),
                      [&model](SymbolView events) { return replay(model, events); }};
    };
    const std::vector<Target> targets = {
        single("stide/6", *stide),
        single("markov/4", *markov4),
        single("lane-brodley/6", *lane_brodley),
        single("neural-net/6", *neural_net),
        {vote, [&](SymbolView events) {
             MetricsRegistry quiet;
             fusion::EnsembleScorer scorer(fusion::parse_ensemble_spec(vote),
                                           {stide, markov, lane_brodley, neural_net},
                                           0, quiet);
             std::vector<double> scores;
             scorer.push_batch(events.data(), events.size(), scores);
             return scores;
         }}};

    const std::size_t sessions = 2 * targets.size();
    constexpr std::size_t kEvents = 4'000;
    std::vector<std::string> failures(sessions);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sessions; ++i)
        threads.emplace_back([&, i] {
            try {
                const Target& target = targets[i % targets.size()];
                Client client(connect(server));
                client.open(target.name);
                const EventStream events = test::with_uniform_events(
                    test::small_corpus().generate_heldout(
                        kEvents, 100 + static_cast<std::uint64_t>(i)),
                    0.01, 200 + static_cast<std::uint64_t>(i));
                std::vector<double> scores;
                for (std::size_t pos = 0; pos < events.size(); pos += 128) {
                    const std::size_t n =
                        std::min<std::size_t>(128, events.size() - pos);
                    const auto batch = client.push(events.view().subspan(pos, n));
                    scores.insert(scores.end(), batch.begin(), batch.end());
                }
                const SessionCounts drained = client.drain();
                if (drained.events != kEvents)
                    failures[i] = "drained events " + std::to_string(drained.events);
                else if (scores != target.replay(events.view()))
                    failures[i] = "scores differ from serial replay";
                client.close_session();
                client.disconnect();
            } catch (const std::exception& e) {
                failures[i] = e.what();
            }
        });
    for (auto& thread : threads) thread.join();
    for (std::size_t i = 0; i < sessions; ++i)
        EXPECT_EQ(failures[i], "") << "session " << i << ", "
                                   << targets[i % targets.size()].name;
    server.wait_connections_closed();
    EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerLoopback, PipelinedRequestsAnswerInOrder) {
    // Send every PUSH before reading anything; responses must come back in
    // request order, and their concatenation must equal the serial replay.
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    auto transport = connect(server);
    FrameDecoder decoder;
    Request open;
    open.type = RequestType::Open;
    open.target = "stide/6";
    write_frame(*transport, serialize(open));

    const EventStream events = test::small_corpus().generate_heldout(3'000, 21);
    constexpr std::size_t kBatch = 100;
    std::size_t batches = 0;
    for (std::size_t pos = 0; pos < events.size(); pos += kBatch, ++batches) {
        Request push;
        push.type = RequestType::Push;
        const auto view =
            events.view().subspan(pos, std::min(kBatch, events.size() - pos));
        push.events.assign(view.begin(), view.end());
        write_frame(*transport, serialize(push));
    }
    Request drain;
    drain.type = RequestType::Drain;
    write_frame(*transport, serialize(drain));

    const Response opened = parse_response(*read_frame(*transport, decoder));
    ASSERT_EQ(opened.type, ResponseType::Opened);
    std::vector<double> scores;
    std::size_t seen_windows = 0;
    for (std::size_t i = 0; i < batches; ++i) {
        const Response response = parse_response(*read_frame(*transport, decoder));
        ASSERT_EQ(response.type, ResponseType::Scores) << "batch " << i;
        // Ordering witness: batch i's response carries exactly the windows
        // completed by events [i*kBatch, (i+1)*kBatch) — any reordering
        // would shift these counts.
        const std::size_t expected = i == 0 ? kBatch - 6 + 1 : kBatch;
        EXPECT_EQ(response.scores.size(), expected) << "batch " << i;
        seen_windows += response.scores.size();
        scores.insert(scores.end(), response.scores.begin(), response.scores.end());
    }
    const Response drained = parse_response(*read_frame(*transport, decoder));
    ASSERT_EQ(drained.type, ResponseType::Drained);
    EXPECT_EQ(drained.counts.events, events.size());
    EXPECT_EQ(drained.counts.windows, seen_windows);
    EXPECT_EQ(scores, replay(*model, events.view()));
    transport->close();
}

TEST(ServerLoopback, PushBeforeOpenIsAnError) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    Client client(connect(server));
    Request push;
    push.type = RequestType::Push;
    push.events = {1, 2, 3};
    const Response response = client.call(push);
    EXPECT_EQ(response.type, ResponseType::Error);
    // The connection survives: OPEN still works afterwards.
    EXPECT_NO_THROW(client.open("stide/6"));
}

TEST(ServerLoopback, UnknownTargetIsAnErrorAndConnectionSurvives) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    Client client(connect(server));
    EXPECT_THROW((void)client.open("quantum/9"), ServeError);
    EXPECT_NO_THROW(client.open("default"));  // first model answers to default
}

TEST(ServerLoopback, SecondOpenOnAConnectionIsAnError) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    Client client(connect(server));
    client.open("stide/6");
    EXPECT_THROW((void)client.open("stide/6"), ServeError);
}

TEST(ServerLoopback, OutOfAlphabetPushIsRejectedTransactionally) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);
    Client client(connect(server));
    client.open("stide/6");

    const EventStream events = test::small_corpus().generate_heldout(500, 33);
    std::vector<double> scores;
    const auto head = events.view().subspan(0, 250);
    auto batch = client.push(head);
    scores.insert(scores.end(), batch.begin(), batch.end());

    // A batch with one bad symbol is rejected whole: no partial scoring.
    Sequence poisoned(events.view().begin() + 250, events.view().begin() + 300);
    poisoned.push_back(static_cast<Symbol>(model->alphabet_size() + 7));
    Request bad;
    bad.type = RequestType::Push;
    bad.events = poisoned;
    EXPECT_EQ(client.call(bad).type, ResponseType::Error);

    // The session scores on as if the bad batch never happened.
    batch = client.push(events.view().subspan(250));
    scores.insert(scores.end(), batch.begin(), batch.end());
    EXPECT_EQ(scores, replay(*model, events.view()));
    const SessionCounts drained = client.drain();
    EXPECT_EQ(drained.events, events.size());
}

TEST(ServerLoopback, GarbageRecordGetsErrAndSessionSurvives) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    auto transport = connect(server);
    FrameDecoder decoder;
    write_frame(*transport, "FROBNICATE the server");  // well-framed, bad verb
    Response response = parse_response(*read_frame(*transport, decoder));
    EXPECT_EQ(response.type, ResponseType::Error);
    EXPECT_EQ(metrics.counter("serve.frames_rejected").value(), 1u);

    Request open;
    open.type = RequestType::Open;
    open.target = "stide/6";
    write_frame(*transport, serialize(open));
    response = parse_response(*read_frame(*transport, decoder));
    EXPECT_EQ(response.type, ResponseType::Opened);
    transport->close();
}

TEST(ServerLoopback, FramingDesyncGetsErrThenClose) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));

    auto transport = connect(server);
    transport->write_all("this is not a frame", 19);
    FrameDecoder decoder;
    const auto payload = read_frame(*transport, decoder);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(parse_response(*payload).type, ResponseType::Error);
    EXPECT_EQ(read_frame(*transport, decoder), std::nullopt);  // then EOF
    server.wait_connections_closed();
}

TEST(ServerLoopback, ShutdownWithActiveClientsDeliversPendingResponses) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    auto transport = connect(server);
    FrameDecoder decoder;
    Request open;
    open.type = RequestType::Open;
    open.target = "stide/6";
    write_frame(*transport, serialize(open));
    const EventStream events = test::small_corpus().generate_heldout(300, 5);
    Request push;
    push.type = RequestType::Push;
    push.events.assign(events.view().begin(), events.view().end());
    write_frame(*transport, serialize(push));

    server.shutdown();  // must not hang on the still-open client

    // Everything received before the shutdown was answered before the close.
    const Response opened = parse_response(*read_frame(*transport, decoder));
    EXPECT_EQ(opened.type, ResponseType::Opened);
    const Response scores = parse_response(*read_frame(*transport, decoder));
    ASSERT_EQ(scores.type, ResponseType::Scores);
    EXPECT_EQ(scores.scores, replay(*model, events.view()));
    EXPECT_EQ(read_frame(*transport, decoder), std::nullopt);

    // New connections are refused after shutdown.
    auto [client_end, server_end] = make_loopback_pair();
    EXPECT_FALSE(server.attach(std::move(server_end)));
}

TEST(ServerLoopback, AbruptDisconnectCleansUpItsSession) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    {
        Client client(connect(server));
        client.open("stide/6");
        EXPECT_EQ(server.active_sessions(), 1u);
        client.disconnect();  // no CLOSE
    }
    server.wait_connections_closed();
    EXPECT_EQ(server.active_sessions(), 0u);
    EXPECT_EQ(metrics.counter("serve.sessions_closed").value(), 1u);
}

TEST(ServerLoopback, MetricsObserveTheTraffic) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    Client client(connect(server));
    client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(1'000, 77);
    client.push(events.view());
    client.drain();
    client.close_session();
    client.disconnect();
    server.wait_connections_closed();

    EXPECT_EQ(metrics.counter("serve.connections_accepted").value(), 1u);
    EXPECT_EQ(metrics.counter("serve.sessions_opened").value(), 1u);
    EXPECT_EQ(metrics.counter("serve.sessions_closed").value(), 1u);
    EXPECT_EQ(metrics.counter("serve.events_pushed").value(), events.size());
    // OPENED + SCORES + DRAINED + CLOSED
    EXPECT_EQ(metrics.counter("serve.responses_sent").value(), 4u);
    // Replies leave in at most one send each, and every read is counted.
    EXPECT_GE(metrics.counter("serve.send_calls").value(), 1u);
    EXPECT_LE(metrics.counter("serve.send_calls").value(),
              metrics.counter("serve.responses_sent").value());
    EXPECT_GE(metrics.counter("serve.recv_calls").value(), 4u);
    EXPECT_EQ(metrics.gauge("serve.sessions_active").value(), 0.0);
    EXPECT_GE(metrics.sketch("serve.push_latency_us").summary().count, 1u);
}

TEST(ServerLoopback, StatsReportsSessionAndServerCounters) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    Client client(connect(server));
    client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(200, 3);
    const auto scores = client.push(events.view());
    const Response stats = client.stats();
    ASSERT_EQ(stats.type, ResponseType::Stats);
    EXPECT_EQ(stats.counts.events, events.size());
    EXPECT_EQ(stats.counts.windows, scores.size());
    EXPECT_EQ(stats.active_sessions, 1u);
}

TEST(ServerLoopback, MetricsIsAnUnknownVerbAndTheConnectionScoresOn) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    // The registry is scraped over HTTP, not this protocol: METRICS is an
    // unknown verb like any other, answered with ERR, and the connection
    // it arrived on goes on to open and score a session as usual.
    Client client(connect(server));
    write_frame(client.transport(), "METRICS");
    FrameDecoder decoder;
    const std::optional<std::string> reply =
        read_frame(client.transport(), decoder);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "ERR unknown request verb 'METRICS'");

    client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(300, 5);
    EXPECT_EQ(client.push(events.view()), replay(*model, events.view()));
    EXPECT_EQ(client.drain().events, events.size());
    client.close_session();
    client.disconnect();
    server.wait_connections_closed();
}

TEST(ServerLoopback, HttpScrapeReflectsSessionTraffic) {
    MetricsRegistry metrics;
    Server server({}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);
    HttpMetricsListener listener(0, metrics);

    Client client(connect(server));
    client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(500, 9);
    client.push(events.view());
    client.drain();

    const OpenMetricsDocument doc = scrape_metrics("127.0.0.1", listener.port());
    EXPECT_EQ(doc.type_of("adiv_serve_events_pushed"), "counter");
    EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"),
              static_cast<double>(events.size()));
    EXPECT_EQ(doc.value("adiv_serve_sessions_opened_total"), 1.0);
    EXPECT_EQ(doc.value("adiv_serve_sessions_active"), 1.0);

    client.close_session();
    client.disconnect();
    server.wait_connections_closed();
}

TEST(ServerLoopback, OneReadIsAnsweredWithOneSend) {
    // The reader handles every frame of one read, framing the replies into
    // one buffer that is flushed once the read's frames are handled.
    MetricsRegistry metrics;
    Server server({.shards = 1}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    auto [client, server_end] = make_loopback_pair();
    std::atomic<std::size_t> writes{0};
    ASSERT_TRUE(server.attach(
        std::make_unique<CountingTransport>(std::move(server_end), writes)));

    // OPEN, 20 PUSH frames of 10 events and DRAIN in one write, under the
    // reader's 16 KB buffer, so one read_some sees all of it.
    const EventStream events = test::small_corpus().generate_heldout(200, 41);
    std::string burst = frame(RequestType::Open, {}, "stide/6");
    for (std::size_t pos = 0; pos < events.size(); pos += 10)
        burst += frame(RequestType::Push, events.view().subspan(pos, 10));
    burst += frame(RequestType::Drain);
    ASSERT_LT(burst.size(), 16384u);
    send(*client, burst);

    FrameDecoder decoder;
    ASSERT_EQ(parse_response(*read_frame(*client, decoder)).type,
              ResponseType::Opened);
    std::vector<double> scores;
    for (std::size_t i = 0; i < 20; ++i) {
        const Response response = parse_response(*read_frame(*client, decoder));
        ASSERT_EQ(response.type, ResponseType::Scores) << "push " << i;
        scores.insert(scores.end(), response.scores.begin(),
                      response.scores.end());
    }
    const Response drained = parse_response(*read_frame(*client, decoder));
    ASSERT_EQ(drained.type, ResponseType::Drained);
    EXPECT_EQ(scores, replay(*model, events.view()));
    EXPECT_EQ(drained.counts.events, events.size());
    EXPECT_EQ(drained.counts.windows, scores.size());
    EXPECT_EQ(drained.counts.alarms, alarms_in(scores));

    client->close();
    server.wait_connections_closed();
    EXPECT_EQ(writes.load(), 1u);
    EXPECT_EQ(metrics.counter("serve.send_calls").value(), writes.load());
    EXPECT_EQ(metrics.counter("serve.responses_sent").value(), 22u);
}

TEST(ServerLoopback, BurstsThatCrossShardsKeepRequestOrder) {
    // Each connection closes and reopens mid-burst, so its second session
    // lands on a new id and usually a new shard: replies must still leave in
    // request order.
    const auto model = trained(DetectorKind::Stide, 6);
    constexpr std::size_t kConnections = 2;
    constexpr std::size_t kPushes = 5;
    constexpr std::size_t kBatch = 40;
    for (const std::size_t shards : {1u, 2u, 7u}) {
        MetricsRegistry metrics;
        Server server({.shards = shards}, metrics);
        server.add_model("stide/6", model);
        std::vector<std::string> failures(kConnections);
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kConnections; ++c)
            threads.emplace_back([&, c] {
                const auto fail = [&](const std::string& why) {
                    if (failures[c].empty()) failures[c] = why;
                };
                try {
                    const EventStream first = test::small_corpus().generate_heldout(
                        kPushes * kBatch, 200 + 2 * c);
                    const EventStream second = test::small_corpus().generate_heldout(
                        kPushes * kBatch, 201 + 2 * c);
                    std::string burst = frame(RequestType::Open, {}, "stide/6");
                    for (std::size_t i = 0; i < kPushes; ++i)
                        burst += frame(RequestType::Push,
                                       first.view().subspan(i * kBatch, kBatch));
                    burst += frame(RequestType::Close);
                    burst += frame(RequestType::Open, {}, "stide/6");
                    for (std::size_t i = 0; i < kPushes; ++i)
                        burst += frame(RequestType::Push,
                                       second.view().subspan(i * kBatch, kBatch));
                    burst += frame(RequestType::Drain);
                    burst += frame(RequestType::Close);
                    auto transport = connect(server);
                    send(*transport, burst);

                    FrameDecoder decoder;
                    const auto next = [&] {
                        return parse_response(*read_frame(*transport, decoder));
                    };
                    // OPENED and the SCORES replies; returns the counts
                    // the session's DRAINED / CLOSED must carry.
                    const auto session = [&](const EventStream& events) {
                        if (next().type != ResponseType::Opened) fail("no OPENED");
                        std::vector<double> scores;
                        for (std::size_t i = 0; i < kPushes; ++i) {
                            const Response r = next();
                            if (r.type != ResponseType::Scores) fail("no SCORES");
                            scores.insert(scores.end(), r.scores.begin(),
                                          r.scores.end());
                        }
                        if (scores != replay(*model, events.view()))
                            fail("scores differ from serial replay");
                        return SessionCounts{events.size(), scores.size(),
                                             alarms_in(scores)};
                    };
                    const auto expect = [&](ResponseType type,
                                            const SessionCounts& counts) {
                        const Response r = next();
                        if (r.type != type || r.counts.events != counts.events ||
                            r.counts.windows != counts.windows ||
                            r.counts.alarms != counts.alarms)
                            fail("counts out of order or wrong");
                    };
                    expect(ResponseType::Closed, session(first));
                    const SessionCounts second_counts = session(second);
                    expect(ResponseType::Drained, second_counts);
                    expect(ResponseType::Closed, second_counts);
                    transport->close();
                } catch (const std::exception& e) {
                    fail(e.what());
                }
            });
        for (auto& thread : threads) thread.join();
        for (std::size_t c = 0; c < kConnections; ++c)
            EXPECT_EQ(failures[c], "") << "shards " << shards << " connection " << c;
        server.wait_connections_closed();
        EXPECT_EQ(server.active_sessions(), 0u);
    }
}

TEST(ServerLoopback, ABlockedScoreHoldsOnlyItsOwnConnection) {
    // One shard for every session. A's reader is held inside the gated
    // model's first score() while F keeps 32 frames in flight; B's PUSH and
    // DRAIN must still be answered, because no connection's requests wait
    // behind another connection's.
    using namespace std::chrono_literals;
    MetricsRegistry metrics;
    Server server({.shards = 1}, metrics);
    const auto stide = trained(DetectorKind::Stide, 6);
    const auto gated = std::make_shared<GatedDetector>(stide);
    server.add_model("gated", gated);
    server.add_model("stide/6", stide);

    // A: OPEN, then a PUSH that blocks A's reader inside score() and a DRAIN
    // that waits in A's input behind it.
    const EventStream a_events = test::small_corpus().generate_heldout(64, 51);
    auto a = connect(server);
    FrameDecoder a_decoder;
    send(*a, frame(RequestType::Open, {}, "gated"));
    ASSERT_EQ(parse_response(*read_frame(*a, a_decoder)).type,
              ResponseType::Opened);
    send(*a, frame(RequestType::Push, a_events.view()) + frame(RequestType::Drain));
    gated->wait_entered();

    // F floods: a writer keeps 32 frames of 256 events in flight until told
    // to stop, then sends DRAIN; a collector gathers the replies.
    auto f = connect(server);
    FrameDecoder f_decoder;
    send(*f, frame(RequestType::Open, {}, "stide/6"));
    ASSERT_EQ(parse_response(*read_frame(*f, f_decoder)).type,
              ResponseType::Opened);
    constexpr std::size_t kFrame = 256;
    constexpr std::size_t kMaxFrames = 4096;
    const EventStream f_pool = test::small_corpus().generate_heldout(64 * kFrame, 52);
    std::counting_semaphore<32> credits(32);
    std::atomic<bool> stop{false};
    std::atomic<bool> exhausted{false};
    Sequence f_sent;
    std::thread f_writer([&] {
        std::size_t frames = 0;
        while (!stop.load()) {
            if (!credits.try_acquire_for(10ms)) continue;
            if (frames == kMaxFrames) {
                exhausted.store(true);
                break;
            }
            const auto view = f_pool.view().subspan((frames % 64) * kFrame, kFrame);
            f_sent.insert(f_sent.end(), view.begin(), view.end());
            send(*f, frame(RequestType::Push, view));
            ++frames;
        }
        send(*f, frame(RequestType::Drain));
    });
    std::vector<double> f_scores;
    SessionCounts f_drained;
    std::thread f_collector([&] {
        for (;;) {
            const auto payload = read_frame(*f, f_decoder);
            if (!payload) return;
            const Response response = parse_response(*payload);
            if (response.type != ResponseType::Scores) {
                f_drained = response.counts;
                return;
            }
            f_scores.insert(f_scores.end(), response.scores.begin(),
                            response.scores.end());
            credits.release();
        }
    });

    // B: OPEN, one PUSH and DRAIN in one write; its replies are read on the
    // side, so a missing one cannot hang the test.
    const EventStream b_events = test::small_corpus().generate_heldout(256, 53);
    auto b = connect(server);
    send(*b, frame(RequestType::Open, {}, "stide/6") +
                 frame(RequestType::Push, b_events.view()) +
                 frame(RequestType::Drain));
    std::promise<std::vector<Response>> b_promise;
    std::thread b_reader([&] {
        std::vector<Response> replies;
        FrameDecoder decoder;
        try {
            while (replies.size() < 3) {
                const auto payload = read_frame(*b, decoder);
                if (!payload) break;
                replies.push_back(parse_response(*payload));
            }
        } catch (const std::exception&) {
        }
        b_promise.set_value(std::move(replies));
    });
    auto b_replies = b_promise.get_future();
    // A's gate is still closed here: it opens only after this check.
    const bool in_time = b_replies.wait_for(5s) == std::future_status::ready;
    const bool still_writing = !exhausted.load();
    if (!in_time) b->close();
    b_reader.join();

    gated->open();
    const Response a_scores = parse_response(*read_frame(*a, a_decoder));
    const Response a_drained = parse_response(*read_frame(*a, a_decoder));
    stop.store(true);
    f_writer.join();
    f_collector.join();

    EXPECT_TRUE(in_time) << "B's replies waited behind A's blocked score";
    EXPECT_TRUE(still_writing);
    const std::vector<Response> b_got = b_replies.get();
    ASSERT_EQ(b_got.size(), 3u);
    EXPECT_EQ(b_got[0].type, ResponseType::Opened);
    ASSERT_EQ(b_got[1].type, ResponseType::Scores);
    const std::vector<double>& b_scores = b_got[1].scores;
    EXPECT_EQ(b_scores, replay(*stide, b_events.view()));
    ASSERT_EQ(b_got[2].type, ResponseType::Drained);
    EXPECT_EQ(b_got[2].counts.events, b_events.size());
    EXPECT_EQ(b_got[2].counts.windows, b_scores.size());
    EXPECT_EQ(b_got[2].counts.alarms, alarms_in(b_scores));

    ASSERT_EQ(a_scores.type, ResponseType::Scores);
    EXPECT_EQ(a_scores.scores, replay(*stide, a_events.view()));
    ASSERT_EQ(a_drained.type, ResponseType::Drained);
    EXPECT_EQ(a_drained.counts.events, a_events.size());
    EXPECT_EQ(a_drained.counts.windows, a_scores.scores.size());
    EXPECT_EQ(a_drained.counts.alarms, alarms_in(a_scores.scores));

    EXPECT_EQ(f_scores, replay(*stide, f_sent));
    EXPECT_EQ(f_drained.events, f_sent.size());
    EXPECT_EQ(f_drained.windows, f_scores.size());
    EXPECT_EQ(f_drained.alarms, alarms_in(f_scores));
    a->close();
    b->close();
    f->close();
    server.wait_connections_closed();
}

TEST(ServerLoopback, FinishedConnectionsAreReaped) {
    // 200 sequential connections, each OPEN, PUSH, CLOSE and disconnect. A
    // reader thread kept per finished connection, even one that has exited,
    // keeps its stack mapped (8 MB by default), so 200 of them would add
    // over 1.5 GB; reaped, the next connection's reader reuses the stack.
    MetricsRegistry metrics;
    Server server({.shards = 1}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);
    const EventStream events = test::small_corpus().generate_heldout(64, 71);
    const std::vector<double> expected = replay(*model, events.view());
    const auto cycle = [&] {
        Client client(connect(server));
        client.open("stide/6");
        EXPECT_EQ(client.push(events.view()), expected);
        client.close_session();
        client.disconnect();
        server.wait_connections_closed();
    };
    cycle();
    const long before_kb = test::proc_status_kb("VmSize");
    ASSERT_GT(before_kb, 0);
    for (int i = 0; i < 200; ++i) cycle();
    EXPECT_LT(test::proc_status_kb("VmSize") - before_kb, 8 * 1024);
    EXPECT_EQ(metrics.counter("serve.connections_accepted").value(), 201u);
    EXPECT_EQ(server.active_sessions(), 0u);
}

}  // namespace
}  // namespace adiv::serve
