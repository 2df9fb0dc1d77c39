// End-to-end server behavior over in-process loopback transports: session
// lifecycle, concurrent multi-session scoring bit-identical to a serial
// OnlineScorer replay, response ordering, DRAIN semantics, error handling,
// graceful shutdown, and the reader-run strand (one send per read, request
// order across shards, a bounded run). No sockets — every test is hermetic.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <semaphore>
#include <thread>

#include "core/online.hpp"
#include "detect/registry.hpp"
#include "obs/openmetrics.hpp"
#include "serve/client.hpp"
#include "support/corpus_fixture.hpp"

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

private:
    std::unique_ptr<Transport> inner_;
    std::atomic<std::size_t>* writes_;
};

/// Forwards every call to a trained model; the decorators below override
/// score() only.
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

/// Its first score() call blocks until open() — pinning whichever thread
/// runs that strand inside it.
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

/// Sleeps `delay` in every score() call, so the strand running its sessions
/// stays busy while they keep writing.
class SlowDetector final : public DelegatingDetector {
public:
    SlowDetector(std::shared_ptr<const SequenceDetector> inner,
                 std::chrono::milliseconds delay)
        : DelegatingDetector(std::move(inner)), delay_(delay) {}

    [[nodiscard]] std::vector<double> score(const EventStream& test) const override {
        std::this_thread::sleep_for(delay_);
        return DelegatingDetector::score(test);
    }

private:
    std::chrono::milliseconds delay_;
};

TEST(ServerLoopback, OpenPushDrainCloseLifecycle) {
    MetricsRegistry metrics;
    Server server({.jobs = 2}, metrics);
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
    // The acceptance property at test scale: many sessions over two shared
    // models, scored concurrently on a small pool, each bit-identical to a
    // serial replay of its own stream.
    MetricsRegistry metrics;
    Server server({.jobs = 4, .queue_capacity = 8}, metrics);
    const auto stide = trained(DetectorKind::Stide, 6);
    const auto markov = trained(DetectorKind::Markov, 4);
    server.add_model("stide/6", stide);
    server.add_model("markov/4", markov);

    constexpr std::size_t kSessions = 8;
    constexpr std::size_t kEvents = 4'000;
    std::vector<std::string> failures(kSessions);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kSessions; ++i)
        threads.emplace_back([&, i] {
            try {
                const bool use_stide = i % 2 == 0;
                const SequenceDetector& model = use_stide ? *stide : *markov;
                Client client(connect(server));
                client.open(use_stide ? "stide/6" : "markov/4");
                const EventStream events = test::small_corpus().generate_heldout(
                    kEvents, 100 + static_cast<std::uint64_t>(i));
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
                else if (scores != replay(model, events.view()))
                    failures[i] = "scores differ from serial replay";
                client.close_session();
                client.disconnect();
            } catch (const std::exception& e) {
                failures[i] = e.what();
            }
        });
    for (auto& thread : threads) thread.join();
    for (std::size_t i = 0; i < kSessions; ++i)
        EXPECT_EQ(failures[i], "") << "session " << i;
    server.wait_connections_closed();
    EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerLoopback, PipelinedRequestsAnswerInOrder) {
    // Send every PUSH before reading anything; responses must come back in
    // request order, and their concatenation must equal the serial replay.
    MetricsRegistry metrics;
    Server server({.jobs = 4}, metrics);
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
    Server server({.jobs = 2}, metrics);
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
    Server server({.jobs = 2}, metrics);
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

TEST(ServerLoopback, MetricsVerbWorksBeforeAnySessionOpens) {
    MetricsRegistry metrics;
    metrics.counter("serve.warmup_events").add(5);
    Server server({}, metrics);

    // METRICS is session-free: a bare monitoring connection never OPENs.
    Client client(connect(server));
    const OpenMetricsDocument doc = parse_openmetrics(client.metrics());
    EXPECT_EQ(doc.value("adiv_serve_warmup_events_total"), 5.0);
    client.disconnect();
    server.wait_connections_closed();
}

TEST(ServerLoopback, MetricsVerbReflectsSessionTraffic) {
    MetricsRegistry metrics;
    Server server({.jobs = 2}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    Client client(connect(server));
    client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(500, 9);
    client.push(events.view());
    client.drain();

    const OpenMetricsDocument doc = parse_openmetrics(client.metrics());
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
    // The reader that finds the shard idle runs its strand and frames the
    // replies into one buffer, flushed once the read's frames are handled.
    MetricsRegistry metrics;
    Server server({.jobs = 1, .shards = 1}, metrics);
    const auto model = trained(DetectorKind::Stide, 6);
    server.add_model("stide/6", model);

    auto [client, server_end] = make_loopback_pair();
    std::atomic<std::size_t> writes{0};
    ASSERT_TRUE(server.attach(
        std::make_unique<CountingTransport>(std::move(server_end), writes)));

    // OPEN, 20 PUSH frames of 10 events and DRAIN in one loopback append,
    // under the reader's 16 KB buffer, so one read_some sees all of it.
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
    // lands on a new id and usually a new shard: replies produced by
    // different runners must still leave in request order.
    const auto model = trained(DetectorKind::Stide, 6);
    constexpr std::size_t kConnections = 2;
    constexpr std::size_t kPushes = 5;
    constexpr std::size_t kBatch = 40;
    for (const std::size_t shards : {1u, 2u, 7u}) {
        MetricsRegistry metrics;
        Server server({.jobs = 2, .shards = shards}, metrics);
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

TEST(ServerLoopback, AFloodedShardCannotHoldAnotherConnectionsReader) {
    // A's reader runs the shard's strand and is held inside the gated
    // model while F fills the ring. Once the gate opens, A's reader must
    // stop after one ring's worth of items and hand the strand to the
    // pool — otherwise F's flood would keep it scoring F's frames and A's
    // next request would never be read.
    using namespace std::chrono_literals;
    MetricsRegistry metrics;
    Server server({.jobs = 1, .queue_capacity = 8, .shards = 1}, metrics);
    const auto stide = trained(DetectorKind::Stide, 6);
    const auto gated = std::make_shared<GatedDetector>(stide);
    server.add_model("gated", gated);
    server.add_model("stide/6", stide);

    const EventStream a_events = test::small_corpus().generate_heldout(128, 51);
    auto a = connect(server);
    FrameDecoder a_decoder;
    send(*a, frame(RequestType::Open, {}, "gated"));
    ASSERT_EQ(parse_response(*read_frame(*a, a_decoder)).type,
              ResponseType::Opened);
    send(*a, frame(RequestType::Push, a_events.view().subspan(0, 64)));
    gated->wait_entered();

    auto f = connect(server);
    FrameDecoder f_decoder;
    send(*f, frame(RequestType::Open, {}, "stide/6"));
    ASSERT_EQ(parse_response(*read_frame(*f, f_decoder)).type,
              ResponseType::Opened);

    // F floods: a writer keeps 32 frames of 256 events in flight until told
    // to stop, and a collector gathers the replies.
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

    // F's reader has filled the ring (depth 8 at its last enqueue) behind
    // A's held PUSH; A's second PUSH waits in A's input.
    const auto filled_by = std::chrono::steady_clock::now() + 5s;
    while (metrics.gauge("serve.queue_depth").value() < 8.0 &&
           std::chrono::steady_clock::now() < filled_by)
        std::this_thread::sleep_for(1ms);
    EXPECT_EQ(metrics.gauge("serve.queue_depth").value(), 8.0);
    send(*a, frame(RequestType::Push, a_events.view().subspan(64, 64)));

    std::promise<std::vector<double>> a_replies;
    std::thread a_reader([&] {
        std::vector<double> scores;
        try {
            for (int i = 0; i < 2; ++i) {
                const auto payload = read_frame(*a, a_decoder);
                if (!payload) break;
                const Response response = parse_response(*payload);
                scores.insert(scores.end(), response.scores.begin(),
                              response.scores.end());
            }
        } catch (const std::exception&) {
        }
        a_replies.set_value(std::move(scores));
    });
    auto a_scores = a_replies.get_future();
    gated->open();
    const bool in_time = a_scores.wait_for(5s) == std::future_status::ready;
    const bool still_writing = !exhausted.load();
    stop.store(true);
    f_writer.join();
    f_collector.join();
    if (!in_time) a->close();
    a_reader.join();

    EXPECT_TRUE(in_time) << "A's second reply waited behind F's flood";
    EXPECT_TRUE(still_writing);
    EXPECT_EQ(a_scores.get(), replay(*stide, a_events.view()));
    EXPECT_GE(metrics.counter("serve.strand_handoffs").value(), 1u);
    EXPECT_EQ(f_scores, replay(*stide, f_sent));
    EXPECT_EQ(f_drained.events, f_sent.size());
    a->close();
    f->close();
    server.wait_connections_closed();
}

TEST(ServerLoopback, AHandedOffStrandDoesNotWaitBehindAnotherShard) {
    // Shards X = 0 and Y = 2 of 3 at jobs 2: a pool that pinned each
    // handed-off strand to worker (shard % jobs) would queue Y's behind X's.
    // X's two connections flood stide/6 behind a 20 ms sleep per score()
    // call, so X's ring stays full and its handed-off run never drains while
    // they write. Y's two connections then flood stide/6 behind a 2 ms sleep
    // — enough that one Y reader fills the ring while the other runs Y's
    // strand, so Y's strand is handed off in turn — and it must run on the
    // other worker while X still writes.
    using namespace std::chrono_literals;
    constexpr std::size_t kShards = 3;
    constexpr std::size_t kX = 0;
    constexpr std::size_t kY = 2;
    MetricsRegistry metrics;
    Server server({.jobs = 2, .queue_capacity = 8, .shards = kShards}, metrics);
    const auto stide = trained(DetectorKind::Stide, 6);
    server.add_model("slow", std::make_shared<SlowDetector>(stide, 20ms));
    server.add_model("brisk", std::make_shared<SlowDetector>(stide, 2ms));

    // A manager over the same shard count places session ids exactly as the
    // server's does.
    ModelCatalog no_models;
    MetricsRegistry quiet;
    const SessionManager placement(no_models, {.shards = kShards}, quiet);
    struct Client {
        std::unique_ptr<Transport> transport;
        FrameDecoder decoder;
        // X's frames in flight; Y never acquires, so it only counts up.
        std::counting_semaphore<> credits{16};
        Sequence sent;
        std::vector<double> scores;
        SessionCounts drained;
    };
    // Connects and opens `target`, closing and reopening until the session
    // lands on `shard`.
    const auto open_on = [&](Client& client, std::size_t shard,
                             const std::string& target) {
        client.transport = connect(server);
        for (int attempt = 0; attempt < 64; ++attempt) {
            send(*client.transport, frame(RequestType::Open, {}, target));
            const Response opened =
                parse_response(*read_frame(*client.transport, client.decoder));
            if (opened.type != ResponseType::Opened) return false;
            if (placement.shard_of(opened.session_id) == shard) return true;
            send(*client.transport, frame(RequestType::Close));
            if (parse_response(*read_frame(*client.transport, client.decoder))
                    .type != ResponseType::Closed)
                return false;
        }
        return false;
    };
    Client x[2];
    Client y[2];
    for (Client& client : x) ASSERT_TRUE(open_on(client, kX, "slow"));
    for (Client& client : y) ASSERT_TRUE(open_on(client, kY, "brisk"));

    // Reads SCORES replies until DRAINED (or the end of the stream).
    const auto collect = [](Client& client) {
        for (;;) {
            const auto payload = read_frame(*client.transport, client.decoder);
            if (!payload) return;
            const Response response = parse_response(*payload);
            if (response.type != ResponseType::Scores) {
                client.drained = response.counts;
                return;
            }
            client.scores.insert(client.scores.end(), response.scores.begin(),
                                 response.scores.end());
            client.credits.release();
        }
    };

    // X floods: each writer keeps 16 frames in flight until told to stop,
    // then sends DRAIN.
    constexpr std::size_t kXFrame = 32;
    constexpr std::size_t kMaxFrames = 1024;
    const EventStream x_pool =
        test::small_corpus().generate_heldout(64 * kXFrame, 61);
    std::atomic<bool> stop{false};
    std::atomic<bool> exhausted{false};
    std::vector<std::thread> x_threads;
    for (Client& client : x) {
        x_threads.emplace_back([&] {
            std::size_t frames = 0;
            while (!stop.load()) {
                if (!client.credits.try_acquire_for(10ms)) continue;
                if (frames == kMaxFrames) {
                    exhausted.store(true);
                    break;
                }
                const auto view =
                    x_pool.view().subspan((frames % 64) * kXFrame, kXFrame);
                client.sent.insert(client.sent.end(), view.begin(), view.end());
                send(*client.transport, frame(RequestType::Push, view));
                ++frames;
            }
            send(*client.transport, frame(RequestType::Drain));
        });
        x_threads.emplace_back([&] { collect(client); });
    }
    const auto handed_off_by = std::chrono::steady_clock::now() + 5s;
    while (metrics.counter("serve.strand_handoffs").value() < 1 &&
           std::chrono::steady_clock::now() < handed_off_by)
        std::this_thread::sleep_for(1ms);
    EXPECT_GE(metrics.counter("serve.strand_handoffs").value(), 1u);

    // Y floods a fixed number of frames, then DRAIN, in one write each.
    constexpr std::size_t kYFrames = 32;
    constexpr std::size_t kYFrame = 256;
    std::vector<EventStream> y_events;
    std::vector<std::future<void>> y_done;
    for (std::size_t c = 0; c < 2; ++c) {
        y_events.push_back(
            test::small_corpus().generate_heldout(kYFrames * kYFrame, 62 + c));
        std::string burst;
        for (std::size_t i = 0; i < kYFrames; ++i)
            burst += frame(RequestType::Push,
                           y_events[c].view().subspan(i * kYFrame, kYFrame));
        burst += frame(RequestType::Drain);
        send(*y[c].transport, burst);
        y_done.push_back(
            std::async(std::launch::async, [&, c] { collect(y[c]); }));
    }
    const auto y_deadline = std::chrono::steady_clock::now() + 5s;
    bool in_time = true;
    for (const std::future<void>& done : y_done)
        in_time = done.wait_until(y_deadline) == std::future_status::ready &&
                  in_time;
    const bool still_writing = !exhausted.load();
    const std::uint64_t handoffs =
        metrics.counter("serve.strand_handoffs").value();

    // Stop X and drain everything: once X's run drains, a strand queued
    // behind it runs too.
    stop.store(true);
    for (std::thread& thread : x_threads) thread.join();
    for (std::size_t c = 0; c < 2; ++c) {
        if (y_done[c].wait_for(10s) != std::future_status::ready)
            y[c].transport->close();
        y_done[c].get();
    }

    EXPECT_TRUE(in_time) << "Y's handed-off strand waited behind X's";
    EXPECT_TRUE(still_writing);
    EXPECT_GE(handoffs, 2u);
    for (const Client& client : x) {
        EXPECT_EQ(client.scores, replay(*stide, client.sent));
        EXPECT_EQ(client.drained.events, client.sent.size());
    }
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(y[c].scores, replay(*stide, y_events[c].view()));
        EXPECT_EQ(y[c].drained.events, y_events[c].size());
    }
    for (Client& client : x) client.transport->close();
    for (Client& client : y) client.transport->close();
    server.wait_connections_closed();
}

}  // namespace
}  // namespace adiv::serve
