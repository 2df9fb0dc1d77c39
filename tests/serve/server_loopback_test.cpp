// End-to-end server behavior over in-process loopback transports: session
// lifecycle, concurrent multi-session scoring bit-identical to a serial
// OnlineScorer replay, response ordering, DRAIN semantics, error handling,
// and graceful shutdown. No sockets — every test is hermetic.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
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

}  // namespace
}  // namespace adiv::serve
