// End-to-end request tracing over loopback: a traced client session and the
// in-process daemon emit spans that analyze_request stitches into one causal
// tree (client verb -> transport -> connection reader -> scorer), span ids are
// deterministic across identical runs, and untraced sessions stay span-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "detect/registry.hpp"
#include "obs/trace.hpp"
#include "obs/traceview.hpp"
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

/// Captures the global trace stream for the guard's lifetime.
class CapturedTrace {
public:
    CapturedTrace()
        : previous_(set_global_trace_sink(
              std::make_shared<StreamTraceSink>(captured_))) {}
    ~CapturedTrace() { set_global_trace_sink(previous_); }

    [[nodiscard]] std::string text() const { return captured_.str(); }

private:
    std::ostringstream captured_;
    std::shared_ptr<TraceSink> previous_;
};

/// One traced session against `target`: OPEN, `pushes` PUSH batches, DRAIN,
/// CLOSE. Returns the captured trace stream.
std::string traced_session(const std::string& target, std::uint64_t trace_id,
                           std::size_t pushes) {
    const CapturedTrace capture;
    MetricsRegistry metrics;
    Server server({.shards = 2}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    server.add_model("markov/4", trained(DetectorKind::Markov, 4));
    Client client(connect(server));
    client.set_trace(trace_id);
    (void)client.open(target);
    const EventStream events = test::small_corpus().generate_heldout(512, 3);
    for (std::size_t i = 0; i < pushes; ++i)
        (void)client.push(events.view().subspan(i * 128, 128));
    (void)client.drain();
    (void)client.close_session();
    client.disconnect();
    server.wait_connections_closed();
    server.shutdown();
    return capture.text();
}

RequestAnalysis analyze(const std::string& trace_text,
                        std::uint64_t trace_id) {
    std::istringstream in(trace_text);
    return analyze_request(in, hex16(trace_id));
}

const SpanNode* only_child_named(const RequestAnalysis& analysis,
                                 const SpanNode& parent,
                                 const std::string& name) {
    if (parent.children.size() != 1) return nullptr;
    const SpanNode& child = analysis.spans[parent.children[0]];
    return child.name == name ? &child : nullptr;
}

TEST(TraceE2E, TracedSessionStitchesIntoOneCausalTree) {
    constexpr std::uint64_t kTrace = 0x1234abcd5678ef01ULL;
    const std::string text = traced_session("stide/6", kTrace, /*pushes=*/2);
    const RequestAnalysis analysis = analyze(text, kTrace);
    EXPECT_EQ(analysis.trace_id, hex16(kTrace));

    // One root per traced wire request: the OPEN plus each PUSH. DRAIN and
    // CLOSE do not carry trace context, so they contribute nothing.
    ASSERT_EQ(analysis.roots.size(), 3u);
    std::size_t opens = 0;
    std::size_t pushes = 0;
    for (const std::size_t root_index : analysis.roots) {
        const SpanNode& root = analysis.spans[root_index];
        EXPECT_EQ(root.parent, 0u);
        if (root.name == "serve.client_open") {
            ++opens;
            // Client verb -> daemon reader handling, same ids both sides.
            EXPECT_NE(only_child_named(analysis, root, "serve.open_handle"),
                      nullptr);
        } else if (root.name == "serve.client_push") {
            ++pushes;
            // Client verb -> connection reader -> scorer: the full causal chain.
            const SpanNode* shard =
                only_child_named(analysis, root, "serve.shard_handle");
            ASSERT_NE(shard, nullptr);
            EXPECT_NE(only_child_named(analysis, *shard, "serve.score_push"),
                      nullptr);
        }
        // Children nest within their parent, so self-time stays meaningful.
        EXPECT_GE(root.self_s, 0.0);
    }
    EXPECT_EQ(opens, 1u);
    EXPECT_EQ(pushes, 2u);
}

TEST(TraceE2E, EnsemblePushReachesTheFusionScorer) {
    constexpr std::uint64_t kTrace = 0xfeedface12345678ULL;
    const std::string text =
        traced_session("stide/6+markov/4;fuse=vote", kTrace, /*pushes=*/1);
    const RequestAnalysis analysis = analyze(text, kTrace);
    // client_push -> shard_handle -> score_push -> fusion.score_members.
    const SpanNode* push = nullptr;
    for (const std::size_t root_index : analysis.roots)
        if (analysis.spans[root_index].name == "serve.client_push")
            push = &analysis.spans[root_index];
    ASSERT_NE(push, nullptr);
    const SpanNode* shard =
        only_child_named(analysis, *push, "serve.shard_handle");
    ASSERT_NE(shard, nullptr);
    const SpanNode* score =
        only_child_named(analysis, *shard, "serve.score_push");
    ASSERT_NE(score, nullptr);
    EXPECT_NE(only_child_named(analysis, *score, "fusion.score_members"),
              nullptr);
}

TEST(TraceE2E, SpanIdsAreDeterministicAcrossIdenticalRuns) {
    constexpr std::uint64_t kTrace = 0x0123456789abcdefULL;
    // (name, span, parent) triples — everything but the wall-clock numbers —
    // must be identical between two runs of the same traced workload: span
    // ids derive from (trace, parent, child index), never from time or
    // thread identity.
    const auto shape = [](const RequestAnalysis& analysis) {
        std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> rows;
        for (const SpanNode& span : analysis.spans)
            rows.emplace_back(span.name, span.span, span.parent);
        std::sort(rows.begin(), rows.end());
        return rows;
    };
    const RequestAnalysis first =
        analyze(traced_session("stide/6", kTrace, 2), kTrace);
    const RequestAnalysis second =
        analyze(traced_session("stide/6", kTrace, 2), kTrace);
    ASSERT_FALSE(first.spans.empty());
    EXPECT_EQ(shape(first), shape(second));
}

TEST(TraceE2E, UntracedSessionEmitsNoTraceFields) {
    const CapturedTrace capture;
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    Client client(connect(server));  // set_trace never called
    (void)client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(256, 5);
    (void)client.push(events.view());
    (void)client.drain();
    (void)client.close_session();
    client.disconnect();
    server.wait_connections_closed();
    server.shutdown();
    const std::string text = capture.text();
    // No span line carries request-tracing fields, and a request query over
    // the stream finds nothing.
    EXPECT_EQ(text.find("\"trace\""), std::string::npos);
    std::istringstream in(text);
    const RequestAnalysis analysis = analyze_request(in, hex16(0x1ULL));
    EXPECT_TRUE(analysis.spans.empty());
    EXPECT_TRUE(analysis.roots.empty());
}

TEST(TraceE2E, LastSpanIdNamesTheMostRecentWireSpan) {
    constexpr std::uint64_t kTrace = 0x42ULL;
    const CapturedTrace capture;
    MetricsRegistry metrics;
    Server server({}, metrics);
    server.add_model("stide/6", trained(DetectorKind::Stide, 6));
    Client client(connect(server));
    client.set_trace(kTrace);
    (void)client.open("stide/6");
    const EventStream events = test::small_corpus().generate_heldout(128, 9);
    (void)client.push(events.view());
    const std::uint64_t last = client.last_span_id();
    EXPECT_NE(last, 0u);
    (void)client.close_session();
    client.disconnect();
    server.wait_connections_closed();
    server.shutdown();
    // The reported id is the client_push root span in the stitched tree.
    const RequestAnalysis analysis = analyze(capture.text(), kTrace);
    const auto is_push_root = [&](std::size_t index) {
        return analysis.spans[index].name == "serve.client_push" &&
               analysis.spans[index].span == last;
    };
    EXPECT_TRUE(std::any_of(analysis.roots.begin(), analysis.roots.end(),
                            is_push_root));
}

}  // namespace
}  // namespace adiv::serve
