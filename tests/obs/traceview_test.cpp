// Trace analyzer: the id-linked span tree, self time, exact nearest-rank
// percentiles, run splitting, the request view, and the pinned renderings
// behind adiv_traceview.
#include "obs/traceview.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

/// The ids every span line carries, for span `span` under `parent` (0 = a
/// root) in trace 0xaa.
std::string ids(std::uint64_t span, std::uint64_t parent) {
    return ",\"trace\":\"00000000000000aa\",\"span\":\"" + hex16(span) +
           "\",\"parent\":\"" + hex16(parent) + "\"";
}

std::string span_begin(const std::string& name, const std::string& t,
                       std::uint64_t span, std::uint64_t parent) {
    return "{\"type\":\"span_begin\",\"name\":\"" + name + "\",\"t\":" + t +
           ids(span, parent) + "}\n";
}

std::string span_end(const std::string& name, const std::string& t,
                     const std::string& dur, std::uint64_t span,
                     std::uint64_t parent) {
    return "{\"type\":\"span_end\",\"name\":\"" + name + "\",\"t\":" + t +
           ",\"dur_s\":" + dur + ids(span, parent) + "}\n";
}

// One complete run: map(2.0s) containing train(0.5s) then score(1.0s).
const std::string kNestedTrace =
    "{\"type\":\"manifest\",\"tool\":\"adiv_score\",\"detector\":\"stide\","
    "\"timestamp\":\"2026-08-06T00:00:00Z\"}\n" +
    span_begin("experiment.map", "0", 1, 0) +
    span_begin("experiment.train", "0", 2, 1) +
    span_end("experiment.train", "0.5", "0.5", 2, 1) +
    span_begin("experiment.score", "0.5", 3, 1) +
    span_end("experiment.score", "1.5", "1", 3, 1) +
    span_end("experiment.map", "2", "2", 1, 0);

TraceAnalysis analyze(const std::string& text) {
    std::istringstream in(text);
    return analyze_trace(in);
}

const SpanStats* span_named(const TraceAnalysis& analysis,
                            const std::string& name) {
    for (const SpanStats& row : analysis.spans)
        if (row.name == name) return &row;
    return nullptr;
}

TEST(Traceview, ReconstructsSelfTimeFromParentIds) {
    const TraceAnalysis analysis = analyze(kNestedTrace);
    ASSERT_EQ(analysis.spans.size(), 3u);
    EXPECT_EQ(analysis.skipped, 0u);

    const SpanStats* map = span_named(analysis, "experiment.map");
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->count, 1u);
    EXPECT_EQ(map->total_s, 2.0);
    EXPECT_EQ(map->self_s, 0.5);  // 2.0 - (0.5 + 1.0) of direct children

    const SpanStats* train = span_named(analysis, "experiment.train");
    ASSERT_NE(train, nullptr);
    EXPECT_EQ(train->self_s, 0.5);  // leaf: self == total

    const SpanStats* score = span_named(analysis, "experiment.score");
    ASSERT_NE(score, nullptr);
    EXPECT_EQ(score->self_s, 1.0);
}

TEST(Traceview, BuildsRunSummaryAndCriticalPath) {
    const TraceAnalysis analysis = analyze(kNestedTrace);
    ASSERT_EQ(analysis.runs.size(), 1u);
    const RunSummary& run = analysis.runs[0];
    EXPECT_EQ(run.tool, "adiv_score");
    EXPECT_EQ(run.detector, "stide");
    EXPECT_EQ(run.timestamp, "2026-08-06T00:00:00Z");
    EXPECT_EQ(run.spans, 3u);
    EXPECT_EQ(run.root_total_s, 2.0);
    // Longest root -> its longest direct child: map then score.
    ASSERT_EQ(run.critical_path.size(), 2u);
    EXPECT_EQ(run.critical_path[0].name, "experiment.map");
    EXPECT_EQ(run.critical_path[0].dur_s, 2.0);
    EXPECT_EQ(run.critical_path[0].self_s, 0.5);
    EXPECT_EQ(run.critical_path[1].name, "experiment.score");
    EXPECT_EQ(run.critical_path[1].dur_s, 1.0);
}

TEST(Traceview, NearestRankPercentilesAreExact) {
    // 100 spans with durations 1..100s: nearest-rank pN is exactly N.
    std::string trace;
    for (int i = 1; i <= 100; ++i)
        trace += span_end("loop.iter", "0", std::to_string(i), 0x1000 + i, 0);
    const TraceAnalysis analysis = analyze(trace);
    ASSERT_EQ(analysis.spans.size(), 1u);
    const SpanStats& row = analysis.spans[0];
    EXPECT_EQ(row.count, 100u);
    EXPECT_EQ(row.p50_s, 50.0);
    EXPECT_EQ(row.p95_s, 95.0);
    EXPECT_EQ(row.p99_s, 99.0);
    EXPECT_EQ(row.max_s, 100.0);
    EXPECT_EQ(row.total_s, 5050.0);
}

TEST(Traceview, SingleSpanPercentilesCollapseToThatSpan) {
    const TraceAnalysis analysis = analyze(span_end("a.b", "0", "0.25", 1, 0));
    ASSERT_EQ(analysis.spans.size(), 1u);
    EXPECT_EQ(analysis.spans[0].p50_s, 0.25);
    EXPECT_EQ(analysis.spans[0].p99_s, 0.25);
}

TEST(Traceview, SkipsAttrsObjectsAndUnknownTypes) {
    const TraceAnalysis analysis = analyze(
        span_begin("a.b", "0", 1, 0) +
        "{\"type\":\"span_end\",\"name\":\"a.b\",\"t\":1,\"dur_s\":1" +
        ids(1, 0) + ",\"attrs\":{\"k\":\"v\",\"n\":3,\"flag\":true}}\n"
        "{\"type\":\"metrics_sample\",\"seq\":0}\n");
    EXPECT_EQ(analysis.skipped, 0u);
    EXPECT_EQ(analysis.unterminated, 0u);  // the end retired its begin
    ASSERT_EQ(analysis.spans.size(), 1u);
    EXPECT_EQ(analysis.spans[0].total_s, 1.0);
}

TEST(Traceview, MalformedLinesAreCountedNotFatal) {
    const TraceAnalysis analysis = analyze(
        "this is not json\n"
        "{\"no_type\":1}\n"
        "{\"type\":\"span_end\",\"name\":\"a.b\",\"t\":0}\n" +  // no dur
        span_end("a.b", "1", "1", 1, 0) +
        "{\"type\":\"span_end\",\"name\":\"a.b\",\"t\":-,\"dur_s\":1}\n"
        "{\"type\":\"span_end\",\"name\":\"a.b\",\"t\":1e999,\"dur_s\":1}\n"
        "{\"type\":\"span_end\",\"dur_s\":2,\"t\":0\n");  // truncated
    EXPECT_EQ(analysis.lines, 7u);
    EXPECT_EQ(analysis.skipped, 6u);
    ASSERT_EQ(analysis.spans.size(), 1u);
    EXPECT_EQ(analysis.spans[0].count, 1u);
}

TEST(Traceview, HeaderlessTraceYieldsOneAnonymousRun) {
    // A line with no ids at all (a hand-written or foreign trace) is a root.
    const TraceAnalysis analysis = analyze(
        "{\"type\":\"span_end\",\"name\":\"a.b\",\"t\":1,\"dur_s\":1}\n");
    ASSERT_EQ(analysis.runs.size(), 1u);
    EXPECT_EQ(analysis.runs[0].tool, "");
    EXPECT_EQ(analysis.runs[0].spans, 1u);
    EXPECT_EQ(analysis.runs[0].root_total_s, 1.0);
}

TEST(Traceview, MultipleManifestsSplitRuns) {
    std::string trace = kNestedTrace;
    trace +=
        "{\"type\":\"manifest\",\"tool\":\"adiv_serve\",\"detector\":\"\","
        "\"timestamp\":\"2026-08-06T00:00:01Z\"}\n" +
        // Span id 1 again, as a second process may mint it: runs link apart.
        span_end("serve.push", "3", "0.5", 1, 0);
    const TraceAnalysis analysis = analyze(trace);
    ASSERT_EQ(analysis.runs.size(), 2u);
    EXPECT_EQ(analysis.runs[0].tool, "adiv_score");
    EXPECT_EQ(analysis.runs[0].spans, 3u);
    EXPECT_EQ(analysis.runs[1].tool, "adiv_serve");
    EXPECT_EQ(analysis.runs[1].spans, 1u);
    EXPECT_EQ(analysis.runs[1].root_total_s, 0.5);
    EXPECT_EQ(analysis.runs[0].root_total_s, 2.0);
    // Span statistics aggregate across runs.
    EXPECT_EQ(analysis.spans.size(), 4u);
}

TEST(Traceview, EmptyManifestOnlyTraceReportsTheRun) {
    const TraceAnalysis analysis = analyze(
        "{\"type\":\"manifest\",\"tool\":\"adiv_train\",\"detector\":\"lookahead\","
        "\"timestamp\":\"2026-08-06T00:00:00Z\"}\n");
    EXPECT_TRUE(analysis.spans.empty());
    ASSERT_EQ(analysis.runs.size(), 1u);
    EXPECT_EQ(analysis.runs[0].spans, 0u);
    EXPECT_TRUE(analysis.runs[0].critical_path.empty());
}

TEST(Traceview, RenderIsBitIdenticalAcrossAnalyses) {
    const std::string first = render_traceview(analyze(kNestedTrace));
    const std::string second = render_traceview(analyze(kNestedTrace));
    EXPECT_EQ(first, second);
    // The pinned fixture's table rows, most expensive span first.
    EXPECT_NE(first.find("experiment.map"), std::string::npos);
    EXPECT_NE(first.find("2.000000"), std::string::npos);
    EXPECT_LT(first.find("experiment.map"), first.find("experiment.score"));
    EXPECT_LT(first.find("experiment.score"), first.find("experiment.train"));
    EXPECT_NE(first.find("run 1 tool=adiv_score detector=stide "
                         "at=2026-08-06T00:00:00Z spans=3 "
                         "roots_total_s=2.000000"),
              std::string::npos);
    EXPECT_NE(first.find("critical path:"), std::string::npos);
}

TEST(Traceview, JsonRenderingIsPinned) {
    const std::string json = traceview_to_json(analyze(kNestedTrace));
    EXPECT_EQ(json,
              "{\"spans\":["
              "{\"name\":\"experiment.map\",\"count\":1,\"total_s\":2,"
              "\"self_s\":0.5,\"p50_s\":2,\"p95_s\":2,\"p99_s\":2,\"max_s\":2},"
              "{\"name\":\"experiment.score\",\"count\":1,\"total_s\":1,"
              "\"self_s\":1,\"p50_s\":1,\"p95_s\":1,\"p99_s\":1,\"max_s\":1},"
              "{\"name\":\"experiment.train\",\"count\":1,\"total_s\":0.5,"
              "\"self_s\":0.5,\"p50_s\":0.5,\"p95_s\":0.5,\"p99_s\":0.5,"
              "\"max_s\":0.5}],"
              "\"runs\":[{\"tool\":\"adiv_score\",\"detector\":\"stide\","
              "\"timestamp\":\"2026-08-06T00:00:00Z\",\"spans\":3,"
              "\"root_total_s\":2,\"critical_path\":["
              "{\"name\":\"experiment.map\",\"dur_s\":2,\"self_s\":0.5},"
              "{\"name\":\"experiment.score\",\"dur_s\":1,\"self_s\":1}]}],"
              "\"lines\":7,\"skipped\":0,\"unterminated\":0}");
}

TEST(Traceview, EmptyInputRendersPlaceholder) {
    const TraceAnalysis analysis = analyze("");
    EXPECT_EQ(analysis.lines, 0u);
    EXPECT_TRUE(analysis.runs.empty());
    EXPECT_NE(render_traceview(analysis).find("(no spans in trace)"),
              std::string::npos);
}

TEST(Traceview, InterleavedThreadsChargeEachChildToItsOwnParent) {
    // Two workers' subtrees interleave in one stream under engine.plan:
    // leaf.b (thread B) ends before leaf.a (thread A), then each task ends.
    // The lines also carry the per-thread nesting depth older trace writers
    // emitted; parents rebuilt from it would charge both leaves to task.a.
    const auto line = [](const std::string& head, int nesting,
                         const std::string& tail) {
        return "{\"type\":\"" + head + "\",\"depth\":" +
               std::to_string(nesting) + tail + "}\n";
    };
    const TraceAnalysis analysis = analyze(
        line("span_begin\",\"name\":\"engine.plan", 0, ",\"t\":0" + ids(1, 0)) +
        line("span_begin\",\"name\":\"task.a", 1, ",\"t\":1" + ids(2, 1)) +
        line("span_begin\",\"name\":\"task.b", 1, ",\"t\":1" + ids(3, 1)) +
        line("span_begin\",\"name\":\"leaf.a", 2, ",\"t\":1" + ids(4, 2)) +
        line("span_begin\",\"name\":\"leaf.b", 2, ",\"t\":1" + ids(5, 3)) +
        line("span_end\",\"name\":\"leaf.b", 2, ",\"t\":2,\"dur_s\":1" + ids(5, 3)) +
        line("span_end\",\"name\":\"leaf.a", 2, ",\"t\":4,\"dur_s\":3" + ids(4, 2)) +
        line("span_end\",\"name\":\"task.a", 1, ",\"t\":5,\"dur_s\":4" + ids(2, 1)) +
        line("span_end\",\"name\":\"task.b", 1, ",\"t\":6,\"dur_s\":5" + ids(3, 1)) +
        line("span_end\",\"name\":\"engine.plan", 0, ",\"t\":7,\"dur_s\":7" + ids(1, 0)));
    ASSERT_EQ(analysis.skipped, 0u);
    EXPECT_EQ(analysis.unterminated, 0u);
    const SpanStats* task_a = span_named(analysis, "task.a");
    const SpanStats* task_b = span_named(analysis, "task.b");
    ASSERT_NE(task_a, nullptr);
    ASSERT_NE(task_b, nullptr);
    EXPECT_EQ(task_a->self_s, 1.0);  // 4 minus leaf.a's 3
    EXPECT_EQ(task_b->self_s, 4.0);  // 5 minus leaf.b's 1
    ASSERT_EQ(analysis.runs.size(), 1u);
    EXPECT_EQ(analysis.runs[0].root_total_s, 7.0);
    const auto& path = analysis.runs[0].critical_path;
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(path[0].name, "engine.plan");
    EXPECT_EQ(path[1].name, "task.b");
    EXPECT_EQ(path[2].name, "leaf.b");
}

TEST(Traceview, UnterminatedSpansCloseAtEndOfTrace) {
    // A killed writer: the outer span began at t=1 but never ended. The
    // stream's last timestamp is 4 (the child's end), so the orphan closes
    // with dur 3 and is counted — not dropped, not fatal.
    const TraceAnalysis analysis = analyze(span_begin("serve.session", "1", 1, 0) +
                                           span_end("serve.push", "4", "2", 2, 1));
    EXPECT_EQ(analysis.unterminated, 1u);
    const SpanStats* orphan = span_named(analysis, "serve.session");
    ASSERT_NE(orphan, nullptr);
    EXPECT_EQ(orphan->count, 1u);
    EXPECT_EQ(orphan->total_s, 3.0);          // 4 - 1
    EXPECT_EQ(orphan->self_s, 1.0);           // 3 minus the child's 2
    const std::string rendered = render_traceview(analysis);
    EXPECT_NE(rendered.find("(warning: 1 span(s) had no span_end; closed at "
                            "end of trace)"),
              std::string::npos);
    EXPECT_NE(traceview_to_json(analysis).find("\"unterminated\":1"),
              std::string::npos);
}

TEST(Traceview, UnterminatedSpansCloseDeepestFirst) {
    // Both spans die open; their ids nest them exactly as a normal unwind
    // would: the outer span absorbs the inner one as a direct child.
    const TraceAnalysis analysis = analyze(span_begin("outer", "0", 1, 0) +
                                           span_begin("inner", "2", 2, 1) +
                                           span_end("leaf", "5", "1", 3, 2));
    EXPECT_EQ(analysis.unterminated, 2u);
    const SpanStats* outer = span_named(analysis, "outer");
    const SpanStats* inner = span_named(analysis, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->total_s, 5.0);
    EXPECT_EQ(inner->total_s, 3.0);
    EXPECT_EQ(outer->self_s, 2.0);  // 5 minus the closed inner's 3
    EXPECT_EQ(inner->self_s, 2.0);  // 3 minus the leaf's 1
}

TEST(Traceview, ManifestBoundaryClosesTheEarlierRunsOrphans) {
    // Each run is self-contained: an orphan from run 1 must not dangle into
    // run 2's spans.
    const TraceAnalysis analysis = analyze(
        "{\"type\":\"manifest\",\"tool\":\"a\",\"detector\":\"\","
        "\"timestamp\":\"T0\"}\n" +
        span_begin("dangling", "1", 1, 0) +
        "{\"type\":\"manifest\",\"tool\":\"b\",\"detector\":\"\","
        "\"timestamp\":\"T1\"}\n" +
        span_end("clean", "9", "1", 2, 1));
    EXPECT_EQ(analysis.unterminated, 1u);
    ASSERT_EQ(analysis.runs.size(), 2u);
    EXPECT_EQ(analysis.runs[0].spans, 1u);  // the closed orphan stays in run 1
    EXPECT_EQ(analysis.runs[1].spans, 1u);
    EXPECT_EQ(analysis.runs[1].root_total_s, 1.0);  // its parent is in run 1
}

// --- request view -----------------------------------------------------------

/// A two-process request fixture: client root span (parent all-zeros) with a
/// daemon child and grandchild, plus one span from a different trace.
const char kRequestTrace[] =
    "{\"type\":\"span_end\",\"name\":\"serve.client_push\","
    "\"t\":10,\"dur_s\":8,\"trace\":\"00000000000000aa\","
    "\"span\":\"0000000000000001\",\"parent\":\"0000000000000000\"}\n"
    "{\"type\":\"span_end\",\"name\":\"serve.shard_handle\","
    "\"t\":9,\"dur_s\":6,\"trace\":\"00000000000000aa\","
    "\"span\":\"0000000000000002\",\"parent\":\"0000000000000001\"}\n"
    "{\"type\":\"span_end\",\"name\":\"serve.score_push\","
    "\"t\":8,\"dur_s\":4,\"trace\":\"00000000000000aa\","
    "\"span\":\"0000000000000003\",\"parent\":\"0000000000000002\"}\n"
    "{\"type\":\"span_end\",\"name\":\"other.request\",\"t\":5,"
    "\"dur_s\":1,\"trace\":\"00000000000000bb\","
    "\"span\":\"0000000000000009\",\"parent\":\"0000000000000000\"}\n";

RequestAnalysis analyze_request_text(const std::string& text,
                                     const std::string& trace_id) {
    std::istringstream in(text);
    return analyze_request(in, trace_id);
}

TEST(RequestView, StitchesTheCausalTreeAndComputesSelfTime) {
    const RequestAnalysis analysis = analyze_request_text(kRequestTrace, "aa");
    EXPECT_EQ(analysis.trace_id, "00000000000000aa");
    ASSERT_EQ(analysis.spans.size(), 3u);  // the bb span is filtered out
    ASSERT_EQ(analysis.roots.size(), 1u);
    const SpanNode& root = analysis.spans[analysis.roots[0]];
    EXPECT_EQ(root.name, "serve.client_push");
    EXPECT_EQ(root.dur_s, 8.0);
    EXPECT_EQ(root.self_s, 2.0);  // 8 minus the daemon child's 6
    EXPECT_EQ(root.start_t, 2.0);  // end t minus dur
    ASSERT_EQ(root.children.size(), 1u);
    const SpanNode& shard = analysis.spans[root.children[0]];
    EXPECT_EQ(shard.name, "serve.shard_handle");
    EXPECT_EQ(shard.self_s, 2.0);  // 6 minus the scorer's 4
    ASSERT_EQ(shard.children.size(), 1u);
    const SpanNode& score = analysis.spans[shard.children[0]];
    EXPECT_EQ(score.name, "serve.score_push");
    EXPECT_EQ(score.self_s, 4.0);  // leaf: self == dur
    EXPECT_TRUE(score.children.empty());
}

TEST(RequestView, MultipleRootsSortByStartTime) {
    // Two wire requests of one trace, arriving out of order in the file.
    const std::string text =
        "{\"type\":\"span_end\",\"name\":\"second\",\"t\":9,"
        "\"dur_s\":1,\"trace\":\"00000000000000aa\","
        "\"span\":\"0000000000000002\",\"parent\":\"0000000000000000\"}\n"
        "{\"type\":\"span_end\",\"name\":\"first\",\"t\":3,"
        "\"dur_s\":1,\"trace\":\"00000000000000aa\","
        "\"span\":\"0000000000000001\",\"parent\":\"0000000000000000\"}\n";
    const RequestAnalysis analysis = analyze_request_text(text, "aa");
    ASSERT_EQ(analysis.roots.size(), 2u);
    EXPECT_EQ(analysis.spans[analysis.roots[0]].name, "first");
    EXPECT_EQ(analysis.spans[analysis.roots[1]].name, "second");
}

TEST(RequestView, UnknownTraceIdYieldsEmptyAnalysisNotAnError) {
    const RequestAnalysis analysis = analyze_request_text(kRequestTrace, "cc");
    EXPECT_TRUE(analysis.spans.empty());
    EXPECT_TRUE(analysis.roots.empty());
    EXPECT_NE(render_request(analysis).find("(no spans carry this trace id)"),
              std::string::npos);
}

TEST(RequestView, RejectsMalformedTraceIds) {
    std::istringstream in(kRequestTrace);
    EXPECT_THROW((void)analyze_request(in, "not-hex"), DataError);
    std::istringstream again(kRequestTrace);
    EXPECT_THROW((void)analyze_request(again, "0"), DataError);  // zero id
    std::istringstream once_more(kRequestTrace);
    EXPECT_THROW((void)analyze_request(once_more, ""), DataError);
}

TEST(RequestView, RenderIndentsByDepthAndJsonIsPinned) {
    const RequestAnalysis analysis = analyze_request_text(kRequestTrace, "aa");
    const std::string rendered = render_request(analysis);
    EXPECT_NE(rendered.find("trace 00000000000000aa: 3 span(s)\n"),
              std::string::npos);
    EXPECT_NE(rendered.find("\n  serve.client_push  span=0000000000000001"),
              std::string::npos);
    EXPECT_NE(rendered.find("\n    serve.shard_handle  span=0000000000000002"),
              std::string::npos);
    EXPECT_NE(rendered.find("\n      serve.score_push  span=0000000000000003"),
              std::string::npos);
    EXPECT_EQ(request_to_json(analysis),
              "{\"trace\":\"00000000000000aa\",\"span_count\":3,\"roots\":["
              "{\"name\":\"serve.client_push\",\"span\":\"0000000000000001\","
              "\"parent\":\"0000000000000000\",\"start_t\":2,\"dur_s\":8,"
              "\"self_s\":2,\"children\":["
              "{\"name\":\"serve.shard_handle\",\"span\":\"0000000000000002\","
              "\"parent\":\"0000000000000001\",\"start_t\":3,\"dur_s\":6,"
              "\"self_s\":2,\"children\":["
              "{\"name\":\"serve.score_push\",\"span\":\"0000000000000003\","
              "\"parent\":\"0000000000000002\",\"start_t\":4,\"dur_s\":4,"
              "\"self_s\":4,\"children\":[]}]}]}],"
              "\"lines\":4,\"skipped\":0}");
}

TEST(RequestView, SelfParentedSpanBecomesARootNotACycle) {
    // A corrupt line naming itself as parent must not recurse forever.
    const std::string text =
        "{\"type\":\"span_end\",\"name\":\"loop\",\"t\":2,"
        "\"dur_s\":1,\"trace\":\"00000000000000aa\","
        "\"span\":\"0000000000000007\",\"parent\":\"0000000000000007\"}\n";
    const RequestAnalysis analysis = analyze_request_text(text, "aa");
    ASSERT_EQ(analysis.spans.size(), 1u);
    ASSERT_EQ(analysis.roots.size(), 1u);
    EXPECT_EQ(analysis.spans[analysis.roots[0]].name, "loop");
    EXPECT_NE(render_request(analysis).find("loop"), std::string::npos);
}

TEST(RequestView, UnterminatedSpanIsClosedAtEndOfTrace) {
    // The client's span ended; the daemon's span under it never did (a
    // killed daemon). The orphan is closed at the last t seen (10), listed
    // under its parent, charged to the parent's self time, and counted.
    const std::string text = span_end("serve.client_push", "10", "8", 1, 0) +
                             span_begin("serve.shard_handle", "3", 2, 1);
    const RequestAnalysis analysis = analyze_request_text(text, "aa");
    ASSERT_EQ(analysis.spans.size(), 2u);
    ASSERT_EQ(analysis.roots.size(), 1u);
    const auto& root = analysis.spans[analysis.roots[0]];
    EXPECT_EQ(root.name, "serve.client_push");
    ASSERT_EQ(root.children.size(), 1u);
    const auto& orphan = analysis.spans[root.children[0]];
    EXPECT_EQ(orphan.name, "serve.shard_handle");
    EXPECT_EQ(orphan.dur_s, 7.0);  // 10 - 3
    EXPECT_EQ(root.self_s, 1.0);   // 8 minus the orphan's 7
    const std::string rendered = render_request(analysis);
    EXPECT_NE(rendered.find("    serve.shard_handle  span=0000000000000002"),
              std::string::npos);
    EXPECT_NE(rendered.find("(warning: 1 span(s) had no span_end; closed at "
                            "end of trace)"),
              std::string::npos);
}

}  // namespace
}  // namespace adiv
