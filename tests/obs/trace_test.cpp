#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

TEST(TraceSpan, EmitsBeginAndEndLines) {
    std::ostringstream out;
    auto sink = std::make_shared<StreamTraceSink>(out);
    {
        TraceSpan span(sink, "unit.work");
        span.attr("detector", "stide");
    }
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"type\":\"span_begin\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"name\":\"unit.work\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"parent\":\"0000000000000000\""),
              std::string::npos);  // a root
    EXPECT_NE(lines[0].find("\"t\":"), std::string::npos);
    EXPECT_NE(lines[1].find("\"type\":\"span_end\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"dur_s\":"), std::string::npos);
    EXPECT_NE(lines[1].find("\"attrs\":{\"detector\":\"stide\"}"),
              std::string::npos);
}

TEST(TraceSpan, NestedSpansChainParentIds) {
    std::ostringstream out;
    auto sink = std::make_shared<StreamTraceSink>(out);
    TraceContext outer_ids;
    TraceContext inner_ids;
    {
        TraceSpan outer(sink, "outer");
        outer_ids = outer.context();
        EXPECT_EQ(current_trace_context().span_id, outer_ids.span_id);
        {
            TraceSpan inner(sink, "inner");
            inner_ids = inner.context();
            EXPECT_EQ(current_trace_context().span_id, inner_ids.span_id);
        }
        EXPECT_EQ(current_trace_context().span_id, outer_ids.span_id);
    }
    EXPECT_FALSE(current_trace_context().active());
    ASSERT_TRUE(outer_ids.active());
    EXPECT_EQ(inner_ids.trace_id, outer_ids.trace_id);
    EXPECT_EQ(inner_ids.span_id,
              derive_span_id(outer_ids.trace_id, outer_ids.span_id, 0));
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 4u);  // begin(outer), begin(inner), end(inner), end(outer)
    const std::string outer_span = "\"span\":\"" + hex16(outer_ids.span_id) + "\"";
    const std::string inner_parent =
        "\"parent\":\"" + hex16(outer_ids.span_id) + "\"";
    EXPECT_NE(lines[0].find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(lines[0].find(outer_span), std::string::npos);
    EXPECT_NE(lines[1].find("\"name\":\"inner\""), std::string::npos);
    EXPECT_NE(lines[1].find(inner_parent), std::string::npos);
    EXPECT_NE(lines[2].find("\"type\":\"span_end\""), std::string::npos);
    EXPECT_NE(lines[2].find(inner_parent), std::string::npos);
    EXPECT_NE(lines[3].find("\"name\":\"outer\""), std::string::npos);
    EXPECT_NE(lines[3].find("\"parent\":\"0000000000000000\""),
              std::string::npos);
}

TEST(TraceSpan, AttributeTypesRenderAsJsonTokens) {
    std::ostringstream out;
    auto sink = std::make_shared<StreamTraceSink>(out);
    {
        TraceSpan span(sink, "typed");
        span.attr("s", std::string("a\"b"))
            .attr("u", std::uint64_t{42})
            .attr("i", -7)
            .attr("d", 2.5)
            .attr("b", true);
    }
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"s\":\"a\\\"b\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"u\":42"), std::string::npos);
    EXPECT_NE(lines[1].find("\"i\":-7"), std::string::npos);
    EXPECT_NE(lines[1].find("\"d\":2.5"), std::string::npos);
    EXPECT_NE(lines[1].find("\"b\":true"), std::string::npos);
}

/// A disabled sink that still records anything written to it.
class DisabledRecordingSink final : public TraceSink {
public:
    void write_line(const std::string& line) override { lines.push_back(line); }
    [[nodiscard]] bool enabled() const noexcept override { return false; }
    std::vector<std::string> lines;
};

TEST(TraceSpan, NullSinkSuppressesOutputAndLeavesContext) {
    auto sink = std::make_shared<DisabledRecordingSink>();
    {
        TraceSpan span(sink, "silent");
        span.attr("k", "v");  // discarded without formatting
        EXPECT_FALSE(span.context().active());  // no id derived
        EXPECT_FALSE(current_trace_context().active());
    }
    {
        // Under an installed context too: nothing is derived or installed.
        const ScopedTraceContext scope(TraceContext{0xeeULL, 0x3ULL});
        TraceSpan span(sink, "silent");
        EXPECT_FALSE(span.context().active());
        EXPECT_EQ(current_trace_context().span_id, 0x3ULL);
    }
    EXPECT_FALSE(current_trace_context().active());
    EXPECT_TRUE(sink->lines.empty());
}

TEST(TraceSpan, UsesGlobalSinkWhenNoneGiven) {
    std::ostringstream out;
    auto previous = set_global_trace_sink(std::make_shared<StreamTraceSink>(out));
    { TraceSpan span("global.work"); }
    set_global_trace_sink(std::move(previous));
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"name\":\"global.work\""), std::string::npos);
}

TEST(GlobalTraceSink, DefaultsToNullAndSwapsAtomically) {
    // The default global sink is disabled; installing and restoring returns
    // the previous sink so sessions can nest.
    auto custom = std::make_shared<StderrTraceSink>();
    auto previous = set_global_trace_sink(custom);
    EXPECT_EQ(global_trace_sink().get(), custom.get());
    auto back = set_global_trace_sink(previous);
    EXPECT_EQ(back.get(), custom.get());
    // Passing nullptr restores a null (disabled) sink.
    auto before = global_trace_sink();
    auto prev2 = set_global_trace_sink(nullptr);
    EXPECT_FALSE(global_trace_sink()->enabled());
    set_global_trace_sink(before);
    EXPECT_EQ(prev2.get(), before.get());
}

TEST(GlobalTraceSink, SwapsWhileThreadsOpenSpans) {
    // Four threads open spans without a sink while the global sink flips
    // between a stream sink and the null sink (the TSan pass runs this). A
    // span writes both its lines to the sink it opened on, so the stream
    // sink's lines pair up however the swaps fall.
    std::ostringstream out;
    const auto stream = std::make_shared<StreamTraceSink>(out);
    auto previous = set_global_trace_sink(nullptr);
    std::atomic<int> running{4};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&running] {
            for (int i = 0; i < 2000; ++i) {
                TraceSpan span("swap.work");
                span.attr("i", i);
            }
            --running;
        });
    for (int swaps = 0; running.load() > 0; ++swaps) {
        set_global_trace_sink(swaps % 2 == 0 ? stream : nullptr);
        std::this_thread::yield();
    }
    for (std::thread& thread : threads) thread.join();
    set_global_trace_sink(std::move(previous));
    std::size_t begins = 0;
    std::size_t ends = 0;
    for (const std::string& line : lines_of(out.str())) {
        EXPECT_NE(line.find("\"name\":\"swap.work\""), std::string::npos) << line;
        if (line.find("\"type\":\"span_begin\"") != std::string::npos) ++begins;
        if (line.find("\"type\":\"span_end\"") != std::string::npos) ++ends;
    }
    EXPECT_EQ(begins, ends);
    EXPECT_LE(begins, 8000u);
}

TEST(OpenTraceSink, SpecSelectsImplementation) {
    EXPECT_FALSE(open_trace_sink("")->enabled());
    EXPECT_FALSE(open_trace_sink("null")->enabled());
    EXPECT_TRUE(open_trace_sink("-")->enabled());
    const std::string path = test::temp_path("adiv_trace_sink_test.jsonl");
    auto file_sink = open_trace_sink(path);
    ASSERT_TRUE(file_sink->enabled());
    file_sink->write_line("{\"type\":\"probe\"}");
    file_sink->flush();
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "{\"type\":\"probe\"}");
}

TEST(OpenTraceSink, UnwritablePathThrows) {
    EXPECT_THROW((void)open_trace_sink("/nonexistent-dir/trace.jsonl"), DataError);
}

TEST(TraceClock, IsMonotonic) {
    const double a = trace_clock_seconds();
    const double b = trace_clock_seconds();
    EXPECT_GE(a, 0.0);
    EXPECT_GE(b, a);
}

TEST(TraceIds, Hex16RoundTripsAndRejectsMalformedInput) {
    EXPECT_EQ(hex16(0), "0000000000000000");
    EXPECT_EQ(hex16(0xdeadbeef01234567ULL), "deadbeef01234567");
    std::uint64_t value = 0;
    ASSERT_TRUE(parse_hex16("deadbeef01234567", value));
    EXPECT_EQ(value, 0xdeadbeef01234567ULL);
    ASSERT_TRUE(parse_hex16("ff", value));  // short forms parse too
    EXPECT_EQ(value, 0xffULL);
    EXPECT_FALSE(parse_hex16("", value));
    EXPECT_FALSE(parse_hex16("xyz", value));
    EXPECT_FALSE(parse_hex16("0123456789abcdef0", value));  // 17 digits
    EXPECT_FALSE(parse_hex16("12 34", value));
}

TEST(TraceIds, DerivedSpanIdsAreDeterministicAndNeverZero) {
    const std::uint64_t a = derive_span_id(0x11ULL, 0x22ULL, 0);
    EXPECT_EQ(a, derive_span_id(0x11ULL, 0x22ULL, 0));
    EXPECT_NE(a, 0u);
    // Any coordinate change moves the id: sibling index, parent, trace.
    EXPECT_NE(a, derive_span_id(0x11ULL, 0x22ULL, 1));
    EXPECT_NE(a, derive_span_id(0x11ULL, 0x23ULL, 0));
    EXPECT_NE(a, derive_span_id(0x12ULL, 0x22ULL, 0));
}

TEST(TraceContextApi, ScopedInstallRestoresOnExit) {
    EXPECT_FALSE(current_trace_context().active());
    {
        const ScopedTraceContext outer(TraceContext{0xaaULL, 0x1ULL});
        EXPECT_TRUE(current_trace_context().active());
        EXPECT_EQ(current_trace_context().trace_id, 0xaaULL);
        EXPECT_EQ(current_trace_context().span_id, 0x1ULL);
        {
            const ScopedTraceContext inner(TraceContext{0xbbULL, 0x2ULL});
            EXPECT_EQ(current_trace_context().trace_id, 0xbbULL);
        }
        EXPECT_EQ(current_trace_context().trace_id, 0xaaULL);
    }
    EXPECT_FALSE(current_trace_context().active());
}

TEST(TraceContextApi, ScopedInstallResetsTheChildIndex) {
    // A re-installed context re-derives the same child ids: the per-parent
    // child counter belongs to the installation, not to thread history.
    std::ostringstream first_out;
    auto sink = std::make_shared<StreamTraceSink>(first_out);
    auto previous = set_global_trace_sink(sink);
    {
        const ScopedTraceContext scope(TraceContext{0xccULL, 0x9ULL});
        TraceSpan span("ctx.child");
    }
    std::ostringstream second_out;
    set_global_trace_sink(std::make_shared<StreamTraceSink>(second_out));
    {
        TraceSpan unrelated("ctx.noise");  // advances nothing relevant
    }
    {
        const ScopedTraceContext scope(TraceContext{0xccULL, 0x9ULL});
        TraceSpan span("ctx.child");
    }
    set_global_trace_sink(std::move(previous));
    const auto first = lines_of(first_out.str());
    const auto second = lines_of(second_out.str());
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(second.size(), 4u);  // noise begin/end + child begin/end
    EXPECT_EQ(first[1].substr(first[1].find("\"span\"")),
              second[3].substr(second[3].find("\"span\"")));
}

TEST(TraceContextApi, TracedSpansEmitTraceSpanParentFields) {
    std::ostringstream out;
    auto previous =
        set_global_trace_sink(std::make_shared<StreamTraceSink>(out));
    {
        // Explicit-id root (the client-side shape), with a derived child.
        TraceSpan root("req.root", TraceContext{0xabcULL, 0x123ULL});
        TraceSpan child("req.child");
    }
    set_global_trace_sink(std::move(previous));
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 4u);
    // Root: its own ids verbatim, parent 0.
    EXPECT_NE(lines[0].find("\"trace\":\"0000000000000abc\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"span\":\"0000000000000123\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"parent\":\"0000000000000000\""),
              std::string::npos);
    // Child: same trace, derived span id, parented under the root — and the
    // span_end lines repeat the ids so either line alone can be stitched.
    const std::string child_span = hex16(derive_span_id(0xabcULL, 0x123ULL, 0));
    EXPECT_NE(lines[1].find("\"trace\":\"0000000000000abc\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"span\":\"" + child_span + "\""),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"parent\":\"0000000000000123\""),
              std::string::npos);
    EXPECT_NE(lines[2].find("\"span\":\"" + child_span + "\""),
              std::string::npos);
    EXPECT_NE(lines[3].find("\"span\":\"0000000000000123\""),
              std::string::npos);
}

TEST(TraceContextApi, SpanWithoutContextMintsARootTrace) {
    std::ostringstream out;
    auto previous =
        set_global_trace_sink(std::make_shared<StreamTraceSink>(out));
    TraceContext first;
    TraceContext second;
    {
        TraceSpan span("plain.work");
        first = span.context();
    }
    {
        TraceSpan span("plain.work");
        second = span.context();
    }
    set_global_trace_sink(std::move(previous));
    // Each root starts its own nonzero trace; the ids land on both lines.
    ASSERT_TRUE(first.active());
    ASSERT_TRUE(second.active());
    EXPECT_NE(first.trace_id, second.trace_id);
    EXPECT_EQ(first.span_id, derive_span_id(first.trace_id, 0, 0));
    const auto lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 4u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_NE(lines[i].find("\"trace\":\"" + hex16(first.trace_id) + "\""),
                  std::string::npos);
        EXPECT_NE(lines[i].find("\"parent\":\"0000000000000000\""),
                  std::string::npos);
    }
}

TEST(TraceContextApi, DisabledSinkKeepsContextButEmitsNothing) {
    // The double gate: an active context with a null sink stays silent, and
    // the context plumbing still works for derived ids.
    auto previous = set_global_trace_sink(nullptr);
    {
        const ScopedTraceContext scope(TraceContext{0xddULL, 0x5ULL});
        TraceSpan span("gated.work");
        EXPECT_TRUE(current_trace_context().active());
    }
    set_global_trace_sink(std::move(previous));
}

}  // namespace
}  // namespace adiv
