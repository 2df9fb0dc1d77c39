// adiv_traceview --contention: pinned fixtures for the profiling-stream
// analyzer — stage aggregation in pipeline order, wait-site aggregation
// across sweep points, dominant-site selection, and both renderings.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/traceview.hpp"

namespace adiv {
namespace {

// Two sampled events, a site that out-waits everything, one site reported by
// two sweep points, one foreign line (passes), one malformed line (skipped).
// The wait_site lines carry the `kind` key older traces wrote; it is ignored.
const char kFixture[] =
    "{\"type\":\"manifest\",\"tool\":\"adiv_serve\"}\n"
    "{\"type\":\"event_stage\",\"seq\":0,\"verb\":\"PUSH\",\"session\":1,"
    "\"events\":4,\"scores\":3,\"outcome\":\"ok\","
    "\"recv_wait_us\":1,\"recv_read_us\":1,"
    "\"parse_us\":2,\"score_us\":10,\"reply_us\":4,"
    "\"total_us\":25}\n"
    "{\"type\":\"event_stage\",\"seq\":8,\"verb\":\"PUSH\",\"session\":1,"
    "\"events\":4,\"scores\":4,\"outcome\":\"ok\","
    "\"recv_wait_us\":3,\"recv_read_us\":2,"
    "\"parse_us\":2,\"score_us\":20,\"reply_us\":6,"
    "\"total_us\":40}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.pool.dequeue_wait\","
    "\"kind\":\"idle\",\"acquires\":50,\"contended\":40,"
    "\"wait_us_total\":5000,\"wait_us_mean\":125,\"wait_us_p95\":300,"
    "\"wait_us_max\":400}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.shard.table\","
    "\"kind\":\"contention\",\"acquires\":10,\"contended\":2,"
    "\"wait_us_total\":100,\"wait_us_mean\":50,\"wait_us_p95\":80,"
    "\"wait_us_max\":90}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.shard.table\","
    "\"kind\":\"contention\",\"acquires\":6,\"contended\":2,"
    "\"wait_us_total\":60,\"wait_us_mean\":30,\"wait_us_p95\":100,"
    "\"wait_us_max\":110}\n"
    "not json\n";

TEST(Contention, AggregatesStagesInPipelineOrder) {
    std::istringstream in(kFixture);
    const ContentionAnalysis analysis = analyze_contention(in);
    EXPECT_EQ(analysis.events, 2u);
    EXPECT_EQ(analysis.lines, 7u);
    EXPECT_EQ(analysis.skipped, 1u);
    ASSERT_EQ(analysis.stages.size(), 6u);
    const char* expected_order[] = {"recv_wait", "recv_read", "parse",
                                    "score",     "reply",     "total"};
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(analysis.stages[i].stage, expected_order[i]);
    const StageBreakdown& recv_wait = analysis.stages[0];
    EXPECT_EQ(recv_wait.count, 2u);
    EXPECT_DOUBLE_EQ(recv_wait.total_us, 4.0);
    EXPECT_DOUBLE_EQ(recv_wait.mean_us, 2.0);
    EXPECT_DOUBLE_EQ(recv_wait.p50_us, 1.0);  // nearest rank over {1, 3}
    EXPECT_DOUBLE_EQ(recv_wait.p95_us, 3.0);
    EXPECT_DOUBLE_EQ(recv_wait.max_us, 3.0);
    const StageBreakdown& recv_read = analysis.stages[1];
    EXPECT_EQ(recv_read.count, 2u);
    EXPECT_DOUBLE_EQ(recv_read.total_us, 3.0);
    EXPECT_DOUBLE_EQ(recv_read.mean_us, 1.5);
    const StageBreakdown& total = analysis.stages[5];
    EXPECT_DOUBLE_EQ(total.total_us, 65.0);
    EXPECT_DOUBLE_EQ(total.mean_us, 32.5);
}

TEST(Contention, AggregatesWaitSitesAcrossSweepPoints) {
    std::istringstream in(kFixture);
    const ContentionAnalysis analysis = analyze_contention(in);
    ASSERT_EQ(analysis.sites.size(), 2u);
    // Sorted by total wait, descending: the pool site waits longest.
    EXPECT_EQ(analysis.sites[0].site, "serve.pool.dequeue_wait");
    // The two sweep-point lines for the table lock merge: counts sum, tail
    // statistics keep the worst point, the mean is recomputed.
    const ContentionSite& table = analysis.sites[1];
    EXPECT_EQ(table.site, "serve.shard.table");
    EXPECT_EQ(table.acquires, 16u);
    EXPECT_EQ(table.contended, 4u);
    EXPECT_DOUBLE_EQ(table.wait_us_total, 160.0);
    EXPECT_DOUBLE_EQ(table.wait_us_mean, 40.0);
    EXPECT_DOUBLE_EQ(table.wait_us_p95, 100.0);
    EXPECT_DOUBLE_EQ(table.wait_us_max, 110.0);
    // The contended site with the most total wait is dominant, whatever
    // `kind` an older trace gave it.
    EXPECT_EQ(analysis.dominant_site, "serve.pool.dequeue_wait");
}

TEST(Contention, RenderNamesTheDominantSite) {
    std::istringstream in(kFixture);
    const std::string rendered = render_contention(analyze_contention(in));
    EXPECT_NE(rendered.find("stage breakdown (2 sampled events):"),
              std::string::npos);
    EXPECT_NE(rendered.find("wait sites (by total wait):"), std::string::npos);
    EXPECT_NE(rendered.find("dominant wait site: serve.pool.dequeue_wait"),
              std::string::npos);
    EXPECT_NE(rendered.find("(1 of 7 lines skipped as malformed)"),
              std::string::npos);
}

TEST(Contention, EmptyStreamRendersPlaceholders) {
    std::istringstream in("");
    EXPECT_EQ(render_contention(analyze_contention(in)),
              "(no event_stage lines in trace)\n"
              "\n"
              "(no wait_site lines in trace)\n");
    // A site that never blocked is listed, but none is dominant.
    std::istringstream uncontended(
        "{\"type\":\"wait_site\",\"site\":\"serve.shard.table\","
        "\"acquires\":5,\"contended\":0,\"wait_us_total\":0,"
        "\"wait_us_mean\":0,\"wait_us_p95\":0,\"wait_us_max\":0}\n");
    EXPECT_NE(render_contention(analyze_contention(uncontended))
                  .find("dominant wait site: (none contended)"),
              std::string::npos);
}

TEST(Contention, JsonDocumentIsByteExact) {
    std::istringstream in(kFixture);
    EXPECT_EQ(
        contention_to_json(analyze_contention(in)),
        "{\"events\":2,\"stages\":["
        "{\"stage\":\"recv_wait\",\"count\":2,\"total_us\":4,\"mean_us\":2,"
        "\"p50_us\":1,\"p95_us\":3,\"p99_us\":3,\"max_us\":3},"
        "{\"stage\":\"recv_read\",\"count\":2,\"total_us\":3,\"mean_us\":1.5,"
        "\"p50_us\":1,\"p95_us\":2,\"p99_us\":2,\"max_us\":2},"
        "{\"stage\":\"parse\",\"count\":2,\"total_us\":4,\"mean_us\":2,"
        "\"p50_us\":2,\"p95_us\":2,\"p99_us\":2,\"max_us\":2},"
        "{\"stage\":\"score\",\"count\":2,\"total_us\":30,\"mean_us\":15,"
        "\"p50_us\":10,\"p95_us\":20,\"p99_us\":20,\"max_us\":20},"
        "{\"stage\":\"reply\",\"count\":2,\"total_us\":10,\"mean_us\":5,"
        "\"p50_us\":4,\"p95_us\":6,\"p99_us\":6,\"max_us\":6},"
        "{\"stage\":\"total\",\"count\":2,\"total_us\":65,\"mean_us\":32.5,"
        "\"p50_us\":25,\"p95_us\":40,\"p99_us\":40,\"max_us\":40}],"
        "\"wait_sites\":["
        "{\"site\":\"serve.pool.dequeue_wait\","
        "\"acquires\":50,\"contended\":40,\"wait_us_total\":5000,"
        "\"wait_us_mean\":125,\"wait_us_p95\":300,\"wait_us_max\":400},"
        "{\"site\":\"serve.shard.table\","
        "\"acquires\":16,\"contended\":4,\"wait_us_total\":160,"
        "\"wait_us_mean\":40,\"wait_us_p95\":100,\"wait_us_max\":110}],"
        "\"dominant_wait_site\":\"serve.pool.dequeue_wait\","
        "\"lines\":7,\"skipped\":1}");
}

}  // namespace
}  // namespace adiv
