// ResultSink implementations: the unified rendering layer of the engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "engine/sink.hpp"
#include "support/corpus_fixture.hpp"
#include "support/temp_dir.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

/// One small stide plan, run once per binary.
const PlanRun& stide_run() {
    static const PlanRun run = [] {
        ExperimentPlan plan(test::small_suite());
        plan.add_detector(DetectorKind::Stide);
        plan.with_anomaly_sizes({2, 3}).with_window_lengths({2, 3, 4});
        return run_plan(plan, EngineOptions{});
    }();
    return run;
}

void replay(ResultSink& sink) {
    const PlanRun& run = stide_run();
    for (std::size_t d = 0; d < run.maps.size(); ++d)
        sink.map_ready(run.maps[d], run.timings[d]);
    sink.plan_finished(run.summary);
}

TEST(ChartSink, RendersBannerChartCountsAndCsv) {
    std::ostringstream out;
    ChartSink sink(out);
    replay(sink);
    const std::string text = out.str();
    EXPECT_NE(text.find("==== Performance map: stide ===="), std::string::npos);
    EXPECT_NE(text.find("summary: capable="), std::string::npos);
    EXPECT_NE(text.find("-- csv --"), std::string::npos);
    EXPECT_NE(text.find("# plan: 6 cells"), std::string::npos);
    EXPECT_NE(text.find("jobs=1"), std::string::npos);
}

TEST(ChartSink, OptionsSuppressSections) {
    std::ostringstream out;
    ChartSink::Options options;
    options.banner = false;
    options.csv_block = false;
    options.timing = false;
    ChartSink sink(out, options);
    replay(sink);
    const std::string text = out.str();
    EXPECT_EQ(text.find("===="), std::string::npos);
    EXPECT_EQ(text.find("-- csv --"), std::string::npos);
    EXPECT_EQ(text.find("# train"), std::string::npos);
    EXPECT_NE(text.find("summary: capable="), std::string::npos);
}

TEST(CsvFileSink, WritesHeaderRowsAndSummaryTrailer) {
    const std::string path = test::temp_path("adiv_sink_test.csv");
    {
        CsvFileSink sink(path);
        replay(sink);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "detector,anomaly_size,window_length,outcome,max_response");
    std::size_t rows = 0;
    std::string last;
    while (std::getline(in, line)) {
        last = line;
        if (line.rfind("stide,", 0) == 0) ++rows;
    }
    EXPECT_EQ(rows, 6u);  // 2 anomaly sizes x 3 windows
    EXPECT_EQ(last.rfind("# cells=6", 0), 0u);
    std::remove(path.c_str());
}

TEST(CsvFileSink, ThrowsWhenFileCannotOpen) {
    EXPECT_THROW(CsvFileSink("/nonexistent-dir/x/y.csv"), DataError);
}

TEST(JsonSink, EmitsSchemaMapsAndSummary) {
    std::ostringstream out;
    JsonSink sink(out);
    replay(sink);
    const std::string json = out.str();
    EXPECT_EQ(json.find("{\"schema\":\"adiv-plan-run/1\""), 0u);
    EXPECT_NE(json.find("\"maps\":[{\"detector\":\"stide\""), std::string::npos);
    EXPECT_NE(json.find("\"cells\":[{\"anomaly_size\":2,\"window_length\":2"),
              std::string::npos);
    EXPECT_NE(json.find("\"summary\":{\"jobs\":1"), std::string::npos);
    EXPECT_NE(json.find("\"cells_per_second\":"), std::string::npos);
}

TEST(MultiSink, FansOutToEverySink) {
    std::ostringstream chart_out;
    std::ostringstream json_out;
    ChartSink chart(chart_out);
    JsonSink json(json_out);
    MultiSink multi({&chart, &json});
    replay(multi);
    EXPECT_NE(chart_out.str().find("==== Performance map: stide ===="),
              std::string::npos);
    EXPECT_NE(json_out.str().find("\"schema\":\"adiv-plan-run/1\""),
              std::string::npos);
}

TEST(MultiSink, RejectsNullSinks) {
    EXPECT_THROW(MultiSink({nullptr}), InvalidArgument);
}

TEST(RunPlanWithSink, DeliversMapsInPlanOrder) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.add_detector(DetectorKind::Markov);
    plan.with_anomaly_sizes({2}).with_window_lengths({2, 3});
    std::ostringstream out;
    ChartSink sink(out);
    EngineOptions options;
    options.jobs = 2;
    const PlanRun run = run_plan(plan, options, sink);
    EXPECT_EQ(run.maps.size(), 2u);
    const std::string text = out.str();
    const auto stide_pos = text.find("Performance map: stide");
    const auto markov_pos = text.find("Performance map: markov");
    ASSERT_NE(stide_pos, std::string::npos);
    ASSERT_NE(markov_pos, std::string::npos);
    EXPECT_LT(stide_pos, markov_pos) << "maps must arrive in plan order";
}

}  // namespace
}  // namespace adiv
