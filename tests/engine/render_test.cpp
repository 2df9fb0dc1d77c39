// render_plan_run: the figure binaries' stdout rendering of a plan run.
#include "engine/render.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "support/corpus_fixture.hpp"

namespace adiv {
namespace {

TEST(RenderPlanRun, RendersBannerChartCountsAndCsv) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.with_anomaly_sizes({2, 3}).with_window_lengths({2, 3, 4});
    std::ostringstream out;
    render_plan_run(out, run_plan(plan));
    const std::string text = out.str();
    EXPECT_NE(text.find("==== Performance map: stide ===="), std::string::npos);
    EXPECT_NE(text.find("# train "), std::string::npos);
    EXPECT_NE(text.find("summary: capable="), std::string::npos);
    EXPECT_NE(text.find("-- csv --"), std::string::npos);
    EXPECT_NE(text.find("# plan: 6 cells"), std::string::npos);
    EXPECT_NE(text.find("jobs=1"), std::string::npos);
}

TEST(RenderPlanRun, RendersMapsInPlanOrder) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.add_detector(DetectorKind::Markov);
    plan.with_anomaly_sizes({2}).with_window_lengths({2, 3});
    EngineOptions options;
    options.jobs = 2;
    std::ostringstream out;
    render_plan_run(out, run_plan(plan, options));
    const std::string text = out.str();
    const auto stide_pos = text.find("Performance map: stide");
    const auto markov_pos = text.find("Performance map: markov");
    const auto plan_pos = text.find("# plan: 4 cells");
    ASSERT_NE(stide_pos, std::string::npos);
    ASSERT_NE(markov_pos, std::string::npos);
    ASSERT_NE(plan_pos, std::string::npos);
    EXPECT_LT(stide_pos, markov_pos) << "maps must render in plan order";
    EXPECT_LT(markov_pos, plan_pos) << "the plan line comes last";
}

}  // namespace
}  // namespace adiv
