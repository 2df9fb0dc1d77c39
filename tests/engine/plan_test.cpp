// ExperimentPlan: the value type describing a (detectors x windows x
// anomaly-sizes) experiment grid.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "detect/registry.hpp"
#include "engine/plan.hpp"
#include "engine/scheduler.hpp"
#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

TEST(ExperimentPlan, DefaultsToTheSuiteGrid) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    EXPECT_EQ(plan.anomaly_sizes(), test::small_suite().anomaly_sizes());
    EXPECT_EQ(plan.window_lengths(), test::small_suite().window_lengths());
    EXPECT_EQ(plan.detectors().size(), 1u);
    EXPECT_EQ(plan.detectors()[0].name, "stide");
    EXPECT_EQ(plan.cells_per_map(),
              plan.anomaly_sizes().size() * plan.window_lengths().size());
    EXPECT_EQ(plan.cell_count(), plan.cells_per_map());
    EXPECT_NO_THROW(plan.validate());
}

TEST(ExperimentPlan, CellCountScalesWithDetectors) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.add_detector(DetectorKind::Markov);
    EXPECT_EQ(plan.cell_count(), 2 * plan.cells_per_map());
}

TEST(ExperimentPlan, AxisRestrictionNarrowsTheGrid) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.with_window_lengths({2, 4}).with_anomaly_sizes({3});
    EXPECT_EQ(plan.window_lengths(), (std::vector<std::size_t>{2, 4}));
    EXPECT_EQ(plan.anomaly_sizes(), (std::vector<std::size_t>{3}));
    EXPECT_EQ(plan.cell_count(), 2u);
    EXPECT_NO_THROW(plan.validate());
}

TEST(ExperimentPlan, ValidateRejectsEmptyDetectors) {
    ExperimentPlan plan(test::small_suite());
    EXPECT_THROW(plan.validate(), InvalidArgument);
}

TEST(ExperimentPlan, ValidateRejectsAxisValuesOutsideTheSuite) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.with_window_lengths({99});
    EXPECT_THROW(plan.validate(), InvalidArgument);
}

TEST(ExperimentPlan, ValidateRejectsUnsortedOrRepeatedAxes) {
    // A map grid holds one cell per axis value, ascending. Such a plan is
    // refused by validate(), and run_plan refuses it before any detector is
    // built or trained.
    std::size_t built = 0;
    const DetectorFactory counting = [&built](std::size_t dw) {
        ++built;
        return make_detector(DetectorKind::Stide, dw);
    };
    const auto with_axes = [&](std::vector<std::size_t> dws,
                               std::vector<std::size_t> as) {
        ExperimentPlan plan(test::small_suite());
        plan.add_detector("counted", counting);
        plan.with_window_lengths(std::move(dws)).with_anomaly_sizes(std::move(as));
        return plan;
    };
    const std::vector<ExperimentPlan> plans{
        with_axes({4, 2}, {3}), with_axes({3, 3}, {3}),
        with_axes({2, 4}, {5, 3}), with_axes({2, 4}, {3, 3})};
    for (const ExperimentPlan& plan : plans) {
        EXPECT_THROW(plan.validate(), InvalidArgument);
        EXPECT_THROW((void)run_plan(plan), InvalidArgument);
    }
    EXPECT_EQ(built, 0u);
}

TEST(ExperimentPlan, ValidateRejectsEmptyAxes) {
    ExperimentPlan plan(test::small_suite());
    plan.add_detector(DetectorKind::Stide);
    plan.with_anomaly_sizes({});
    EXPECT_THROW(plan.validate(), InvalidArgument);
}

TEST(ExperimentPlan, RejectsUnnamedOrNullDetector) {
    ExperimentPlan plan(test::small_suite());
    EXPECT_THROW(plan.add_detector("", factory_for(DetectorKind::Stide)),
                 InvalidArgument);
    EXPECT_THROW(plan.add_detector("stide", DetectorFactory{}), InvalidArgument);
}

}  // namespace
}  // namespace adiv
