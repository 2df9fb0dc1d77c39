#include "core/perf_map.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace adiv {
namespace {

SpanScore score_of(DetectionOutcome outcome, double max = 0.0) {
    SpanScore s;
    s.outcome = outcome;
    s.max_response = max;
    return s;
}

PerformanceMap tiny_map() {
    PerformanceMap map("demo", {2, 3}, {2, 3, 4});
    map.set(2, 2, score_of(DetectionOutcome::Capable, 1.0));
    map.set(2, 3, score_of(DetectionOutcome::Capable, 1.0));
    map.set(2, 4, score_of(DetectionOutcome::Capable, 1.0));
    map.set(3, 2, score_of(DetectionOutcome::Blind, 0.0));
    map.set(3, 3, score_of(DetectionOutcome::Weak, 0.5));
    map.set(3, 4, score_of(DetectionOutcome::Capable, 1.0));
    return map;
}

TEST(PerformanceMap, StoresAndRetrievesCells) {
    const PerformanceMap map = tiny_map();
    EXPECT_EQ(map.at(3, 3).outcome, DetectionOutcome::Weak);
    EXPECT_DOUBLE_EQ(map.at(3, 3).max_response, 0.5);
    EXPECT_EQ(map.cell_count(), 6u);
}

TEST(PerformanceMap, CountsByOutcome) {
    const PerformanceMap map = tiny_map();
    EXPECT_EQ(map.count(DetectionOutcome::Capable), 4u);
    EXPECT_EQ(map.count(DetectionOutcome::Weak), 1u);
    EXPECT_EQ(map.count(DetectionOutcome::Blind), 1u);
}

TEST(PerformanceMap, UnsetCellThrows) {
    PerformanceMap map("demo", {2}, {2});
    EXPECT_FALSE(map.has(2, 2));
    EXPECT_THROW((void)map.at(2, 2), InvalidArgument);
}

TEST(PerformanceMap, OffGridCellThrows) {
    PerformanceMap map("demo", {2, 3}, {2, 3});
    EXPECT_THROW(map.set(4, 2, SpanScore{}), InvalidArgument);
    EXPECT_THROW(map.set(2, 9, SpanScore{}), InvalidArgument);
}

TEST(PerformanceMap, AxesMustBeSortedAndNonEmpty) {
    EXPECT_THROW(PerformanceMap("x", {}, {2}), InvalidArgument);
    EXPECT_THROW(PerformanceMap("x", {3, 2}, {2}), InvalidArgument);
    // One cell per axis value: a repeated value is refused too.
    EXPECT_THROW(PerformanceMap("x", {2, 2}, {2}), InvalidArgument);
    EXPECT_THROW(PerformanceMap("x", {2}, {4, 4}), InvalidArgument);
}

TEST(PerformanceMap, RenderShowsGlyphsAndAxes) {
    const std::string out = tiny_map().render();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find('+'), std::string::npos);
    EXPECT_NE(out.find("AS"), std::string::npos);
    EXPECT_NE(out.find("DW"), std::string::npos);
    // Undefined column for anomaly size 1.
    EXPECT_NE(out.find('u'), std::string::npos);
}

TEST(PerformanceMap, RenderRowsDescendByWindow) {
    const std::string out = tiny_map().render();
    const auto row4 = out.find(" 4 |");
    const auto row2 = out.find(" 2 |");
    ASSERT_NE(row4, std::string::npos);
    ASSERT_NE(row2, std::string::npos);
    EXPECT_LT(row4, row2);
}

TEST(PerformanceMap, CsvHasHeaderAndAllCells) {
    std::ostringstream out;
    tiny_map().write_csv(out);
    const std::string csv = out.str();
    EXPECT_NE(csv.find("detector,anomaly_size,window_length,outcome,max_response"),
              std::string::npos);
    // 6 cells + header = 7 lines.
    std::size_t lines = 0;
    for (char c : csv)
        if (c == '\n') ++lines;
    EXPECT_EQ(lines, 7u);
    EXPECT_NE(csv.find("demo,3,3,weak,0.500000"), std::string::npos);
}

}  // namespace
}  // namespace adiv
