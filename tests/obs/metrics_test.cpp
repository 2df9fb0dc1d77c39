#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace adiv {
namespace {

TEST(Counter, AddsAndResets) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, HoldsLastValue) {
    Gauge g;
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    g.set(3.5);
    g.set(-1.25);
    EXPECT_DOUBLE_EQ(g.value(), -1.25);
    g.reset();
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsRegistry, LookupCreatesOnceAndStaysStable) {
    MetricsRegistry reg;
    Counter& a = reg.counter("events");
    Counter& b = reg.counter("events");
    EXPECT_EQ(&a, &b);
    a.add(7);
    EXPECT_EQ(reg.counter("events").value(), 7u);
    EXPECT_NE(&reg.counter("events"), &reg.counter("other"));
}

TEST(MetricsRegistry, FindDoesNotCreate) {
    MetricsRegistry reg;
    EXPECT_EQ(reg.find_counter("missing"), nullptr);
    EXPECT_EQ(reg.find_gauge("missing"), nullptr);
    EXPECT_EQ(reg.find_sketch("missing"), nullptr);
    reg.counter("present").add();
    ASSERT_NE(reg.find_counter("present"), nullptr);
    EXPECT_EQ(reg.find_counter("present")->value(), 1u);
    EXPECT_TRUE(reg.snapshot().gauges.empty());
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
    MetricsRegistry reg;
    reg.counter("zebra").add(1);
    reg.counter("apple").add(2);
    reg.gauge("rate").set(0.5);
    reg.sketch("lat").record(3.0);
    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 2u);
    EXPECT_EQ(snap.counters[0].first, "apple");
    EXPECT_EQ(snap.counters[1].first, "zebra");
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.5);
    ASSERT_EQ(snap.sketches.size(), 1u);
    EXPECT_EQ(snap.sketches[0].second.count, 1u);
    EXPECT_FALSE(snap.empty());
    EXPECT_TRUE(MetricsRegistry().snapshot().empty());
}

TEST(MetricsRegistry, ResetZeroesButKeepsHandlesValid) {
    MetricsRegistry reg;
    Counter& c = reg.counter("n");
    Gauge& g = reg.gauge("x");
    Sketch& h = reg.sketch("lat");
    c.add(5);
    g.set(1.0);
    h.record(2.0);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.summary().count, 0u);
    c.add(1);  // handle still live after reset
    EXPECT_EQ(reg.find_counter("n")->value(), 1u);
}

TEST(MetricsRendering, TableListsEveryInstrument) {
    MetricsRegistry reg;
    reg.counter("online.events_consumed").add(100);
    reg.gauge("online.alarm_rate").set(0.25);
    reg.sketch("online.push_latency_us").record(4.0);
    const std::string table = render_metrics_table(reg);
    EXPECT_NE(table.find("online.events_consumed"), std::string::npos);
    EXPECT_NE(table.find("100"), std::string::npos);
    EXPECT_NE(table.find("online.alarm_rate"), std::string::npos);
    EXPECT_NE(table.find("0.250000"), std::string::npos);
    EXPECT_NE(table.find("online.push_latency_us"), std::string::npos);
    EXPECT_NE(table.find("p99"), std::string::npos);
}

TEST(MetricsRendering, EmptyRegistrySaysSo) {
    const MetricsRegistry reg;
    EXPECT_EQ(render_metrics_table(reg), "(no metrics recorded)\n");
}

TEST(MetricsRendering, JsonCarriesAllKinds) {
    MetricsRegistry reg;
    reg.counter("c").add(3);
    reg.gauge("g").set(1.5);
    reg.sketch("h").record(10.0);
    const std::string json = metrics_to_json(reg);
    EXPECT_NE(json.find("\"counters\":{\"c\":3}"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{\"g\":1.5}"), std::string::npos);
    EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"p99\":10"), std::string::npos);
}

TEST(MetricsRendering, TableAndJsonCarrySketches) {
    MetricsRegistry reg;
    reg.sketch("serve.stage.total_us").record(42.0, 0xabcULL, 0x123ULL);
    const std::string table = render_metrics_table(reg);
    EXPECT_NE(table.find("sketch"), std::string::npos);
    EXPECT_NE(table.find("serve.stage.total_us"), std::string::npos);
    const std::string json = metrics_to_json(reg);
    EXPECT_NE(json.find("\"sketches\":{\"serve.stage.total_us\":{\"count\":1"),
              std::string::npos);
    EXPECT_NE(json.find("\"exemplar_trace\":\"0000000000000abc\""),
              std::string::npos);
    EXPECT_NE(json.find("\"exemplar_span\":\"0000000000000123\""),
              std::string::npos);
    // A registry without sketches still carries the block, empty: every
    // dump has the same three keys.
    MetricsRegistry plain;
    plain.counter("c").add(1);
    EXPECT_NE(metrics_to_json(plain).find("\"sketches\":{}"), std::string::npos);
}

TEST(MetricsRegistry, SketchLookupKeepsTheFirstInstrument) {
    MetricsRegistry reg;
    Sketch& a = reg.sketch("serve.stage.total_us", /*relative_error=*/0.05);
    EXPECT_EQ(a.relative_error(), 0.05);
    // Later lookups return the same instrument and ignore the error hint.
    Sketch& b = reg.sketch("serve.stage.total_us", /*relative_error=*/0.2);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.relative_error(), 0.05);
    EXPECT_EQ(reg.find_sketch("missing"), nullptr);
    ASSERT_NE(reg.find_sketch("serve.stage.total_us"), nullptr);
}

TEST(GlobalMetrics, IsAStableSingleton) {
    EXPECT_EQ(&global_metrics(), &global_metrics());
}

}  // namespace
}  // namespace adiv
