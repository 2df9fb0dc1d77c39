// OpenMetrics exposition: name mapping, rendering, and the validating parser.
#include "obs/openmetrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace adiv {
namespace {

TEST(OpenMetricsName, MapsDottedMetricNamesToUnderscores) {
    EXPECT_EQ(openmetrics_name("serve.events_pushed"), "adiv_serve_events_pushed");
    EXPECT_EQ(openmetrics_name("online.push_latency_us"),
              "adiv_online_push_latency_us");
}

TEST(OpenMetricsName, SanitizesCharactersOutsideTheExpositionAlphabet) {
    // Uppercase, dashes, and spaces all map to '_': the result must match
    // [a-zA-Z_:][a-zA-Z0-9_:]* and we only ever emit the lowercase subset.
    EXPECT_EQ(openmetrics_name("Serve.Events-Pushed"), "adiv__erve__vents__ushed");
    EXPECT_EQ(openmetrics_name("a b"), "adiv_a_b");
    EXPECT_EQ(openmetrics_name(""), "adiv_");
}

TEST(OpenMetricsName, LintValidNamesAlwaysProduceValidExpositionNames) {
    // Every name the repo's own `subsystem.metric` convention admits maps to
    // a legal exposition name (letters, digits, underscores, leading letter).
    for (const char* name : {"a.b", "serve.queue_depth", "x9.y_2z", "a.b.c"}) {
        const std::string mapped = openmetrics_name(name);
        ASSERT_FALSE(mapped.empty());
        EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(mapped[0])) ||
                    mapped[0] == '_');
        for (const char c : mapped)
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_')
                << name << " -> " << mapped;
    }
}

TEST(OpenMetricsNumber, RendersSpecialValuesPerSpec) {
    EXPECT_EQ(openmetrics_number(std::numeric_limits<double>::quiet_NaN()), "NaN");
    EXPECT_EQ(openmetrics_number(std::numeric_limits<double>::infinity()), "+Inf");
    EXPECT_EQ(openmetrics_number(-std::numeric_limits<double>::infinity()), "-Inf");
    EXPECT_EQ(openmetrics_number(0.0), "0");
    EXPECT_EQ(openmetrics_number(2.5), "2.5");
}

TEST(OpenMetricsRender, EmptyRegistryIsJustEof) {
    const MetricsRegistry reg;
    EXPECT_EQ(metrics_to_openmetrics(reg), "# EOF\n");
}

TEST(OpenMetricsRender, CountersGetTypeLineAndTotalSuffix) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(512);
    const std::string text = metrics_to_openmetrics(reg);
    EXPECT_NE(text.find("# TYPE adiv_serve_events_pushed counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("adiv_serve_events_pushed_total 512\n"), std::string::npos);
    // Exposition must end with the EOF marker, nothing after.
    const std::string tail = "# EOF\n";
    ASSERT_GE(text.size(), tail.size());
    EXPECT_EQ(text.compare(text.size() - tail.size(), tail.size(), tail), 0);
}

TEST(OpenMetricsRender, GaugesAndHistogramsRender) {
    MetricsRegistry reg;
    reg.gauge("serve.queue_depth").set(3.5);
    reg.sketch("serve.push_latency_us").record(10.0);
    const std::string text = metrics_to_openmetrics(reg);
    EXPECT_NE(text.find("# TYPE adiv_serve_queue_depth gauge\n"), std::string::npos);
    EXPECT_NE(text.find("adiv_serve_queue_depth 3.5\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE adiv_serve_push_latency_us summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us{quantile=\"0.5\"} 10\n"),
              std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us_sum 10\n"), std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us_count 1\n"), std::string::npos);
}

TEST(OpenMetricsRender, ZeroSampleHistogramRendersZerosNotNaN) {
    // A sketch that was created but never recorded must expose quantiles
    // of 0 (SketchSummary's empty contract), never NaN.
    MetricsRegistry reg;
    (void)reg.sketch("serve.push_latency_us");
    const std::string text = metrics_to_openmetrics(reg);
    EXPECT_EQ(text.find("NaN"), std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us{quantile=\"0.5\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us{quantile=\"0.99\"} 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("adiv_serve_push_latency_us_count 0\n"), std::string::npos);
    const OpenMetricsDocument doc = parse_openmetrics(text);
    const auto p95 = doc.value("adiv_serve_push_latency_us", "quantile=\"0.95\"");
    ASSERT_TRUE(p95.has_value());
    EXPECT_EQ(*p95, 0.0);
}

TEST(OpenMetricsRender, RoundTripsThroughTheParser) {
    MetricsRegistry reg;
    reg.counter("serve.events_pushed").add(100);
    reg.counter("serve.alarms_emitted").add(3);
    reg.gauge("serve.sessions_active").set(2.0);
    reg.sketch("serve.push_latency_us").record(5.0);
    reg.sketch("serve.push_latency_us").record(15.0);
    const OpenMetricsDocument doc = parse_openmetrics(metrics_to_openmetrics(reg));
    EXPECT_EQ(doc.type_of("adiv_serve_events_pushed"), "counter");
    EXPECT_EQ(doc.type_of("adiv_serve_sessions_active"), "gauge");
    EXPECT_EQ(doc.type_of("adiv_serve_push_latency_us"), "summary");
    EXPECT_EQ(doc.type_of("never_declared"), "");
    EXPECT_EQ(doc.value("adiv_serve_events_pushed_total"), 100.0);
    EXPECT_EQ(doc.value("adiv_serve_alarms_emitted_total"), 3.0);
    EXPECT_EQ(doc.value("adiv_serve_sessions_active"), 2.0);
    EXPECT_EQ(doc.value("adiv_serve_push_latency_us_count"), 2.0);
    EXPECT_EQ(doc.value("adiv_serve_push_latency_us_sum"), 20.0);
    EXPECT_FALSE(doc.value("adiv_missing_total").has_value());
}

TEST(OpenMetricsParse, AcceptsSpecialValueTokens) {
    const OpenMetricsDocument doc = parse_openmetrics(
        "# TYPE g gauge\n"
        "g +Inf\n"
        "# TYPE h gauge\n"
        "h NaN\n"
        "# EOF\n");
    ASSERT_TRUE(doc.value("g").has_value());
    EXPECT_TRUE(std::isinf(*doc.value("g")));
    ASSERT_TRUE(doc.value("h").has_value());
    EXPECT_TRUE(std::isnan(*doc.value("h")));
}

TEST(OpenMetricsParse, RejectsMissingEof) {
    EXPECT_THROW((void)parse_openmetrics("# TYPE c counter\nc_total 1\n"),
                 DataError);
}

TEST(OpenMetricsParse, BareHashLineIsAComment) {
    // A scrape cut right after a comment's '#' is a missing # EOF, not an
    // out-of-range read of the comment's keyword.
    EXPECT_TRUE(parse_openmetrics("#\n# EOF\n").samples.empty());
    EXPECT_THROW((void)parse_openmetrics("# TYPE c counter\n#"), DataError);
}

TEST(OpenMetricsParse, RejectsContentAfterEof) {
    EXPECT_THROW(
        (void)parse_openmetrics("# EOF\n# TYPE c counter\nc_total 1\n"),
        DataError);
}

TEST(OpenMetricsParse, RejectsSampleWithoutPrecedingType) {
    EXPECT_THROW((void)parse_openmetrics("mystery_total 1\n# EOF\n"), DataError);
}

TEST(OpenMetricsParse, RejectsCounterSampleWithoutTotalSuffix) {
    EXPECT_THROW(
        (void)parse_openmetrics("# TYPE c counter\nc 1\n# EOF\n"), DataError);
}

TEST(OpenMetricsParse, RejectsNegativeOrNonFiniteCounters) {
    EXPECT_THROW(
        (void)parse_openmetrics("# TYPE c counter\nc_total -1\n# EOF\n"),
        DataError);
    EXPECT_THROW(
        (void)parse_openmetrics("# TYPE c counter\nc_total NaN\n# EOF\n"),
        DataError);
}

TEST(OpenMetricsParse, RejectsMalformedValuesAndNames) {
    EXPECT_THROW((void)parse_openmetrics("# TYPE g gauge\ng abc\n# EOF\n"),
                 DataError);
    EXPECT_THROW((void)parse_openmetrics("# TYPE 9bad gauge\n# EOF\n"), DataError);
    EXPECT_THROW((void)parse_openmetrics("# TYPE g notatype\n# EOF\n"), DataError);
    EXPECT_THROW((void)parse_openmetrics("# TYPE g gauge\n# TYPE g gauge\n# EOF\n"),
                 DataError);
}

TEST(OpenMetricsRender, SketchExemplarRoundTripsThroughTheParser) {
    MetricsRegistry reg;
    Sketch& sketch = reg.sketch("serve.stage.total_us");
    sketch.record(120.0);
    sketch.record(950.0, 0xdeadbeef01234567ULL, 0x0123456789abcdefULL);
    const std::string text = metrics_to_openmetrics(reg);
    // The sketch renders as a summary; its p99 sample carries the exemplar
    // naming the trace context of the largest traced observation.
    EXPECT_NE(text.find("# TYPE adiv_serve_stage_total_us summary\n"),
              std::string::npos);
    EXPECT_NE(
        text.find("trace_id=\"deadbeef01234567\",span_id=\"0123456789abcdef\""),
        std::string::npos);
    const OpenMetricsDocument doc = parse_openmetrics(text);
    EXPECT_EQ(doc.value("adiv_serve_stage_total_us_count"), 2.0);
    for (const OpenMetricsSample& sample : doc.samples) {
        if (sample.name != "adiv_serve_stage_total_us" ||
            sample.labels != "quantile=\"0.99\"")
            continue;
        EXPECT_TRUE(sample.has_exemplar);
        EXPECT_NE(sample.exemplar_labels.find("trace_id=\"deadbeef01234567\""),
                  std::string::npos);
        EXPECT_NE(sample.exemplar_labels.find("span_id=\"0123456789abcdef\""),
                  std::string::npos);
        EXPECT_EQ(sample.exemplar_value, 950.0);
        return;
    }
    FAIL() << "no p99 sample for adiv_serve_stage_total_us in:\n" << text;
}

TEST(OpenMetricsRender, UntracedSketchRendersNoExemplar) {
    MetricsRegistry reg;
    reg.sketch("serve.stage.total_us").record(10.0);
    const std::string text = metrics_to_openmetrics(reg);
    EXPECT_EQ(text.find("trace_id"), std::string::npos);
    EXPECT_EQ(text.find(" # "), std::string::npos);
    for (const OpenMetricsSample& sample : parse_openmetrics(text).samples)
        EXPECT_FALSE(sample.has_exemplar) << sample.name;
}

TEST(OpenMetricsParse, ParsesExemplarsOnSummaryQuantiles) {
    const OpenMetricsDocument doc = parse_openmetrics(
        "# TYPE s summary\n"
        "s{quantile=\"0.99\"} 9.5 # {trace_id=\"ab\",span_id=\"cd\"} 9.25\n"
        "s_count 1\n"
        "# EOF\n");
    ASSERT_EQ(doc.samples.size(), 2u);
    EXPECT_TRUE(doc.samples[0].has_exemplar);
    EXPECT_EQ(doc.samples[0].exemplar_labels,
              "trace_id=\"ab\",span_id=\"cd\"");
    EXPECT_EQ(doc.samples[0].exemplar_value, 9.25);
    EXPECT_FALSE(doc.samples[1].has_exemplar);
}

TEST(OpenMetricsParse, RejectsMalformedExemplars) {
    // Missing the braced label set, and a non-numeric exemplar value.
    EXPECT_THROW((void)parse_openmetrics("# TYPE s summary\n"
                                         "s{quantile=\"0.99\"} 1 # 2\n"
                                         "# EOF\n"),
                 DataError);
    EXPECT_THROW((void)parse_openmetrics(
                     "# TYPE s summary\n"
                     "s{quantile=\"0.99\"} 1 # {trace_id=\"ab\"} zzz\n"
                     "# EOF\n"),
                 DataError);
}

TEST(OpenMetricsParse, ParsesLabelsVerbatim) {
    const OpenMetricsDocument doc = parse_openmetrics(
        "# TYPE s summary\n"
        "s{quantile=\"0.5\"} 1.5\n"
        "s{quantile=\"0.99\"} 9.5\n"
        "s_count 4\n"
        "# EOF\n");
    EXPECT_EQ(doc.value("s", "quantile=\"0.5\""), 1.5);
    EXPECT_EQ(doc.value("s", "quantile=\"0.99\""), 9.5);
    // Unlabeled lookup returns the first matching sample.
    EXPECT_EQ(doc.value("s"), 1.5);
}

}  // namespace
}  // namespace adiv
