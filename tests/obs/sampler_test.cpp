// TelemetrySampler: deterministic snapshot series under an injected clock,
// delta bookkeeping, and the background-thread lifecycle.
#include "obs/sampler.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

// 2026-08-06T00:00:00Z — the same pinned epoch the manifest tests use.
std::int64_t pinned_clock() { return 1785974400; }

std::vector<std::string> lines_of(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty()) lines.push_back(line);
    return lines;
}

TEST(TelemetrySampler, RejectsNullSinkAndNonPositiveInterval) {
    MetricsRegistry reg;
    EXPECT_THROW(TelemetrySampler(reg, nullptr), InvalidArgument);
    auto out = std::make_shared<std::ostringstream>();
    auto sink = std::make_shared<StreamTraceSink>(*out);
    TelemetrySamplerConfig zero;
    zero.interval = std::chrono::milliseconds{0};
    EXPECT_THROW(TelemetrySampler(reg, sink, zero), InvalidArgument);
}

TEST(TelemetrySampler, EmitsByteExactSeriesUnderInjectedClock) {
    MetricsRegistry reg;
    reg.counter("test.events").add(5);
    std::ostringstream out;
    TelemetrySamplerConfig config;
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(out), config);

    sampler.sample_once();
    reg.counter("test.events").add(2);
    sampler.sample_once();

    const std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0],
              "{\"type\":\"metrics_sample\",\"seq\":0,"
              "\"timestamp\":\"2026-08-06T00:00:00Z\","
              "\"counters\":{\"test.events\":{\"total\":5,\"delta\":5}},"
              "\"gauges\":{},\"sketches\":{}}");
    EXPECT_EQ(lines[1],
              "{\"type\":\"metrics_sample\",\"seq\":1,"
              "\"timestamp\":\"2026-08-06T00:00:00Z\","
              "\"counters\":{\"test.events\":{\"total\":7,\"delta\":2}},"
              "\"gauges\":{},\"sketches\":{}}");
    EXPECT_EQ(sampler.samples_written(), 2u);
}

TEST(TelemetrySampler, SameRegistryStateYieldsIdenticalFirstSample) {
    // Determinism across runs: two samplers over identically prepared
    // registries produce the same first line byte for byte.
    std::string first, second;
    for (std::string* capture : {&first, &second}) {
        MetricsRegistry reg;
        reg.counter("test.events").add(41);
        reg.gauge("test.level").set(2.5);
        reg.sketch("test.latency_us").record(10.0);
        std::ostringstream out;
        TelemetrySamplerConfig config;
        config.clock = pinned_clock;
        TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(out),
                                 config);
        sampler.sample_once();
        *capture = out.str();
    }
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(TelemetrySampler, SketchSamplesCarryDigestAndCountDelta) {
    // Every sketch — serve.stage.* included — reaches the series, with its
    // count delta since the previous tick and its digest.
    MetricsRegistry reg;
    reg.sketch("serve.stage.total_us").record(4.0);
    std::ostringstream out;
    TelemetrySamplerConfig config;
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(out), config);
    sampler.sample_once();
    reg.sketch("serve.stage.total_us").record(8.0);
    reg.sketch("serve.stage.total_us").record(12.0);
    sampler.sample_once();

    const std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[0].find("\"sketches\":{\"serve.stage.total_us\":"
                            "{\"count\":1,\"delta\":1,\"mean\":4,"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"serve.stage.total_us\":{\"count\":3,"
                            "\"delta\":2,\"mean\":8,"),
              std::string::npos);
    EXPECT_NE(lines[1].find("\"max\":12}"), std::string::npos);
}

TEST(TelemetrySampler, RegistryResetClampsDeltaToZero) {
    MetricsRegistry reg;
    reg.counter("test.events").add(10);
    std::ostringstream out;
    TelemetrySamplerConfig config;
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(out), config);
    sampler.sample_once();
    reg.reset();
    reg.counter("test.events").add(3);  // 3 < baseline 10: a restart, not -7
    sampler.sample_once();

    const std::vector<std::string> lines = lines_of(out.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"test.events\":{\"total\":3,\"delta\":0}"),
              std::string::npos);
}

TEST(TelemetrySampler, StartStopTakesAFinalSampleAndIsIdempotent) {
    MetricsRegistry reg;
    reg.counter("test.events").add(1);
    auto out = std::make_shared<std::ostringstream>();
    auto sink = std::make_shared<StreamTraceSink>(*out);
    TelemetrySamplerConfig config;
    config.interval = std::chrono::milliseconds{5};
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, sink, config);
    sampler.start();
    sampler.start();  // no-op while running
    sampler.stop();   // takes the shutdown sample even if no tick fired
    sampler.stop();   // idempotent
    EXPECT_GE(sampler.samples_written(), 1u);
    const std::vector<std::string> lines = lines_of(out->str());
    EXPECT_EQ(lines.size(), sampler.samples_written());
    for (const std::string& line : lines)
        EXPECT_NE(line.find("\"type\":\"metrics_sample\""), std::string::npos);
}

TEST(TelemetrySampler, ShutdownSampleSeesMutationsMadeUpToTheStopCall) {
    // Regression: the final sample must be snapshotted *after* the caller's
    // quiesce point. A server drains its workers and then calls stop(); every
    // increment that landed before the call must appear in the last line.
    MetricsRegistry reg;
    auto out = std::make_shared<std::ostringstream>();
    TelemetrySamplerConfig config;
    config.interval = std::chrono::hours{1};  // the periodic tick never fires
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(*out),
                             config);
    sampler.start();
    reg.counter("test.events").add(7);  // the post-drain mutation
    sampler.stop();
    const std::vector<std::string> lines = lines_of(out->str());
    ASSERT_EQ(lines.size(), 1u);  // only the shutdown sample exists
    EXPECT_NE(lines[0].find("\"test.events\":{\"total\":7,\"delta\":7}"),
              std::string::npos);
}

TEST(TelemetrySampler, ConcurrentStopsBothReturnAfterTheFinalSampleIsWritten) {
    // Regression for the stop()-vs-stop() race: an explicit stop() from a
    // draining server can run concurrently with the destructor's stop(). The
    // stop_mutex_ serializes the whole shutdown, so *whichever* caller
    // returns first must already observe the flushed final sample — neither
    // may return while the shutdown snapshot is still being written.
    MetricsRegistry reg;
    reg.counter("test.events").add(3);
    auto out = std::make_shared<std::ostringstream>();
    TelemetrySamplerConfig config;
    config.interval = std::chrono::hours{1};
    config.clock = pinned_clock;
    TelemetrySampler sampler(reg, std::make_shared<StreamTraceSink>(*out),
                             config);
    sampler.start();
    std::vector<std::string> seen_after_stop[2];
    {
        std::vector<std::thread> stoppers;
        for (int t = 0; t < 2; ++t)
            stoppers.emplace_back([&sampler, &out, &seen_after_stop, t] {
                sampler.stop();
                // All writes happened-before stop() returned; reading the
                // stream here races with nothing.
                seen_after_stop[t] = lines_of(out->str());
            });
        for (std::thread& stopper : stoppers) stopper.join();
    }
    for (const std::vector<std::string>& lines : seen_after_stop) {
        ASSERT_EQ(lines.size(), 1u);  // exactly one shutdown sample, no double
        EXPECT_NE(lines[0].find("\"test.events\":{\"total\":3,\"delta\":3}"),
                  std::string::npos);
    }
    EXPECT_EQ(sampler.samples_written(), 1u);
}

TEST(TelemetrySampler, NullSinkSkipsWritesButDestructorStillFlushes) {
    MetricsRegistry reg;
    reg.counter("test.events").add(1);
    auto sink = std::make_shared<NullTraceSink>();
    {
        TelemetrySampler sampler(reg, sink);
        sampler.sample_once();  // disabled sink: formatted line is dropped
        EXPECT_EQ(sampler.samples_written(), 1u);
    }  // destructor stop() must not throw on an already-sampled series
}

}  // namespace
}  // namespace adiv
