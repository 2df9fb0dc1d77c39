// Wait-site accounting: registry instrument naming, idempotent lookup,
// JSONL rendering and the two profiling idioms (StageTimer stamps and
// wait_at passes, ProfiledMutex included) — including the off-switch
// (everything inert) and a concurrent-writer stress that TSan supervises in
// the sanitizer pass.
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

// Flips the global runtime switch on for one test and always restores OFF —
// the process-wide default other suites rely on.
class ProfilingGuard {
public:
    ProfilingGuard() { set_profiling_enabled(true); }
    ~ProfilingGuard() { set_profiling_enabled(false); }
};

TEST(WaitSite, RegistersDottedInstrumentsInTheGivenRegistry) {
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    WaitSite& site = sites.site("test.lock");
    site.record_acquire();
    site.record_wait_us(250.0);
    EXPECT_EQ(reg.counter("test.lock.acquires").value(), 2u);
    EXPECT_EQ(reg.counter("test.lock.contended").value(), 1u);
    EXPECT_EQ(reg.sketch("test.lock.wait_us").summary().count, 1u);
    EXPECT_DOUBLE_EQ(reg.sketch("test.lock.wait_us").summary().sum, 250.0);
}

TEST(WaitSite, LookupIsIdempotent) {
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    WaitSite& first = sites.site("test.park");
    WaitSite& again = sites.site("test.park");
    EXPECT_EQ(&first, &again);
    EXPECT_THROW(sites.site(""), InvalidArgument);
}

TEST(WaitSite, SummariesAreNameSortedDigests) {
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    sites.site("test.b_lock").record_wait_us(100.0);
    sites.site("test.a_lock").record_acquire();
    const std::vector<WaitSiteSummary> summaries = sites.summaries();
    ASSERT_EQ(summaries.size(), 2u);
    EXPECT_EQ(summaries[0].name, "test.a_lock");
    EXPECT_EQ(summaries[0].acquires, 1u);
    EXPECT_EQ(summaries[0].contended, 0u);
    EXPECT_EQ(summaries[1].name, "test.b_lock");
    EXPECT_EQ(summaries[1].contended, 1u);
    EXPECT_DOUBLE_EQ(summaries[1].wait_us_total, 100.0);
    EXPECT_DOUBLE_EQ(summaries[1].wait_us_mean, 100.0);
}

TEST(WaitSite, JsonlLineIsByteExact) {
    WaitSiteSummary summary;
    summary.name = "serve.session_table";
    summary.acquires = 12;
    summary.contended = 3;
    summary.wait_us_total = 450.0;
    summary.wait_us_mean = 150.0;
    summary.wait_us_p95 = 250.0;
    summary.wait_us_max = 250.0;
    EXPECT_EQ(wait_site_jsonl(summary),
              "{\"type\":\"wait_site\",\"site\":\"serve.session_table\","
              "\"acquires\":12,\"contended\":3,"
              "\"wait_us_total\":450,\"wait_us_mean\":150,"
              "\"wait_us_p95\":250,\"wait_us_max\":250}");
}

TEST(WaitSite, WriteJsonlEmitsOneLinePerSiteInNameOrder) {
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    sites.site("test.b_lock").record_wait_us(10.0);
    sites.site("test.a_park").record_acquire();
    std::ostringstream out;
    StreamTraceSink sink(out);
    sites.write_jsonl(sink);
    std::istringstream lines(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"site\":\"test.a_park\""), std::string::npos);
    EXPECT_NE(line.find("\"acquires\":1,"), std::string::npos);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_NE(line.find("\"site\":\"test.b_lock\""), std::string::npos);
    EXPECT_FALSE(std::getline(lines, line));
}

TEST(ProfiledMutexSuite, DisabledProfilingRecordsNothing) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    ProfiledMutex mutex(sites.site("test.lock"));
    {
        const std::lock_guard<ProfiledMutex> guard(mutex);
    }
    EXPECT_EQ(reg.counter("test.lock.acquires").value(), 0u);
    EXPECT_EQ(reg.counter("test.lock.contended").value(), 0u);
}

TEST(ProfiledMutexSuite, UncontendedLockCountsAnAcquire) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    ProfiledMutex mutex(sites.site("test.lock"));
    {
        const std::lock_guard<ProfiledMutex> guard(mutex);
    }
    EXPECT_EQ(reg.counter("test.lock.acquires").value(), 1u);
    EXPECT_EQ(reg.counter("test.lock.contended").value(), 0u);
}

TEST(ProfiledMutexSuite, ContendedLockRecordsWaitTime) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    WaitSite& site = sites.site("test.lock");
    ProfiledMutex mutex(site);
    std::atomic<bool> held{false};
    std::thread holder([&] {
        const std::lock_guard<ProfiledMutex> guard(mutex);
        held.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
    while (!held.load()) std::this_thread::yield();
    {
        const std::lock_guard<ProfiledMutex> guard(mutex);
    }
    holder.join();
    EXPECT_EQ(site.acquires(), 2u);
    EXPECT_EQ(site.contended(), 1u);
    EXPECT_GT(site.wait_summary().sum, 0.0);
}

TEST(WaitAtSuite, ConditionWaitCountsAnAcquireOrATimedWait) {
    // A condition-variable wait through wait_at: a predicate that holds is
    // an uncontended pass; one that must be waited for is timed.
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    WaitSite& site = sites.site("test.cv");
    std::mutex mutex;
    std::condition_variable changed;
    bool ready = true;
    const auto pass = [&] {
        std::unique_lock<std::mutex> lock(mutex);
        const auto is_ready = [&ready] { return ready; };
        wait_at(site, is_ready, [&] { changed.wait(lock, is_ready); });
    };
    pass();
    EXPECT_EQ(site.acquires(), 1u);
    EXPECT_EQ(site.contended(), 0u);
    ready = false;
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        {
            const std::lock_guard<std::mutex> lock(mutex);
            ready = true;
        }
        changed.notify_one();
    });
    pass();
    releaser.join();
    EXPECT_EQ(site.acquires(), 2u);
    EXPECT_EQ(site.contended(), 1u);
    EXPECT_GT(site.wait_summary().sum, 0.0);
}

TEST(WaitAtSuite, DisabledProfilingIsJustTheBlockingCall) {
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    WaitSite& site = sites.site("test.cv");
    int tried = 0;
    int blocked = 0;
    wait_at(site, [&tried] { return ++tried > 0; }, [&blocked] { ++blocked; });
    EXPECT_EQ(tried, 0);
    EXPECT_EQ(blocked, 1);
    EXPECT_EQ(site.acquires(), 0u);
}

static_assert(profiling_compiled() || std::is_empty_v<StageTimer>,
              "under ADIV_PROFILE=OFF a stamp must compile to nothing");

TEST(StageTimerSuite, OffLeavesTheFieldUntouched) {
    double field = 1.5;
    {
        const StageTimer timer(field);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_EQ(field, 1.5);
}

TEST(StageTimerSuite, OnAddsTheScopesElapsedMicroseconds) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    double field = 1.5;
    {
        const StageTimer timer(field);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GE(field, 1.5 + 2000.0);
}

TEST(StageTimerSuite, TheSwitchIsReadOnceAtConstruction) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    double on_at_start = 0.0;
    double off_at_start = 0.0;
    {
        const ProfilingGuard profiling;
        const StageTimer timer(on_at_start);
        set_profiling_enabled(false);  // mid-scope: the stamp still lands
    }
    {
        const StageTimer timer(off_at_start);
        set_profiling_enabled(true);  // mid-scope: no clock was read
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        set_profiling_enabled(false);
    }
    EXPECT_GT(on_at_start, 0.0);
    EXPECT_EQ(off_at_start, 0.0);
}

TEST(WaitSiteStress, ConcurrentWritersAndReadersStayConsistent) {
    // The TSan target: several threads hammer the same registry — lookups,
    // recordings, and digest reads interleave — and the final counts add up.
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSiteRegistry sites(reg);
    constexpr int kThreads = 4;
    constexpr int kRounds = 500;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&sites, t] {
            const std::string mine =
                "test.lane_" + std::to_string(t % 2);  // two shared sites
            for (int i = 0; i < kRounds; ++i) {
                WaitSite& site = sites.site(mine);
                if (i % 3 == 0)
                    site.record_wait_us(static_cast<double>(i));
                else
                    site.record_acquire();
                if (i % 100 == 0) (void)sites.summaries();
            }
        });
    for (std::thread& thread : threads) thread.join();
    std::uint64_t acquires = 0;
    for (const WaitSiteSummary& summary : sites.summaries())
        acquires += summary.acquires;
    EXPECT_EQ(acquires, static_cast<std::uint64_t>(kThreads) * kRounds);
}

TEST(StageStampsSuite, StageSumIsTheFiveStages) {
    StageStamps stamps;
    stamps.recv_wait_us = 1.0;
    stamps.recv_read_us = 0.5;
    stamps.parse_us = 2.0;
    stamps.score_us = 4.0;
    stamps.reply_us = 5.0;
    stamps.total_us = 20.0;
    EXPECT_DOUBLE_EQ(stamps.stage_sum_us(), 12.5);
    EXPECT_LE(stamps.stage_sum_us(), stamps.total_us);
}

}  // namespace
}  // namespace adiv
