// Wait-site accounting: registry instrument naming and the two profiling
// idioms (StageTimer stamps and ProfiledMutex waits) — including the
// off-switch (everything inert) and a concurrent-writer stress that TSan
// supervises in the sanitizer pass.
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

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
    WaitSite site("test.lock", reg);
    site.record_acquire();
    site.record_wait_us(250.0);
    EXPECT_EQ(reg.counter("test.lock.acquires").value(), 2u);
    EXPECT_EQ(reg.counter("test.lock.contended").value(), 1u);
    EXPECT_EQ(reg.sketch("test.lock.wait_us").summary().count, 1u);
    EXPECT_DOUBLE_EQ(reg.sketch("test.lock.wait_us").summary().sum, 250.0);
}

TEST(ProfiledMutexSuite, DisabledProfilingRecordsNothing) {
    // Runs in both builds: with profiling off (the runtime default, or
    // compiled out) a lock is just the mutex — it still excludes, and the
    // site records nothing.
    MetricsRegistry reg;
    WaitSite site("test.lock", reg);
    ProfiledMutex mutex(site);
    {
        const std::lock_guard<ProfiledMutex> guard(mutex);
        std::thread([&mutex] { EXPECT_FALSE(mutex.try_lock()); }).join();
    }
    EXPECT_TRUE(mutex.try_lock());
    mutex.unlock();
    EXPECT_EQ(reg.counter("test.lock.acquires").value(), 0u);
    EXPECT_EQ(reg.counter("test.lock.contended").value(), 0u);
    EXPECT_EQ(reg.sketch("test.lock.wait_us").summary().count, 0u);
}

TEST(ProfiledMutexSuite, UncontendedLockCountsAnAcquire) {
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSite site("test.lock", reg);
    ProfiledMutex mutex(site);
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
    WaitSite site("test.lock", reg);
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
    // The TSan target: several threads record through two shared sites in
    // one registry while another thread reads snapshots, and the final
    // counts add up.
    if (!profiling_compiled()) GTEST_SKIP() << "ADIV_PROFILE=OFF build";
    const ProfilingGuard profiling;
    MetricsRegistry reg;
    WaitSite lanes[] = {WaitSite("test.lane_0", reg),
                        WaitSite("test.lane_1", reg)};
    constexpr int kThreads = 4;
    constexpr int kRounds = 500;
    std::atomic<bool> done{false};
    std::thread reader([&reg, &done] {
        while (!done.load()) (void)reg.snapshot();
    });
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&site = lanes[t % 2]] {
            for (int i = 0; i < kRounds; ++i) {
                if (i % 3 == 0)
                    site.record_wait_us(static_cast<double>(i));
                else
                    site.record_acquire();
            }
        });
    for (std::thread& thread : threads) thread.join();
    done.store(true);
    reader.join();
    std::uint64_t acquires = 0;
    for (const auto& [name, value] : reg.snapshot().counters)
        if (name.ends_with(".acquires")) acquires += value;
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
