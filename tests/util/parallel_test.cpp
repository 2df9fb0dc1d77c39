// parallel_for: the execution path of the experiment engine and
// adiv_score --jobs.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace adiv {
namespace {

TEST(ParallelFor, RunsEveryIndexOnceOnAtMostJobsThreads) {
    constexpr std::size_t kCount = 40;
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}, kCount + 8}) {
        std::vector<std::atomic<int>> runs(kCount);
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        parallel_for(kCount, jobs, [&](std::size_t i) {
            const int now = running.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            runs[i].fetch_add(1);
            running.fetch_sub(1);
        });
        for (std::size_t i = 0; i < kCount; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "index " << i << ", jobs=" << jobs;
        EXPECT_LE(peak.load(), static_cast<int>(jobs)) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, OneJobRunsOnTheCallerInIndexOrder) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallel_for(10, 1, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    const std::vector<std::size_t> expected{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    EXPECT_EQ(order, expected);
}

TEST(ParallelFor, RethrowsTheLowestFailingIndex) {
    // Index 1 fails after index 3 has already failed on another thread; the
    // caller still sees index 1's exception, the one a serial loop would hit
    // first.
    for (int attempt = 0; attempt < 20; ++attempt) {
        try {
            parallel_for(4, 4, [](std::size_t i) {
                if (i == 1) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                    throw std::runtime_error("low");
                }
                if (i == 3) throw std::runtime_error("high");
            });
            FAIL() << "parallel_for must rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "low") << "attempt " << attempt;
        }
    }
}

TEST(ParallelFor, OneJobRunsNothingAfterTheFirstFailure) {
    std::vector<std::size_t> ran;
    EXPECT_THROW(parallel_for(10, 1,
                              [&ran](std::size_t i) {
                                  ran.push_back(i);
                                  if (i == 3) throw DataError("boom");
                              }),
                 DataError);
    const std::vector<std::size_t> expected{0, 1, 2, 3};
    EXPECT_EQ(ran, expected);
}

TEST(ParallelFor, ZeroCountRunsNothing) {
    int calls = 0;
    parallel_for(0, 4, [&calls](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    EXPECT_THROW(parallel_for(1, 0, [](std::size_t) {}), InvalidArgument);
}

TEST(ParallelFor, DefaultJobsIsAtLeastOne) {
    EXPECT_GE(default_jobs(), 1u);
}

}  // namespace
}  // namespace adiv
