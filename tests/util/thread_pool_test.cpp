// ThreadPool + TaskGroup: the execution substrate of the experiment engine.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace adiv {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.thread_count(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    }  // destructor drains the queue before joining
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DefaultJobsIsAtLeastOne) {
    EXPECT_GE(ThreadPool::default_jobs(), 1u);
}

TEST(ThreadPool, ZeroThreadsMeansDefaultJobs) {
    ThreadPool pool(0);
    EXPECT_EQ(pool.thread_count(), ThreadPool::default_jobs());
}

TEST(ThreadPool, RejectsEmptyTask) {
    ThreadPool pool(1);
    EXPECT_THROW(pool.submit(nullptr), InvalidArgument);
}

TEST(TaskGroup, WaitBlocksUntilAllTasksFinish) {
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::atomic<int> done{0};
    for (int i = 0; i < 50; ++i)
        group.run([&done] {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            done.fetch_add(1);
        });
    group.wait();
    EXPECT_EQ(done.load(), 50);
}

TEST(TaskGroup, NestedSubmissionsAreAwaited) {
    // The engine's dependency structure: a training job fans out into its
    // scoring jobs from inside the pool.
    ThreadPool pool(3);
    TaskGroup group(pool);
    std::atomic<int> leaves{0};
    for (int i = 0; i < 8; ++i)
        group.run([&group, &leaves] {
            for (int j = 0; j < 4; ++j)
                group.run([&leaves] { leaves.fetch_add(1); });
        });
    group.wait();
    EXPECT_EQ(leaves.load(), 32);
}

TEST(TaskGroup, NestedTaskRunsAfterItsParent) {
    // Dependency ordering: a follow-up task submitted from inside a parent
    // task can observe everything the parent wrote before submitting.
    ThreadPool pool(4);
    TaskGroup group(pool);
    std::mutex mutex;
    std::vector<int> order;
    for (int parent = 0; parent < 10; ++parent)
        group.run([&, parent] {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                order.push_back(parent);
            }
            group.run([&, parent] {
                const std::lock_guard<std::mutex> lock(mutex);
                order.push_back(parent + 100);
            });
        });
    group.wait();
    ASSERT_EQ(order.size(), 20u);
    std::set<int> seen;
    for (int value : order) {
        if (value >= 100)
            EXPECT_TRUE(seen.count(value - 100))
                << "child " << value << " ran before its parent";
        seen.insert(value);
    }
}

TEST(TaskGroup, WaitRethrowsTaskException) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.run([] { throw DataError("scoring failed"); });
    EXPECT_THROW(group.wait(), DataError);
}

TEST(TaskGroup, RethrowsLowestIndexedFailure) {
    // Deterministic error reporting: regardless of which worker fails first,
    // wait() reports the failure of the lowest submission index — the same
    // error a serial run would hit first.
    for (int attempt = 0; attempt < 5; ++attempt) {
        ThreadPool pool(4);
        TaskGroup group(pool);
        group.run_indexed(7, [] { throw std::runtime_error("late"); });
        group.run_indexed(3, [] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            throw std::runtime_error("early");
        });
        try {
            group.wait();
            FAIL() << "wait() must rethrow";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "early");
        }
    }
}

TEST(TaskGroup, ReusableAfterFailure) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    group.run([] { throw std::runtime_error("first batch"); });
    EXPECT_THROW(group.wait(), std::runtime_error);
    std::atomic<int> count{0};
    group.run([&count] { count.fetch_add(1); });
    group.wait();  // no stale error
    EXPECT_EQ(count.load(), 1);
}

TEST(TaskGroup, RemainingTasksStillRunAfterAFailure) {
    ThreadPool pool(2);
    TaskGroup group(pool);
    std::atomic<int> survivors{0};
    group.run([] { throw std::runtime_error("boom"); });
    for (int i = 0; i < 20; ++i)
        group.run([&survivors] { survivors.fetch_add(1); });
    EXPECT_THROW(group.wait(), std::runtime_error);
    EXPECT_EQ(survivors.load(), 20);
}

}  // namespace
}  // namespace adiv
