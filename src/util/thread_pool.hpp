// Fixed-size thread pool and task groups: the execution substrate of the
// experiment engine (src/engine).
//
// ThreadPool runs submitted tasks on a fixed set of worker threads, which
// drain one unbounded FIFO queue: submit() never blocks, and any worker may
// run any task. The engine and adiv_score reach it through TaskGroup, which
// tracks a set of related tasks — including tasks submitted from *inside*
// other tasks, which is how the engine expresses dependencies (a training
// job submits its scoring jobs once the model is ready) — and wait() blocks
// until the whole set has drained. Failures are deterministic regardless of thread
// interleaving: every task gets a submission index, and wait() rethrows the
// exception of the lowest-indexed failed task, so jobs=1 and jobs=N report
// the same error.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace adiv {

class ThreadPool {
public:
    /// Spawns `threads` workers; 0 means default_jobs().
    explicit ThreadPool(std::size_t threads = 0);

    /// Drains the queue (every submitted task runs), then joins the workers.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a fire-and-forget task and wakes one idle worker. Never
    /// blocks. The task must not throw — use TaskGroup::run when exceptions
    /// need to propagate.
    void submit(std::function<void()> task);

    [[nodiscard]] std::size_t thread_count() const noexcept {
        return workers_.size();
    }

    /// hardware_concurrency, clamped to at least 1 (the value CLI `--jobs 0`
    /// resolves to).
    static std::size_t default_jobs() noexcept;

private:
    void worker_loop();

    std::mutex mutex_;
    std::condition_variable work_available_;
    std::deque<std::function<void()>> queue_;  // guarded by mutex_
    bool stopping_ = false;                    // guarded by mutex_
    std::vector<std::thread> workers_;
};

/// A joinable set of pool tasks. Tasks may themselves call run() to add
/// follow-up work to the same group; wait() returns only once the group is
/// fully drained, nested submissions included.
class TaskGroup {
public:
    explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}

    /// Blocks until the group drains; swallows task failures (call wait()
    /// first when errors matter).
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Submits a task belonging to this group. Safe to call from inside a
    /// group task.
    void run(std::function<void()> task);

    /// As run(), but with a caller-chosen error-ordering index. The engine
    /// pre-assigns canonical indices so the exception wait() rethrows does
    /// not depend on which worker failed first.
    void run_indexed(std::size_t index, std::function<void()> task);

    /// Blocks until every task (nested submissions included) has finished.
    /// If any task threw, rethrows the exception of the lowest submission
    /// index and leaves the group reusable for further run() calls.
    void wait();

private:
    void enqueue(std::size_t index, std::function<void()> task);
    void record_failure(std::size_t index, std::exception_ptr error);

    ThreadPool* pool_;
    std::mutex mutex_;
    std::condition_variable idle_;
    std::size_t pending_ = 0;
    std::size_t next_index_ = 0;
    std::size_t error_index_ = 0;
    std::exception_ptr error_;
};

}  // namespace adiv
