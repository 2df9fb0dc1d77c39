#include "util/thread_pool.hpp"

#include <utility>

#include "util/error.hpp"

namespace adiv {

std::size_t ThreadPool::default_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) threads = default_jobs();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_available_.notify_all();
    for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
    require(task != nullptr, "cannot submit an empty task");
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        require(!stopping_, "cannot submit to a stopping thread pool");
        queue_.push_back(std::move(task));
    }
    work_available_.notify_one();
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_available_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            // Drain the queue before honouring shutdown: every submitted
            // task runs, so ~ThreadPool is a barrier, not a cancellation.
            if (queue_.empty()) return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

TaskGroup::~TaskGroup() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::run(std::function<void()> task) {
    require(task != nullptr, "cannot submit an empty task");
    std::size_t index = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        index = next_index_++;
        ++pending_;
    }
    enqueue(index, std::move(task));
}

void TaskGroup::run_indexed(std::size_t index, std::function<void()> task) {
    require(task != nullptr, "cannot submit an empty task");
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (index >= next_index_) next_index_ = index + 1;
        ++pending_;
    }
    enqueue(index, std::move(task));
}

void TaskGroup::enqueue(std::size_t index, std::function<void()> task) {
    pool_->submit([this, index, task = std::move(task)] {
        try {
            task();
        } catch (...) {
            record_failure(index, std::current_exception());
        }
        // Notify while holding the lock: a waiter (wait() or ~TaskGroup) may
        // destroy this group the moment it observes pending_ == 0, so the
        // notification must complete before the waiter can re-acquire the
        // mutex and return.
        const std::lock_guard<std::mutex> lock(mutex_);
        --pending_;
        idle_.notify_all();
    });
}

void TaskGroup::wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
    if (error_) {
        const std::exception_ptr error = std::exchange(error_, nullptr);
        lock.unlock();
        std::rethrow_exception(error);
    }
}

void TaskGroup::record_failure(std::size_t index, std::exception_ptr error) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!error_ || index < error_index_) {
        error_ = std::move(error);
        error_index_ = index;
    }
}

}  // namespace adiv
