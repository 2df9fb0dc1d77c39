#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace adiv {

std::size_t default_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn) {
    require(jobs >= 1, "parallel_for needs at least one job");
    std::atomic<std::size_t> next{0};
    // The lowest index that threw (count = none yet). Indices at or above it
    // do not start.
    std::atomic<std::size_t> failed{count};
    std::mutex error_mutex;
    // Guarded by error_mutex: the exception of index `failed`.
    std::exception_ptr error;
    const auto work = [&] {
        for (std::size_t i = next++; i < failed.load(); i = next++) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (i < failed.load()) {
                    failed.store(i);
                    error = std::current_exception();
                }
            }
        }
    };
    std::vector<std::thread> helpers;
    const std::size_t threads = std::min(jobs, count);
    helpers.reserve(threads);
    for (std::size_t t = 1; t < threads; ++t) {
        try {
            helpers.emplace_back(work);
        } catch (const std::system_error&) {
            break;  // the threads already running, and the caller, do the rest
        }
    }
    work();
    for (std::thread& helper : helpers) helper.join();
    if (error) std::rethrow_exception(error);
}

}  // namespace adiv
