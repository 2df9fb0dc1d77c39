// parallel_for: the one execution path of the experiment engine
// (src/engine) and adiv_score --jobs.
//
// At most `jobs` threads, the caller included, take indices in ascending
// order from one shared counter, so with one job the loop runs on the
// caller in index order. Failures are deterministic regardless of thread
// interleaving: once an index throws, no higher index starts, and after
// every started call has returned, the exception of the lowest failing
// index is rethrown. That is the exception the serial loop would hit first,
// so jobs=1 and jobs=N report the same error.
#pragma once

#include <cstddef>
#include <functional>

namespace adiv {

/// hardware_concurrency, clamped to at least 1 (the value CLI `--jobs 0`
/// resolves to).
std::size_t default_jobs() noexcept;

/// Calls fn(i) once for every i in [0, count) on at most `jobs` threads,
/// the caller included, and returns when every call has returned. `jobs`
/// is a resolved count (>= 1). Rethrows the exception of the lowest index
/// that threw.
void parallel_for(std::size_t count, std::size_t jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace adiv
