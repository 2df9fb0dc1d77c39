// Wait-time accounting for the serve hot path.
//
// A *wait site* is a named place where a thread can block, such as a
// contended mutex. Each site owns three registry instruments —
//
//   <site>.acquires    counter, passes through the site (blocked or not)
//   <site>.contended   counter, passes that actually blocked
//   <site>.wait_us     sketch over the blocked passes' wait times
//
// — so wait-site data rides the existing --metrics dump and GET /metrics
// scrape for free, and the registry is the one place a profile is read.
// Two idioms cover every profiled site:
//
//   * StageTimer, the one stamp: `const StageTimer t(field);` adds the
//     scope's elapsed microseconds to `field` when profiling is on.
//   * ProfiledMutex::lock(), the one wait: a drop-in std::mutex whose
//     contended acquisitions are timed into its wait site.
//
// The zero-overhead-when-off contract: instrumentation is gated twice.
// Compile time: `cmake -DADIV_PROFILE=OFF` makes profiling_enabled() a
// constexpr false and StageTimer an empty type, so every stamp, clock read
// and sketch record is dead code and a ProfiledMutex is exactly a
// std::mutex. Run time (the default build): profiling starts disabled and
// costs one relaxed atomic load per stamp until set_profiling_enabled(true)
// turns it on (adiv_serve exposes this as --profile).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"

#ifndef ADIV_PROFILE
#define ADIV_PROFILE 1
#endif

namespace adiv {

/// True when the build carries profiling instrumentation at all.
constexpr bool profiling_compiled() noexcept { return ADIV_PROFILE != 0; }

#if ADIV_PROFILE
/// Runtime master switch; starts off. Checked with a relaxed load on every
/// instrumented path, so toggling mid-run is safe (individual events may
/// straddle the edge and be half-counted — acceptable for a profiler).
[[nodiscard]] bool profiling_enabled() noexcept;
void set_profiling_enabled(bool on) noexcept;

/// The one profiling stamp. When profiling is on at construction, adds the
/// scope's elapsed microseconds to `field` at scope exit; when it is off, no
/// clock is read and the field is untouched:
///   { const StageTimer parse(stamps.parse_us); parse_request_into(...); }
class StageTimer {
public:
    explicit StageTimer(double& field) noexcept
        : field_(profiling_enabled() ? &field : nullptr) {
        if (field_ != nullptr) start_ = Clock::now();
    }

    ~StageTimer() {
        if (field_ != nullptr)
            *field_ += std::chrono::duration<double, std::micro>(
                           Clock::now() - start_)
                           .count();
    }

    StageTimer(const StageTimer&) = delete;
    StageTimer& operator=(const StageTimer&) = delete;

private:
    using Clock = std::chrono::steady_clock;
    double* field_;
    Clock::time_point start_{};
};
#else
[[nodiscard]] constexpr bool profiling_enabled() noexcept { return false; }
constexpr void set_profiling_enabled(bool) noexcept {}

/// ADIV_PROFILE=OFF: an empty type, so every stamp compiles to nothing.
class StageTimer {
public:
    explicit constexpr StageTimer(double& /*field*/) noexcept {}
};
#endif

/// One named blocking point, registered in `metrics` at construction. Cheap
/// to hold by reference: recording is two relaxed counter bumps plus (when
/// blocked) one sketch record.
class WaitSite {
public:
    WaitSite(const std::string& name, MetricsRegistry& metrics);

    /// An uncontended pass: the thread got through without blocking.
    void record_acquire() noexcept { acquires_.add(1); }

    /// A blocked pass that waited `us` microseconds.
    void record_wait_us(double us) noexcept {
        acquires_.add(1);
        contended_.add(1);
        wait_us_.record(us);
    }

    [[nodiscard]] std::uint64_t acquires() const noexcept { return acquires_.value(); }
    [[nodiscard]] std::uint64_t contended() const noexcept { return contended_.value(); }
    [[nodiscard]] SketchSummary wait_summary() const { return wait_us_.summary(); }

private:
    Counter& acquires_;
    Counter& contended_;
    Sketch& wait_us_;
};

/// A std::mutex that attributes contended acquisitions to a wait site.
/// BasicLockable + Lockable, so std::lock_guard / std::unique_lock work
/// unchanged. While profiling is on, a lock() that try_lock() satisfies at
/// once is an uncontended acquire and any other is a timed wait. When
/// profiling is off (either gate) lock() is exactly mutex_.lock().
class ProfiledMutex {
public:
    explicit ProfiledMutex(WaitSite& site) noexcept : site_(&site) {}

    ProfiledMutex(const ProfiledMutex&) = delete;
    ProfiledMutex& operator=(const ProfiledMutex&) = delete;

    void lock() {
        const bool on = profiling_enabled();
        if (on && mutex_.try_lock()) {
            site_->record_acquire();
            return;
        }
        double waited_us = 0.0;
        {
            const StageTimer timer(waited_us);
            mutex_.lock();
        }
        if (on) site_->record_wait_us(waited_us);
    }

    bool try_lock() { return mutex_.try_lock(); }

    void unlock() { mutex_.unlock(); }

private:
    std::mutex mutex_;
    WaitSite* site_;
};

/// Per-event pipeline stage durations (microseconds), stamped along the
/// serve hot path. Stages are disjoint steady-clock intervals inside the
/// event's end-to-end window, so stage_sum_us() <= total_us always holds.
///
/// recv is split the same way wait sites split idle from contention: a
/// read_some() that began at a clean frame boundary was waiting for the
/// client to send anything (think time — recv_wait), while a read that
/// began mid-frame was receiving a request already in flight (server-side
/// work — recv_read). Latency analysis should discount recv_wait.
struct StageStamps {
    double recv_wait_us = 0.0;  ///< blocked in read_some between frames (idle)
    double recv_read_us = 0.0;  ///< blocked in read_some mid-frame (work)
    double parse_us = 0.0;      ///< frame payload -> Request
    double score_us = 0.0;      ///< request dispatch (scoring, for PUSH)
    double reply_us = 0.0;      ///< response serialize + frame
    double total_us = 0.0;      ///< recv start -> reply framed

    [[nodiscard]] double stage_sum_us() const noexcept {
        return recv_wait_us + recv_read_us + parse_us + score_us + reply_us;
    }
};

}  // namespace adiv
