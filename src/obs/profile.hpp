// Wait-time accounting for the serve hot path.
//
// A *wait site* is a named place where a thread can block, such as a
// contended mutex. Each site owns three registry instruments —
//
//   <site>.acquires    counter, passes through the site (blocked or not)
//   <site>.contended   counter, passes that actually blocked
//   <site>.wait_us     sketch over the blocked passes' wait times
//
// — so wait-site data rides the existing OpenMetrics / sampler / METRICS
// paths for free. Two idioms cover every profiled site:
//
//   * StageTimer, the one stamp: `const StageTimer t(field);` adds the
//     scope's elapsed microseconds to `field` when profiling is on.
//   * wait_at(), the one wait: a pass through a wait site that blocks in a
//     mutex or condition-variable wait. ProfiledMutex (a drop-in std::mutex)
//     goes through it.
//
// The zero-overhead-when-off contract: instrumentation is gated twice.
// Compile time: `cmake -DADIV_PROFILE=OFF` makes profiling_enabled() a
// constexpr false and StageTimer an empty type, so every stamp, clock read,
// sketch record, and JSONL format is dead code and a ProfiledMutex is
// exactly a std::mutex. Run time (the default build): profiling starts
// disabled and costs one relaxed atomic load per stamp until
// set_profiling_enabled(true) turns it on (adiv_serve exposes this as
// --profile).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

/// One named blocking point. Cheap to hold by reference: recording is two
/// relaxed counter bumps plus (when blocked) one sketch record.
class WaitSite {
public:
    WaitSite(std::string name, MetricsRegistry& metrics);

    /// An uncontended pass: the thread got through without blocking.
    void record_acquire() noexcept { acquires_.add(1); }

    /// A blocked pass that waited `us` microseconds.
    void record_wait_us(double us) noexcept {
        acquires_.add(1);
        contended_.add(1);
        wait_us_.record(us);
    }

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::uint64_t acquires() const noexcept { return acquires_.value(); }
    [[nodiscard]] std::uint64_t contended() const noexcept { return contended_.value(); }
    [[nodiscard]] SketchSummary wait_summary() const { return wait_us_.summary(); }

private:
    std::string name_;
    Counter& acquires_;
    Counter& contended_;
    Sketch& wait_us_;
};

/// Point-in-time digest of one site, the unit of reporting.
struct WaitSiteSummary {
    std::string name;
    std::uint64_t acquires = 0;
    std::uint64_t contended = 0;
    double wait_us_total = 0.0;
    double wait_us_mean = 0.0;
    double wait_us_p95 = 0.0;
    double wait_us_max = 0.0;
};

/// Named site store. Like MetricsRegistry: lookup creates on first use,
/// references stay valid for the registry's lifetime, a site asked for
/// twice is the same site.
class WaitSiteRegistry {
public:
    explicit WaitSiteRegistry(MetricsRegistry& metrics = global_metrics());

    WaitSite& site(const std::string& name);

    /// Name-sorted digests of every registered site.
    [[nodiscard]] std::vector<WaitSiteSummary> summaries() const;

    /// One `{"type":"wait_site",...}` JSON line per site, name order — the
    /// stream adiv_traceview --contention aggregates.
    void write_jsonl(TraceSink& sink) const;

private:
    MetricsRegistry* metrics_;
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<WaitSite>> sites_;
};

/// The process-global site registry (instruments live in global_metrics()).
WaitSiteRegistry& global_wait_sites();

/// Resolve-once idiom for instrumentation points:
///   static WaitSite& site = wait_site("serve.session_table");
WaitSite& wait_site(const std::string& name);

/// Render one `{"type":"wait_site",...}` JSON line for a digest.
[[nodiscard]] std::string wait_site_jsonl(const WaitSiteSummary& summary);

/// The one wait idiom: a pass through `site` that blocks in `block()` until
/// it may proceed. While profiling is on, `try_pass()` is asked first — a
/// pass it lets through is an uncontended acquire — and a blocked pass is a
/// timed wait. Off, the pass is exactly `block()`.
template <class TryPass, class Block>
void wait_at(WaitSite& site, TryPass&& try_pass, Block&& block) {
    const bool on = profiling_enabled();
    if (on && try_pass()) {
        site.record_acquire();
        return;
    }
    double waited_us = 0.0;
    {
        const StageTimer timer(waited_us);
        block();
    }
    if (on) site.record_wait_us(waited_us);
}

/// A std::mutex that attributes contended acquisitions to a wait site.
/// BasicLockable + Lockable, so std::lock_guard / std::unique_lock work
/// unchanged. When profiling is off (either gate) lock() is exactly
/// mutex_.lock().
class ProfiledMutex {
public:
    explicit ProfiledMutex(WaitSite& site) noexcept : site_(&site) {}

    ProfiledMutex(const ProfiledMutex&) = delete;
    ProfiledMutex& operator=(const ProfiledMutex&) = delete;

    void lock() {
        wait_at(*site_, [this] { return mutex_.try_lock(); },
                [this] { mutex_.lock(); });
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
/// work — recv_read). Latency analysis should discount recv_wait; the old
/// single `recv` stage conflated the two and dwarfed every real stage.
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
