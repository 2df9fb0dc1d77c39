// Measurement pieces shared by the workloads: clocks and order statistics,
// /proc readers, the result record every workload fills, and the traced
// run's in-memory span recorder with the detector decorator that feeds it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "detect/detector.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated q-quantile (q in [0, 1]); sorts `values`. 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// User + system CPU seconds of every thread of a process, from
/// /proc/<pid>/stat (clock-tick resolution).
[[nodiscard]] double process_cpu_seconds(int pid);

/// User + system CPU seconds of this process (nanosecond resolution).
[[nodiscard]] double self_cpu_seconds();

/// A numeric field of /proc/<pid>/status, e.g. "VmHWM" (kB) or "Threads".
/// pid 0 reads this process. Throws when the field is missing.
[[nodiscard]] double proc_status_field(int pid, const std::string& field);

/// What one run reports: the operations it attempted and how many failed
/// (a wrong output, an ERR, a refused connect, a timeout), plus the metrics.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  // the first few, for the log
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;

    /// Counts one operation; records `why` when it failed.
    void check(bool ok, const std::string& why);
    /// Counts `count` operations of which `bad` failed.
    void check_many(std::uint64_t count, std::uint64_t bad, const std::string& why);
};

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Spans kept in memory, one buffer per thread, and written out as JSON
/// lines when the run ends. Off unless the run is traced: a Span on a
/// disabled recorder reads no clock.
///
/// Every span carries the current phase (a label the workload sets before
/// each traced pass), so a pass's numbers are read back by its label.
class SpanRecorder {
public:
    struct Record {
        std::uint32_t name = 0;
        std::uint32_t phase = 0;
        std::int64_t parent = -1;  // index in the same thread's buffer
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::uint64_t events = 0;  // work the span did, when it has a count
    };

    /// Self time of one span name within a phase: total duration minus the
    /// time its direct children cover, with the span count and events.
    struct Self {
        double self_ns = 0.0;
        double total_ns = 0.0;
        std::uint64_t count = 0;
        std::uint64_t events = 0;
    };

    /// Call only while no thread is inside a Span.
    void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Interns a span name; call once per call site, outside timed loops.
    std::uint32_t name_id(const std::string& name);
    /// Interns a phase label and makes it current for new spans.
    void set_phase(const std::string& label);

    /// Self times per span name over the spans of one phase; by_parent keys
    /// nested spans "<parent name>><name>" instead. Call after the threads
    /// that recorded them have exited or gone idle.
    [[nodiscard]] std::map<std::string, Self> self_times(const std::string& phase,
                                                         bool by_parent = false);

    /// Writes every span as one JSON line; returns the span count.
    std::size_t write_jsonl(const std::string& path);

private:
    friend class Span;
    struct Buffer;
    Buffer& local();

    bool enabled_ = false;
    std::uint32_t phase_ = 0;
    std::vector<std::string> names_;
    std::vector<std::string> phases_;
    std::vector<Buffer*> live_;                         // threads still running
    std::vector<std::vector<Record>> finished_;        // per exited thread
    std::int64_t origin_ns_ = 0;
};

SpanRecorder& recorder();

/// RAII span on the process recorder.
class Span {
public:
    explicit Span(std::uint32_t name, std::uint64_t events = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::int64_t index_ = -1;
};

/// Decorates a detector with spans around train() ("detect.train.<name>")
/// and score() ("detect.score.<name>", counting the events it scored).
class TimedDetector final : public adiv::SequenceDetector {
public:
    explicit TimedDetector(std::shared_ptr<adiv::SequenceDetector> inner);

    [[nodiscard]] std::string name() const override { return inner_->name(); }
    [[nodiscard]] std::size_t window_length() const override {
        return inner_->window_length();
    }
    void train(const adiv::EventStream& training) override;
    [[nodiscard]] std::size_t alphabet_size() const override {
        return inner_->alphabet_size();
    }
    [[nodiscard]] std::vector<double> score(
        const adiv::EventStream& test) const override;
    [[nodiscard]] bool window_local() const noexcept override {
        return inner_->window_local();
    }

private:
    std::shared_ptr<adiv::SequenceDetector> inner_;
    std::uint32_t train_span_;
    std::uint32_t score_span_;
};

}  // namespace perfbench
