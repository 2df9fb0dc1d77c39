#include "measure.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double>& values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double process_cpu_seconds(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(in, line)) throw std::runtime_error("cannot read /proc stat");
    // The command name may hold spaces; the fields after it start past ')'.
    std::istringstream fields(line.substr(line.rfind(')') + 2));
    std::string token;
    double utime = 0.0;
    double stime = 0.0;
    for (int field = 3; field <= 15 && fields >> token; ++field) {
        if (field == 14) utime = std::stod(token);
        if (field == 15) stime = std::stod(token);
    }
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_seconds() {
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double proc_status_field(int pid, const std::string& field) {
    std::ifstream in("/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid)) +
                     "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, field.size() + 1, field + ":") == 0)
            return std::stod(line.substr(field.size() + 1));
    throw std::runtime_error("no " + field + " in /proc status");
}

void Result::check(bool ok, const std::string& why) { check_many(1, ok ? 0 : 1, why); }

void Result::check_many(std::uint64_t count, std::uint64_t bad, const std::string& why) {
    attempted += count;
    failed += bad;
    if (bad > 0 && failures.size() < 20)
        failures.push_back(why + (bad > 1 ? " (x" + std::to_string(bad) + ")" : ""));
}

// ---------------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------------

namespace {

std::mutex g_recorder_mutex;

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

}  // namespace

struct SpanRecorder::Buffer {
    std::vector<Record> records;
    std::vector<std::int64_t> open;  // indices of the spans still running

    Buffer() {
        const std::lock_guard<std::mutex> lock(g_recorder_mutex);
        recorder().live_.push_back(this);
    }
    ~Buffer() {
        // The thread is exiting: hand its spans to the recorder.
        const std::lock_guard<std::mutex> lock(g_recorder_mutex);
        SpanRecorder& r = recorder();
        r.live_.erase(std::find(r.live_.begin(), r.live_.end(), this));
        r.finished_.push_back(std::move(records));
    }
    Buffer(const Buffer&) = delete;
    Buffer& operator=(const Buffer&) = delete;
};

SpanRecorder& recorder() {
    // Never destroyed: thread buffers flush into it at thread exit.
    static SpanRecorder* const instance = new SpanRecorder();
    return *instance;
}

SpanRecorder::Buffer& SpanRecorder::local() {
    thread_local Buffer buffer;
    return buffer;
}

std::uint32_t SpanRecorder::name_id(const std::string& name) {
    const std::lock_guard<std::mutex> lock(g_recorder_mutex);
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanRecorder::set_phase(const std::string& label) {
    const std::lock_guard<std::mutex> lock(g_recorder_mutex);
    if (origin_ns_ == 0) origin_ns_ = now_ns();
    const auto it = std::find(phases_.begin(), phases_.end(), label);
    phase_ = static_cast<std::uint32_t>(it - phases_.begin());
    if (it == phases_.end()) phases_.push_back(label);
}

std::map<std::string, SpanRecorder::Self> SpanRecorder::self_times(
    const std::string& phase, bool by_parent) {
    const std::lock_guard<std::mutex> lock(g_recorder_mutex);
    std::map<std::string, Self> out;
    const auto wanted = std::find(phases_.begin(), phases_.end(), phase);
    if (wanted == phases_.end()) return out;
    const auto phase_id = static_cast<std::uint32_t>(wanted - phases_.begin());
    const auto add = [&](const std::vector<Record>& records) {
        std::vector<std::int64_t> children(records.size(), 0);
        for (const Record& r : records)
            if (r.parent >= 0)
                children[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record& r = records[i];
            if (r.phase != phase_id) continue;
            std::string key = names_[r.name];
            if (by_parent && r.parent >= 0)
                key = names_[records[static_cast<std::size_t>(r.parent)].name] + ">" + key;
            Self& s = out[key];
            const auto total = static_cast<double>(r.end_ns - r.start_ns);
            s.total_ns += total;
            s.self_ns += total - static_cast<double>(children[i]);
            s.count += 1;
            s.events += r.events;
        }
    };
    for (const Buffer* buffer : live_) add(buffer->records);
    for (const auto& records : finished_) add(records);
    return out;
}

std::size_t SpanRecorder::write_jsonl(const std::string& path) {
    const std::lock_guard<std::mutex> lock(g_recorder_mutex);
    std::ofstream out(path);
    std::size_t written = 0;
    std::size_t thread = 0;
    const auto dump = [&](const std::vector<Record>& records) {
        for (const Record& r : records) {
            out << "{\"name\":\"" << names_[r.name] << "\",\"phase\":\""
                << phases_[r.phase] << "\",\"thread\":" << thread
                << ",\"parent\":" << r.parent
                << ",\"start_ns\":" << r.start_ns - origin_ns_
                << ",\"end_ns\":" << r.end_ns - origin_ns_
                << ",\"events\":" << r.events << "}\n";
            ++written;
        }
        ++thread;
    };
    for (const Buffer* buffer : live_) dump(buffer->records);
    for (const auto& records : finished_) dump(records);
    return written;
}

Span::Span(std::uint32_t name, std::uint64_t events) {
    SpanRecorder& r = recorder();
    if (!r.enabled()) return;
    SpanRecorder::Buffer& buffer = r.local();
    SpanRecorder::Record record;
    record.name = name;
    record.phase = r.phase_;
    record.parent = buffer.open.empty() ? -1 : buffer.open.back();
    record.events = events;
    index_ = static_cast<std::int64_t>(buffer.records.size());
    buffer.open.push_back(index_);
    record.start_ns = now_ns();
    buffer.records.push_back(record);
}

Span::~Span() {
    if (index_ < 0) return;
    const std::int64_t end = now_ns();
    SpanRecorder::Buffer& buffer = recorder().local();
    buffer.records[static_cast<std::size_t>(index_)].end_ns = end;
    buffer.open.pop_back();
}

// ---------------------------------------------------------------------------
// TimedDetector
// ---------------------------------------------------------------------------

TimedDetector::TimedDetector(std::shared_ptr<adiv::SequenceDetector> inner)
    : inner_(std::move(inner)),
      train_span_(recorder().name_id("detect.train." + inner_->name())),
      score_span_(recorder().name_id("detect.score." + inner_->name())) {}

void TimedDetector::train(const adiv::EventStream& training) {
    const Span span(train_span_, training.size());
    inner_->train(training);
}

std::vector<double> TimedDetector::score(const adiv::EventStream& test) const {
    const Span span(score_span_, test.size());
    return inner_->score(test);
}

}  // namespace perfbench
