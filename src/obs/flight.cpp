#include "obs/flight.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/table.hpp"

namespace adiv {

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity), slots_(new Slot[capacity]()) {
    require(capacity >= 1, "flight recorder needs at least one slot");
}

void FlightRecorder::record(FlightRecord record) noexcept {
    // Only this thread writes next_ and the slot versions, so plain
    // load-then-store needs no read-modify-write.
    const std::uint64_t seq = next_.load(std::memory_order_relaxed);
    next_.store(seq + 1, std::memory_order_relaxed);
    record.seq = seq;
    Slot& slot = slots_[seq % capacity_];
    const std::uint64_t version = slot.version.load(std::memory_order_relaxed);
    slot.version.store(version + 1, std::memory_order_relaxed);  // odd: mid-write
    std::uint64_t words[kWords];
    std::memcpy(words, &record, sizeof record);
    // Release word stores: a reader whose acquire load sees any new word
    // also sees the odd version on its re-check, and drops the slot.
    for (std::size_t i = 0; i < kWords; ++i)
        slot.words[i].store(words[i], std::memory_order_release);
    // Publish: odd -> even. The release edge orders the word stores before
    // the version becomes readable again.
    slot.version.store(version + 2, std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
    std::vector<FlightRecord> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
        const Slot& slot = slots_[i];
        const std::uint64_t before = slot.version.load(std::memory_order_acquire);
        if (before == 0 || (before & 1U) != 0) continue;  // empty or mid-write
        std::uint64_t words[kWords];
        // Seqlock validation without a thread fence (TSan cannot model
        // fences): every word load is acquire, so the version re-read below
        // cannot be reordered above any of them, and an unchanged version
        // proves the words were not torn by a concurrent writer.
        for (std::size_t w = 0; w < kWords; ++w)
            words[w] = slot.words[w].load(std::memory_order_acquire);
        if (slot.version.load(std::memory_order_relaxed) != before) continue;
        FlightRecord record;
        std::memcpy(&record, words, sizeof record);
        out.push_back(record);
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord& a, const FlightRecord& b) {
                  return a.seq < b.seq;
              });
    return out;
}

std::string render_flight_records(const std::vector<FlightRecord>& records) {
    std::string out;
    for (const FlightRecord& r : records) {
        out += "seq=" + std::to_string(r.seq);
        out += " verb=" + std::string(r.verb_view());
        out += " outcome=" + std::string(r.outcome_view());
        out += " events=" + std::to_string(r.events);
        out += " scores=" + std::to_string(r.scores);
        out += " recv_wait_us=" + fixed(static_cast<double>(r.recv_wait_us), 3);
        out += " recv_read_us=" + fixed(static_cast<double>(r.recv_read_us), 3);
        out += " parse_us=" + fixed(static_cast<double>(r.parse_us), 3);
        out += " score_us=" + fixed(static_cast<double>(r.score_us), 3);
        out += " reply_us=" + fixed(static_cast<double>(r.reply_us), 3);
        out += " total_us=" + fixed(static_cast<double>(r.total_us), 3);
        out += '\n';
    }
    return out;
}

}  // namespace adiv
