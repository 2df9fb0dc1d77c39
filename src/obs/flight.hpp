// Flight recorder: a fixed-size lock-free ring of the last K events.
//
// Each serve session keeps one FlightRecorder; the server appends one
// FlightRecord per handled request (verb, payload sizes, stage stamps,
// outcome). The ring answers the DUMP protocol verb and adiv_serve's
// --dump-on-signal, so a wedged or slow daemon explains its recent past
// without a restart and without having had tracing on.
//
// Concurrency: each ring has one writer — the reader thread of the
// session's connection, the only thread that handles its requests — and
// any number of readers (DUMP, --dump-on-signal). record() is wait-free and
// never blocks a reader; snapshot() is a seqlock-style read that drops
// slots caught mid-write. All payload traffic goes through word-sized
// atomics, so record/snapshot is data-race-free by construction
// (TSan-clean), at the price of a torn slot being dropped rather than
// retried — acceptable for a diagnostic ring.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace adiv {

/// One recorded event. Fixed-size and trivially copyable so the ring can
/// move it through word atomics; the verb/outcome strings are short
/// NUL-padded tokens, truncated to fit.
struct FlightRecord {
    std::uint64_t seq = 0;  ///< global record index, assigned by record()
    char verb[8] = {};      ///< request verb ("PUSH", "STATS", ...)
    char outcome[8] = {};   ///< "ok" or "err"
    std::uint32_t events = 0;  ///< events carried (PUSH payload size)
    std::uint32_t scores = 0;  ///< scores returned
    float recv_wait_us = 0.0F;  ///< read blocked between frames (client idle)
    float recv_read_us = 0.0F;  ///< read blocked mid-frame (receive work)
    float parse_us = 0.0F;
    float score_us = 0.0F;
    float reply_us = 0.0F;
    float total_us = 0.0F;

    void set_verb(std::string_view text) noexcept { copy_token(verb, text); }
    void set_outcome(std::string_view text) noexcept { copy_token(outcome, text); }
    [[nodiscard]] std::string_view verb_view() const noexcept {
        return token_view(verb);
    }
    [[nodiscard]] std::string_view outcome_view() const noexcept {
        return token_view(outcome);
    }

private:
    static void copy_token(char (&field)[8], std::string_view text) noexcept {
        std::memset(field, 0, sizeof field);
        std::memcpy(field, text.data(),
                    text.size() < sizeof field ? text.size() : sizeof field - 1);
    }
    static std::string_view token_view(const char (&field)[8]) noexcept {
        std::size_t len = 0;
        while (len < sizeof field && field[len] != '\0') ++len;
        return {field, len};
    }
};

static_assert(std::is_trivially_copyable_v<FlightRecord>);
static_assert(sizeof(FlightRecord) % sizeof(std::uint64_t) == 0);

class FlightRecorder {
public:
    /// `capacity` slots (>= 1); the ring keeps the most recent `capacity`
    /// records.
    explicit FlightRecorder(std::size_t capacity = 64);

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Appends a record (its seq field is overwritten with the global
    /// index). Wait-free. Only one thread may call it; see the header.
    void record(FlightRecord record) noexcept;

    /// The currently readable records, seq-ascending. Slots mid-write are
    /// skipped, so a snapshot taken during traffic may briefly hold fewer
    /// than capacity records.
    [[nodiscard]] std::vector<FlightRecord> snapshot() const;

    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

    /// Records appended so far (equals the next seq to be assigned).
    [[nodiscard]] std::uint64_t recorded() const noexcept {
        return next_.load(std::memory_order_relaxed);
    }

private:
    static constexpr std::size_t kWords = sizeof(FlightRecord) / sizeof(std::uint64_t);

    struct Slot {
        // Seqlock per slot: even = readable (0 = never written), odd = a
        // writer holds it. Payload moves as relaxed word stores bracketed
        // by the version's acquire/release edges.
        std::atomic<std::uint64_t> version{0};
        std::array<std::atomic<std::uint64_t>, kWords> words{};
    };

    std::size_t capacity_;
    std::unique_ptr<Slot[]> slots_;
    std::atomic<std::uint64_t> next_{0};
};

/// Deterministic text rendering, one line per record in the given order:
///   seq=3 verb=PUSH outcome=ok events=64 scores=59 recv_wait_us=1.000 ... total_us=9.500
/// The DUMPED response body and --dump-on-signal output; byte-exact for a
/// fixed record list, which the pinned-fixture test relies on.
[[nodiscard]] std::string render_flight_records(
    const std::vector<FlightRecord>& records);

}  // namespace adiv
