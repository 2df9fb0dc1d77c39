// NgramMap: a flat open-addressing map from packed window keys to 64-bit
// values, the one count table of the sequence substrate.
//
// NgramTable counts windows in it, ConditionalModel indexes its contexts
// with it, the lookahead-pairs detector keeps its seen pairs and Lane &
// Brodley its training windows in it as sets, and the neural net maps each
// training context to its row of output distributions. Slots live in one power-of-two array and collide by linear
// probing, so counting a stream touches one or two adjacent slots per event
// instead of chasing a heap node. Every key is legal, including the all-zero
// window and keys that use the top bits of the 128-bit key, so a slot marks
// its occupancy in a flag (it fits in the padding the 16-byte key forces).
// Keys are never erased.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "seq/ngram.hpp"

namespace adiv {

class NgramMap {
public:
    /// The value stored under `key`; a new key starts at 0. Growing the map
    /// invalidates every pointer and reference into it.
    std::uint64_t& operator[](NgramKey key);

    /// The value stored under `key`, or nullptr when absent.
    [[nodiscard]] const std::uint64_t* find(NgramKey key) const noexcept {
        if (slots_.empty()) return nullptr;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = NgramKeyHash{}(key) & mask;; i = (i + 1) & mask) {
            const Slot& slot = slots_[i];
            if (!slot.used) return nullptr;
            if (slot.key == key) return &slot.value;
        }
    }

    /// Number of distinct keys.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Calls fn(key, value) once for every key, in slot order: a function of
    /// the keys inserted and their insertion order, unrelated to key order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const Slot& slot : slots_)
            if (slot.used) fn(slot.key, slot.value);
    }

private:
    struct Slot {
        NgramKey key = 0;
        std::uint64_t value = 0;
        bool used = false;
    };

    /// Doubles the slot array (at least 16 slots) and reinserts every key.
    void grow();

    std::vector<Slot> slots_;  // empty or a power of two, at most half full
    std::size_t size_ = 0;
};

}  // namespace adiv
