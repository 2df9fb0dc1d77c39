#include "seq/ngram_map.hpp"

#include <utility>

namespace adiv {

std::uint64_t& NgramMap::operator[](NgramKey key) {
    if (slots_.empty()) grow();
    for (;;) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = NgramKeyHash{}(key) & mask;
        while (slots_[i].used) {
            if (slots_[i].key == key) return slots_[i].value;
            i = (i + 1) & mask;
        }
        // Absent. Insert while the map stays at most half full, so every
        // probe sequence ends at an empty slot; otherwise grow and probe again.
        if (2 * (size_ + 1) <= slots_.size()) {
            Slot& slot = slots_[i];
            slot.key = key;
            slot.used = true;
            ++size_;
            return slot.value;
        }
        grow();
    }
}

void NgramMap::grow() {
    std::vector<Slot> old(slots_.empty() ? 16 : 2 * slots_.size());
    std::swap(old, slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
        if (!slot.used) continue;
        std::size_t i = NgramKeyHash{}(slot.key) & mask;
        while (slots_[i].used) i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

}  // namespace adiv
