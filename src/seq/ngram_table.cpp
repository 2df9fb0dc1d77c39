#include "seq/ngram_table.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace adiv {

NgramTable::NgramTable(std::size_t alphabet_size, std::size_t length)
    : codec_(alphabet_size), length_(length) {
    require(length > 0, "n-gram length must be positive");
    require(length <= codec_.max_length(),
            "n-gram length " + std::to_string(length) + " exceeds codec capacity " +
                std::to_string(codec_.max_length()) + " for alphabet size " +
                std::to_string(alphabet_size));
}

NgramTable NgramTable::from_stream(const EventStream& stream, std::size_t length) {
    NgramTable table(stream.alphabet_size(), length);
    table.add_stream(stream);
    return table;
}

NgramTable NgramTable::prefix_table(const EventStream& stream,
                                    std::size_t length) const {
    require(length > 0 && length < length_,
            "a prefix table must be shorter than its source table");
    require(stream.alphabet_size() == codec_.alphabet_size(),
            "stream alphabet does not match table alphabet");
    const SymbolView all = stream.view();
    require(total_ == stream.window_count(length_),
            "prefix table source must count exactly this stream's windows");
    NgramTable out(codec_.alphabet_size(), length);
    const unsigned shift = codec_.bits_per_symbol() *
                           static_cast<unsigned>(length_ - length);
    counts_.for_each(
        [&](NgramKey key, std::uint64_t count) { out.counts_[key >> shift] += count; });
    out.total_ = total_;
    const std::size_t first = all.size() >= length_ ? all.size() - length_ + 1 : 0;
    for (std::size_t pos = first; pos + length <= all.size(); ++pos)
        out.add(all.subspan(pos, length));
    return out;
}

void NgramTable::add_stream(const EventStream& stream) {
    require(stream.alphabet_size() == codec_.alphabet_size(),
            "stream alphabet does not match table alphabet");
    if (stream.size() < length_) return;
    const SymbolView all = stream.view();
    const NgramKey mask = codec_.mask_for(length_);
    NgramKey key = codec_.encode(all.subspan(0, length_));
    ++counts_[key];
    for (std::size_t pos = length_; pos < all.size(); ++pos) {
        key = codec_.slide(key, all[pos], mask);
        ++counts_[key];
    }
    total_ += all.size() - length_ + 1;
}

void NgramTable::add(SymbolView gram, std::uint64_t count) {
    require(gram.size() == length_, "gram length does not match table length");
    counts_[codec_.encode(gram)] += count;
    total_ += count;
}

std::uint64_t NgramTable::count(SymbolView gram) const {
    require(gram.size() == length_, "gram length does not match table length");
    return count_key(codec_.encode(gram));
}

double NgramTable::relative_frequency(SymbolView gram) const {
    return total_ == 0 ? 0.0
                       : static_cast<double>(count(gram)) / static_cast<double>(total_);
}

double NgramTable::relative_frequency_key(NgramKey key) const {
    return total_ == 0
               ? 0.0
               : static_cast<double>(count_key(key)) / static_cast<double>(total_);
}

void NgramTable::for_each(
    const std::function<void(NgramKey, std::uint64_t)>& fn) const {
    counts_.for_each(fn);
}

std::vector<std::pair<Sequence, std::uint64_t>> NgramTable::items_by_count() const {
    std::vector<std::pair<NgramKey, std::uint64_t>> keyed;
    keyed.reserve(counts_.size());
    counts_.for_each(
        [&](NgramKey key, std::uint64_t count) { keyed.emplace_back(key, count); });
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
    });
    std::vector<std::pair<Sequence, std::uint64_t>> out;
    out.reserve(keyed.size());
    for (const auto& [key, count] : keyed)
        out.emplace_back(codec_.decode(key, length_), count);
    return out;
}

}  // namespace adiv
