// NgramTable: occurrence counts of fixed-length windows of a stream.
//
// This is the "normal database" substrate shared by every detector and by the
// anomaly machinery: Stide asks membership, the Markov and NN detectors ask
// conditional counts, the MFS builder asks rarity, and the injector asks
// whether boundary windows are common. One table holds counts for a single
// window length n, in one flat NgramMap; conditional probabilities regroup
// an (n+1)-table by its n-symbol prefixes (see ConditionalModel).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "seq/ngram.hpp"
#include "seq/ngram_map.hpp"
#include "seq/stream.hpp"
#include "seq/types.hpp"

namespace adiv {

class NgramTable {
public:
    /// Empty table for windows of `length` symbols over the alphabet.
    NgramTable(std::size_t alphabet_size, std::size_t length);

    /// Convenience: builds the table of all length-n windows of the stream.
    static NgramTable from_stream(const EventStream& stream, std::size_t length);

    [[nodiscard]] std::size_t length() const noexcept { return length_; }
    [[nodiscard]] std::size_t alphabet_size() const noexcept {
        return codec_.alphabet_size();
    }
    [[nodiscard]] const NgramCodec& codec() const noexcept { return codec_; }

    /// The table of the same stream's windows of `length` < length()
    /// symbols, derived without rescanning it: each window's `length`-prefix
    /// takes the window's count, and the stream's last length() - `length`
    /// short windows, which start too late to begin a window of this table,
    /// are added one by one. Counts and total equal from_stream(stream,
    /// length); only for_each's visiting order may differ. `stream` must be
    /// the one stream this table counts.
    [[nodiscard]] NgramTable prefix_table(const EventStream& stream,
                                          std::size_t length) const;

    /// Adds every complete window of the stream (slides by one).
    void add_stream(const EventStream& stream);

    /// Adds a single occurrence (or `count` occurrences) of one window.
    /// Requires gram.size() == length().
    void add(SymbolView gram, std::uint64_t count = 1);

    /// Occurrences of the window; 0 when absent.
    [[nodiscard]] std::uint64_t count(SymbolView gram) const;
    [[nodiscard]] std::uint64_t count_key(NgramKey key) const noexcept {
        const std::uint64_t* count = counts_.find(key);
        return count == nullptr ? 0 : *count;
    }

    [[nodiscard]] bool contains(SymbolView gram) const { return count(gram) > 0; }
    [[nodiscard]] bool contains_key(NgramKey key) const { return count_key(key) > 0; }

    /// Total window observations (sum of all counts).
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

    /// Number of distinct windows seen.
    [[nodiscard]] std::size_t distinct() const noexcept { return counts_.size(); }

    /// count(gram) / total(); 0 when the table is empty.
    [[nodiscard]] double relative_frequency(SymbolView gram) const;
    [[nodiscard]] double relative_frequency_key(NgramKey key) const;

    /// Invokes fn(key, count) once for every distinct window, in an order
    /// that is deterministic but unrelated to the keys (NgramMap slot order);
    /// decode keys via codec() when the symbols are needed.
    void for_each(const std::function<void(NgramKey, std::uint64_t)>& fn) const;

    /// Materialized (window, count) pairs, sorted by descending count then by
    /// key, for deterministic reporting.
    [[nodiscard]] std::vector<std::pair<Sequence, std::uint64_t>> items_by_count() const;

private:
    NgramCodec codec_;
    std::size_t length_;
    std::uint64_t total_ = 0;
    NgramMap counts_;
};

}  // namespace adiv
