// SubsequenceOracle: answers presence/rarity queries about windows of a
// training stream, for any window length, with per-length tables built
// lazily and cached.
//
// The anomaly machinery asks many questions of the form "does this n-gram
// occur in training, and how often?" across lengths 1..AS and 2..DW; the
// oracle owns one NgramTable per length so each is built exactly once. A
// table is derived from the nearest longer cached table when there is one
// (NgramTable::prefix_table), so asking for the longest length first counts
// the training stream once. Counts do not depend on how a table was built;
// only its unsorted for_each order does.
// Not thread-safe: callers serialize access (the evaluation pipeline is
// single-threaded by design for reproducibility).
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "seq/ngram_table.hpp"
#include "seq/stream.hpp"
#include "seq/types.hpp"

namespace adiv {

class SubsequenceOracle {
public:
    /// The oracle keeps a reference to the training stream; the stream must
    /// outlive the oracle.
    explicit SubsequenceOracle(const EventStream& training);

    [[nodiscard]] const EventStream& training() const noexcept { return *training_; }

    /// The (lazily built) table of all length-n training windows.
    [[nodiscard]] const NgramTable& table(std::size_t length) const;

    /// Occurrences of the gram in training (gram length selects the table).
    [[nodiscard]] std::uint64_t count(SymbolView gram) const {
        return table(gram.size()).count(gram);
    }

    [[nodiscard]] bool present(SymbolView gram) const { return count(gram) > 0; }

    /// count / total windows of that length; 0 for absent grams.
    [[nodiscard]] double relative_frequency(SymbolView gram) const {
        return table(gram.size()).relative_frequency(gram);
    }

    /// Present but below the rarity threshold.
    [[nodiscard]] bool rare(SymbolView gram, double threshold) const {
        const double f = relative_frequency(gram);
        return f > 0.0 && f < threshold;
    }

    /// Present at or above the rarity threshold.
    [[nodiscard]] bool common(SymbolView gram, double threshold) const {
        return relative_frequency(gram) >= threshold;
    }

private:
    const EventStream* training_;
    mutable std::map<std::size_t, std::unique_ptr<NgramTable>> tables_;
};

}  // namespace adiv
