// ConditionalModel: empirical next-symbol distribution given a fixed-length
// context, estimated from a training stream.
//
// This is the probability substrate shared by the Markov detector (which
// scores 1 - P(next | context)), the neural-network detector (which trains on
// the distinct context->next distributions), and the MFS builder (which must
// verify that the junctions inside a synthesized anomaly are conditionally
// rare). P(next | context) = count(context·next) / count(context), with
// optional Laplace smoothing for the ablation experiments.
//
// Training counts the stream's (context+1)-grams in an NgramTable, the
// substrate's one counting loop, and regroups them by context: one row of
// continuation counts per distinct context, found through an NgramMap.
#pragma once

#include <cstdint>
#include <vector>

#include "seq/ngram.hpp"
#include "seq/ngram_map.hpp"
#include "seq/stream.hpp"

namespace adiv {

/// One distinct training context and the observed continuation counts.
struct ContextDistribution {
    Sequence context;                       ///< the conditioning window
    std::vector<std::uint64_t> next_counts; ///< per-symbol continuation counts
    std::uint64_t total = 0;                ///< sum of next_counts
};

class ConditionalModel {
public:
    /// Estimates the model from the stream. context_length must be >= 1 and
    /// the stream must contain at least one (context_length+1)-window.
    ConditionalModel(const EventStream& train, std::size_t context_length);

    /// Reconstructs a model from previously exported distributions (see
    /// distributions()); used by model deserialization.
    ConditionalModel(std::size_t alphabet_size, std::size_t context_length,
                     const std::vector<ContextDistribution>& distributions);

    [[nodiscard]] std::size_t context_length() const noexcept { return context_length_; }
    [[nodiscard]] std::size_t alphabet_size() const noexcept { return alphabet_size_; }

    /// P(next | context). Unseen context => 0 (maximally surprising).
    /// Requires context.size() == context_length().
    [[nodiscard]] double probability(SymbolView context, Symbol next) const;

    /// Laplace-smoothed probability with pseudo-count alpha:
    /// (count(ctx·next) + alpha) / (count(ctx) + alpha * alphabet).
    /// With alpha = 0 this reduces to probability().
    [[nodiscard]] double probability_smoothed(SymbolView context, Symbol next,
                                              double alpha) const;

    /// Raw observation counts used by probability().
    [[nodiscard]] std::uint64_t context_count(SymbolView context) const;
    [[nodiscard]] std::uint64_t continuation_count(SymbolView context, Symbol next) const;

    /// True when the context occurs in the training stream.
    [[nodiscard]] bool context_known(SymbolView context) const {
        return context_count(context) > 0;
    }

    /// All distinct contexts with their continuation distributions, sorted by
    /// descending total then by context for deterministic consumption (the NN
    /// trains on exactly this compressed dataset).
    [[nodiscard]] std::vector<ContextDistribution> distributions() const;

    /// Number of distinct contexts observed.
    [[nodiscard]] std::size_t distinct_contexts() const noexcept {
        return totals_.size();
    }

private:
    /// The context's row, appending an all-zero row when it is new.
    std::size_t row_for(NgramKey context);
    /// The context's row, or nullptr when it was never seen. Requires
    /// context.size() == context_length().
    [[nodiscard]] const std::uint64_t* find_row(SymbolView context) const;

    std::size_t context_length_;
    std::size_t alphabet_size_;
    NgramCodec codec_;
    NgramMap row_of_;                         // context key -> row
    std::vector<std::uint64_t> totals_;       // [row] = count(context)
    std::vector<std::uint64_t> next_counts_;  // [row * alphabet + next]
};

}  // namespace adiv
