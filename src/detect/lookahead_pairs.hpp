// Lookahead-pairs detector (Forrest, Hofmeyr, Somayaji & Longstaff 1996 —
// the paper's reference [7], in its ORIGINAL "sense of self" form).
//
// Where Stide stores whole DW-windows, the original sense-of-self monitor
// stored pairs: for each window it records (first symbol, k-th symbol) for
// every lookahead offset k in 1..DW-1. A test window is anomalous when some
// pair at some offset was never seen in training. This generalizes over the
// training windows — different training windows can mix and match to cover a
// test window pair-by-pair — so its normal model is strictly more permissive
// than Stide's:
//
//     capable(lookahead-pairs)  ⊆  capable(stide)
//
// which makes it the one detector in this library whose coverage sits BELOW
// the paper's Stide diagonal: yet another point on the diversity map, and a
// warning that "sequence-based" does not mean "Stide-equivalent".
#pragma once

#include <iosfwd>
#include <vector>

#include "detect/detector.hpp"
#include "seq/ngram_map.hpp"

namespace adiv {

class LookaheadPairsDetector final : public SequenceDetector {
public:
    /// window_length must be >= 2 (at least one lookahead offset).
    explicit LookaheadPairsDetector(std::size_t window_length);

    [[nodiscard]] std::string name() const override { return "lookahead-pairs"; }
    [[nodiscard]] std::size_t window_length() const override { return window_length_; }

    void train(const EventStream& training) override;
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override;

    /// Writes the trained model body in the adiv text format; pair with
    /// load_model. Most callers use io/model_io, which adds a typed envelope.
    void save_model(std::ostream& out) const;
    /// Restores a model written by save_model.
    static LookaheadPairsDetector load_model(std::istream& in);

    /// Alphabet size of the training data; throws before train().
    [[nodiscard]] std::size_t alphabet_size() const override;

    /// Distinct (offset, first, follower) pairs stored.
    [[nodiscard]] std::size_t pair_count() const;

private:
    std::size_t window_length_;
    std::size_t alphabet_size_ = 0;
    bool trained_ = false;
    /// The (offset k, first, w[k]) triples seen, as a set: each key is
    /// pair_key() of a triple, its value unused. It holds only the pairs
    /// training saw (or a model file lists), whatever the window and
    /// alphabet.
    NgramMap seen_;

    /// Packs a triple into one key; key order is (offset, first, follower)
    /// order.
    [[nodiscard]] static NgramKey pair_key(std::size_t offset, Symbol first,
                                           Symbol follower) noexcept {
        return (NgramKey{offset} << 64) | (NgramKey{first} << 32) | follower;
    }
};

}  // namespace adiv
