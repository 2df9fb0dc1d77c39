// Lane & Brodley detector (Lane & Brodley 1997).
//
// Normal behaviour is the set of distinct DW-windows of the training data. A
// test window is compared position-by-position against each stored window;
// matching elements earn a weight that grows with the length of the adjacent
// run of matches (1, 2, 3, ... within a run), mismatches earn 0 and reset the
// run. Two identical size-5 windows score 1+2+3+4+5 = 15 = DW(DW+1)/2; a
// window differing only in its last element scores 1+2+3+4 = 10 (Figure 7 of
// the paper). The detector's similarity to normal is the maximum over the
// database; the response is 1 - similarity / Sim_max, so 0 means identical to
// some normal window and 1 means no element of any normal window matched.
//
// The run-length bias is exactly what blinds this detector to minimal
// foreign sequences: a foreign window mismatching a normal one in a single
// edge element still scores DW(DW-1)/2, a "slight dip" from normal.
//
// Scoring reads only what train() or load_model() wrote. A window identical
// to a normal one, the common case, is found in a set of the packed normal
// windows and scores the maximum without a scan; any other window is
// compared against every normal window exactly, in a scan over a
// position-major copy of the database that the compiler vectorizes.
#pragma once

#include <iosfwd>

#include <cstdint>
#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "seq/ngram.hpp"
#include "seq/ngram_map.hpp"

namespace adiv {

/// The L&B run-weighted similarity between two same-length windows.
/// Range [0, n(n+1)/2] for length n. Requires a.size() == b.size(). The
/// detector's database scan computes the same value for many windows at
/// once; this is its reference.
std::uint64_t lane_brodley_similarity(SymbolView a, SymbolView b);

/// Maximum similarity value for windows of the given length: n(n+1)/2.
constexpr std::uint64_t lane_brodley_max_similarity(std::size_t n) noexcept {
    return static_cast<std::uint64_t>(n) * (n + 1) / 2;
}

class LaneBrodleyDetector final : public SequenceDetector {
public:
    explicit LaneBrodleyDetector(std::size_t window_length);

    [[nodiscard]] std::string name() const override { return "lane-brodley"; }
    [[nodiscard]] std::size_t window_length() const override { return window_length_; }

    void train(const EventStream& training) override;
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override;

    /// Writes the trained model body in the adiv text format; pair with
    /// load_model. Most callers use io/model_io, which adds a typed envelope.
    void save_model(std::ostream& out) const;
    /// Restores a model written by save_model. Throws DataError on corrupt,
    /// truncated, or inconsistent input.
    static LaneBrodleyDetector load_model(std::istream& in);

    /// Alphabet size of the training data; throws before train().
    [[nodiscard]] std::size_t alphabet_size() const override;

    /// Similarity of one window to the closest normal window (the detector's
    /// raw metric, before conversion to a response). Throws before train()
    /// and for a window of the wrong length or outside the alphabet.
    [[nodiscard]] std::uint64_t max_similarity_to_normal(SymbolView window) const;

    /// Number of distinct normal windows stored.
    [[nodiscard]] std::size_t normal_database_size() const;

private:
    /// Appends one normal window to the set and to the database.
    void add_normal(SymbolView window);

    /// max_similarity_to_normal() without its checks.
    [[nodiscard]] std::uint64_t similarity(SymbolView window) const noexcept;

    std::size_t window_length_;
    std::optional<NgramCodec> codec_;
    /// The distinct normal windows, packed: a window found here is identical
    /// to a normal window and scores the maximum without a scan.
    NgramMap known_;
    /// The normal windows in training order, position-major in blocks of
    /// four (lane_brodley.cpp): block b's run k holds symbol k of each of its
    /// windows, so the scan compares one test symbol with a block's symbols
    /// in one vector. Lanes past the last window repeat the first window of
    /// their block, which leaves every maximum unchanged.
    std::vector<Symbol> database_;
    std::size_t database_size_ = 0;  // windows in database_
};

}  // namespace adiv
