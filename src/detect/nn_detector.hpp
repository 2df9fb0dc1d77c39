// Neural-network detector (Debar, Becker & Siboni 1992).
//
// A multilayer feed-forward network predicts the next symbol from the
// current DW-1 symbols (one-hot encoded); the response for a window is
// derived from the predicted probability of the window's actual last symbol
// through the same quantizer the Markov detector uses. The learning
// mechanism approximates conditional probabilities without computing them
// explicitly — which is why, when well tuned, this detector "mimics" the
// Markov detector, and why its performance hangs on the balance of the
// learning constant, hidden-node count, and momentum constant (Section 7).
//
// Training detail: the stream is compressed to its distinct contexts with
// soft targets (the empirical continuation distribution) and weights that
// grow logarithmically with context frequency. The optimum of this weighted
// cross-entropy is the same conditional table; the log weighting only speeds
// convergence on rare contexts.
#pragma once

#include <iosfwd>

#include <cstdint>
#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "detect/score_memo.hpp"
#include "nn/mlp.hpp"
#include "seq/ngram.hpp"

namespace adiv {

struct NnDetectorConfig {
    std::size_t hidden_units = 16;   ///< hidden-layer size
    std::size_t epochs = 400;        ///< full-batch epochs
    double learning_rate = 0.5;      ///< Zurada's learning constant
    double momentum = 0.9;           ///< momentum constant
    double init_scale = 0.5;         ///< weight-init range
    double probability_floor = 0.005;///< response quantizer floor
    std::uint64_t seed = 7;          ///< weight-init seed
};

class NnDetector final : public SequenceDetector {
public:
    /// window_length must be >= 2 (one context symbol plus the prediction).
    explicit NnDetector(std::size_t window_length, NnDetectorConfig config = {});

    [[nodiscard]] std::string name() const override { return "neural-net"; }
    [[nodiscard]] std::size_t window_length() const override { return window_length_; }

    void train(const EventStream& training) override;
    [[nodiscard]] std::vector<double> score(const EventStream& test) const override;

    /// Writes the trained model body in the adiv text format; pair with
    /// load_model. Most callers use io/model_io, which adds a typed envelope.
    void save_model(std::ostream& out) const;
    /// Restores a model written by save_model. Throws DataError on corrupt,
    /// truncated, or inconsistent input.
    static NnDetector load_model(std::istream& in);

    /// Alphabet size of the training data; throws before train().
    [[nodiscard]] std::size_t alphabet_size() const override;

    [[nodiscard]] const NnDetectorConfig& config() const noexcept { return config_; }

    /// Final training loss (weighted cross-entropy); throws before train().
    [[nodiscard]] double training_loss() const;

    /// Predicted next-symbol distribution for a DW-1 context (diagnostics;
    /// uncached, one forward pass per call).
    [[nodiscard]] std::vector<double> predict(SymbolView context) const;

private:
    /// Predicted probability of a DW-window's last symbol given the rest:
    /// the memoized quantity score() quantizes.
    [[nodiscard]] double continuation_probability(SymbolView window) const;

    std::size_t window_length_;
    NnDetectorConfig config_;
    ResponseQuantizer quantizer_;
    std::optional<NgramCodec> codec_;  // training alphabet; packs memo keys
    std::optional<Mlp> net_;
    double training_loss_ = 0.0;
    /// Continuation probabilities memoized by packed DW-window; test streams
    /// repeat windows heavily, and a hit copies one double. Cleared on
    /// retrain; mutex-guarded, so concurrent score() calls stay safe.
    mutable ScoreMemo<NgramKey, double, NgramKeyHash> memo_;
};

}  // namespace adiv
