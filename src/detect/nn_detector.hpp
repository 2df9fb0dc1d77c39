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
//
// Scoring reads only what train() or load_model() wrote: the net's output
// distribution for every distinct training context, tabulated once, and for
// a context outside that table one forward pass into score()'s own scratch.
// Both come from the net's single forward pass, so a window's response is
// the same bits whichever path it takes. A saved model lists its training
// contexts after the parameters, so load_model() rebuilds the same table.
#pragma once

#include <iosfwd>

#include <cstdint>
#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "nn/mlp.hpp"
#include "seq/ngram.hpp"
#include "seq/ngram_map.hpp"

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
    /// one forward pass per call, never the table).
    [[nodiscard]] std::vector<double> predict(SymbolView context) const;

    /// Predicted probability of a DW-window's last symbol given the rest:
    /// the quantity score() quantizes, from the table for a training context
    /// and from a forward pass otherwise. Throws before train().
    [[nodiscard]] double continuation_probability(SymbolView window) const;

    /// Number of distinct training contexts tabulated.
    [[nodiscard]] std::size_t context_count() const noexcept { return contexts_.size(); }

private:
    /// Room for one forward pass on score()'s stack; see nn_detector.cpp.
    class ForwardScratch;

    /// continuation_probability() without its checks.
    [[nodiscard]] double probability(SymbolView window, ForwardScratch& scratch) const;

    /// Appends a context's output distribution to the table. Throws
    /// DataError for a context already in it.
    void tabulate(SymbolView context);

    std::size_t window_length_;
    NnDetectorConfig config_;
    ResponseQuantizer quantizer_;
    std::optional<NgramCodec> codec_;  // training alphabet; packs contexts
    std::optional<Mlp> net_;
    double training_loss_ = 0.0;
    /// Row of outputs_ for each distinct training context, keyed by the
    /// packed context; rows are numbered in training (and file) order.
    NgramMap contexts_;
    /// The net's output distribution for each tabulated context, one row of
    /// alphabet_size() probabilities per context.
    std::vector<double> outputs_;
};

}  // namespace adiv
