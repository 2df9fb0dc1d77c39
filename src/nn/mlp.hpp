// Multilayer feed-forward network with sigmoid hidden layers, a softmax
// output layer, and full-batch gradient descent with momentum.
//
// This is the paper's neural-network detector substrate (Debar et al. 1992;
// Zurada's parameters: learning constant, number of hidden nodes, momentum
// constant). The network is trained to approximate the next-symbol
// conditional distribution of the training stream — training samples carry
// SOFT targets (the empirical distribution of continuations for a context)
// and weights (how often the context occurs), so the whole training stream is
// compressed into its distinct contexts without changing the optimum.
//
// Layout: each layer's weights are stored input-major (row c holds input c's
// outgoing weights), and training reads a packed batch that keeps only each
// sample's nonzero inputs. Every forward product is then a sum of scaled
// contiguous rows (Matrix::multiply_transposed, which keeps eight outputs'
// partial sums in registers), the backward product is the same kernel over
// an out x in copy of the layer that each training step refreshes, and every
// weight-gradient accumulation is an axpy over a contiguous row. Each sum
// still takes its terms in the order of the plain row-major network, one
// multiply and one add each, so the results match that network bit for bit.
// parameters() keeps the row-major out x in order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace adiv {

struct MlpConfig {
    /// Unit counts per layer, including input and output; at least 2 entries.
    std::vector<std::size_t> layer_sizes;
    double learning_rate = 0.5;   ///< Zurada's learning constant
    double momentum = 0.9;        ///< momentum constant
    double init_scale = 0.5;      ///< uniform weight-init range
    std::uint64_t seed = 7;       ///< weight-init seed
};

/// Weighted training samples with soft target distributions, packed: each
/// sample keeps only its nonzero inputs (the detectors feed one-hot
/// contexts, mostly zeros) as ascending (index, value) pairs, and targets and
/// weights sit in flat arrays.
class MlpBatch {
public:
    MlpBatch(std::size_t input_size, std::size_t output_size);

    /// Appends a sample whose nonzero inputs are values[k] at indices[k].
    /// Requires ascending indices below input_size(), as many values as
    /// indices, output_size() targets (a distribution) and a positive weight.
    void add(std::span<const std::size_t> indices, std::span<const double> values,
             std::span<const double> target, double weight);

    [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }
    [[nodiscard]] std::size_t input_size() const noexcept { return input_size_; }
    [[nodiscard]] std::size_t output_size() const noexcept { return output_size_; }

    /// Sample i's nonzero input indices (ascending) and their values.
    [[nodiscard]] std::span<const std::size_t> indices(std::size_t i) const noexcept {
        return std::span(indices_).subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
    }
    [[nodiscard]] std::span<const double> values(std::size_t i) const noexcept {
        return std::span(values_).subspan(offsets_[i], offsets_[i + 1] - offsets_[i]);
    }
    [[nodiscard]] std::span<const double> target(std::size_t i) const noexcept {
        return std::span(targets_).subspan(i * output_size_, output_size_);
    }
    /// Relative contribution of sample i to the batch loss.
    [[nodiscard]] double weight(std::size_t i) const noexcept { return weights_[i]; }

private:
    std::size_t input_size_;
    std::size_t output_size_;
    std::vector<std::size_t> offsets_{0};  // sample i: [offsets_[i], offsets_[i + 1])
    std::vector<std::size_t> indices_;
    std::vector<double> values_;
    std::vector<double> targets_;  // size() x output_size()
    std::vector<double> weights_;
};

class Mlp {
public:
    explicit Mlp(MlpConfig config);

    [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }
    [[nodiscard]] std::size_t input_size() const noexcept {
        return config_.layer_sizes.front();
    }
    [[nodiscard]] std::size_t output_size() const noexcept {
        return config_.layer_sizes.back();
    }

    /// Softmax class probabilities for one input.
    [[nodiscard]] std::vector<double> forward(std::span<const double> input) const;

    /// Doubles of scratch one forward pass writes: every layer's output.
    [[nodiscard]] std::size_t forward_scratch_size() const noexcept {
        return output_offsets_.back();
    }

    /// Softmax class probabilities for one input given by its nonzero
    /// entries (ascending indices below input_size(), one value each),
    /// computed in `scratch`, at least forward_scratch_size() doubles, which
    /// the result views. Allocates nothing. forward() and training run this
    /// same pass, so its result matches theirs bit for bit.
    std::span<const double> forward(std::span<const std::size_t> indices,
                                    std::span<const double> values,
                                    std::span<double> scratch) const;

    /// Weighted mean cross-entropy of the batch under current weights.
    [[nodiscard]] double loss(const MlpBatch& batch) const;

    /// One full-batch gradient step with momentum; returns the pre-step loss.
    double train_epoch(const MlpBatch& batch);

    /// Runs `epochs` steps, computing no per-step loss; returns the final
    /// loss().
    double train(const MlpBatch& batch, std::size_t epochs);

    /// Flattened weights, per layer the out x in weights row-major and then
    /// the biases (for gradient checking, tests and saved models).
    [[nodiscard]] std::vector<double> parameters() const;
    void set_parameters(std::span<const double> params);

    /// parameters().size() for a network of the given layer sizes, computed
    /// without building one. Throws InvalidArgument when it overflows.
    [[nodiscard]] static std::size_t parameter_count(
        std::span<const std::size_t> layer_sizes);

private:
    struct Layer {
        Matrix weights;  // in x out: row c holds input c's outgoing weights
        std::vector<double> bias;
        Matrix weight_velocity;
        std::vector<double> bias_velocity;
    };

    /// Scratch reused across samples and steps, so a pass allocates nothing
    /// once warm.
    struct Workspace {
        std::vector<double> activations;   // the forward pass's scratch
        std::vector<Matrix> weight_grads;  // shaped like the weights
        std::vector<std::vector<double>> bias_grads;
        std::vector<double> delta;
        std::vector<double> prev_delta;
        /// Layer li >= 1's weights out x in (row r holds output r's incoming
        /// weights), for the backward product; empty for layer 0.
        std::vector<Matrix> out_major;
    };

    /// Layer i's output within a forward pass's scratch.
    [[nodiscard]] std::span<double> layer_output(std::span<double> scratch,
                                                 std::size_t i) const noexcept {
        return scratch.subspan(output_offsets_[i],
                               output_offsets_[i + 1] - output_offsets_[i]);
    }

    /// One full-batch step; when `loss` is non-null, stores the pre-step
    /// loss there.
    void step(const MlpBatch& batch, Workspace& ws, double* loss);

    /// Requires the batch to be non-empty and shaped for this network.
    void check_batch(const MlpBatch& batch) const;

    MlpConfig config_;
    std::vector<Layer> layers_;
    /// Layer i's output sits at [output_offsets_[i], output_offsets_[i + 1])
    /// of a forward pass's scratch.
    std::vector<std::size_t> output_offsets_{0};
};

/// Numerically stable softmax over logits, in place.
void softmax_inplace(std::span<double> logits);

}  // namespace adiv
