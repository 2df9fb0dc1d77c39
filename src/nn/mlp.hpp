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

/// One weighted training sample with a soft target distribution.
struct MlpSample {
    std::vector<double> input;    ///< size = input layer
    std::vector<double> target;   ///< size = output layer; sums to 1
    double weight = 1.0;          ///< relative contribution to the batch loss
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

    /// Weighted mean cross-entropy of the batch under current weights.
    [[nodiscard]] double loss(std::span<const MlpSample> batch) const;

    /// One full-batch gradient step with momentum; returns the pre-step loss.
    double train_epoch(std::span<const MlpSample> batch);

    /// Runs `epochs` epochs; returns the final loss().
    double train(std::span<const MlpSample> batch, std::size_t epochs);

    /// Flattened weights (for gradient checking and tests).
    [[nodiscard]] std::vector<double> parameters() const;
    void set_parameters(std::span<const double> params);

private:
    struct Layer {
        Matrix weights;        // out x in
        std::vector<double> bias;
        Matrix weight_velocity;
        std::vector<double> bias_velocity;
    };

    /// Per-sample scratch, reused across samples so a pass allocates
    /// nothing once warm.
    struct Workspace {
        std::vector<std::size_t> nonzero;  // input indices with x != 0, ascending
        std::vector<std::vector<double>> activations;  // [i] = layer i's output
    };

    /// Forward pass for one input. Layer 0 reads only the input's nonzero
    /// entries (the detectors feed one-hot contexts, mostly zeros).
    void forward_internal(std::span<const double> input, Workspace& ws) const;

    MlpConfig config_;
    std::vector<Layer> layers_;
};

/// Numerically stable softmax over logits, in place.
void softmax_inplace(std::span<double> logits);

}  // namespace adiv
