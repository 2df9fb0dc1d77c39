#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace adiv {

void softmax_inplace(std::span<double> logits) {
    double max_logit = logits[0];
    for (double v : logits) max_logit = std::max(max_logit, v);
    double sum = 0.0;
    for (double& v : logits) {
        v = std::exp(v - max_logit);
        sum += v;
    }
    for (double& v : logits) v /= sum;
}

namespace {
double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
    require(config_.layer_sizes.size() >= 2,
            "network needs at least input and output layers");
    for (std::size_t s : config_.layer_sizes)
        require(s > 0, "layer sizes must be positive");
    require(config_.learning_rate > 0.0, "learning rate must be positive");
    require(config_.momentum >= 0.0 && config_.momentum < 1.0,
            "momentum must be in [0,1)");

    Rng rng(config_.seed);
    layers_.reserve(config_.layer_sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < config_.layer_sizes.size(); ++i) {
        Layer layer;
        const std::size_t in = config_.layer_sizes[i];
        const std::size_t out = config_.layer_sizes[i + 1];
        layer.weights = Matrix(out, in);
        layer.weights.randomize(rng, config_.init_scale);
        layer.bias.assign(out, 0.0);
        layer.weight_velocity = Matrix(out, in);
        layer.bias_velocity.assign(out, 0.0);
        layers_.push_back(std::move(layer));
    }
}

void Mlp::forward_internal(std::span<const double> input, Workspace& ws) const {
    require(input.size() == input_size(), "input size mismatch");
    ws.nonzero.clear();
    for (std::size_t c = 0; c < input.size(); ++c)
        if (input[c] != 0.0) ws.nonzero.push_back(c);
    ws.activations.resize(layers_.size());
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer& layer = layers_[i];
        std::vector<double>& z = ws.activations[i];
        z.resize(layer.weights.rows());
        if (i == 0) {
            // Bit-identical to weights.multiply(input, z): each skipped term
            // w * 0 is an exact +-0, and adding +-0 to a sum that starts at
            // +0 changes nothing (finite weights, no FMA contraction).
            for (std::size_t r = 0; r < z.size(); ++r) {
                const auto w = layer.weights.row(r);
                double acc = 0.0;
                for (const std::size_t c : ws.nonzero) acc += w[c] * input[c];
                z[r] = acc;
            }
        } else {
            layer.weights.multiply(ws.activations[i - 1], z);
        }
        for (std::size_t r = 0; r < z.size(); ++r) z[r] += layer.bias[r];
        if (i + 1 == layers_.size()) {
            softmax_inplace(z);
        } else {
            for (double& v : z) v = sigmoid(v);
        }
    }
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
    Workspace ws;
    forward_internal(input, ws);
    return std::move(ws.activations.back());
}

double Mlp::loss(std::span<const MlpSample> batch) const {
    require(!batch.empty(), "loss over empty batch");
    double total_weight = 0.0;
    double total_loss = 0.0;
    Workspace ws;
    for (const MlpSample& sample : batch) {
        forward_internal(sample.input, ws);
        const std::vector<double>& y = ws.activations.back();
        double ce = 0.0;
        for (std::size_t c = 0; c < y.size(); ++c) {
            if (sample.target[c] > 0.0)
                ce -= sample.target[c] * std::log(std::max(y[c], 1e-300));
        }
        total_loss += sample.weight * ce;
        total_weight += sample.weight;
    }
    return total_loss / total_weight;
}

double Mlp::train_epoch(std::span<const MlpSample> batch) {
    require(!batch.empty(), "training over empty batch");

    std::vector<Matrix> weight_grads;
    std::vector<std::vector<double>> bias_grads;
    weight_grads.reserve(layers_.size());
    bias_grads.reserve(layers_.size());
    for (const Layer& layer : layers_) {
        weight_grads.emplace_back(layer.weights.rows(), layer.weights.cols());
        bias_grads.emplace_back(layer.bias.size(), 0.0);
    }

    double total_weight = 0.0;
    double total_loss = 0.0;
    Workspace ws;
    std::vector<double> delta;
    std::vector<double> prev_delta;
    for (const MlpSample& sample : batch) {
        require(sample.input.size() == input_size(), "sample input size mismatch");
        require(sample.target.size() == output_size(), "sample target size mismatch");
        require(sample.weight > 0.0, "sample weight must be positive");
        forward_internal(sample.input, ws);
        const std::vector<double>& y = ws.activations.back();
        for (std::size_t c = 0; c < y.size(); ++c)
            if (sample.target[c] > 0.0)
                total_loss -=
                    sample.weight * sample.target[c] * std::log(std::max(y[c], 1e-300));
        total_weight += sample.weight;

        // Softmax + cross-entropy: output delta is (y - t), scaled by weight.
        delta.resize(y.size());
        for (std::size_t c = 0; c < y.size(); ++c)
            delta[c] = sample.weight * (y[c] - sample.target[c]);

        for (std::size_t li = layers_.size() - 1; li > 0; --li) {
            const std::vector<double>& in_act = ws.activations[li - 1];
            Matrix& wg = weight_grads[li];
            std::vector<double>& bg = bias_grads[li];
            for (std::size_t r = 0; r < delta.size(); ++r) {
                const double d = delta[r];
                if (d == 0.0) continue;
                auto row = wg.row(r);
                for (std::size_t c = 0; c < in_act.size(); ++c)
                    row[c] += d * in_act[c];
                bg[r] += d;
            }
            prev_delta.resize(in_act.size());
            layers_[li].weights.multiply_transposed(delta, prev_delta);
            for (std::size_t c = 0; c < prev_delta.size(); ++c)
                prev_delta[c] *= in_act[c] * (1.0 - in_act[c]);  // sigmoid'
            std::swap(delta, prev_delta);
        }
        // Layer 0: only the input's nonzero columns take gradient. d * 0 is
        // an exact +-0, which leaves the +0-initialized sums unchanged.
        for (std::size_t r = 0; r < delta.size(); ++r) {
            const double d = delta[r];
            if (d == 0.0) continue;
            auto row = weight_grads[0].row(r);
            for (const std::size_t c : ws.nonzero) row[c] += d * sample.input[c];
            bias_grads[0][r] += d;
        }
    }

    const double step = config_.learning_rate / total_weight;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        Layer& layer = layers_[li];
        auto vel = layer.weight_velocity.flat();
        auto grad = weight_grads[li].flat();
        auto w = layer.weights.flat();
        for (std::size_t i = 0; i < vel.size(); ++i) {
            vel[i] = config_.momentum * vel[i] - step * grad[i];
            w[i] += vel[i];
        }
        for (std::size_t r = 0; r < layer.bias.size(); ++r) {
            layer.bias_velocity[r] =
                config_.momentum * layer.bias_velocity[r] - step * bias_grads[li][r];
            layer.bias[r] += layer.bias_velocity[r];
        }
    }
    return total_loss / total_weight;
}

double Mlp::train(std::span<const MlpSample> batch, std::size_t epochs) {
    for (std::size_t e = 0; e < epochs; ++e) train_epoch(batch);
    return loss(batch);
}

std::vector<double> Mlp::parameters() const {
    std::vector<double> out;
    for (const Layer& layer : layers_) {
        const auto flat = layer.weights.flat();
        out.insert(out.end(), flat.begin(), flat.end());
        out.insert(out.end(), layer.bias.begin(), layer.bias.end());
    }
    return out;
}

void Mlp::set_parameters(std::span<const double> params) {
    std::size_t offset = 0;
    for (Layer& layer : layers_) {
        auto flat = layer.weights.flat();
        require(offset + flat.size() + layer.bias.size() <= params.size(),
                "parameter vector too short");
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() + static_cast<std::ptrdiff_t>(offset + flat.size()),
                  flat.begin());
        offset += flat.size();
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() +
                      static_cast<std::ptrdiff_t>(offset + layer.bias.size()),
                  layer.bias.begin());
        offset += layer.bias.size();
    }
    require(offset == params.size(), "parameter vector size mismatch");
}

}  // namespace adiv
