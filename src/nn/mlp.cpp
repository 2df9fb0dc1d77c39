#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
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

MlpBatch::MlpBatch(std::size_t input_size, std::size_t output_size)
    : input_size_(input_size), output_size_(output_size) {}

void MlpBatch::add(std::span<const std::size_t> indices, std::span<const double> values,
                   std::span<const double> target, double weight) {
    require(values.size() == indices.size(), "sample needs one value per input index");
    for (std::size_t k = 0; k < indices.size(); ++k)
        require(indices[k] < input_size_ && (k == 0 || indices[k - 1] < indices[k]),
                "sample input indices must ascend and stay below the input size");
    require(target.size() == output_size_, "sample target size mismatch");
    require(weight > 0.0, "sample weight must be positive");
    indices_.insert(indices_.end(), indices.begin(), indices.end());
    values_.insert(values_.end(), values.begin(), values.end());
    offsets_.push_back(indices_.size());
    targets_.insert(targets_.end(), target.begin(), target.end());
    weights_.push_back(weight);
}

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
    require(config_.layer_sizes.size() >= 2,
            "network needs at least input and output layers");
    for (std::size_t s : config_.layer_sizes)
        require(s > 0, "layer sizes must be positive");
    require(config_.learning_rate > 0.0, "learning rate must be positive");
    require(config_.momentum >= 0.0 && config_.momentum < 1.0,
            "momentum must be in [0,1)");
    require(config_.init_scale >= 0.0, "init scale must be non-negative");

    Rng rng(config_.seed);
    layers_.reserve(config_.layer_sizes.size() - 1);
    for (std::size_t i = 0; i + 1 < config_.layer_sizes.size(); ++i) {
        Layer layer;
        const std::size_t in = config_.layer_sizes[i];
        const std::size_t out = config_.layer_sizes[i + 1];
        layer.weights = Matrix(in, out);
        // Drawn in parameters() order (row-major out x in), so a seed gives
        // the same network whatever the storage layout.
        for (std::size_t r = 0; r < out; ++r)
            for (std::size_t c = 0; c < in; ++c)
                layer.weights.at(c, r) =
                    rng.uniform(-config_.init_scale, config_.init_scale);
        layer.bias.assign(out, 0.0);
        layer.weight_velocity = Matrix(in, out);
        layer.bias_velocity.assign(out, 0.0);
        layers_.push_back(std::move(layer));
        output_offsets_.push_back(output_offsets_.back() + out);
    }
}

std::span<const double> Mlp::forward(std::span<const std::size_t> indices,
                                     std::span<const double> values,
                                     std::span<double> scratch) const {
    require(scratch.size() >= forward_scratch_size(), "forward scratch too small");
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const Layer& layer = layers_[i];
        const std::span<double> z = layer_output(scratch, i);
        if (i == 0) {
            // Bit-identical to the dense product: each skipped term w * 0 is
            // an exact +-0, and adding +-0 to a sum that starts at +0 changes
            // nothing (finite weights, no FMA contraction).
            layer.weights.multiply_transposed(indices, values, z);
        } else {
            layer.weights.multiply_transposed(layer_output(scratch, i - 1), z);
        }
        for (std::size_t r = 0; r < z.size(); ++r) z[r] += layer.bias[r];
        if (i + 1 == layers_.size()) {
            softmax_inplace(z);
        } else {
            for (double& v : z) v = sigmoid(v);
        }
    }
    return layer_output(scratch, layers_.size() - 1);
}

std::vector<double> Mlp::forward(std::span<const double> input) const {
    require(input.size() == input_size(), "input size mismatch");
    std::vector<std::size_t> indices;
    std::vector<double> values;
    for (std::size_t c = 0; c < input.size(); ++c) {
        if (input[c] == 0.0) continue;
        indices.push_back(c);
        values.push_back(input[c]);
    }
    std::vector<double> scratch(forward_scratch_size());
    const std::span<const double> y = forward(indices, values, scratch);
    return {y.begin(), y.end()};
}

void Mlp::check_batch(const MlpBatch& batch) const {
    require(batch.size() > 0, "empty batch");
    require(batch.input_size() == input_size() && batch.output_size() == output_size(),
            "batch shape does not match the network");
}

double Mlp::loss(const MlpBatch& batch) const {
    check_batch(batch);
    double total_weight = 0.0;
    double total_loss = 0.0;
    std::vector<double> scratch(forward_scratch_size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::span<const double> y =
            forward(batch.indices(i), batch.values(i), scratch);
        const auto target = batch.target(i);
        double ce = 0.0;
        for (std::size_t c = 0; c < y.size(); ++c) {
            if (target[c] > 0.0) ce -= target[c] * std::log(std::max(y[c], 1e-300));
        }
        total_loss += batch.weight(i) * ce;
        total_weight += batch.weight(i);
    }
    return total_loss / total_weight;
}

void Mlp::step(const MlpBatch& batch, Workspace& ws, double* loss) {
    if (ws.weight_grads.empty()) {
        ws.activations.resize(forward_scratch_size());
        for (std::size_t li = 0; li < layers_.size(); ++li) {
            const Matrix& w = layers_[li].weights;
            ws.weight_grads.emplace_back(w.rows(), w.cols());
            ws.bias_grads.emplace_back(w.cols(), 0.0);
            // Layer 0 has no backward product, so it needs no copy.
            ws.out_major.push_back(li == 0 ? Matrix() : Matrix(w.cols(), w.rows()));
        }
    } else {
        for (Matrix& g : ws.weight_grads) g.fill(0.0);
        for (std::vector<double>& g : ws.bias_grads) std::fill(g.begin(), g.end(), 0.0);
    }
    // The backward product of layer li >= 1 sums, for each input unit c,
    // delta[r] * W[c][r] over outputs r in order: a sum of scaled rows of
    // the out x in copy, refreshed here because the weights move once per
    // step.
    for (std::size_t li = 1; li < layers_.size(); ++li) {
        const Matrix& w = layers_[li].weights;
        for (std::size_t c = 0; c < w.rows(); ++c)
            for (std::size_t r = 0; r < w.cols(); ++r)
                ws.out_major[li].at(r, c) = w.at(c, r);
    }

    // Each gradient element gains one term per sample, in batch order, as in
    // the row-major network. Skipping a zero delta there added nothing: a
    // +-0 term leaves a sum that starts at +0 unchanged.
    double total_weight = 0.0;
    double total_loss = 0.0;
    std::vector<double>& delta = ws.delta;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto indices = batch.indices(i);
        const auto values = batch.values(i);
        const auto target = batch.target(i);
        const double weight = batch.weight(i);
        const std::span<const double> y = forward(indices, values, ws.activations);
        if (loss != nullptr) {
            for (std::size_t c = 0; c < y.size(); ++c)
                if (target[c] > 0.0)
                    total_loss -= weight * target[c] * std::log(std::max(y[c], 1e-300));
        }
        total_weight += weight;

        // Softmax + cross-entropy: output delta is (y - t), scaled by weight.
        delta.resize(y.size());
        for (std::size_t c = 0; c < y.size(); ++c) delta[c] = weight * (y[c] - target[c]);

        for (std::size_t li = layers_.size() - 1; li > 0; --li) {
            const std::span<const double> in_act =
                layer_output(ws.activations, li - 1);
            Matrix& wg = ws.weight_grads[li];
            for (std::size_t c = 0; c < in_act.size(); ++c)
                axpy(in_act[c], delta, wg.row(c));
            std::vector<double>& bg = ws.bias_grads[li];
            for (std::size_t r = 0; r < delta.size(); ++r) bg[r] += delta[r];
            ws.prev_delta.resize(in_act.size());
            ws.out_major[li].multiply_transposed(delta, ws.prev_delta);
            for (std::size_t c = 0; c < in_act.size(); ++c)
                ws.prev_delta[c] *= in_act[c] * (1.0 - in_act[c]);  // sigmoid'
            std::swap(delta, ws.prev_delta);
        }
        // Layer 0: only the input's nonzero rows take gradient.
        for (std::size_t k = 0; k < indices.size(); ++k)
            axpy(values[k], delta, ws.weight_grads[0].row(indices[k]));
        for (std::size_t r = 0; r < delta.size(); ++r) ws.bias_grads[0][r] += delta[r];
    }

    const double step = config_.learning_rate / total_weight;
    for (std::size_t li = 0; li < layers_.size(); ++li) {
        Layer& layer = layers_[li];
        auto vel = layer.weight_velocity.flat();
        auto grad = ws.weight_grads[li].flat();
        auto w = layer.weights.flat();
        for (std::size_t i = 0; i < vel.size(); ++i) {
            vel[i] = config_.momentum * vel[i] - step * grad[i];
            w[i] += vel[i];
        }
        for (std::size_t r = 0; r < layer.bias.size(); ++r) {
            layer.bias_velocity[r] =
                config_.momentum * layer.bias_velocity[r] - step * ws.bias_grads[li][r];
            layer.bias[r] += layer.bias_velocity[r];
        }
    }
    if (loss != nullptr) *loss = total_loss / total_weight;
}

double Mlp::train_epoch(const MlpBatch& batch) {
    check_batch(batch);
    Workspace ws;
    double pre_step_loss = 0.0;
    step(batch, ws, &pre_step_loss);
    return pre_step_loss;
}

double Mlp::train(const MlpBatch& batch, std::size_t epochs) {
    check_batch(batch);
    Workspace ws;
    for (std::size_t e = 0; e < epochs; ++e) step(batch, ws, nullptr);
    return loss(batch);
}

std::vector<double> Mlp::parameters() const {
    std::vector<double> out;
    for (const Layer& layer : layers_) {
        for (std::size_t r = 0; r < layer.weights.cols(); ++r)
            for (std::size_t c = 0; c < layer.weights.rows(); ++c)
                out.push_back(layer.weights.at(c, r));
        out.insert(out.end(), layer.bias.begin(), layer.bias.end());
    }
    return out;
}

std::size_t Mlp::parameter_count(std::span<const std::size_t> layer_sizes) {
    std::size_t total = 0;
    for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
        // (in + 1) * out: the layer's weights plus its biases.
        std::size_t layer = 0;
        require(layer_sizes[i] < SIZE_MAX &&
                    !__builtin_mul_overflow(layer_sizes[i] + 1,
                                            layer_sizes[i + 1], &layer) &&
                    !__builtin_add_overflow(total, layer, &total),
                "network parameter count overflows");
    }
    return total;
}

void Mlp::set_parameters(std::span<const double> params) {
    std::size_t offset = 0;
    for (Layer& layer : layers_) {
        Matrix& w = layer.weights;
        require(offset + w.flat().size() + layer.bias.size() <= params.size(),
                "parameter vector too short");
        for (std::size_t r = 0; r < w.cols(); ++r)
            for (std::size_t c = 0; c < w.rows(); ++c) w.at(c, r) = params[offset++];
        std::copy(params.begin() + static_cast<std::ptrdiff_t>(offset),
                  params.begin() +
                      static_cast<std::ptrdiff_t>(offset + layer.bias.size()),
                  layer.bias.begin());
        offset += layer.bias.size();
    }
    require(offset == params.size(), "parameter vector size mismatch");
}

}  // namespace adiv
