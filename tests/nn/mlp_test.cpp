#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/encoding.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

MlpConfig xor_config() {
    MlpConfig cfg;
    cfg.layer_sizes = {2, 8, 2};
    cfg.learning_rate = 2.0;
    cfg.momentum = 0.9;
    cfg.seed = 3;
    return cfg;
}

/// A training sample written densely; pack() keeps its nonzero inputs.
struct DenseSample {
    std::vector<double> input;
    std::vector<double> target;
    double weight = 1.0;
};

MlpBatch pack(const std::vector<DenseSample>& samples) {
    MlpBatch batch(samples.front().input.size(), samples.front().target.size());
    for (const DenseSample& s : samples) {
        std::vector<std::size_t> indices;
        std::vector<double> values;
        for (std::size_t c = 0; c < s.input.size(); ++c) {
            if (s.input[c] == 0.0) continue;
            indices.push_back(c);
            values.push_back(s.input[c]);
        }
        batch.add(indices, values, s.target, s.weight);
    }
    return batch;
}

std::vector<DenseSample> xor_samples() {
    auto sample = [](double a, double b, std::size_t cls) {
        DenseSample s;
        s.input = {a, b};
        s.target = {0.0, 0.0};
        s.target[cls] = 1.0;
        return s;
    };
    return {sample(0, 0, 0), sample(0, 1, 1), sample(1, 0, 1), sample(1, 1, 0)};
}

MlpBatch xor_batch() { return pack(xor_samples()); }

TEST(Softmax, NormalizesAndOrders) {
    std::vector<double> v{1.0, 2.0, 3.0};
    softmax_inplace(v);
    EXPECT_NEAR(v[0] + v[1] + v[2], 1.0, 1e-12);
    EXPECT_LT(v[0], v[1]);
    EXPECT_LT(v[1], v[2]);
}

TEST(Softmax, StableForLargeLogits) {
    std::vector<double> v{1000.0, 1000.0};
    softmax_inplace(v);
    EXPECT_NEAR(v[0], 0.5, 1e-12);
}

TEST(Mlp, ForwardIsDistribution) {
    const Mlp net(xor_config());
    const auto y = net.forward(std::vector<double>{0.5, 0.5});
    ASSERT_EQ(y.size(), 2u);
    EXPECT_NEAR(y[0] + y[1], 1.0, 1e-12);
    EXPECT_GT(y[0], 0.0);
    EXPECT_GT(y[1], 0.0);
}

TEST(Mlp, RequiresAtLeastTwoLayers) {
    MlpConfig cfg;
    cfg.layer_sizes = {4};
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
}

TEST(Mlp, InvalidHyperparametersThrow) {
    MlpConfig cfg = xor_config();
    cfg.learning_rate = 0.0;
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
    cfg = xor_config();
    cfg.momentum = 1.0;
    EXPECT_THROW(Mlp{cfg}, InvalidArgument);
}

TEST(Mlp, WrongInputSizeThrows) {
    const Mlp net(xor_config());
    EXPECT_THROW((void)net.forward(std::vector<double>{1.0}), InvalidArgument);
}

TEST(Mlp, TrainingReducesLoss) {
    Mlp net(xor_config());
    const auto batch = xor_batch();
    const double before = net.loss(batch);
    net.train(batch, 200);
    EXPECT_LT(net.loss(batch), before);
}

TEST(Mlp, LearnsXor) {
    Mlp net(xor_config());
    net.train(xor_batch(), 2000);
    for (const auto& s : xor_samples()) {
        const auto y = net.forward(s.input);
        const std::size_t predicted = y[0] > y[1] ? 0 : 1;
        const std::size_t expected = s.target[0] > s.target[1] ? 0 : 1;
        EXPECT_EQ(predicted, expected);
    }
}

TEST(Mlp, FitsSoftTargets) {
    // A single input with target (0.7, 0.3): trained long enough, the output
    // converges to the target distribution (the cross-entropy optimum).
    MlpConfig cfg;
    cfg.layer_sizes = {1, 4, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 11;
    Mlp net(cfg);
    net.train(pack({{{1.0}, {0.7, 0.3}, 1.0}}), 3000);
    const auto y = net.forward(std::vector<double>{1.0});
    EXPECT_NEAR(y[0], 0.7, 0.02);
    EXPECT_NEAR(y[1], 0.3, 0.02);
}

TEST(Mlp, WeightsScaleSampleInfluence) {
    // Two conflicting samples with the same input; the heavier one wins.
    MlpConfig cfg;
    cfg.layer_sizes = {1, 4, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 13;
    Mlp net(cfg);
    net.train(pack({{{1.0}, {1.0, 0.0}, 9.0}, {{1.0}, {0.0, 1.0}, 1.0}}), 3000);
    const auto y = net.forward(std::vector<double>{1.0});
    EXPECT_NEAR(y[0], 0.9, 0.03);  // optimum = weighted mean of targets
}

TEST(Mlp, DeterministicForSeed) {
    Mlp a(xor_config()), b(xor_config());
    const auto batch = xor_batch();
    a.train(batch, 50);
    b.train(batch, 50);
    EXPECT_EQ(a.parameters(), b.parameters());
}

TEST(Mlp, ParameterRoundTrip) {
    Mlp net(xor_config());
    const auto params = net.parameters();
    Mlp other(xor_config());
    other.train(xor_batch(), 10);
    other.set_parameters(params);
    EXPECT_EQ(other.parameters(), params);
    // Identical parameters produce identical outputs.
    const std::vector<double> x{0.3, 0.6};
    EXPECT_EQ(net.forward(x), other.forward(x));
}

TEST(Mlp, SetParametersWrongSizeThrows) {
    Mlp net(xor_config());
    std::vector<double> too_short(3, 0.0);
    EXPECT_THROW(net.set_parameters(too_short), InvalidArgument);
}

TEST(Mlp, GradientMatchesFiniteDifference) {
    // One plain SGD step (momentum 0, so step = -lr * grad) must agree with
    // the numerical gradient of the batch loss.
    MlpConfig cfg;
    cfg.layer_sizes = {2, 3, 2};
    cfg.learning_rate = 1.0;
    cfg.momentum = 0.0;
    cfg.seed = 17;

    const auto batch = xor_batch();
    Mlp net(cfg);
    const std::vector<double> params = net.parameters();

    // Analytic gradient from the parameter delta of one epoch.
    Mlp stepper(cfg);
    stepper.set_parameters(params);
    stepper.train_epoch(batch);
    const std::vector<double> stepped = stepper.parameters();

    const double eps = 1e-6;
    for (std::size_t i = 0; i < params.size(); i += 3) {  // sample every 3rd
        std::vector<double> plus = params, minus = params;
        plus[i] += eps;
        minus[i] -= eps;
        Mlp probe(cfg);
        probe.set_parameters(plus);
        const double lp = probe.loss(batch);
        probe.set_parameters(minus);
        const double lm = probe.loss(batch);
        const double numeric_grad = (lp - lm) / (2 * eps);
        const double analytic_grad = params[i] - stepped[i];  // lr = 1
        EXPECT_NEAR(analytic_grad, numeric_grad, 1e-5)
            << "gradient mismatch at parameter " << i;
    }
}

TEST(Mlp, EmptyBatchThrows) {
    Mlp net(xor_config());
    const MlpBatch empty(2, 2);
    EXPECT_THROW((void)net.train_epoch(empty), InvalidArgument);
    EXPECT_THROW((void)net.loss(empty), InvalidArgument);
}

TEST(Mlp, NonPositiveSampleWeightThrows) {
    MlpBatch batch(2, 2);
    const std::vector<std::size_t> indices{0};
    const std::vector<double> values{1.0};
    const std::vector<double> target{1.0, 0.0};
    EXPECT_THROW(batch.add(indices, values, target, 0.0), InvalidArgument);
    EXPECT_THROW(batch.add(indices, values, target, -1.0), InvalidArgument);
    EXPECT_EQ(batch.size(), 0u);
}

TEST(Mlp, BatchShapeMismatchThrows) {
    Mlp net(xor_config());
    MlpBatch wide(3, 2);
    wide.add(std::vector<std::size_t>{2}, std::vector<double>{1.0},
             std::vector<double>{1.0, 0.0}, 1.0);
    EXPECT_THROW((void)net.train_epoch(wide), InvalidArgument);
    EXPECT_THROW((void)net.loss(wide), InvalidArgument);
}

TEST(MlpBatch, PacksNonzeroInputsTargetsAndWeights) {
    const MlpBatch batch = pack({{{0.0, 2.0, 0.0, 3.0}, {0.25, 0.75}, 2.0},
                                 {{0.0, 0.0, 0.0, 0.0}, {1.0, 0.0}, 0.5}});
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.input_size(), 4u);
    EXPECT_EQ(batch.output_size(), 2u);
    EXPECT_EQ(std::vector<std::size_t>(batch.indices(0).begin(), batch.indices(0).end()),
              (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(std::vector<double>(batch.values(0).begin(), batch.values(0).end()),
              (std::vector<double>{2.0, 3.0}));
    EXPECT_TRUE(batch.indices(1).empty());
    EXPECT_EQ(batch.target(1)[0], 1.0);
    EXPECT_EQ(batch.weight(0), 2.0);
    EXPECT_EQ(batch.weight(1), 0.5);
}

TEST(MlpBatch, RejectsMalformedSamples) {
    MlpBatch batch(4, 2);
    const std::vector<double> target{1.0, 0.0};
    const std::vector<double> two{1.0, 1.0};
    EXPECT_THROW(batch.add(std::vector<std::size_t>{2, 1}, two, target, 1.0),
                 InvalidArgument);  // not ascending
    EXPECT_THROW(batch.add(std::vector<std::size_t>{1, 1}, two, target, 1.0),
                 InvalidArgument);  // repeated
    EXPECT_THROW(batch.add(std::vector<std::size_t>{1, 4}, two, target, 1.0),
                 InvalidArgument);  // past the input layer
    EXPECT_THROW(batch.add(std::vector<std::size_t>{1}, two, target, 1.0),
                 InvalidArgument);  // one value per index
    EXPECT_THROW(batch.add(std::vector<std::size_t>{1}, std::vector<double>{1.0},
                           std::vector<double>{1.0}, 1.0),
                 InvalidArgument);  // target size
    EXPECT_EQ(batch.size(), 0u);
}

TEST(Mlp, TrainIsRepeatedTrainEpochBitForBit) {
    // train() skips the per-step loss; the steps themselves are the same.
    Mlp stepped(xor_config()), trained(xor_config());
    const MlpBatch batch = xor_batch();
    for (int e = 0; e < 25; ++e) (void)stepped.train_epoch(batch);
    const double final_loss = trained.train(batch, 25);
    EXPECT_EQ(trained.parameters(), stepped.parameters());
    EXPECT_EQ(final_loss, stepped.loss(batch));
}

TEST(Mlp, DeepNetworkTrains) {
    MlpConfig cfg;
    cfg.layer_sizes = {2, 6, 6, 2};
    cfg.learning_rate = 1.0;
    cfg.seed = 19;
    Mlp net(cfg);
    const auto batch = xor_batch();
    const double before = net.loss(batch);
    net.train(batch, 500);
    EXPECT_LT(net.loss(batch), before);
}

// --- One-hot inputs against a dense reference -----------------------------
//
// Mlp stores its weights input-major, trains on packed batches, reads only
// the input's nonzero entries and sums eight outputs at a time in registers.
// The reference below is the plain dense row-major network written as plain
// loops; the two must agree bit for bit, because each sum takes its terms in
// the same order and each term the one-hot path skips is w * 0. The shapes
// cover a net narrower than one eight-output block, the paper's net (context
// 14, alphabet 8, 16 hidden units: whole blocks) and widths that leave a
// remainder.

struct OneHotShape {
    std::size_t context;
    std::size_t alphabet;
    std::size_t hidden;
};

constexpr OneHotShape kShapes[] = {{7, 4, 6}, {14, 8, 16}, {5, 11, 19}};

std::string describe(const OneHotShape& shape) {
    return "context " + std::to_string(shape.context) + ", alphabet " +
           std::to_string(shape.alphabet) + ", hidden " + std::to_string(shape.hidden);
}

MlpConfig one_hot_config(const OneHotShape& shape) {
    MlpConfig cfg;
    cfg.layer_sizes = {one_hot_size(shape.context, shape.alphabet), shape.hidden,
                       shape.alphabet};
    cfg.learning_rate = 0.5;
    cfg.momentum = 0.9;
    cfg.seed = 23;
    return cfg;
}

/// The one_hot_config() network with full-precision weights. The seeded
/// initializer draws multiples of 2^-53, whose small sums are exact in any
/// order, so it would hide a change in summation order.
Mlp one_hot_net(const OneHotShape& shape) {
    Mlp net(one_hot_config(shape));
    std::vector<double> params = net.parameters();
    for (std::size_t i = 0; i < params.size(); ++i)
        params[i] = 0.5 * std::sin(1.0 + static_cast<double>(i));
    net.set_parameters(params);
    return net;
}

std::vector<DenseSample> one_hot_samples(const OneHotShape& shape) {
    const std::size_t n = shape.alphabet;
    std::vector<DenseSample> batch;
    for (std::size_t i = 0; i < 6; ++i) {
        Sequence context(shape.context);
        for (std::size_t k = 0; k < shape.context; ++k)
            context[k] = static_cast<Symbol>((i + 3 * k + k * k) % n);
        DenseSample s;
        s.input = one_hot_context(context, n);
        s.target.assign(n, 0.0);
        s.target[(i + 3) % n] = 0.75;
        s.target[(i + 1) % n] = 0.25;
        s.weight = 1.0 + static_cast<double>(i);
        batch.push_back(std::move(s));
    }
    return batch;
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
    std::vector<std::uint64_t> out;
    for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
}

/// The one_hot_config() network as dense row-major arrays, unpacked from
/// Mlp::parameters() (per layer: weights out x in, then biases), with its
/// own momentum state. Every product is a plain loop.
struct DenseNet {
    std::size_t in;
    std::size_t hidden;
    std::size_t out;
    std::vector<double> w0, b0, w1, b1;  // parameters
    std::vector<double> v0, vb0, v1, vb1;  // their velocities

    DenseNet(const OneHotShape& shape, const std::vector<double>& params)
        : in(one_hot_size(shape.context, shape.alphabet)),
          hidden(shape.hidden),
          out(shape.alphabet) {
        auto next = params.begin();
        const auto take = [&next](std::size_t n) {
            std::vector<double> part(next, next + static_cast<std::ptrdiff_t>(n));
            next += static_cast<std::ptrdiff_t>(n);
            return part;
        };
        w0 = take(hidden * in);
        b0 = take(hidden);
        w1 = take(out * hidden);
        b1 = take(out);
        v0.assign(w0.size(), 0.0);
        vb0.assign(b0.size(), 0.0);
        v1.assign(w1.size(), 0.0);
        vb1.assign(b1.size(), 0.0);
    }

    [[nodiscard]] std::vector<double> parameters() const {
        std::vector<double> p(w0);
        p.insert(p.end(), b0.begin(), b0.end());
        p.insert(p.end(), w1.begin(), w1.end());
        p.insert(p.end(), b1.begin(), b1.end());
        return p;
    }

    /// Dense forward pass; `h` receives the sigmoid layer's output.
    std::vector<double> forward(const std::vector<double>& x,
                                std::vector<double>& h) const {
        h.assign(hidden, 0.0);
        for (std::size_t r = 0; r < hidden; ++r) {
            double sum = 0.0;
            for (std::size_t c = 0; c < in; ++c) sum += w0[r * in + c] * x[c];
            h[r] = 1.0 / (1.0 + std::exp(-(sum + b0[r])));
        }
        std::vector<double> y(out);
        for (std::size_t r = 0; r < out; ++r) {
            double sum = 0.0;
            for (std::size_t c = 0; c < hidden; ++c) sum += w1[r * hidden + c] * h[c];
            y[r] = sum + b1[r];
        }
        softmax_inplace(y);
        return y;
    }

    /// One full-batch momentum step, every weight's gradient accumulated
    /// densely; returns the pre-step loss.
    double epoch(const std::vector<DenseSample>& batch, const MlpConfig& cfg) {
        std::vector<double> g0(w0.size()), gb0(hidden), g1(w1.size()), gb1(out);
        double total_loss = 0.0;
        double total_weight = 0.0;
        for (const DenseSample& s : batch) {
            std::vector<double> h;
            const std::vector<double> y = forward(s.input, h);
            for (std::size_t c = 0; c < out; ++c)
                if (s.target[c] > 0.0)
                    total_loss -= s.weight * s.target[c] * std::log(std::max(y[c], 1e-300));
            total_weight += s.weight;
            std::vector<double> d1(out);
            for (std::size_t c = 0; c < out; ++c) d1[c] = s.weight * (y[c] - s.target[c]);
            for (std::size_t r = 0; r < out; ++r) {
                for (std::size_t c = 0; c < hidden; ++c) g1[r * hidden + c] += d1[r] * h[c];
                gb1[r] += d1[r];
            }
            std::vector<double> d0(hidden);
            for (std::size_t c = 0; c < hidden; ++c) {
                double sum = 0.0;
                for (std::size_t r = 0; r < out; ++r) sum += d1[r] * w1[r * hidden + c];
                d0[c] = sum * (h[c] * (1.0 - h[c]));
            }
            for (std::size_t r = 0; r < hidden; ++r) {
                for (std::size_t c = 0; c < in; ++c) g0[r * in + c] += d0[r] * s.input[c];
                gb0[r] += d0[r];
            }
        }
        const double step = cfg.learning_rate / total_weight;
        auto update = [&](std::vector<double>& w, std::vector<double>& v,
                          const std::vector<double>& g) {
            for (std::size_t i = 0; i < w.size(); ++i) {
                v[i] = cfg.momentum * v[i] - step * g[i];
                w[i] += v[i];
            }
        };
        update(w0, v0, g0);
        update(b0, vb0, gb0);
        update(w1, v1, g1);
        update(b1, vb1, gb1);
        return total_loss / total_weight;
    }
};

TEST(MlpOneHot, ForwardMatchesDenseReferenceBitForBit) {
    for (const OneHotShape& shape : kShapes) {
        SCOPED_TRACE(describe(shape));
        const Mlp net = one_hot_net(shape);
        const DenseNet dense(shape, net.parameters());
        for (const DenseSample& s : one_hot_samples(shape)) {
            std::vector<double> hidden;
            EXPECT_EQ(bits(net.forward(s.input)), bits(dense.forward(s.input, hidden)));
        }
    }
}

TEST(MlpOneHot, TrainEpochMatchesDenseReferenceBitForBit) {
    // Several epochs, so momentum carries velocity from step to step, both
    // one train_epoch() at a time and through train(), which reuses one
    // workspace (and so its per-step copy of the weights) across steps.
    constexpr std::size_t kEpochs = 3;
    for (const OneHotShape& shape : kShapes) {
        SCOPED_TRACE(describe(shape));
        const MlpConfig cfg = one_hot_config(shape);
        const auto samples = one_hot_samples(shape);
        const MlpBatch batch = pack(samples);
        Mlp net = one_hot_net(shape);
        Mlp trained = one_hot_net(shape);
        const std::vector<double> before = net.parameters();
        DenseNet dense(shape, before);
        for (std::size_t e = 0; e < kEpochs; ++e) {
            const double loss = net.train_epoch(batch);
            const double dense_loss = dense.epoch(samples, cfg);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(loss),
                      std::bit_cast<std::uint64_t>(dense_loss))
                << "epoch " << e;
            EXPECT_EQ(bits(net.parameters()), bits(dense.parameters())) << "epoch " << e;
        }
        (void)trained.train(batch, kEpochs);
        EXPECT_EQ(bits(trained.parameters()), bits(dense.parameters()));
        // The stepped weights really moved, so the comparison is not vacuous.
        EXPECT_NE(bits(net.parameters()), bits(before));
    }
}

}  // namespace
}  // namespace adiv
