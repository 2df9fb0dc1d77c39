#include "detect/nn_detector.hpp"

#include <array>
#include <cmath>

#include "nn/encoding.hpp"
#include "seq/conditional_model.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

/// A context's one-hot input and the net's activations for one forward pass,
/// held on score()'s stack: a context is at most 127 symbols (a window fits
/// the 128-bit codec), and the activations (hidden units plus alphabet, 24
/// doubles for the paper's nets) fit kStackDoubles for any net up to that
/// width. A wider net gets one heap buffer, made at its first novel context.
class NnDetector::ForwardScratch {
public:
    /// The forward pass's output distribution for `context`, whose symbols
    /// must lie within `alphabet` (checked by the stream they come from).
    std::span<const double> forward(const Mlp& net, SymbolView context,
                                    std::size_t alphabet) {
        for (std::size_t k = 0; k < context.size(); ++k)
            indices_[k] = k * alphabet + context[k];
        std::span<double> activations(stack_);
        if (net.forward_scratch_size() > stack_.size()) {
            heap_.resize(net.forward_scratch_size());
            activations = heap_;
        }
        return net.forward(std::span(indices_).first(context.size()),
                           std::span(kOnes).first(context.size()), activations);
    }

private:
    static constexpr std::size_t kMaxContext = 128;
    static constexpr std::size_t kStackDoubles = 512;
    static constexpr std::array<double, kMaxContext> kOnes = [] {
        std::array<double, kMaxContext> ones{};
        ones.fill(1.0);
        return ones;
    }();

    std::array<std::size_t, kMaxContext> indices_{};
    std::array<double, kStackDoubles> stack_{};
    std::vector<double> heap_;
};

NnDetector::NnDetector(std::size_t window_length, NnDetectorConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 2,
            "neural-net window length must be at least 2 (one context symbol "
            "plus the predicted symbol)");
    require(config_.hidden_units >= 1, "need at least one hidden unit");
    require(config_.epochs >= 1, "need at least one training epoch");
    require(config_.probability_floor >= 0.0 && config_.probability_floor < 1.0,
            "probability floor must be in [0,1)");
    quantizer_.probability_floor = config_.probability_floor;
}

void NnDetector::train(const EventStream& training) {
    const std::size_t alphabet = training.alphabet_size();
    contexts_ = NgramMap{};
    outputs_.clear();

    const std::size_t context_len = window_length_ - 1;
    const ConditionalModel model(training, context_len);
    codec_.emplace(alphabet);  // the model checked DW against its capacity

    {
        // One packed sample per distinct context, in distributions() order:
        // its one-hot positions, its continuation distribution, its log
        // weight. The batch is freed before the table, which is as large.
        MlpBatch batch(one_hot_size(context_len, alphabet), alphabet);
        const std::vector<double> ones(context_len, 1.0);
        std::vector<double> target(alphabet);
        for (const ContextDistribution& dist : model.distributions()) {
            for (std::size_t c = 0; c < alphabet; ++c)
                target[c] = static_cast<double>(dist.next_counts[c]) /
                            static_cast<double>(dist.total);
            batch.add(one_hot_indices(dist.context, alphabet), ones, target,
                      std::log2(1.0 + static_cast<double>(dist.total)));
        }

        MlpConfig net_config;
        net_config.layer_sizes = {one_hot_size(context_len, alphabet),
                                  config_.hidden_units, alphabet};
        net_config.learning_rate = config_.learning_rate;
        net_config.momentum = config_.momentum;
        net_config.init_scale = config_.init_scale;
        net_config.seed = config_.seed;
        net_.emplace(net_config);
        training_loss_ = net_->train(batch, config_.epochs);
    }
    outputs_.reserve(model.distributions().size() * alphabet);
    for (const ContextDistribution& dist : model.distributions())
        tabulate(dist.context);
}

void NnDetector::tabulate(SymbolView context) {
    const std::vector<double> distribution = predict(context);
    const std::size_t rows = contexts_.size();
    std::uint64_t& row = contexts_[codec_->encode(context)];
    require_data(contexts_.size() > rows, "neural-net context listed twice");
    row = rows;
    outputs_.insert(outputs_.end(), distribution.begin(), distribution.end());
}

std::vector<double> NnDetector::predict(SymbolView context) const {
    require(net_.has_value(), "neural-net detector must be trained before use");
    require(context.size() == window_length_ - 1, "context length mismatch");
    return net_->forward(one_hot_context(context, codec_->alphabet_size()));
}

double NnDetector::probability(SymbolView window, ForwardScratch& scratch) const {
    const SymbolView context = window.first(window_length_ - 1);
    const Symbol next = window.back();
    const std::size_t alphabet = codec_->alphabet_size();
    if (const std::uint64_t* row = contexts_.find(codec_->encode(context)))
        return outputs_[*row * alphabet + next];
    return scratch.forward(*net_, context, alphabet)[next];
}

double NnDetector::continuation_probability(SymbolView window) const {
    require(net_.has_value(), "neural-net detector must be trained before use");
    require(window.size() == window_length_, "window length mismatch");
    for (const Symbol s : window)
        require(s < codec_->alphabet_size(), "window symbol outside alphabet");
    ForwardScratch scratch;
    return probability(window, scratch);
}

std::vector<double> NnDetector::score(const EventStream& test) const {
    require(net_.has_value(), "neural-net detector must be trained before scoring");
    require(test.alphabet_size() == codec_->alphabet_size(),
            "test alphabet does not match training alphabet");
    ForwardScratch scratch;
    std::vector<double> responses;
    responses.reserve(test.window_count(window_length_));
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        responses.push_back(
            quantizer_.response_for_probability(probability(w, scratch)));
    });
    return responses;
}

double NnDetector::training_loss() const {
    require(net_.has_value(), "neural-net detector is not trained");
    return training_loss_;
}


void NnDetector::save_model(std::ostream& out) const {
    require(net_.has_value(), "cannot save an untrained neural-net model");
    out << window_length_ << ' ' << codec_->alphabet_size() << ' ' << config_.hidden_units
        << ' ' << config_.epochs << ' ';
    write_double(out, config_.learning_rate);
    out << ' ';
    write_double(out, config_.momentum);
    out << ' ';
    write_double(out, config_.init_scale);
    out << ' ';
    write_double(out, config_.probability_floor);
    out << ' ' << config_.seed << ' ';
    write_double(out, training_loss_);
    const std::vector<double> params = net_->parameters();
    out << ' ' << params.size() << '\n';
    for (double p : params) {
        write_double(out, p);
        out << '\n';
    }
    // The training contexts, one per line in table-row order, so a loaded
    // model tabulates the same distributions.
    std::vector<NgramKey> by_row(contexts_.size());
    contexts_.for_each([&](NgramKey key, std::uint64_t row) { by_row[row] = key; });
    out << by_row.size() << '\n';
    for (const NgramKey key : by_row) {
        const Sequence context = codec_->decode(key, window_length_ - 1);
        for (std::size_t k = 0; k < context.size(); ++k)
            out << (k == 0 ? "" : " ") << context[k];
        out << '\n';
    }
}

NnDetector NnDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    NnDetectorConfig config;
    config.hidden_units = read_size(in, "hidden units");
    config.epochs = read_size(in, "epochs");
    config.learning_rate = read_double(in, "learning rate");
    config.momentum = read_double(in, "momentum");
    config.init_scale = read_double(in, "init scale");
    config.probability_floor = read_double(in, "probability floor");
    config.seed = read_u64(in, "seed");
    NnDetector detector(window, config);
    detector.codec_.emplace(alphabet);
    require(window <= detector.codec_->max_length(),
            "window length exceeds codec capacity");
    detector.training_loss_ = read_double(in, "training loss");

    MlpConfig net_config;
    net_config.layer_sizes = {one_hot_size(window - 1, alphabet),
                              config.hidden_units, alphabet};
    net_config.learning_rate = config.learning_rate;
    net_config.momentum = config.momentum;
    net_config.init_scale = config.init_scale;
    net_config.seed = config.seed;

    // The parameters come first, and their number must match the shape: the
    // net is sized from values actually read, never from the header alone.
    const std::size_t param_count = read_size(in, "parameter count");
    std::vector<double> params;
    for (std::size_t i = 0; i < param_count; ++i)
        params.push_back(read_double(in, "parameter"));
    require_data(params.size() == Mlp::parameter_count(net_config.layer_sizes),
                 "parameter count does not match the network shape");
    detector.net_.emplace(net_config);
    detector.net_->set_parameters(params);

    // Then the training contexts; the table grows with those actually read.
    const std::size_t contexts = read_size(in, "context count");
    Sequence context(window - 1);
    for (std::size_t i = 0; i < contexts; ++i) {
        for (Symbol& s : context) s = read_symbol(in, alphabet, "context symbol");
        detector.tabulate(context);
    }
    return detector;
}

std::size_t NnDetector::alphabet_size() const {
    require(net_.has_value(), "neural-net detector is not trained");
    return codec_->alphabet_size();
}

}  // namespace adiv
