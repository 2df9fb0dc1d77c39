#include "detect/nn_detector.hpp"

#include <cmath>

#include "nn/encoding.hpp"
#include "seq/conditional_model.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

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
    memo_.clear();

    const std::size_t context_len = window_length_ - 1;
    const ConditionalModel model(training, context_len);
    codec_.emplace(alphabet);  // the model checked DW against its capacity

    // One packed sample per distinct context, in distributions() order: its
    // one-hot positions, its continuation distribution, its log weight.
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

std::vector<double> NnDetector::predict(SymbolView context) const {
    require(net_.has_value(), "neural-net detector must be trained before use");
    require(context.size() == window_length_ - 1, "context length mismatch");
    return net_->forward(one_hot_context(context, codec_->alphabet_size()));
}

double NnDetector::continuation_probability(SymbolView window) const {
    const NgramKey key = codec_->encode(window);
    if (const auto cached = memo_.find(key)) return *cached;
    const std::size_t context_len = window_length_ - 1;
    const double p = net_->forward(one_hot_context(
        window.first(context_len), codec_->alphabet_size()))[window[context_len]];
    memo_.store(key, p);
    return p;
}

std::vector<double> NnDetector::score(const EventStream& test) const {
    require(net_.has_value(), "neural-net detector must be trained before scoring");
    require(test.alphabet_size() == codec_->alphabet_size(),
            "test alphabet does not match training alphabet");
    std::vector<double> responses;
    responses.reserve(test.window_count(window_length_));
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        responses.push_back(
            quantizer_.response_for_probability(continuation_probability(w)));
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
    return detector;
}

std::size_t NnDetector::alphabet_size() const {
    require(net_.has_value(), "neural-net detector is not trained");
    return codec_->alphabet_size();
}

}  // namespace adiv
