#include "detect/markov.hpp"

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

MarkovDetector::MarkovDetector(std::size_t window_length, MarkovConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 2,
            "markov window length must be at least 2 (one context symbol plus "
            "the predicted symbol)");
    require(config_.probability_floor >= 0.0 && config_.probability_floor < 1.0,
            "probability floor must be in [0,1)");
    require(config_.laplace_alpha >= 0.0, "laplace alpha must be non-negative");
    quantizer_.probability_floor = config_.probability_floor;
}

void MarkovDetector::train(const EventStream& training) {
    model_.emplace(training, window_length_ - 1);
}

std::vector<double> MarkovDetector::score(const EventStream& test) const {
    require(model_.has_value(), "markov detector must be trained before scoring");
    require(test.alphabet_size() == model_->alphabet_size(),
            "test alphabet does not match training alphabet");
    const std::size_t windows = test.window_count(window_length_);
    std::vector<double> responses;
    responses.reserve(windows);
    const std::size_t context_len = window_length_ - 1;
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        const SymbolView context = w.subspan(0, context_len);
        const Symbol next = w[context_len];
        const double p =
            config_.laplace_alpha > 0.0
                ? model_->probability_smoothed(context, next, config_.laplace_alpha)
                : model_->probability(context, next);
        responses.push_back(quantizer_.response_for_probability(p));
    });
    return responses;
}

const ConditionalModel& MarkovDetector::model() const {
    require(model_.has_value(), "markov detector is not trained");
    return *model_;
}


void MarkovDetector::save_model(std::ostream& out) const {
    require(model_.has_value(), "cannot save an untrained markov model");
    out << window_length_ << ' ' << model_->alphabet_size() << ' ';
    write_double(out, config_.probability_floor);
    out << ' ';
    write_double(out, config_.laplace_alpha);
    const auto distributions = model_->distributions();
    out << ' ' << distributions.size() << '\n';
    for (const ContextDistribution& dist : distributions) {
        for (Symbol s : dist.context) out << s << ' ';
        for (std::uint64_t c : dist.next_counts) out << c << ' ';
        out << '\n';
    }
}

MarkovDetector MarkovDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    MarkovConfig config;
    config.probability_floor = read_double(in, "probability floor");
    config.laplace_alpha = read_double(in, "laplace alpha");
    const std::size_t contexts = read_size(in, "context count");
    MarkovDetector detector(window, config);

    std::vector<ContextDistribution> distributions;
    for (std::size_t i = 0; i < contexts; ++i) {
        ContextDistribution& dist = distributions.emplace_back();
        for (std::size_t k = 0; k + 1 < window; ++k)
            dist.context.push_back(read_symbol(in, alphabet, "context symbol"));
        for (std::size_t c = 0; c < alphabet; ++c) {
            dist.next_counts.push_back(read_u64(in, "continuation count"));
            dist.total += dist.next_counts.back();
        }
    }
    detector.model_.emplace(alphabet, window - 1, distributions);
    return detector;
}

std::size_t MarkovDetector::alphabet_size() const {
    require(model_.has_value(), "markov detector is not trained");
    return model_->alphabet_size();
}

}  // namespace adiv
