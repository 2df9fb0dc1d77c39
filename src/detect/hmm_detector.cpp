#include "detect/hmm_detector.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

HmmDetector::HmmDetector(std::size_t window_length, HmmDetectorConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 2,
            "hmm detector window length must be at least 2 (the response "
            "predicts the window's last symbol)");
    require(config_.states >= 1, "hmm detector needs at least one state");
    require(config_.max_training_observations >= 2,
            "hmm detector needs at least 2 training observations");
    require(config_.probability_floor >= 0.0 && config_.probability_floor < 1.0,
            "probability floor must be in [0,1)");
    quantizer_.probability_floor = config_.probability_floor;
}

void HmmDetector::train(const EventStream& training) {
    require_data(training.size() >= 2, "training stream too short for the HMM");
    HmmConfig hmm_config;
    hmm_config.states = config_.states;
    hmm_config.iterations = config_.iterations;
    hmm_config.seed = config_.seed;
    model_.emplace(training.alphabet_size(), hmm_config);
    const std::size_t used =
        std::min(training.size(), config_.max_training_observations);
    training_ll_ = model_->fit(training.view().subspan(0, used));
}

std::vector<double> HmmDetector::score(const EventStream& test) const {
    require(model_.has_value(), "hmm detector must be trained before scoring");
    require(test.alphabet_size() == model_->alphabet_size(),
            "test alphabet does not match training alphabet");
    const std::size_t windows = test.window_count(window_length_);
    std::vector<double> responses;
    responses.reserve(windows);
    if (windows == 0) return responses;

    // One filtering pass over the stream yields P(x_t | x_0..t-1) for every
    // position; the response for the window at p concerns its last element.
    const std::vector<double> probs = model_->predictive_probabilities(test.view());
    for (std::size_t p = 0; p < windows; ++p)
        responses.push_back(
            quantizer_.response_for_probability(probs[p + window_length_ - 1]));
    return responses;
}

double HmmDetector::training_log_likelihood() const {
    require(model_.has_value(), "hmm detector is not trained");
    return training_ll_;
}

const Hmm& HmmDetector::model() const {
    require(model_.has_value(), "hmm detector is not trained");
    return *model_;
}


void HmmDetector::save_model(std::ostream& out) const {
    require(model_.has_value(), "cannot save an untrained hmm model");
    out << window_length_ << ' ' << model_->alphabet_size() << ' '
        << config_.states << ' ' << config_.iterations << ' '
        << config_.max_training_observations << ' ';
    write_double(out, config_.probability_floor);
    out << ' ' << config_.seed << ' ';
    write_double(out, training_ll_);
    out << '\n';
    for (double v : model_->initial()) {
        write_double(out, v);
        out << ' ';
    }
    out << '\n';
    for (std::size_t i = 0; i < config_.states; ++i) {
        for (std::size_t j = 0; j < config_.states; ++j) {
            write_double(out, model_->transitions().at(i, j));
            out << ' ';
        }
        out << '\n';
    }
    for (std::size_t i = 0; i < config_.states; ++i) {
        for (std::size_t k = 0; k < model_->alphabet_size(); ++k) {
            write_double(out, model_->emissions().at(i, k));
            out << ' ';
        }
        out << '\n';
    }
}

HmmDetector HmmDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    HmmDetectorConfig config;
    config.states = read_size(in, "state count");
    config.iterations = read_size(in, "iteration count");
    config.max_training_observations = read_size(in, "training cap");
    config.probability_floor = read_double(in, "probability floor");
    config.seed = read_u64(in, "seed");
    HmmDetector detector(window, config);
    detector.training_ll_ = read_double(in, "training log-likelihood");

    // A matrix is shaped only after its values are read, so its size comes
    // from values actually in the file, never from the header alone.
    const auto read_matrix = [&in](std::size_t rows, std::size_t cols,
                                   std::string_view what) {
        std::vector<double> values;
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < cols; ++c)
                values.push_back(read_double(in, what));
        Matrix m(rows, cols);
        std::copy(values.begin(), values.end(), m.flat().begin());
        return m;
    };
    std::vector<double> pi;
    for (std::size_t i = 0; i < config.states; ++i)
        pi.push_back(read_double(in, "initial probability"));
    Matrix a = read_matrix(config.states, config.states, "transition probability");
    Matrix b = read_matrix(config.states, alphabet, "emission probability");

    HmmConfig hmm_config;
    hmm_config.states = config.states;
    hmm_config.iterations = config.iterations;
    hmm_config.seed = config.seed;
    detector.model_.emplace(alphabet, hmm_config);
    detector.model_->set_parameters(std::move(pi), std::move(a), std::move(b));
    return detector;
}

std::size_t HmmDetector::alphabet_size() const {
    require(model_.has_value(), "hmm detector is not trained");
    return model_->alphabet_size();
}

}  // namespace adiv
