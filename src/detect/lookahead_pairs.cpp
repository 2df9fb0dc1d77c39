#include "detect/lookahead_pairs.hpp"

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

LookaheadPairsDetector::LookaheadPairsDetector(std::size_t window_length)
    : window_length_(window_length) {
    require(window_length >= 2,
            "lookahead-pairs window length must be at least 2 (one offset)");
}

void LookaheadPairsDetector::reset_table(std::size_t alphabet_size) {
    std::size_t flags = 0;
    require(!__builtin_mul_overflow(window_length_ - 1, alphabet_size, &flags) &&
                !__builtin_mul_overflow(flags, alphabet_size, &flags) &&
                flags <= seen_.max_size(),
            "lookahead-pairs table size overflows");
    alphabet_size_ = alphabet_size;
    seen_.assign(flags, false);
}

void LookaheadPairsDetector::train(const EventStream& training) {
    reset_table(training.alphabet_size());
    for_each_window(training, window_length_, [&](std::size_t, SymbolView w) {
        for (std::size_t k = 1; k < window_length_; ++k)
            seen_[index(k, w[0], w[k])] = true;
    });
    trained_ = true;
}

std::vector<double> LookaheadPairsDetector::score(const EventStream& test) const {
    require(trained_, "lookahead-pairs detector must be trained before scoring");
    require(test.alphabet_size() == alphabet_size_,
            "test alphabet does not match training alphabet");
    std::vector<double> responses;
    responses.reserve(test.window_count(window_length_));
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        double response = 0.0;
        for (std::size_t k = 1; k < window_length_; ++k) {
            if (!seen_[index(k, w[0], w[k])]) {
                response = 1.0;
                break;
            }
        }
        responses.push_back(response);
    });
    return responses;
}

std::size_t LookaheadPairsDetector::alphabet_size() const {
    require(trained_, "lookahead-pairs detector is not trained");
    return alphabet_size_;
}

std::size_t LookaheadPairsDetector::pair_count() const {
    require(trained_, "lookahead-pairs detector is not trained");
    std::size_t count = 0;
    for (bool b : seen_)
        if (b) ++count;
    return count;
}

void LookaheadPairsDetector::save_model(std::ostream& out) const {
    require(trained_, "cannot save an untrained lookahead-pairs model");
    out << window_length_ << ' ' << alphabet_size_ << ' ' << pair_count() << '\n';
    for (std::size_t k = 1; k < window_length_; ++k)
        for (Symbol first = 0; first < alphabet_size_; ++first)
            for (Symbol follower = 0; follower < alphabet_size_; ++follower)
                if (seen_[index(k, first, follower)])
                    out << k << ' ' << first << ' ' << follower << '\n';
}

LookaheadPairsDetector LookaheadPairsDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    const std::size_t pairs = read_size(in, "pair count");
    LookaheadPairsDetector detector(window);
    detector.reset_table(alphabet);
    for (std::size_t i = 0; i < pairs; ++i) {
        const std::size_t k = read_size(in, "pair offset");
        require_data(k >= 1 && k < window, "pair offset outside window");
        const auto first = static_cast<Symbol>(read_u64(in, "pair first symbol"));
        const auto follower =
            static_cast<Symbol>(read_u64(in, "pair follower symbol"));
        require_data(first < alphabet && follower < alphabet,
                     "pair symbol outside alphabet");
        detector.seen_[detector.index(k, first, follower)] = true;
    }
    detector.trained_ = true;
    return detector;
}

}  // namespace adiv
