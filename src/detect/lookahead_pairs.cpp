#include "detect/lookahead_pairs.hpp"

#include <algorithm>
#include <ostream>

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

LookaheadPairsDetector::LookaheadPairsDetector(std::size_t window_length)
    : window_length_(window_length) {
    require(window_length >= 2,
            "lookahead-pairs window length must be at least 2 (one offset)");
}

void LookaheadPairsDetector::train(const EventStream& training) {
    alphabet_size_ = training.alphabet_size();
    seen_ = NgramMap();
    for_each_window(training, window_length_, [&](std::size_t, SymbolView w) {
        for (std::size_t k = 1; k < window_length_; ++k)
            (void)seen_[pair_key(k, w[0], w[k])];
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
            if (seen_.find(pair_key(k, w[0], w[k])) == nullptr) {
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
    return seen_.size();
}

void LookaheadPairsDetector::save_model(std::ostream& out) const {
    require(trained_, "cannot save an untrained lookahead-pairs model");
    // Sorted keys are (offset, first, follower) order, the order a dense
    // scan over the pair space would write them in.
    std::vector<NgramKey> keys;
    keys.reserve(seen_.size());
    seen_.for_each([&](NgramKey key, std::uint64_t) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    out << window_length_ << ' ' << alphabet_size_ << ' ' << keys.size() << '\n';
    for (const NgramKey key : keys)
        out << static_cast<std::uint64_t>(key >> 64) << ' '
            << static_cast<Symbol>(key >> 32) << ' ' << static_cast<Symbol>(key)
            << '\n';
}

LookaheadPairsDetector LookaheadPairsDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    const std::size_t pairs = read_size(in, "pair count");
    LookaheadPairsDetector detector(window);
    detector.alphabet_size_ = alphabet;
    // The set grows with the pairs actually read, never with what the
    // header declares.
    for (std::size_t i = 0; i < pairs; ++i) {
        const std::size_t k = read_size(in, "pair offset");
        require_data(k >= 1 && k < window, "pair offset outside window");
        const Symbol first = read_symbol(in, alphabet, "pair first symbol");
        const Symbol follower = read_symbol(in, alphabet, "pair follower symbol");
        (void)detector.seen_[pair_key(k, first, follower)];
    }
    detector.trained_ = true;
    return detector;
}

}  // namespace adiv
