#include "detect/tstide.hpp"

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

TstideDetector::TstideDetector(std::size_t window_length, TstideConfig config)
    : window_length_(window_length), config_(config) {
    require(window_length >= 1, "t-stide window length must be at least 1");
    require(config_.rare_threshold > 0.0 && config_.rare_threshold < 1.0,
            "t-stide rare threshold must be in (0,1)");
}

void TstideDetector::train(const EventStream& training) {
    normal_.emplace(NgramTable::from_stream(training, window_length_));
}

std::vector<double> TstideDetector::score(const EventStream& test) const {
    require(normal_.has_value(), "t-stide must be trained before scoring");
    require(test.alphabet_size() == normal_->alphabet_size(),
            "test alphabet does not match training alphabet");
    const std::size_t windows = test.window_count(window_length_);
    std::vector<double> responses;
    responses.reserve(windows);
    if (windows == 0) return responses;

    const NgramCodec& codec = normal_->codec();
    const SymbolView all = test.view();
    const NgramKey mask = codec.mask_for(window_length_);
    auto respond = [this](NgramKey key) {
        return normal_->relative_frequency_key(key) < config_.rare_threshold ? 1.0
                                                                             : 0.0;
    };
    NgramKey key = codec.encode(all.subspan(0, window_length_));
    responses.push_back(respond(key));
    for (std::size_t pos = window_length_; pos < all.size(); ++pos) {
        key = codec.slide(key, all[pos], mask);
        responses.push_back(respond(key));
    }
    return responses;
}


void TstideDetector::save_model(std::ostream& out) const {
    require(normal_.has_value(), "cannot save an untrained t-stide model");
    write_double(out, config_.rare_threshold);
    out << ' ' << window_length_ << ' ' << normal_->alphabet_size() << ' '
        << normal_->distinct() << '\n';
    for (const auto& [gram, count] : normal_->items_by_count()) {
        for (Symbol s : gram) out << s << ' ';
        out << count << '\n';
    }
}

TstideDetector TstideDetector::load_model(std::istream& in) {
    TstideConfig config;
    config.rare_threshold = read_double(in, "rare threshold");
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    const std::size_t distinct = read_size(in, "gram count");
    TstideDetector detector(window, config);
    NgramTable table(alphabet, window);
    Sequence gram(window);
    for (std::size_t i = 0; i < distinct; ++i) {
        for (Symbol& s : gram) s = read_symbol(in, alphabet, "gram symbol");
        table.add(gram, read_u64(in, "gram count value"));
    }
    detector.normal_.emplace(std::move(table));
    return detector;
}

std::size_t TstideDetector::alphabet_size() const {
    require(normal_.has_value(), "t-stide detector is not trained");
    return normal_->alphabet_size();
}

}  // namespace adiv
