#include "detect/stide.hpp"

#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

StideDetector::StideDetector(std::size_t window_length)
    : window_length_(window_length) {
    require(window_length >= 1, "stide window length must be at least 1");
}

void StideDetector::train(const EventStream& training) {
    normal_.emplace(NgramTable::from_stream(training, window_length_));
}

std::vector<double> StideDetector::score(const EventStream& test) const {
    require(normal_.has_value(), "stide must be trained before scoring");
    require(test.alphabet_size() == normal_->alphabet_size(),
            "test alphabet does not match training alphabet");
    const std::size_t windows = test.window_count(window_length_);
    std::vector<double> responses;
    responses.reserve(windows);
    if (windows == 0) return responses;

    const NgramCodec& codec = normal_->codec();
    const SymbolView all = test.view();
    const NgramKey mask = codec.mask_for(window_length_);
    NgramKey key = codec.encode(all.subspan(0, window_length_));
    responses.push_back(normal_->contains_key(key) ? 0.0 : 1.0);
    for (std::size_t pos = window_length_; pos < all.size(); ++pos) {
        key = codec.slide(key, all[pos], mask);
        responses.push_back(normal_->contains_key(key) ? 0.0 : 1.0);
    }
    return responses;
}

std::size_t StideDetector::normal_database_size() const {
    require(normal_.has_value(), "stide is not trained");
    return normal_->distinct();
}


void StideDetector::save_model(std::ostream& out) const {
    require(normal_.has_value(), "cannot save an untrained stide model");
    out << window_length_ << ' ' << normal_->alphabet_size() << ' '
        << normal_->distinct() << '\n';
    for (const auto& [gram, count] : normal_->items_by_count()) {
        for (Symbol s : gram) out << s << ' ';
        out << count << '\n';
    }
}

StideDetector StideDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    const std::size_t distinct = read_size(in, "gram count");
    StideDetector detector(window);
    NgramTable table(alphabet, window);
    Sequence gram(window);
    for (std::size_t i = 0; i < distinct; ++i) {
        for (Symbol& s : gram) s = read_symbol(in, alphabet, "gram symbol");
        table.add(gram, read_u64(in, "gram count value"));
    }
    detector.normal_.emplace(std::move(table));
    return detector;
}

std::size_t StideDetector::alphabet_size() const {
    require(normal_.has_value(), "stide detector is not trained");
    return normal_->alphabet_size();
}

}  // namespace adiv
