#include "detect/lane_brodley.hpp"

#include <unordered_set>

#include "seq/ngram_table.hpp"
#include "util/error.hpp"
#include "util/text_serial.hpp"

namespace adiv {

std::uint64_t lane_brodley_similarity(SymbolView a, SymbolView b) {
    require(a.size() == b.size(), "L&B similarity needs equal-length windows");
    std::uint64_t total = 0;
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i]) {
            ++run;
            total += run;
        } else {
            run = 0;
        }
    }
    return total;
}

LaneBrodleyDetector::LaneBrodleyDetector(std::size_t window_length)
    : window_length_(window_length) {
    require(window_length >= 1, "L&B window length must be at least 1");
}

void LaneBrodleyDetector::train(const EventStream& training) {
    codec_.emplace(training.alphabet_size());
    require(window_length_ <= codec_->max_length(),
            "window length exceeds codec capacity");
    database_.clear();
    memo_.clear();

    const NgramTable normal = NgramTable::from_stream(training, window_length_);
    database_.reserve(normal.distinct() * window_length_);
    // Deterministic database order (by descending count) so scores do not
    // depend on hash-iteration order; the max-over-database is order
    // independent anyway, but determinism keeps debugging sane.
    for (auto& [gram, count] : normal.items_by_count()) {
        (void)count;
        database_.insert(database_.end(), gram.begin(), gram.end());
    }
}

std::uint64_t LaneBrodleyDetector::max_similarity_to_normal(SymbolView window) const {
    require(codec_.has_value(), "L&B detector must be trained before scoring");
    require(window.size() == window_length_, "window length mismatch");
    require_data(!database_.empty(), "L&B normal database is empty");

    const NgramKey key = codec_->encode(window);
    if (const auto cached = memo_.find(key)) return *cached;

    const std::uint64_t best_possible = lane_brodley_max_similarity(window_length_);
    std::uint64_t best = 0;
    for (std::size_t offset = 0; offset < database_.size();
         offset += window_length_) {
        const SymbolView normal_window(&database_[offset], window_length_);
        best = std::max(best, lane_brodley_similarity(window, normal_window));
        if (best == best_possible) break;
    }
    memo_.store(key, best);
    return best;
}

std::vector<double> LaneBrodleyDetector::score(const EventStream& test) const {
    require(codec_.has_value(), "L&B detector must be trained before scoring");
    const double sim_max =
        static_cast<double>(lane_brodley_max_similarity(window_length_));
    std::vector<double> responses;
    responses.reserve(test.window_count(window_length_));
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        const double sim = static_cast<double>(max_similarity_to_normal(w));
        responses.push_back(1.0 - sim / sim_max);
    });
    return responses;
}

std::size_t LaneBrodleyDetector::normal_database_size() const {
    require(codec_.has_value(), "L&B detector is not trained");
    return database_.size() / window_length_;
}


void LaneBrodleyDetector::save_model(std::ostream& out) const {
    require(codec_.has_value(), "cannot save an untrained L&B model");
    out << window_length_ << ' ' << codec_->alphabet_size() << ' '
        << normal_database_size() << '\n';
    for (std::size_t offset = 0; offset < database_.size();
         offset += window_length_) {
        for (std::size_t i = 0; i < window_length_; ++i)
            out << database_[offset + i] << ' ';
        out << '\n';
    }
}

LaneBrodleyDetector LaneBrodleyDetector::load_model(std::istream& in) {
    const std::size_t window = read_size(in, "window length");
    const std::size_t alphabet = read_size(in, "alphabet size");
    const std::size_t windows = read_size(in, "window count");
    LaneBrodleyDetector detector(window);
    detector.codec_.emplace(alphabet);
    require(window <= detector.codec_->max_length(),
            "window length exceeds codec capacity");
    for (std::size_t i = 0; i < windows; ++i)
        for (std::size_t k = 0; k < window; ++k) {
            const auto s = static_cast<Symbol>(read_u64(in, "database symbol"));
            require_data(s < alphabet, "database symbol outside alphabet");
            detector.database_.push_back(s);
        }
    return detector;
}

std::size_t LaneBrodleyDetector::alphabet_size() const {
    require(codec_.has_value(), "L&B detector is not trained");
    return codec_->alphabet_size();
}

}  // namespace adiv
