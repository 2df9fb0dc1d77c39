#include "detect/lane_brodley.hpp"

#include <algorithm>

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

namespace {

/// Normal windows per block of the position-major database: one 16-byte
/// vector of 32-bit symbols, so the scan keeps a block's lanes in registers
/// (16 lanes measured twice as slow, their run and total arrays in memory).
constexpr std::size_t kScanBlock = 4;

/// The largest L&B similarity between `window` (`length` symbols) and the
/// windows of `blocks` position-major blocks: the maximum of
/// lane_brodley_similarity over them, computed for a block's lanes side by
/// side. Written for GCC's -O2 vectorizer the way axpy_n in nn/matrix.hpp
/// is: `__restrict` parameters, a constant lane count that fills whole
/// vectors, and a mask where the reference branches, so each window
/// position costs one vector compare, and and add per block. Every
/// similarity fits 32 bits: a window is at most 128 symbols, a similarity
/// at most 128 * 129 / 2.
std::uint32_t scan_blocks(const Symbol* __restrict columns, std::size_t blocks,
                          const Symbol* __restrict window,
                          std::size_t length) noexcept {
    std::uint32_t best[kScanBlock] = {};
    for (std::size_t b = 0; b < blocks; ++b) {
        std::uint32_t run[kScanBlock] = {};
        std::uint32_t total[kScanBlock] = {};
        for (std::size_t k = 0; k < length; ++k, columns += kScanBlock) {
            const Symbol s = window[k];
            for (std::size_t j = 0; j < kScanBlock; ++j) {
                const std::uint32_t keep = 0u - (columns[j] == s);  // all ones or 0
                run[j] = (run[j] + 1) & keep;
                total[j] += run[j];
            }
        }
        for (std::size_t j = 0; j < kScanBlock; ++j) best[j] = std::max(best[j], total[j]);
    }
    std::uint32_t result = 0;
    for (std::size_t j = 0; j < kScanBlock; ++j) result = std::max(result, best[j]);
    return result;
}

}  // namespace

LaneBrodleyDetector::LaneBrodleyDetector(std::size_t window_length)
    : window_length_(window_length) {
    require(window_length >= 1, "L&B window length must be at least 1");
}

void LaneBrodleyDetector::train(const EventStream& training) {
    codec_.emplace(training.alphabet_size());
    require(window_length_ <= codec_->max_length(),
            "window length exceeds codec capacity");
    known_ = NgramMap{};
    database_.clear();
    database_size_ = 0;

    const NgramTable normal = NgramTable::from_stream(training, window_length_);
    const std::size_t blocks = (normal.distinct() + kScanBlock - 1) / kScanBlock;
    database_.reserve(blocks * kScanBlock * window_length_);
    // Deterministic database order (by descending count) so saved models do
    // not depend on hash-iteration order; the max-over-database is order
    // independent anyway.
    for (const auto& [gram, count] : normal.items_by_count()) {
        (void)count;
        add_normal(gram);
    }
}

void LaneBrodleyDetector::add_normal(SymbolView window) {
    (void)known_[codec_->encode(window)];
    const std::size_t lane = database_size_ % kScanBlock;
    if (lane == 0)  // a new block, every lane a copy of its first window
        for (const Symbol s : window) database_.insert(database_.end(), kScanBlock, s);
    Symbol* block = database_.data() + database_.size() - kScanBlock * window_length_;
    for (std::size_t k = 0; k < window_length_; ++k)
        block[k * kScanBlock + lane] = window[k];
    ++database_size_;
}

std::uint64_t LaneBrodleyDetector::similarity(SymbolView window) const noexcept {
    if (known_.find(codec_->encode(window)) != nullptr)
        return lane_brodley_max_similarity(window_length_);
    return scan_blocks(database_.data(), database_.size() / (kScanBlock * window_length_),
                       window.data(), window_length_);
}

std::uint64_t LaneBrodleyDetector::max_similarity_to_normal(SymbolView window) const {
    require(codec_.has_value(), "L&B detector must be trained before scoring");
    require(window.size() == window_length_, "window length mismatch");
    for (const Symbol s : window)
        require(s < codec_->alphabet_size(), "window symbol outside alphabet");
    require_data(database_size_ > 0, "L&B normal database is empty");
    return similarity(window);
}

std::vector<double> LaneBrodleyDetector::score(const EventStream& test) const {
    require(codec_.has_value(), "L&B detector must be trained before scoring");
    require(test.alphabet_size() == codec_->alphabet_size(),
            "test alphabet does not match training alphabet");
    const std::size_t windows = test.window_count(window_length_);
    require_data(windows == 0 || database_size_ > 0, "L&B normal database is empty");
    const double sim_max =
        static_cast<double>(lane_brodley_max_similarity(window_length_));
    std::vector<double> responses;
    responses.reserve(windows);
    for_each_window(test, window_length_, [&](std::size_t, SymbolView w) {
        responses.push_back(1.0 - static_cast<double>(similarity(w)) / sim_max);
    });
    return responses;
}

std::size_t LaneBrodleyDetector::normal_database_size() const {
    require(codec_.has_value(), "L&B detector is not trained");
    return database_size_;
}


void LaneBrodleyDetector::save_model(std::ostream& out) const {
    require(codec_.has_value(), "cannot save an untrained L&B model");
    out << window_length_ << ' ' << codec_->alphabet_size() << ' '
        << database_size_ << '\n';
    for (std::size_t w = 0; w < database_size_; ++w) {
        const Symbol* block =
            &database_[w / kScanBlock * kScanBlock * window_length_];
        for (std::size_t k = 0; k < window_length_; ++k)
            out << block[k * kScanBlock + w % kScanBlock] << ' ';
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
    Sequence normal(window);
    for (std::size_t i = 0; i < windows; ++i) {
        for (Symbol& s : normal) s = read_symbol(in, alphabet, "database symbol");
        detector.add_normal(normal);
    }
    return detector;
}

std::size_t LaneBrodleyDetector::alphabet_size() const {
    require(codec_.has_value(), "L&B detector is not trained");
    return codec_->alphabet_size();
}

}  // namespace adiv
