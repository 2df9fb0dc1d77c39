#include "seq/conditional_model.hpp"

#include <algorithm>

#include "seq/ngram_table.hpp"
#include "util/error.hpp"

namespace adiv {

ConditionalModel::ConditionalModel(const EventStream& train, std::size_t context_length)
    : context_length_(context_length),
      alphabet_size_(train.alphabet_size()),
      codec_(train.alphabet_size()) {
    require(context_length >= 1, "context length must be at least 1");
    require(context_length + 1 <= codec_.max_length(),
            "context length exceeds codec capacity");
    require_data(train.size() >= context_length + 1,
                 "training stream shorter than one context+continuation window");

    // A (context+1)-gram's key is its context's key shifted up by one symbol,
    // with the continuation in the low bits.
    const NgramTable grams = NgramTable::from_stream(train, context_length_ + 1);
    const unsigned bits = codec_.bits_per_symbol();
    const NgramKey symbol_mask = (NgramKey{1} << bits) - 1;
    grams.for_each([&](NgramKey gram, std::uint64_t count) {
        const std::size_t row = row_for(gram >> bits);
        next_counts_[row * alphabet_size_ + static_cast<std::size_t>(gram & symbol_mask)] +=
            count;
        totals_[row] += count;
    });
}

ConditionalModel::ConditionalModel(
    std::size_t alphabet_size, std::size_t context_length,
    const std::vector<ContextDistribution>& distributions)
    : context_length_(context_length),
      alphabet_size_(alphabet_size),
      codec_(alphabet_size) {
    require(context_length >= 1, "context length must be at least 1");
    require(context_length + 1 <= codec_.max_length(),
            "context length exceeds codec capacity");
    for (const ContextDistribution& dist : distributions) {
        require(dist.context.size() == context_length_,
                "distribution context length mismatch");
        require(dist.next_counts.size() == alphabet_size_,
                "distribution continuation vector length mismatch");
        std::uint64_t sum = 0;
        for (std::uint64_t c : dist.next_counts) sum += c;
        require(sum == dist.total && sum > 0,
                "distribution total does not match its continuation counts");
        const std::size_t rows = totals_.size();
        const std::size_t row = row_for(codec_.encode(dist.context));
        require(row == rows, "duplicate context in distributions");
        std::copy(dist.next_counts.begin(), dist.next_counts.end(),
                  next_counts_.begin() + static_cast<std::ptrdiff_t>(row * alphabet_size_));
        totals_[row] = dist.total;
    }
    require_data(!totals_.empty(), "cannot restore an empty model");
}

std::size_t ConditionalModel::row_for(NgramKey context) {
    const std::size_t known = row_of_.size();
    std::uint64_t& row = row_of_[context];
    if (row_of_.size() != known) {
        row = totals_.size();
        totals_.push_back(0);
        next_counts_.resize(next_counts_.size() + alphabet_size_, 0);
    }
    return static_cast<std::size_t>(row);
}

const std::uint64_t* ConditionalModel::find_row(SymbolView context) const {
    require(context.size() == context_length_, "context length mismatch");
    return row_of_.find(codec_.encode(context));
}

double ConditionalModel::probability(SymbolView context, Symbol next) const {
    const std::uint64_t* row = find_row(context);
    if (row == nullptr) return 0.0;
    return static_cast<double>(next_counts_[*row * alphabet_size_ + next]) /
           static_cast<double>(totals_[*row]);
}

double ConditionalModel::probability_smoothed(SymbolView context, Symbol next,
                                              double alpha) const {
    const std::uint64_t* row = find_row(context);
    require(alpha >= 0.0, "smoothing pseudo-count must be non-negative");
    const double numerator_count =
        row == nullptr ? 0.0
                       : static_cast<double>(next_counts_[*row * alphabet_size_ + next]);
    const double denominator_count =
        row == nullptr ? 0.0 : static_cast<double>(totals_[*row]);
    const double denom = denominator_count + alpha * static_cast<double>(alphabet_size_);
    if (denom == 0.0) return 0.0;
    return (numerator_count + alpha) / denom;
}

std::uint64_t ConditionalModel::context_count(SymbolView context) const {
    const std::uint64_t* row = find_row(context);
    return row == nullptr ? 0 : totals_[*row];
}

std::uint64_t ConditionalModel::continuation_count(SymbolView context, Symbol next) const {
    const std::uint64_t* row = find_row(context);
    return row == nullptr ? 0 : next_counts_[*row * alphabet_size_ + next];
}

std::vector<ContextDistribution> ConditionalModel::distributions() const {
    std::vector<std::pair<NgramKey, std::size_t>> keyed;  // (context, row)
    keyed.reserve(totals_.size());
    row_of_.for_each([&](NgramKey context, std::uint64_t row) {
        keyed.emplace_back(context, static_cast<std::size_t>(row));
    });
    std::sort(keyed.begin(), keyed.end(), [&](const auto& a, const auto& b) {
        if (totals_[a.second] != totals_[b.second])
            return totals_[a.second] > totals_[b.second];
        return a.first < b.first;
    });
    std::vector<ContextDistribution> out;
    out.reserve(keyed.size());
    for (const auto& [context, row] : keyed) {
        const auto first =
            next_counts_.begin() + static_cast<std::ptrdiff_t>(row * alphabet_size_);
        ContextDistribution dist;
        dist.context = codec_.decode(context, context_length_);
        dist.next_counts.assign(first, first + static_cast<std::ptrdiff_t>(alphabet_size_));
        dist.total = totals_[row];
        out.push_back(std::move(dist));
    }
    return out;
}

}  // namespace adiv
