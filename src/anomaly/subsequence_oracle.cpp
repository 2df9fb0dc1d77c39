#include "anomaly/subsequence_oracle.hpp"

#include "util/error.hpp"

namespace adiv {

SubsequenceOracle::SubsequenceOracle(const EventStream& training)
    : training_(&training) {
    require_data(!training.empty(), "subsequence oracle needs a non-empty stream");
}

const NgramTable& SubsequenceOracle::table(std::size_t length) const {
    require(length > 0, "window length must be positive");
    auto it = tables_.find(length);
    if (it == tables_.end()) {
        // The nearest longer cached table already holds every window's
        // prefix, so the stream is scanned only when none is cached.
        const auto longer = tables_.upper_bound(length);
        auto built = std::make_unique<NgramTable>(
            longer == tables_.end()
                ? NgramTable::from_stream(*training_, length)
                : longer->second->prefix_table(*training_, length));
        it = tables_.emplace(length, std::move(built)).first;
    }
    return *it->second;
}

}  // namespace adiv
