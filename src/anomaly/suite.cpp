#include "anomaly/suite.hpp"

#include <algorithm>

#include "anomaly/foreign.hpp"
#include "util/error.hpp"

namespace adiv {

EvaluationSuite EvaluationSuite::build(const TrainingCorpus& corpus,
                                       SuiteConfig config) {
    require(config.min_anomaly_size >= 2, "anomaly sizes start at 2");
    require(config.min_anomaly_size <= config.max_anomaly_size,
            "anomaly size range is empty");
    require(config.min_window >= 2, "detector windows start at 2");
    require(config.min_window <= config.max_window, "window range is empty");

    EvaluationSuite suite;
    suite.config_ = config;
    suite.corpus_ = &corpus;

    SubsequenceOracle oracle(corpus.training());
    // The longest table first: every shorter one the suite asks for is then
    // derived from it, and the training stream is counted once.
    (void)oracle.table(std::max(config.max_window, config.max_anomaly_size));
    MfsBuilder builder(oracle, config.mfs);
    Injector injector(corpus, oracle);

    for (std::size_t as = config.min_anomaly_size; as <= config.max_anomaly_size;
         ++as) {
        const auto candidates = builder.candidates(as, config.candidate_limit);
        bool placed = false;
        for (const Sequence& anomaly : candidates) {
            // A candidate is accepted only if it injects cleanly for every
            // window length in the study.
            std::vector<Entry> cell_entries;
            cell_entries.reserve(config.max_window - config.min_window + 1);
            bool all_ok = true;
            for (std::size_t dw = config.min_window; dw <= config.max_window; ++dw) {
                auto injected =
                    injector.try_inject(anomaly, dw, config.background_length);
                if (!injected) {
                    all_ok = false;
                    break;
                }
                Entry e;
                e.anomaly_size = as;
                e.window_length = dw;
                e.stream = std::move(*injected);
                cell_entries.push_back(std::move(e));
            }
            if (!all_ok) continue;

            ADIV_ASSERT(is_minimal_foreign(oracle, anomaly));
            ADIV_ASSERT(all_proper_windows_present(oracle, anomaly));
            suite.anomalies_.emplace(as, anomaly);
            for (Entry& e : cell_entries) {
                suite.index_[{e.anomaly_size, e.window_length}] =
                    suite.entries_.size();
                suite.entries_.push_back(std::move(e));
            }
            placed = true;
            break;
        }
        if (!placed)
            throw SynthesisError(
                "no injectable minimal foreign sequence of size " +
                std::to_string(as) + " found within " +
                std::to_string(config.candidate_limit) + " candidates");
    }
    return suite;
}

const EvaluationSuite::Entry& EvaluationSuite::entry(
    std::size_t anomaly_size, std::size_t window_length) const {
    const auto it = index_.find({anomaly_size, window_length});
    require(it != index_.end(),
            "no suite entry for anomaly size " + std::to_string(anomaly_size) +
                ", window " + std::to_string(window_length));
    return entries_[it->second];
}

const Sequence& EvaluationSuite::anomaly(std::size_t anomaly_size) const {
    const auto it = anomalies_.find(anomaly_size);
    require(it != anomalies_.end(),
            "no anomaly of size " + std::to_string(anomaly_size) + " in suite");
    return it->second;
}

std::vector<std::size_t> EvaluationSuite::anomaly_sizes() const {
    std::vector<std::size_t> out;
    for (std::size_t as = config_.min_anomaly_size; as <= config_.max_anomaly_size;
         ++as)
        out.push_back(as);
    return out;
}

std::vector<std::size_t> EvaluationSuite::window_lengths() const {
    std::vector<std::size_t> out;
    for (std::size_t dw = config_.min_window; dw <= config_.max_window; ++dw)
        out.push_back(dw);
    return out;
}

}  // namespace adiv
