#include "support/corpus_fixture.hpp"

#include "util/rng.hpp"

namespace adiv::test {

const TrainingCorpus& small_corpus() {
    static const TrainingCorpus corpus = [] {
        CorpusSpec spec;
        spec.training_length = 200'000;
        return TrainingCorpus::generate(spec);
    }();
    return corpus;
}

const EvaluationSuite& small_suite() {
    static const EvaluationSuite suite = [] {
        SuiteConfig cfg;
        cfg.min_anomaly_size = 2;
        cfg.max_anomaly_size = 9;
        cfg.min_window = 2;
        cfg.max_window = 10;
        cfg.background_length = 1024;
        return EvaluationSuite::build(small_corpus(), cfg);
    }();
    return suite;
}

const TrainingCorpus& paper_corpus() {
    static const TrainingCorpus corpus =
        TrainingCorpus::generate(CorpusSpec{});
    return corpus;
}

EventStream with_uniform_events(const EventStream& stream, double share,
                                std::uint64_t seed) {
    Sequence events(stream.view().begin(), stream.view().end());
    Rng rng(seed);
    for (Symbol& s : events)
        if (rng.chance(share)) s = static_cast<Symbol>(rng.below(stream.alphabet_size()));
    return EventStream(stream.alphabet_size(), std::move(events));
}

EventStream stepping_stream(std::size_t alphabet, std::size_t length,
                            std::uint64_t seed) {
    Rng rng(seed);
    Sequence events;
    Symbol s = 0;
    for (std::size_t i = 0; i < length; ++i) {
        events.push_back(s);
        const std::size_t step = rng.chance(0.9) ? 1 : 2 + rng.below(3);
        s = static_cast<Symbol>((s + step) % alphabet);
    }
    return EventStream(alphabet, std::move(events));
}

}  // namespace adiv::test
