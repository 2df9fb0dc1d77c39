#include "detect/nn_detector.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "seq/conditional_model.hpp"
#include "seq/ngram_map.hpp"
#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

NnDetectorConfig fast_config() {
    NnDetectorConfig cfg;
    cfg.hidden_units = 12;
    cfg.epochs = 250;
    return cfg;
}

TEST(NnDetector, WindowOfOneThrows) {
    EXPECT_THROW(NnDetector(1), InvalidArgument);
}

TEST(NnDetector, ScoreBeforeTrainThrows) {
    const NnDetector d(2, fast_config());
    EXPECT_THROW((void)d.score(EventStream(3, {0, 1, 2})), InvalidArgument);
}

TEST(NnDetector, InvalidConfigThrows) {
    NnDetectorConfig cfg = fast_config();
    cfg.hidden_units = 0;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
    cfg = fast_config();
    cfg.epochs = 0;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
    cfg = fast_config();
    cfg.probability_floor = 1.5;
    EXPECT_THROW(NnDetector(2, cfg), InvalidArgument);
}

TEST(NnDetector, LearnsDeterministicContinuations) {
    // Pure cycle: P(next|prev) = 1; responses should be near zero.
    Sequence events;
    for (int i = 0; i < 50; ++i)
        for (Symbol s = 0; s < 4; ++s) events.push_back(s);
    const EventStream train(4, std::move(events));
    NnDetector d(2, fast_config());
    d.train(train);
    const auto r = d.score(EventStream(4, {0, 1, 2, 3, 0}));
    for (double v : r) EXPECT_LT(v, 0.1);
}

TEST(NnDetector, FlagsDeviationsOnCorpus) {
    NnDetector d(2, fast_config());
    d.train(test::small_corpus().training());
    EventStream test = test::small_corpus().background(64, 0);
    test.push_back(1);  // deviation 7 -> 1 (probability ~0.08% in training)
    const auto r = d.score(test);
    EXPECT_DOUBLE_EQ(r.back(), 1.0);
    // Cycle windows stay quiet.
    for (std::size_t i = 0; i + 1 < r.size(); ++i) EXPECT_LT(r[i], 0.1);
}

TEST(NnDetector, PredictReturnsDistribution) {
    NnDetector d(3, fast_config());
    d.train(test::small_corpus().training());
    const auto probs = d.predict(Sequence{0, 1});
    ASSERT_EQ(probs.size(), 8u);
    double sum = 0.0;
    for (double p : probs) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // The cycle continuation (2) dominates.
    EXPECT_GT(probs[2], 0.9);
}

TEST(NnDetector, TrainingLossIsFiniteAndSmall) {
    NnDetector d(2, fast_config());
    d.train(test::small_corpus().training());
    EXPECT_GT(d.training_loss(), 0.0);
    EXPECT_LT(d.training_loss(), 0.2);
}

TEST(NnDetector, DeterministicPerSeed) {
    NnDetector a(2, fast_config()), b(2, fast_config());
    a.train(test::small_corpus().training());
    b.train(test::small_corpus().training());
    const EventStream test = test::small_corpus().background(32, 0);
    EXPECT_EQ(a.score(test), b.score(test));
}

TEST(NnDetector, BadParametersWeakenTheSignal) {
    // Section 7: "some combinations of these values may result in weakened
    // anomaly signals". An undertrained single-hidden-unit network cannot
    // keep the deviation probability under the floor everywhere.
    NnDetectorConfig bad;
    bad.hidden_units = 1;
    bad.epochs = 5;
    bad.learning_rate = 0.01;
    NnDetector d(2, bad);
    d.train(test::small_corpus().training());
    EventStream test = test::small_corpus().background(64, 0);
    test.push_back(1);
    const auto r = d.score(test);
    EXPECT_LT(r.back(), 1.0);
}

TEST(NnDetector, ResponseCountMatchesWindows) {
    NnDetector d(4, fast_config());
    d.train(test::small_corpus().training());
    const EventStream test = test::small_corpus().background(40, 2);
    EXPECT_EQ(d.score(test).size(), test.window_count(4));
}

// Values recorded from the dense first-layer network that preceded the
// one-hot path: training and scoring must reproduce them bit for bit.
TEST(NnDetector, PinnedLossAndResponsesAtDw4) {
    NnDetector d(4, fast_config());
    d.train(test::small_corpus().training());
    EXPECT_EQ(d.training_loss(), 0x1.5ff218d7e1896p-6);
    const auto r = d.score(test::small_corpus().generate_heldout(400, 5));
    ASSERT_EQ(r.size(), 397u);
    EXPECT_EQ(r[0], 0x1.8160551c44ap-9);
    EXPECT_EQ(r[4], 0x1.b0fca8f64368p-8);
    EXPECT_EQ(r[8], 1.0);
    EXPECT_EQ(r[9], 0x1.f930a00817cp-8);
}

TEST(NnDetector, PinnedLossAndResponsesAtDw6) {
    NnDetector d(6, fast_config());
    d.train(test::small_corpus().training());
    EXPECT_EQ(d.training_loss(), 0x1.620673350513bp-6);
    const auto r = d.score(test::small_corpus().generate_heldout(400, 5));
    ASSERT_EQ(r.size(), 395u);
    EXPECT_EQ(r[0], 0x1.c73ec10d18dp-9);
    EXPECT_EQ(r[4], 0x1.6c11ec789b08p-7);
    EXPECT_EQ(r[6], 1.0);
    EXPECT_EQ(r[8], 0x1.7213e0c5afep-10);
}

/// 64-bit FNV-1a of a byte string.
std::uint64_t fnv1a(const std::string& bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

// The paper's net (default settings: 16 hidden units, 400 epochs) trained at
// two windows, the wider with a 14-symbol context. The saved bytes (the
// training loss, every weight and bias as hex floats, the training contexts)
// were recorded from the trainer before its products were register-blocked:
// training must keep reproducing them bit for bit.
TEST(NnDetector, SavedModelsMatchRecordedBytes) {
    struct Golden {
        std::size_t window;
        std::uint64_t fnv1a;
    };
    for (const Golden& golden : {Golden{6, 0x7c746e7a17d6486aULL},
                                 Golden{15, 0xf803a3f27ec235c0ULL}}) {
        NnDetector d(golden.window);
        d.train(test::small_corpus().training());
        std::ostringstream saved;
        d.save_model(saved);
        EXPECT_EQ(fnv1a(saved.str()), golden.fnv1a)
            << "DW " << golden.window << ": 0x" << std::hex << fnv1a(saved.str());
    }
}

TEST(NnDetector, TableAndNovelPathsMatchPredict) {
    // Every window of a stream with 1% uniform events: a training context
    // answers from the table and any other from a forward pass, and both
    // must equal predict(context)[last] bit for bit, before and after a
    // save/load round trip.
    struct Case {
        EventStream training;
        EventStream test;
        std::size_t window;
    };
    const EventStream& corpus = test::small_corpus().training();
    const EventStream heldout = test::with_uniform_events(
        test::small_corpus().generate_heldout(1'000, 41), 0.01, 42);
    const EventStream wide = test::stepping_stream(300, 20'000, 43);
    const EventStream wide_test =
        test::with_uniform_events(test::stepping_stream(300, 1'000, 44), 0.01, 45);
    const Case cases[] = {{corpus, heldout, 2},
                          {corpus, heldout, 6},
                          {corpus, heldout, 15},
                          {wide, wide_test, 6}};
    NnDetectorConfig config = fast_config();
    config.epochs = 20;  // the test is about paths, not about fit
    const ResponseQuantizer quantizer{config.probability_floor};
    std::size_t novel = 0;  // windows whose context is not a training context
    for (const Case& c : cases) {
        SCOPED_TRACE("alphabet " + std::to_string(c.training.alphabet_size()) +
                     ", DW " + std::to_string(c.window));
        NnDetector d(c.window, config);
        d.train(c.training);
        std::ostringstream saved;
        d.save_model(saved);
        std::istringstream in(saved.str());
        const NnDetector loaded = NnDetector::load_model(in);
        EXPECT_EQ(loaded.context_count(), d.context_count());

        NgramMap trained_contexts;
        const ConditionalModel model(c.training, c.window - 1);
        const NgramCodec codec(c.training.alphabet_size());
        for (const ContextDistribution& dist : model.distributions())
            (void)trained_contexts[codec.encode(dist.context)];
        EXPECT_EQ(d.context_count(), trained_contexts.size());

        const std::vector<double> responses = d.score(c.test);
        EXPECT_EQ(loaded.score(c.test), responses);
        const std::size_t novel_before = novel;
        for_each_window(c.test, c.window, [&](std::size_t p, SymbolView w) {
            const SymbolView context = w.first(c.window - 1);
            if (trained_contexts.find(codec.encode(context)) == nullptr) ++novel;
            const double expected = d.predict(context)[w.back()];
            EXPECT_EQ(d.continuation_probability(w), expected) << "window " << p;
            EXPECT_EQ(loaded.continuation_probability(w), expected) << "window " << p;
            EXPECT_EQ(responses[p], quantizer.response_for_probability(expected))
                << "window " << p;
        });
        EXPECT_LT(novel - novel_before, responses.size());
    }
    // At DW 2 every context is one symbol, and training saw them all.
    EXPECT_GT(novel, 0u);
}

TEST(NnDetector, NameAndWindow) {
    const NnDetector d(5, fast_config());
    EXPECT_EQ(d.name(), "neural-net");
    EXPECT_EQ(d.window_length(), 5u);
}

}  // namespace
}  // namespace adiv
