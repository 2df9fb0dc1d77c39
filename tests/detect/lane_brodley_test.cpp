#include "detect/lane_brodley.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "seq/ngram_table.hpp"
#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

TEST(LbSimilarity, IdenticalWindowsScoreMax) {
    // Figure 7 (left): two identical size-5 sequences score 15.
    const Sequence a{0, 1, 2, 3, 4};
    EXPECT_EQ(lane_brodley_similarity(a, a), 15u);
    EXPECT_EQ(lane_brodley_max_similarity(5), 15u);
}

TEST(LbSimilarity, LastElementMismatchScoresTen) {
    // Figure 7 (right): "cd <1> ls laf tar" vs "cd <1> ls laf cd" -> 10.
    const Sequence normal{0, 1, 2, 3, 4};
    const Sequence foreign{0, 1, 2, 3, 0};
    EXPECT_EQ(lane_brodley_similarity(normal, foreign), 10u);
}

TEST(LbSimilarity, FirstElementMismatchScoresTen) {
    const Sequence a{9, 1, 2, 3, 4};
    const Sequence b{0, 1, 2, 3, 4};
    EXPECT_EQ(lane_brodley_similarity(a, b), 10u);
}

TEST(LbSimilarity, MiddleMismatchScoresLower) {
    // Run weights reset at the mismatch: 1+2 + 0 + 1+2 = 6.
    const Sequence a{0, 1, 9, 3, 4};
    const Sequence b{0, 1, 2, 3, 4};
    EXPECT_EQ(lane_brodley_similarity(a, b), 6u);
    // The edge-mismatch bias: a middle mismatch scores LOWER than an edge
    // mismatch, which is exactly why L&B is blind to edge-differing foreign
    // sequences (Section 7).
    EXPECT_LT(lane_brodley_similarity(a, b),
              lane_brodley_similarity(Sequence{0, 1, 2, 3, 9}, b));
}

TEST(LbSimilarity, TotalMismatchScoresZero) {
    EXPECT_EQ(lane_brodley_similarity(Sequence{1, 1}, Sequence{0, 0}), 0u);
}

TEST(LbSimilarity, LengthMismatchThrows) {
    EXPECT_THROW((void)lane_brodley_similarity(Sequence{1}, Sequence{1, 2}),
                 InvalidArgument);
}

TEST(LbSimilarity, MaxFormula) {
    for (std::size_t n = 1; n <= 15; ++n) {
        const Sequence w(n, 3);
        EXPECT_EQ(lane_brodley_similarity(w, w), n * (n + 1) / 2);
        EXPECT_EQ(lane_brodley_max_similarity(n), n * (n + 1) / 2);
    }
}

EventStream cycle_train() {
    Sequence events;
    for (int i = 0; i < 30; ++i)
        for (Symbol s = 0; s < 4; ++s) events.push_back(s);
    return EventStream(4, std::move(events));
}

TEST(LaneBrodley, NormalWindowScoresZero) {
    LaneBrodleyDetector d(4);
    d.train(cycle_train());
    const auto r = d.score(EventStream(4, {0, 1, 2, 3, 0}));
    for (double v : r) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LaneBrodley, ForeignWindowGetsWeakResponse) {
    LaneBrodleyDetector d(5);
    d.train(cycle_train());
    // Window (0,1,2,3,3): closest normal (0,1,2,3,0) gives sim 10 of 15.
    const auto r = d.score(EventStream(4, {0, 1, 2, 3, 3}));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_NEAR(r[0], 1.0 - 10.0 / 15.0, 1e-12);
    EXPECT_GT(r[0], 0.0);
    EXPECT_LT(r[0], 1.0);  // weak, never maximal: the paper's L&B blindness
}

TEST(LaneBrodley, MaxSimilarityToNormalAccessor) {
    LaneBrodleyDetector d(5);
    d.train(cycle_train());
    EXPECT_EQ(d.max_similarity_to_normal(Sequence{0, 1, 2, 3, 0}), 15u);
    EXPECT_EQ(d.max_similarity_to_normal(Sequence{0, 1, 2, 3, 3}), 10u);
}

TEST(LaneBrodley, TakesMaxOverDatabase) {
    // Train on two distinct patterns; similarity is to the closest one.
    LaneBrodleyDetector d(3);
    d.train(EventStream(4, {0, 1, 2, 0, 1, 2, 3, 3, 3, 3, 3}));
    EXPECT_EQ(d.max_similarity_to_normal(Sequence{3, 3, 3}), 6u);
    EXPECT_EQ(d.max_similarity_to_normal(Sequence{0, 1, 2}), 6u);
}

TEST(LaneBrodley, ScoreBeforeTrainThrows) {
    const LaneBrodleyDetector d(3);
    EXPECT_THROW((void)d.score(cycle_train()), InvalidArgument);
}

TEST(LaneBrodley, DatabaseSizeCountsDistinctWindows) {
    LaneBrodleyDetector d(4);
    d.train(cycle_train());
    EXPECT_EQ(d.normal_database_size(), 4u);
}

TEST(LaneBrodley, MemoDoesNotChangeResults) {
    // Scoring reads only the trained model, so a second pass repeats the
    // first exactly.
    LaneBrodleyDetector d(4);
    d.train(cycle_train());
    const EventStream test(4, {0, 1, 2, 3, 0, 1, 2, 3});
    const auto r1 = d.score(test);
    const auto r2 = d.score(test);
    EXPECT_EQ(r1, r2);
}

TEST(LaneBrodley, ScanMatchesTheReferenceOnEveryWindow) {
    // Every window of a stream with 1% uniform events, known or novel: the
    // detector's similarity is the maximum of lane_brodley_similarity over
    // the distinct training windows, and its response follows from it.
    struct Case {
        EventStream training;
        EventStream test;
        std::size_t window;
    };
    const EventStream& corpus = test::small_corpus().training();
    const EventStream heldout = test::with_uniform_events(
        test::small_corpus().generate_heldout(1'000, 31), 0.01, 32);
    // A 300-symbol alphabet packs 9 bits a symbol, so 14 is its longest window.
    const EventStream wide = test::stepping_stream(300, 20'000, 33);
    const EventStream wide_test =
        test::with_uniform_events(test::stepping_stream(300, 1'000, 34), 0.01, 35);
    const Case cases[] = {{corpus, heldout, 2},      {corpus, heldout, 6},
                          {corpus, heldout, 15},     {wide, wide_test, 2},
                          {wide, wide_test, 6},      {wide, wide_test, 14}};
    for (const Case& c : cases) {
        SCOPED_TRACE("alphabet " + std::to_string(c.training.alphabet_size()) +
                     ", DW " + std::to_string(c.window));
        LaneBrodleyDetector d(c.window);
        d.train(c.training);
        const auto normal = NgramTable::from_stream(c.training, c.window).items_by_count();
        const std::uint64_t full = lane_brodley_max_similarity(c.window);
        const std::vector<double> responses = d.score(c.test);
        std::size_t novel = 0;
        for_each_window(c.test, c.window, [&](std::size_t p, SymbolView w) {
            std::uint64_t best = 0;
            for (const auto& [gram, count] : normal)
                best = std::max(best, lane_brodley_similarity(w, gram));
            if (best < full) ++novel;
            EXPECT_EQ(d.max_similarity_to_normal(w), best) << "window " << p;
            EXPECT_EQ(responses[p], 1.0 - static_cast<double>(best) /
                                              static_cast<double>(full))
                << "window " << p;
        });
        EXPECT_GT(novel, 0u);
        EXPECT_LT(novel, responses.size());
    }
}

TEST(LaneBrodley, RetrainClearsMemo) {
    LaneBrodleyDetector d(2);
    d.train(cycle_train());
    const auto before = d.score(EventStream(4, {3, 3}));
    d.train(EventStream(4, {3, 3, 3}));
    const auto after = d.score(EventStream(4, {3, 3}));
    EXPECT_NE(before[0], after[0]);
    EXPECT_DOUBLE_EQ(after[0], 0.0);
}

TEST(LaneBrodley, NeverMaximalOnStudyCorpus) {
    // The defining result (Figure 3): on cycle-structured data the L&B
    // response never reaches 1 because some normal window always matches
    // part of any test window.
    LaneBrodleyDetector d(6);
    d.train(test::small_corpus().training());
    const EventStream heldout = test::small_corpus().generate_heldout(2000, 3);
    for (double r : d.score(heldout)) EXPECT_LT(r, 1.0);
}

TEST(LaneBrodley, NameAndWindow) {
    const LaneBrodleyDetector d(7);
    EXPECT_EQ(d.name(), "lane-brodley");
    EXPECT_EQ(d.window_length(), 7u);
}

}  // namespace
}  // namespace adiv
