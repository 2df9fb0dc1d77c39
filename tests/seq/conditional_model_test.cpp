#include "seq/conditional_model.hpp"

#include <gtest/gtest.h>

#include <map>

#include "seq/ngram_table.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

// Stream: 0 1 0 1 0 2 — context {0} is followed by 1 twice and 2 once.
EventStream mixed() { return EventStream(3, {0, 1, 0, 1, 0, 2}); }

TEST(ConditionalModel, EstimatesConditionalProbabilities) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_NEAR(m.probability(Sequence{0}, 1), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.probability(Sequence{0}, 2), 1.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{1}, 0), 1.0);
}

TEST(ConditionalModel, UnseenContinuationIsZero) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{0}, 0), 0.0);
}

TEST(ConditionalModel, UnseenContextIsZero) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{2}, 0), 0.0);
    EXPECT_FALSE(m.context_known(Sequence{2}));
}

TEST(ConditionalModel, CountsMatchStream) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_EQ(m.context_count(Sequence{0}), 3u);
    EXPECT_EQ(m.continuation_count(Sequence{0}, 1), 2u);
    EXPECT_EQ(m.continuation_count(Sequence{0}, 2), 1u);
}

TEST(ConditionalModel, LongerContext) {
    const ConditionalModel m(EventStream(3, {0, 1, 2, 0, 1, 2, 0, 1, 0}), 2);
    EXPECT_DOUBLE_EQ(m.probability(Sequence{1, 2}, 0), 1.0);
    EXPECT_NEAR(m.probability(Sequence{0, 1}, 2), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(m.probability(Sequence{0, 1}, 0), 1.0 / 3.0, 1e-12);
}

TEST(ConditionalModel, ContextLengthMismatchThrows) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_THROW((void)m.probability(Sequence{0, 1}, 0), InvalidArgument);
}

TEST(ConditionalModel, ZeroContextLengthThrows) {
    EXPECT_THROW(ConditionalModel(mixed(), 0), InvalidArgument);
}

TEST(ConditionalModel, TooShortStreamThrows) {
    EXPECT_THROW(ConditionalModel(EventStream(3, {0}), 1), DataError);
}

TEST(ConditionalModel, SmoothedProbabilityWithAlpha) {
    const ConditionalModel m(mixed(), 1);
    // count(0->0)=0, count(0)=3, alphabet 3, alpha 1: (0+1)/(3+3) = 1/6.
    EXPECT_NEAR(m.probability_smoothed(Sequence{0}, 0, 1.0), 1.0 / 6.0, 1e-12);
    // Unseen context with alpha: uniform 1/alphabet.
    EXPECT_NEAR(m.probability_smoothed(Sequence{2}, 0, 1.0), 1.0 / 3.0, 1e-12);
}

TEST(ConditionalModel, SmoothedWithZeroAlphaMatchesRaw) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_DOUBLE_EQ(m.probability_smoothed(Sequence{0}, 1, 0.0),
                     m.probability(Sequence{0}, 1));
}

TEST(ConditionalModel, NegativeAlphaThrows) {
    const ConditionalModel m(mixed(), 1);
    EXPECT_THROW((void)m.probability_smoothed(Sequence{0}, 1, -0.5), InvalidArgument);
}

TEST(ConditionalModel, DistributionsAreSortedAndComplete) {
    const ConditionalModel m(mixed(), 1);
    const auto dists = m.distributions();
    ASSERT_EQ(dists.size(), m.distinct_contexts());
    ASSERT_EQ(dists.size(), 2u);  // contexts {0} and {1}
    // Sorted by descending total: context {0} occurs 3 times, {1} twice.
    EXPECT_EQ(dists[0].context, (Sequence{0}));
    EXPECT_EQ(dists[0].total, 3u);
    EXPECT_EQ(dists[1].context, (Sequence{1}));
    EXPECT_EQ(dists[1].total, 2u);
    EXPECT_EQ(dists[0].next_counts[1], 2u);
    EXPECT_EQ(dists[0].next_counts[2], 1u);
}

TEST(ConditionalModel, DistributionTotalsSumNextCounts) {
    const ConditionalModel m(EventStream(4, {0, 1, 2, 3, 0, 1, 2, 3, 0}), 2);
    for (const auto& d : m.distributions()) {
        std::uint64_t sum = 0;
        for (auto c : d.next_counts) sum += c;
        EXPECT_EQ(sum, d.total);
    }
}

TEST(ConditionalModel, CountsAreTheLongerGramTableRegroupedByContext) {
    for (const std::size_t alphabet : {2u, 8u, 256u}) {
        Rng rng(alphabet);
        Sequence events(3000);
        for (Symbol& s : events) s = static_cast<Symbol>(rng.below(alphabet));
        const EventStream stream(alphabet, std::move(events));
        const std::size_t max_context = NgramCodec(alphabet).max_length() - 1;
        for (const std::size_t k : {std::size_t{1}, std::size_t{3}, max_context}) {
            SCOPED_TRACE("alphabet " + std::to_string(alphabet) + ", context " +
                         std::to_string(k));
            const ConditionalModel model(stream, k);
            const NgramTable grams = NgramTable::from_stream(stream, k + 1);
            std::map<Sequence, std::uint64_t> context_totals;
            for (const auto& [gram, count] : grams.items_by_count()) {
                const Sequence context(gram.begin(), gram.end() - 1);
                ASSERT_EQ(model.continuation_count(context, gram.back()), count);
                context_totals[context] += count;
            }
            ASSERT_EQ(model.distinct_contexts(), context_totals.size());
            for (const auto& [context, total] : context_totals)
                ASSERT_EQ(model.context_count(context), total);
            const auto dists = model.distributions();
            ASSERT_EQ(dists.size(), context_totals.size());
            for (const ContextDistribution& d : dists)
                ASSERT_EQ(d.total, context_totals[d.context]);
        }
    }
}

TEST(ConditionalModel, RestoredModelAnswersLikeTheTrainedOne) {
    const EventStream stream(4, {0, 1, 2, 3, 0, 1, 3, 2, 0, 1, 2, 3, 3, 0});
    const ConditionalModel trained(stream, 2);
    const ConditionalModel restored(4, 2, trained.distributions());
    EXPECT_EQ(restored.distinct_contexts(), trained.distinct_contexts());
    for (Symbol a = 0; a < 4; ++a)
        for (Symbol b = 0; b < 4; ++b)
            for (Symbol next = 0; next < 4; ++next)
                EXPECT_EQ(restored.continuation_count(Sequence{a, b}, next),
                          trained.continuation_count(Sequence{a, b}, next));
    const auto a = trained.distributions();
    const auto b = restored.distributions();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].context, b[i].context);
        EXPECT_EQ(a[i].next_counts, b[i].next_counts);
    }
}

TEST(ConditionalModel, DuplicateRestoredContextThrows) {
    ContextDistribution d;
    d.context = Sequence{1};
    d.next_counts = {1, 0};
    d.total = 1;
    EXPECT_THROW(ConditionalModel(2, 1, {d, d}), InvalidArgument);
}

}  // namespace
}  // namespace adiv
