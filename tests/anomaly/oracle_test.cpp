#include "anomaly/subsequence_oracle.hpp"

#include <gtest/gtest.h>

#include "support/corpus_fixture.hpp"
#include "util/error.hpp"

namespace adiv {
namespace {

EventStream abcab() { return EventStream(3, {0, 1, 2, 0, 1}); }

TEST(SubsequenceOracle, PresenceQueries) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    EXPECT_TRUE(oracle.present(Sequence{0, 1}));
    EXPECT_TRUE(oracle.present(Sequence{1, 2, 0}));
    EXPECT_FALSE(oracle.present(Sequence{2, 1}));
    EXPECT_TRUE(oracle.present(Sequence{2}));
}

TEST(SubsequenceOracle, CountQueries) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    EXPECT_EQ(oracle.count(Sequence{0, 1}), 2u);
    EXPECT_EQ(oracle.count(Sequence{1, 2}), 1u);
    EXPECT_EQ(oracle.count(Sequence{2, 2}), 0u);
}

TEST(SubsequenceOracle, RelativeFrequency) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    EXPECT_DOUBLE_EQ(oracle.relative_frequency(Sequence{0, 1}), 0.5);
}

TEST(SubsequenceOracle, RareAndCommonRespectThreshold) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    // (1,2) has frequency 0.25.
    EXPECT_TRUE(oracle.rare(Sequence{1, 2}, 0.3));
    EXPECT_FALSE(oracle.rare(Sequence{1, 2}, 0.2));
    EXPECT_TRUE(oracle.common(Sequence{1, 2}, 0.2));
    // Absent grams are neither rare nor common.
    EXPECT_FALSE(oracle.rare(Sequence{2, 1}, 0.5));
    EXPECT_FALSE(oracle.common(Sequence{2, 1}, 0.5));
}

TEST(SubsequenceOracle, TableIsCachedPerLength) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    const NgramTable& t1 = oracle.table(2);
    const NgramTable& t2 = oracle.table(2);
    EXPECT_EQ(&t1, &t2);
    EXPECT_NE(&t1, &oracle.table(3));
}

TEST(SubsequenceOracle, DerivedTablesCountAsAStreamScan) {
    // Once the longest table is cached, every shorter one is derived from
    // the nearest longer one instead of rescanning the stream; each must
    // count every gram and total exactly what a scan does.
    const EventStream& training = test::small_corpus().training();
    const SubsequenceOracle oracle(training);
    constexpr std::size_t kLongest = 15;
    (void)oracle.table(kLongest);
    for (std::size_t n = kLongest - 1; n >= 1; --n) {
        const NgramTable& derived = oracle.table(n);
        const NgramTable scanned = NgramTable::from_stream(training, n);
        EXPECT_EQ(derived.total(), scanned.total()) << "n=" << n;
        EXPECT_EQ(derived.distinct(), scanned.distinct()) << "n=" << n;
        scanned.for_each([&](NgramKey key, std::uint64_t count) {
            EXPECT_EQ(derived.count_key(key), count) << "n=" << n;
        });
    }
}

TEST(SubsequenceOracle, EmptyStreamThrows) {
    const EventStream empty(3);
    EXPECT_THROW(SubsequenceOracle{empty}, DataError);
}

TEST(SubsequenceOracle, ZeroLengthQueryThrows) {
    const EventStream s = abcab();
    const SubsequenceOracle oracle(s);
    EXPECT_THROW((void)oracle.table(0), InvalidArgument);
}

}  // namespace
}  // namespace adiv
