#include "seq/ngram_table.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace adiv {
namespace {

EventStream abab() { return EventStream(2, {0, 1, 0, 1, 0, 1, 0}); }

TEST(NgramTable, CountsSlidingWindows) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_EQ(t.total(), 6u);
    EXPECT_EQ(t.count(Sequence{0, 1}), 3u);
    EXPECT_EQ(t.count(Sequence{1, 0}), 3u);
    EXPECT_EQ(t.count(Sequence{0, 0}), 0u);
    EXPECT_EQ(t.distinct(), 2u);
}

TEST(NgramTable, ContainsMatchesCount) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_TRUE(t.contains(Sequence{0, 1}));
    EXPECT_FALSE(t.contains(Sequence{1, 1}));
}

TEST(NgramTable, RelativeFrequency) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    EXPECT_DOUBLE_EQ(t.relative_frequency(Sequence{0, 1}), 0.5);
    EXPECT_DOUBLE_EQ(t.relative_frequency(Sequence{1, 1}), 0.0);
}

TEST(NgramTable, StreamShorterThanWindowAddsNothing) {
    NgramTable t(4, 5);
    t.add_stream(EventStream(4, {0, 1, 2}));
    EXPECT_EQ(t.total(), 0u);
    EXPECT_EQ(t.distinct(), 0u);
}

TEST(NgramTable, AddSingleGramWithMultiplicity) {
    NgramTable t(4, 3);
    t.add(Sequence{1, 2, 3}, 5);
    EXPECT_EQ(t.count(Sequence{1, 2, 3}), 5u);
    EXPECT_EQ(t.total(), 5u);
}

TEST(NgramTable, AddWrongLengthThrows) {
    NgramTable t(4, 3);
    EXPECT_THROW(t.add(Sequence{1, 2}), InvalidArgument);
    EXPECT_THROW((void)t.count(Sequence{1}), InvalidArgument);
}

TEST(NgramTable, MismatchedAlphabetThrows) {
    NgramTable t(4, 2);
    EXPECT_THROW(t.add_stream(EventStream(8, {0, 1, 2})), InvalidArgument);
}

TEST(NgramTable, ZeroLengthThrows) { EXPECT_THROW(NgramTable(4, 0), InvalidArgument); }

TEST(NgramTable, LengthBeyondCodecCapacityThrows) {
    EXPECT_THROW(NgramTable(8, 43), InvalidArgument);
}

TEST(NgramTable, PrefixTableMatchesAStreamScan) {
    // A table derived from a longer one of the same stream counts every gram
    // and totals exactly what a scan of the stream does, for every shorter
    // length, including streams shorter than the source window.
    Rng rng(17);
    for (const std::size_t size : {3u, 6u, 7u, 2000u}) {
        Sequence events(size);
        for (Symbol& e : events) e = static_cast<Symbol>(rng.below(3));
        const EventStream stream(3, std::move(events));
        constexpr std::size_t kLongest = 6;
        const NgramTable longest = NgramTable::from_stream(stream, kLongest);
        for (std::size_t n = 1; n < kLongest; ++n) {
            const NgramTable scanned = NgramTable::from_stream(stream, n);
            const NgramTable derived = longest.prefix_table(stream, n);
            EXPECT_EQ(derived.length(), n);
            EXPECT_EQ(derived.total(), scanned.total()) << size << " events, n=" << n;
            EXPECT_EQ(derived.distinct(), scanned.distinct()) << size << " events, n=" << n;
            scanned.for_each([&](NgramKey key, std::uint64_t count) {
                EXPECT_EQ(derived.count_key(key), count) << size << " events, n=" << n;
            });
            // Chained: derived from a derived table, as the oracle does.
            if (n > 1) {
                const NgramTable chained =
                    longest.prefix_table(stream, n).prefix_table(stream, n - 1);
                const NgramTable shorter = NgramTable::from_stream(stream, n - 1);
                EXPECT_EQ(chained.total(), shorter.total());
                EXPECT_EQ(chained.items_by_count(), shorter.items_by_count());
            }
        }
    }
}

TEST(NgramTable, PrefixTableRejectsAForeignStreamOrALongerLength) {
    const NgramTable t = NgramTable::from_stream(abab(), 3);
    EXPECT_THROW((void)t.prefix_table(abab(), 3), InvalidArgument);
    EXPECT_THROW((void)t.prefix_table(abab(), 0), InvalidArgument);
    EXPECT_THROW((void)t.prefix_table(EventStream(2, {0, 1, 0}), 2), InvalidArgument);
    EXPECT_THROW((void)t.prefix_table(EventStream(3, {0, 1, 0, 1, 0, 1, 0}), 2),
                 InvalidArgument);
}

TEST(NgramTable, ForEachVisitsEveryDistinctGram) {
    const NgramTable t = NgramTable::from_stream(abab(), 2);
    std::size_t visits = 0;
    std::uint64_t total = 0;
    t.for_each([&](NgramKey, std::uint64_t count) {
        ++visits;
        total += count;
    });
    EXPECT_EQ(visits, t.distinct());
    EXPECT_EQ(total, t.total());
}

TEST(NgramTable, ItemsByCountIsSortedDescending) {
    NgramTable t(4, 2);
    t.add(Sequence{0, 1}, 5);
    t.add(Sequence{1, 2}, 9);
    t.add(Sequence{2, 3}, 1);
    const auto items = t.items_by_count();
    ASSERT_EQ(items.size(), 3u);
    EXPECT_EQ(items[0].second, 9u);
    EXPECT_EQ(items[0].first, (Sequence{1, 2}));
    EXPECT_EQ(items[2].second, 1u);
}

TEST(NgramTable, ItemsByCountBreaksTiesByKey) {
    NgramTable t(4, 2);
    t.add(Sequence{3, 3}, 2);
    t.add(Sequence{0, 1}, 2);
    const auto items = t.items_by_count();
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].first, (Sequence{0, 1}));  // smaller key first
}

TEST(NgramTable, AccumulatesAcrossMultipleStreams) {
    NgramTable t(2, 2);
    t.add_stream(EventStream(2, {0, 1, 0}));
    t.add_stream(EventStream(2, {1, 0, 1}));
    EXPECT_EQ(t.total(), 4u);
    EXPECT_EQ(t.count(Sequence{0, 1}), 2u);
    EXPECT_EQ(t.count(Sequence{1, 0}), 2u);
}

/// A stream over the alphabet with a run of 2*run zeros and a run of
/// 2*run top symbols between random stretches, so every length up to `run`
/// sees the all-zero window and the window whose key uses the top bits.
EventStream runs_and_noise(std::size_t alphabet, std::size_t run, std::uint64_t seed) {
    Rng rng(seed);
    Sequence events;
    const auto noise = [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            events.push_back(static_cast<Symbol>(rng.below(alphabet)));
    };
    noise(300);
    events.insert(events.end(), 2 * run, 0);
    noise(400);
    events.insert(events.end(), 2 * run, static_cast<Symbol>(alphabet - 1));
    noise(300);
    return EventStream(alphabet, std::move(events));
}

TEST(NgramTable, MatchesBruteForceRecountAtEveryLength) {
    for (const std::size_t alphabet : {2u, 8u, 256u}) {
        const NgramCodec codec(alphabet);
        const EventStream stream = runs_and_noise(alphabet, codec.max_length(), alphabet);
        const SymbolView all = stream.view();
        for (std::size_t length = 1; length <= codec.max_length(); ++length) {
            SCOPED_TRACE("alphabet " + std::to_string(alphabet) + ", length " +
                         std::to_string(length));
            std::map<Sequence, std::uint64_t> expected;
            for (std::size_t pos = 0; pos + length <= all.size(); ++pos)
                ++expected[Sequence(all.begin() + static_cast<std::ptrdiff_t>(pos),
                                    all.begin() +
                                        static_cast<std::ptrdiff_t>(pos + length))];
            const NgramTable table = NgramTable::from_stream(stream, length);
            ASSERT_EQ(table.total(), all.size() - length + 1);
            ASSERT_EQ(table.distinct(), expected.size());
            for (const auto& [gram, count] : expected) ASSERT_EQ(table.count(gram), count);
            EXPECT_EQ(table.count(Sequence(length, 0)), expected[Sequence(length, 0)]);
            EXPECT_GT(table.count(Sequence(length, static_cast<Symbol>(alphabet - 1))), 0u);

            // for_each visits each distinct window exactly once.
            std::map<Sequence, std::uint64_t> visited;
            table.for_each([&](NgramKey key, std::uint64_t count) {
                EXPECT_TRUE(visited.emplace(codec.decode(key, length), count).second);
            });
            ASSERT_EQ(visited, expected);

            // items_by_count: descending count, ties by key (= lexicographic).
            const auto items = table.items_by_count();
            ASSERT_EQ(items.size(), expected.size());
            for (std::size_t i = 1; i < items.size(); ++i) {
                const bool ordered = items[i - 1].second > items[i].second ||
                                     (items[i - 1].second == items[i].second &&
                                      items[i - 1].first < items[i].first);
                ASSERT_TRUE(ordered) << "at item " << i;
            }
        }
    }
}

TEST(NgramTable, LongRandomStreamGrowsTheTableManyTimes) {
    // ~1000 distinct 12-grams over 8 symbols: the slot array grows from 16
    // to at least 2048 slots, and every count survives the rehashes.
    const EventStream stream = runs_and_noise(8, 12, 99);
    const NgramTable table = NgramTable::from_stream(stream, 12);
    EXPECT_GT(table.distinct(), 900u);
    std::uint64_t sum = 0;
    table.for_each([&](NgramKey, std::uint64_t count) { sum += count; });
    EXPECT_EQ(sum, table.total());
}

}  // namespace
}  // namespace adiv
