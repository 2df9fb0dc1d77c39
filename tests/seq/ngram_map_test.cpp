#include "seq/ngram_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

namespace adiv {
namespace {

TEST(NgramMap, EmptyMapFindsNothing) {
    const NgramMap map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(0), nullptr);
    std::size_t visits = 0;
    map.for_each([&](NgramKey, std::uint64_t) { ++visits; });
    EXPECT_EQ(visits, 0u);
}

TEST(NgramMap, StoresTheZeroKeyAndTopBitKeys) {
    NgramMap map;
    const NgramKey all_ones = ~NgramKey{0};
    const NgramKey top_bit = NgramKey{1} << 127;
    map[0] = 5;
    map[all_ones] = 7;
    map[top_bit] += 9;
    ASSERT_EQ(map.size(), 3u);
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 5u);
    EXPECT_EQ(*map.find(all_ones), 7u);
    EXPECT_EQ(*map.find(top_bit), 9u);
    EXPECT_EQ(map.find(1), nullptr);
    EXPECT_EQ(map.find(top_bit | 1), nullptr);
}

TEST(NgramMap, NewKeysStartAtZero) {
    NgramMap map;
    EXPECT_EQ(map[42], 0u);
    EXPECT_EQ(map.size(), 1u);  // operator[] inserts even when only read
    ++map[42];
    ++map[42];
    EXPECT_EQ(*map.find(42), 2u);
}

TEST(NgramMap, GrowsAndVisitsEveryKeyOnce) {
    // Keys that differ only above bit 64 as well as below it, enough to grow
    // the slot array from 16 to 8192 slots.
    NgramMap map;
    std::map<NgramKey, std::uint64_t> expected;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const NgramKey key = (NgramKey{i % 7} << 100) | (NgramKey{i / 7} << 3) | (i % 5);
        map[key] += i + 1;
        expected[key] += i + 1;
    }
    ASSERT_EQ(map.size(), expected.size());
    for (const auto& [key, value] : expected) {
        const std::uint64_t* found = map.find(key);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, value);
    }
    std::map<NgramKey, std::uint64_t> visited;
    map.for_each([&](NgramKey key, std::uint64_t value) {
        EXPECT_TRUE(visited.emplace(key, value).second) << "key visited twice";
    });
    EXPECT_EQ(visited, expected);
}

TEST(NgramMap, SlotOrderIsAFunctionOfTheInsertions) {
    NgramMap a, b;
    for (std::uint64_t i = 0; i < 500; ++i) {
        ++a[NgramKey{i * 0x9e3779b97f4a7c15ULL}];
        ++b[NgramKey{i * 0x9e3779b97f4a7c15ULL}];
    }
    std::vector<NgramKey> order_a, order_b;
    a.for_each([&](NgramKey key, std::uint64_t) { order_a.push_back(key); });
    b.for_each([&](NgramKey key, std::uint64_t) { order_b.push_back(key); });
    EXPECT_EQ(order_a, order_b);
}

}  // namespace
}  // namespace adiv
