/**
 * @file
 * Tests of the interval histogram set: cell partitioning by
 * (kind, prefetch class, reuse), exact count/sum bookkeeping, merge,
 * the default edge list's coverage of every stock decision threshold,
 * the bucket count helpers used by the Fig. 9 analysis, and the
 * serialized layout the artifact cache persists, pinned byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>

#include "core/experiment.hpp"
#include "interval/interval_histogram.hpp"

using namespace leakbound;
using namespace leakbound::interval;

namespace {

Interval
make_interval(Cycles len, IntervalKind kind = IntervalKind::Inner,
              PrefetchClass pf = PrefetchClass::NonPrefetchable,
              bool reuse = true)
{
    Interval iv;
    iv.length = len;
    iv.kind = kind;
    iv.pf = pf;
    iv.ends_in_reuse = reuse;
    return iv;
}

/**
 * A set over edges {0, 10, 100} (bins [0, 10), [10, 100) and the
 * overflow [100, inf)) with every slot populated: an Inner interval in
 * each prefetch class with and without reuse, a Leading, a Trailing
 * and an Untouched interval, and one interval in the overflow bin.
 */
IntervalHistogramSet
layout_population()
{
    IntervalHistogramSet set(std::vector<std::uint64_t>{0, 10, 100});
    for (std::size_t p = 0; p < kNumPrefetchClasses; ++p) {
        const auto pf = static_cast<PrefetchClass>(p);
        set.add(make_interval(3 + p, IntervalKind::Inner, pf, false));
        set.add(make_interval(20 + p, IntervalKind::Inner, pf, true));
    }
    set.add(make_interval(5, IntervalKind::Leading));
    set.add(make_interval(50, IntervalKind::Trailing));
    set.add(make_interval(7, IntervalKind::Untouched));
    set.add(make_interval(1000, IntervalKind::Inner, PrefetchClass::Stride,
                          true));
    set.set_run_info(4, 1200);
    return set;
}

/**
 * serialize() of layout_population(), little-endian u64 words: the
 * edge list (length, edges), the slot count, each slot's bin count and
 * (count, sum) pairs in slot order (Inner pf * 2 + reuse, then
 * Leading, Trailing, Untouched), then frames and cycles.
 */
const char *const kLayoutHex =
    // edges {0, 10, 100}
    "0300000000000000" "0000000000000000"
    "0a00000000000000" "6400000000000000"
    // 9 slots
    "0900000000000000"
    // Inner NP: 3 bins of (count, sum)
    "0300000000000000"
    "0100000000000000" "0300000000000000"
    "0000000000000000" "0000000000000000"
    "0000000000000000" "0000000000000000"
    // Inner NP, reuse: 3 bins of (count, sum)
    "0300000000000000"
    "0000000000000000" "0000000000000000"
    "0100000000000000" "1400000000000000"
    "0000000000000000" "0000000000000000"
    // Inner NL: 3 bins of (count, sum)
    "0300000000000000"
    "0100000000000000" "0400000000000000"
    "0000000000000000" "0000000000000000"
    "0000000000000000" "0000000000000000"
    // Inner NL, reuse: 3 bins of (count, sum)
    "0300000000000000"
    "0000000000000000" "0000000000000000"
    "0100000000000000" "1500000000000000"
    "0000000000000000" "0000000000000000"
    // Inner stride: 3 bins of (count, sum)
    "0300000000000000"
    "0100000000000000" "0500000000000000"
    "0000000000000000" "0000000000000000"
    "0000000000000000" "0000000000000000"
    // Inner stride, reuse: 3 bins of (count, sum)
    "0300000000000000"
    "0000000000000000" "0000000000000000"
    "0100000000000000" "1600000000000000"
    "0100000000000000" "e803000000000000"
    // Leading: 3 bins of (count, sum)
    "0300000000000000"
    "0100000000000000" "0500000000000000"
    "0000000000000000" "0000000000000000"
    "0000000000000000" "0000000000000000"
    // Trailing: 3 bins of (count, sum)
    "0300000000000000"
    "0000000000000000" "0000000000000000"
    "0100000000000000" "3200000000000000"
    "0000000000000000" "0000000000000000"
    // Untouched: 3 bins of (count, sum)
    "0300000000000000"
    "0100000000000000" "0700000000000000"
    "0000000000000000" "0000000000000000"
    "0000000000000000" "0000000000000000"
    // 4 frames, 1200 cycles
    "0400000000000000" "b004000000000000";

std::string
to_hex(const std::string &bytes)
{
    std::string hex;
    char buf[3];
    for (const char c : bytes) {
        std::snprintf(buf, sizeof buf, "%02x",
                      static_cast<unsigned char>(c));
        hex += buf;
    }
    return hex;
}

std::string
from_hex(const std::string &hex)
{
    std::string bytes;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        bytes.push_back(
            static_cast<char>(std::stoul(hex.substr(i, 2), nullptr, 16)));
    return bytes;
}

/** Every non-empty cell of @p set, in iteration order. */
std::vector<std::tuple<IntervalKind, PrefetchClass, bool, Cycles, Cycles,
                       std::uint64_t, std::uint64_t>>
cells_of(const IntervalHistogramSet &set)
{
    std::vector<std::tuple<IntervalKind, PrefetchClass, bool, Cycles,
                           Cycles, std::uint64_t, std::uint64_t>>
        cells;
    set.for_each_cell([&](const CellRef &c) {
        cells.emplace_back(c.kind, c.pf, c.ends_in_reuse, c.lower, c.upper,
                           c.count, c.sum);
    });
    return cells;
}

} // namespace

TEST(IntervalHistogram, TotalsTrackAdds)
{
    auto set = IntervalHistogramSet::with_default_edges();
    set.add(make_interval(10));
    set.add(make_interval(2000, IntervalKind::Inner,
                          PrefetchClass::NextLine));
    set.add(make_interval(500, IntervalKind::Trailing));
    set.add(make_interval(100, IntervalKind::Leading));
    set.add(make_interval(99, IntervalKind::Untouched));
    EXPECT_EQ(set.total_intervals(), 5u);
    EXPECT_EQ(set.total_inner_intervals(), 2u);
    EXPECT_EQ(set.total_length(), 10u + 2000 + 500 + 100 + 99);
}

TEST(IntervalHistogram, CellsCarryFullIdentity)
{
    auto set = IntervalHistogramSet::with_default_edges();
    set.add(make_interval(2000, IntervalKind::Inner, PrefetchClass::Stride,
                          false));
    bool seen = false;
    set.for_each_cell([&](const CellRef &cell) {
        EXPECT_FALSE(seen) << "exactly one populated cell expected";
        seen = true;
        EXPECT_EQ(cell.kind, IntervalKind::Inner);
        EXPECT_EQ(cell.pf, PrefetchClass::Stride);
        EXPECT_FALSE(cell.ends_in_reuse);
        EXPECT_LE(cell.lower, 2000u);
        EXPECT_GT(cell.upper, 2000u);
        EXPECT_EQ(cell.count, 1u);
        EXPECT_EQ(cell.sum, 2000u);
    });
    EXPECT_TRUE(seen);
}

TEST(IntervalHistogram, ReuseVariantsAreSeparated)
{
    auto set = IntervalHistogramSet::with_default_edges();
    set.add(make_interval(5000, IntervalKind::Inner,
                          PrefetchClass::NonPrefetchable, true));
    set.add(make_interval(5000, IntervalKind::Inner,
                          PrefetchClass::NonPrefetchable, false));
    int cells = 0;
    set.for_each_cell([&](const CellRef &cell) {
        ++cells;
        EXPECT_EQ(cell.count, 1u);
    });
    EXPECT_EQ(cells, 2);
}

TEST(IntervalHistogram, MergeAddsCellwise)
{
    auto a = IntervalHistogramSet::with_default_edges();
    auto b = IntervalHistogramSet::with_default_edges();
    a.add(make_interval(100));
    b.add(make_interval(100));
    b.add(make_interval(7777, IntervalKind::Trailing));
    a.merge(b);
    EXPECT_EQ(a.total_intervals(), 3u);
    EXPECT_EQ(a.total_length(), 100u + 100 + 7777);
}

TEST(IntervalHistogram, BinIndexAndEdges)
{
    // Edges {0, 10, 100}: bins [0, 10), [10, 100) and the overflow
    // [100, UINT64_MAX), each value landing by its lower edge.
    IntervalHistogramSet set(std::vector<std::uint64_t>{0, 10, 100});
    for (const Cycles len : {0ULL, 9ULL, 10ULL, 99ULL, 100ULL, ~0ULL})
        set.add(make_interval(len, IntervalKind::Leading));
    std::vector<std::tuple<Cycles, Cycles, std::uint64_t>> cells;
    set.for_each_cell([&](const CellRef &c) {
        EXPECT_EQ(c.kind, IntervalKind::Leading);
        cells.emplace_back(c.lower, c.upper, c.count);
    });
    const std::vector<std::tuple<Cycles, Cycles, std::uint64_t>> want = {
        {0, 10, 2}, {10, 100, 2}, {100, ~0ULL, 2}};
    EXPECT_EQ(cells, want);
}

TEST(IntervalHistogram, CountsAndSums)
{
    IntervalHistogramSet set(std::vector<std::uint64_t>{0, 10, 100});
    for (const Cycles len : {3ULL, 7ULL, 50ULL, 50ULL, 50ULL, 50ULL, 1000ULL})
        set.add(make_interval(len));
    std::vector<std::tuple<Cycles, std::uint64_t, std::uint64_t>> cells;
    set.for_each_cell([&](const CellRef &c) {
        cells.emplace_back(c.lower, c.count, c.sum);
    });
    const std::vector<std::tuple<Cycles, std::uint64_t, std::uint64_t>>
        want = {{0, 2, 10}, {10, 4, 200}, {100, 1, 1000}};
    EXPECT_EQ(cells, want);
    EXPECT_EQ(set.total_intervals(), 7u);
    EXPECT_EQ(set.total_length(), 1210u);
}

TEST(IntervalHistogram, MergePreservesTotals)
{
    IntervalHistogramSet a(std::vector<std::uint64_t>{0, 10, 100});
    IntervalHistogramSet b(std::vector<std::uint64_t>{0, 10, 100});
    a.add(make_interval(1));
    b.add(make_interval(7));
    b.add(make_interval(200, IntervalKind::Trailing));
    a.set_run_info(4, 100);
    b.set_run_info(2, 300);
    a.merge(b);
    EXPECT_EQ(a.total_intervals(), 3u);
    EXPECT_EQ(a.total_inner_intervals(), 2u);
    EXPECT_EQ(a.total_length(), 208u);
    EXPECT_EQ(a.num_frames(), 6u);
    EXPECT_EQ(a.total_cycles(), 300u);
}

TEST(IntervalHistogram, DefaultEdgesContainEveryStockThreshold)
{
    // The contract the exact evaluator rests on: every decision
    // boundary of every stock experiment policy is a bin edge once
    // standard_extra_edges() is folded in.
    const auto &extra = core::standard_extra_edges();
    const auto edges = IntervalHistogramSet::default_edges(extra);
    for (Cycles t : extra) {
        EXPECT_TRUE(std::binary_search(edges.begin(), edges.end(), t))
            << "missing threshold " << t;
    }
    // The paper's fixed landmarks must be edges even without extras.
    const auto bare = IntervalHistogramSet::default_edges();
    for (Cycles t : {0ULL, 6ULL, 7ULL, 37ULL, 1057ULL, 5088ULL, 10328ULL,
                     103084ULL, 10000ULL, 10001ULL}) {
        EXPECT_TRUE(std::binary_search(bare.begin(), bare.end(), t))
            << "missing landmark " << t;
    }
}

TEST(IntervalHistogram, EdgesAreSortedUnique)
{
    const auto edges =
        IntervalHistogramSet::default_edges({9999, 9999, 5});
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    EXPECT_EQ(std::adjacent_find(edges.begin(), edges.end()), edges.end());
    EXPECT_EQ(edges.front(), 0u);
}

TEST(IntervalHistogram, InnerCountInRangeByClass)
{
    auto set = IntervalHistogramSet::with_default_edges();
    set.add(make_interval(100, IntervalKind::Inner,
                          PrefetchClass::NextLine));
    set.add(make_interval(200, IntervalKind::Inner,
                          PrefetchClass::NextLine, false));
    set.add(make_interval(5000, IntervalKind::Inner,
                          PrefetchClass::Stride));
    set.add(make_interval(3, IntervalKind::Inner));
    // Non-inner intervals never count.
    set.add(make_interval(150, IntervalKind::Trailing));

    EXPECT_EQ(set.inner_count_in(PrefetchClass::NextLine, 7, 1058), 2u);
    EXPECT_EQ(set.inner_count_in(PrefetchClass::Stride, 1058, ~0ULL), 1u);
    EXPECT_EQ(set.inner_count_in(0, 7), 1u);
    EXPECT_EQ(set.inner_count_in(0, ~0ULL), 4u);
}

TEST(IntervalHistogram, RunInfoFeedsBaseline)
{
    auto set = IntervalHistogramSet::with_default_edges();
    set.set_run_info(1024, 2'000'000);
    EXPECT_DOUBLE_EQ(set.baseline_energy(), 1024.0 * 2'000'000.0);
}

TEST(IntervalHistogramDeath, MergeRequiresSameEdges)
{
    auto a = IntervalHistogramSet::with_default_edges();
    IntervalHistogramSet b(std::vector<std::uint64_t>{0, 10});
    EXPECT_DEATH(a.merge(b), "edges");
}

TEST(IntervalHistogram, SerializedLayoutIsPinned)
{
    util::BinaryWriter w;
    layout_population().serialize(w);
    EXPECT_EQ(to_hex(w.bytes()), kLayoutHex);
}

TEST(IntervalHistogram, DeserializeReadsThePinnedLayout)
{
    const std::string bytes = from_hex(kLayoutHex);
    util::BinaryReader r(bytes);
    const auto set = IntervalHistogramSet::deserialize(r);
    ASSERT_TRUE(set.has_value());
    EXPECT_TRUE(r.at_end());

    const IntervalHistogramSet want = layout_population();
    EXPECT_EQ(set->edges(), want.edges());
    EXPECT_EQ(cells_of(*set), cells_of(want));
    EXPECT_EQ(cells_of(*set).size(), 10u);
    EXPECT_EQ(set->num_frames(), 4u);
    EXPECT_EQ(set->total_cycles(), 1200u);
    EXPECT_EQ(set->total_intervals(), 10u);
    EXPECT_EQ(set->inner_count_in(PrefetchClass::Stride, 100, ~0ULL), 1u);
}

TEST(IntervalHistogram, DeserializeRejectsAWrongBinCount)
{
    // Slot 4's bin count sits after the edge list (4 words), the slot
    // count (1 word) and four slots of 7 words each.
    constexpr std::size_t kBinCountAt = (4 + 1 + 4 * 7) * 8;
    for (const char bins : {2, 4}) {
        std::string bytes = from_hex(kLayoutHex);
        ASSERT_EQ(bytes[kBinCountAt], 3);
        bytes[kBinCountAt] = bins;
        util::BinaryReader r(bytes);
        EXPECT_FALSE(IntervalHistogramSet::deserialize(r).has_value())
            << "bin count " << int{bins};
    }
}
