/**
 * @file
 * Tests of the prefetch substrate: the Farkas twice-confirmed stride
 * rule, table-collision behaviour, next-line coverage windows, and the
 * Figure 9 prefetchability analysis.
 */

#include <gtest/gtest.h>

#include "core/inflection.hpp"
#include "interval/interval_histogram.hpp"
#include "power/technology.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/prefetchability.hpp"
#include "prefetch/stride.hpp"
#include "util/random.hpp"

using namespace leakbound;
using namespace leakbound::prefetch;

// --------------------------------------------------------------- stride

TEST(Stride, RequiresTwoConfirmations)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    // a, a+64, a+128: the second access *sets* the stride, the third
    // confirms it once; only the fourth access is covered.
    EXPECT_FALSE(p.access(pc, 0x1000));
    EXPECT_FALSE(p.access(pc, 0x1040)); // stride=64, conf=1
    EXPECT_FALSE(p.access(pc, 0x1080)); // conf=2 after, not before
    EXPECT_TRUE(p.access(pc, 0x10c0));  // predicted
    EXPECT_TRUE(p.access(pc, 0x1100));
    EXPECT_EQ(p.covered(), 2u);
    EXPECT_EQ(p.observed(), 5u);
}

TEST(Stride, BrokenStrideResetsConfidence)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1040);
    p.access(pc, 0x1080);
    EXPECT_TRUE(p.access(pc, 0x10c0));
    // Jump: breaks the run.
    EXPECT_FALSE(p.access(pc, 0x9000));
    // New stride must be re-confirmed twice.
    EXPECT_FALSE(p.access(pc, 0x9040));
    EXPECT_FALSE(p.access(pc, 0x9080));
    EXPECT_TRUE(p.access(pc, 0x90c0));
}

TEST(Stride, NegativeStridesWork)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x5000);
    p.access(pc, 0x4f00);
    p.access(pc, 0x4e00);
    EXPECT_TRUE(p.access(pc, 0x4d00));
}

TEST(Stride, SubLinePredictionCountsByLine)
{
    // A confirmed 8-byte stride covers the next access on it: the
    // predicted address is the accessed one, so its line matches too.
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1008);
    p.access(pc, 0x1010);
    EXPECT_TRUE(p.access(pc, 0x1018, 64));
}

TEST(Stride, SameLineOffStrideIsNotCovered)
{
    // Coverage is the exact stride: an access on the predicted line
    // but off the predicted address breaks the run, at any line size.
    for (const std::uint32_t line : {64u, 4096u}) {
        StridePredictor p;
        const Pc pc = 0x4000;
        p.access(pc, 0x1000, line);
        p.access(pc, 0x1040, line);
        p.access(pc, 0x1080, line);
        EXPECT_TRUE(p.access(pc, 0x10c0, line));
        EXPECT_FALSE(p.access(pc, 0x1104, line)) << line; // 0x1100 + 4
        EXPECT_EQ(p.covered(), 1u);
    }
}

TEST(Stride, AnswersDoNotDependOnLineSize)
{
    // One random stream of strided runs, jumps and PC collisions,
    // including addresses at and above 2^63, answered identically at
    // line sizes 8, 64 and 4096.
    util::Rng rng(0x5eed);
    StridePredictor p8, p64, p4096;
    Addr addr[4] = {0x1000, 0x8000'0000'0000'0000ULL,
                    0xffff'ffff'ffff'ff00ULL, 0x40};
    const std::int64_t strides[] = {8, 64, -64, 4, 4096, -8, 0, 72};
    std::int64_t stride[4] = {8, 64, -64, 4};
    std::uint64_t covered = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::size_t k = rng.next_below(4);
        if (rng.next_bool(0.05))
            stride[k] = strides[rng.next_below(8)];
        if (rng.next_bool(0.01))
            addr[k] = rng.next_u64();
        addr[k] += static_cast<Addr>(stride[k]);
        const Pc pc = 0x4000 + 4 * k;
        const bool a = p8.access(pc, addr[k], 8);
        ASSERT_EQ(a, p64.access(pc, addr[k], 64)) << "access " << i;
        ASSERT_EQ(a, p4096.access(pc, addr[k], 4096)) << "access " << i;
        covered += a;
    }
    EXPECT_GT(covered, 100'000u);
    EXPECT_EQ(p8.covered(), covered);
}

TEST(Stride, DistinctPcsTrackIndependently)
{
    StridePredictor p;
    p.access(0x4000, 0x1000);
    p.access(0x4004, 0x20000);
    p.access(0x4000, 0x1040);
    p.access(0x4004, 0x20010);
    p.access(0x4000, 0x1080);
    p.access(0x4004, 0x20020);
    EXPECT_TRUE(p.access(0x4000, 0x10c0));
    EXPECT_TRUE(p.access(0x4004, 0x20030));
}

TEST(Stride, TableCollisionEvicts)
{
    // Two PCs that alias in a tiny table fight over the entry, so
    // neither ever reaches two confirmations.
    StrideConfig cfg;
    cfg.table_entries = 1;
    StridePredictor p(cfg);
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(p.access(0x4000, 0x1000 + 64 * i));
        EXPECT_FALSE(p.access(0x8000, 0x90000 + 64 * i));
    }
}

TEST(Stride, ResetForgets)
{
    StridePredictor p;
    const Pc pc = 0x4000;
    p.access(pc, 0x1000);
    p.access(pc, 0x1040);
    p.access(pc, 0x1080);
    p.reset();
    EXPECT_FALSE(p.access(pc, 0x10c0));
    EXPECT_EQ(p.observed(), 1u);
}

// ------------------------------------------------------------ next-line

TEST(NextLine, CoversWhenPreviousLineTouchedInWindow)
{
    NextLineMonitor m;
    m.record(99, 500); // block 99 touched at cycle 500
    // Interval of block 100 opened at 400: 99 touched inside -> cover.
    EXPECT_TRUE(m.covers(100, 400));
    // Opened at 600: the touch predates the interval.
    EXPECT_FALSE(m.covers(100, 600));
    // Exactly at the boundary: "within" is strict.
    EXPECT_FALSE(m.covers(100, 500));
}

TEST(NextLine, UnknownPreviousBlockDoesNotCover)
{
    NextLineMonitor m;
    EXPECT_FALSE(m.covers(100, 0));
    EXPECT_FALSE(m.covers(0, 0)); // block 0 has no predecessor
}

TEST(NextLine, LatestTouchWins)
{
    NextLineMonitor m;
    m.record(7, 100);
    m.record(7, 900);
    EXPECT_TRUE(m.covers(8, 500));
    m.reset();
    EXPECT_FALSE(m.covers(8, 0));
}

// ------------------------------------------------- prefetchability (Fig 9)

TEST(Prefetchability, BucketsAndHeadlineFractions)
{
    using interval::Interval;
    using interval::IntervalKind;
    using interval::PrefetchClass;

    auto set = interval::IntervalHistogramSet::with_default_edges();
    auto add = [&set](Cycles len, PrefetchClass pf) {
        Interval iv;
        iv.kind = IntervalKind::Inner;
        iv.length = len;
        iv.pf = pf;
        set.add(iv);
    };
    // Short bucket (always non-prefetchable, even if flagged).
    add(3, PrefetchClass::NextLine);
    add(6, PrefetchClass::NonPrefetchable);
    // Drowsy bucket.
    add(500, PrefetchClass::NextLine);
    add(900, PrefetchClass::NonPrefetchable);
    // Sleep bucket.
    add(5000, PrefetchClass::Stride);
    add(50'000, PrefetchClass::NextLine);
    add(70'000, PrefetchClass::NonPrefetchable);
    // Non-inner intervals are ignored entirely.
    Interval trail;
    trail.kind = IntervalKind::Trailing;
    trail.length = 1'000'000;
    set.add(trail);

    const auto points = core::compute_inflection(
        power::node_params(power::TechNode::Nm70));
    const PrefetchabilityReport r = analyze_prefetchability(set, points);

    EXPECT_EQ(r.short_bucket.total(), 2u);
    EXPECT_EQ(r.short_bucket.next_line, 0u); // reclassified as NP
    EXPECT_EQ(r.drowsy_bucket.next_line, 1u);
    EXPECT_EQ(r.drowsy_bucket.non_prefetchable, 1u);
    EXPECT_EQ(r.sleep_bucket.stride, 1u);
    EXPECT_EQ(r.sleep_bucket.next_line, 1u);
    EXPECT_EQ(r.sleep_bucket.non_prefetchable, 1u);

    // Fractions over all 7 inner intervals.
    EXPECT_NEAR(r.next_line_fraction, 2.0 / 7.0, 1e-12);
    EXPECT_NEAR(r.stride_fraction, 1.0 / 7.0, 1e-12);
    EXPECT_NEAR(r.total_fraction, 3.0 / 7.0, 1e-12);
}

TEST(Prefetchability, EmptySetYieldsZeros)
{
    auto set = interval::IntervalHistogramSet::with_default_edges();
    const auto points = core::compute_inflection(
        power::node_params(power::TechNode::Nm70));
    const PrefetchabilityReport r = analyze_prefetchability(set, points);
    EXPECT_EQ(r.total_fraction, 0.0);
    EXPECT_EQ(r.short_bucket.total(), 0u);
}
