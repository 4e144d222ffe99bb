/**
 * @file
 * Tests of the interval collector: full timeline partitioning
 * (leading/inner/trailing/untouched), the frame-time conservation
 * invariant, the access-count conservation helper, prefetch-class
 * precedence, reuse flags and misuse detection.
 */

#include <gtest/gtest.h>

#include "interval/collector.hpp"
#include "interval/interval_histogram.hpp"
#include "util/status.hpp"

using namespace leakbound;
using namespace leakbound::interval;

namespace {

IntervalHistogramSet
make_set()
{
    return IntervalHistogramSet::with_default_edges();
}

} // namespace

TEST(Collector, PartitionsOneFrameTimeline)
{
    auto set = make_set();
    IntervalCollector c(1, &set, /*keep_raw=*/true);
    c.on_access(0, 100, false, false, false); // leading [0,100)
    c.on_access(0, 250, true, false, false);  // inner 150
    c.on_access(0, 260, true, false, false);  // inner 10
    c.finalize(1000);                         // trailing 740

    const auto &raw = c.raw();
    ASSERT_EQ(raw.size(), 4u);
    EXPECT_EQ(raw[0].kind, IntervalKind::Leading);
    EXPECT_EQ(raw[0].length, 100u);
    EXPECT_EQ(raw[1].kind, IntervalKind::Inner);
    EXPECT_EQ(raw[1].length, 150u);
    EXPECT_EQ(raw[2].kind, IntervalKind::Inner);
    EXPECT_EQ(raw[2].length, 10u);
    EXPECT_EQ(raw[3].kind, IntervalKind::Trailing);
    EXPECT_EQ(raw[3].length, 740u);
}

TEST(Collector, FrameTimeConservation)
{
    // Invariant: per-frame interval lengths sum to the run length, so
    // total interval time == frames * cycles == baseline energy.
    auto set = make_set();
    const std::uint64_t frames = 8;
    IntervalCollector c(frames, &set);
    // A scatter of accesses across frames (frame, cycle).
    const std::pair<FrameId, Cycle> accesses[] = {
        {0, 5},  {1, 7},   {0, 9},   {3, 100}, {3, 101},
        {1, 80}, {0, 900}, {5, 333}, {3, 999},
    };
    for (auto [frame, cycle] : accesses)
        c.on_access(frame, cycle, true, false, false);
    c.finalize(1000);

    EXPECT_EQ(set.total_length(), frames * 1000u);
    EXPECT_DOUBLE_EQ(set.baseline_energy(),
                     static_cast<double>(frames) * 1000.0);
    EXPECT_EQ(set.num_frames(), frames);
    EXPECT_EQ(set.total_cycles(), 1000u);
}

TEST(Collector, UntouchedFramesEmitFullRunIntervals)
{
    auto set = make_set();
    IntervalCollector c(4, &set, true);
    c.on_access(1, 10, false, false, false);
    c.finalize(500);
    std::uint64_t untouched = 0;
    for (const auto &iv : c.raw()) {
        if (iv.kind == IntervalKind::Untouched) {
            ++untouched;
            EXPECT_EQ(iv.length, 500u);
        }
    }
    EXPECT_EQ(untouched, 3u);
}

TEST(Collector, PrefetchClassPrecedence)
{
    auto set = make_set();
    IntervalCollector c(1, &set, true);
    c.on_access(0, 0, false, false, false);
    // Next-line wins even when stride also covered the access.
    c.on_access(0, 100, true, /*stride=*/true, /*nl=*/true);
    // Stride alone.
    c.on_access(0, 200, true, true, false);
    // Neither.
    c.on_access(0, 300, true, false, false);
    c.finalize(400);

    const auto &raw = c.raw();
    EXPECT_EQ(raw[1].pf, PrefetchClass::NextLine);
    EXPECT_EQ(raw[2].pf, PrefetchClass::Stride);
    EXPECT_EQ(raw[3].pf, PrefetchClass::NonPrefetchable);
}

TEST(Collector, LeadingIntervalsIgnorePrefetchFlags)
{
    auto set = make_set();
    IntervalCollector c(1, &set, true);
    c.on_access(0, 50, true, true, true); // first touch
    c.finalize(100);
    EXPECT_EQ(c.raw()[0].kind, IntervalKind::Leading);
    EXPECT_EQ(c.raw()[0].pf, PrefetchClass::NonPrefetchable);
    EXPECT_FALSE(c.raw()[0].ends_in_reuse);
}

TEST(Collector, ReuseFlagRecorded)
{
    auto set = make_set();
    IntervalCollector c(1, &set, true);
    c.on_access(0, 0, false, false, false);
    c.on_access(0, 10, true, false, false);  // hit: reuse
    c.on_access(0, 20, false, false, false); // replacement fill
    c.finalize(30);
    EXPECT_TRUE(c.raw()[1].ends_in_reuse);
    EXPECT_FALSE(c.raw()[2].ends_in_reuse);
}

TEST(Collector, OpenSinceTracksLastAccess)
{
    auto set = make_set();
    IntervalCollector c(2, &set);
    Cycle since = 123;
    EXPECT_FALSE(c.open_since(0, since));
    c.on_access(0, 77, false, false, false);
    ASSERT_TRUE(c.open_since(0, since));
    EXPECT_EQ(since, 77u);
    c.on_access(0, 200, true, false, false);
    ASSERT_TRUE(c.open_since(0, since));
    EXPECT_EQ(since, 200u);
    EXPECT_FALSE(c.open_since(1, since));
}

TEST(Collector, ZeroLengthIntervalsAllowed)
{
    // Two accesses in the same cycle (4-wide fetch of one line) make a
    // zero-length inner interval; it must land in the [0,1) bin.
    auto set = make_set();
    IntervalCollector c(1, &set, true);
    c.on_access(0, 10, false, false, false);
    c.on_access(0, 10, true, false, false);
    c.finalize(20);
    EXPECT_EQ(c.raw()[1].length, 0u);
}

TEST(Collector, StrayIntervalFailsFinalizeTypedInternal)
{
    // finalize() checks frame-time conservation on its sink: one
    // interval the collector did not produce breaks frames x end_cycle
    // and fails the run with a typed Internal error, not a number.
    auto set = make_set();
    Interval stray;
    stray.length = 7;
    set.add(stray);
    IntervalCollector c(2, &set);
    c.on_access(0, 10, false, false, false);
    try {
        c.finalize(100);
        FAIL() << "finalize accepted a sink holding a stray interval";
    } catch (const util::StatusError &e) {
        EXPECT_EQ(e.status().kind(), util::ErrorKind::Internal);
        EXPECT_NE(std::string(e.what()).find("conservation"),
                  std::string::npos);
    }
}

TEST(Collector, AccessCountMismatchFailsTypedInternal)
{
    // The helper both simulation engines call after a run: equal counts
    // pass; a collector that saw fewer (or more) accesses than its
    // cache delivered fails typed Internal and names the cache.
    EXPECT_NO_THROW(check_access_count(42, 42, "L1I"));
    try {
        check_access_count(41, 42, "core 3 L1D");
        FAIL() << "a lost access passed the conservation check";
    } catch (const util::StatusError &e) {
        EXPECT_EQ(e.status().kind(), util::ErrorKind::Internal);
        const std::string what = e.what();
        EXPECT_NE(what.find("access-count conservation"), std::string::npos);
        EXPECT_NE(what.find("core 3 L1D"), std::string::npos);
    }
    EXPECT_THROW(check_access_count(43, 42, "shared L2"), util::StatusError);
}

TEST(CollectorDeath, OutOfOrderAccessPanics)
{
    auto set = make_set();
    IntervalCollector c(1, &set);
    c.on_access(0, 100, false, false, false);
    EXPECT_DEATH(c.on_access(0, 50, true, false, false), "time-ordered");
}

TEST(CollectorDeath, AccessAfterFinalizePanics)
{
    auto set = make_set();
    IntervalCollector c(1, &set);
    c.finalize(10);
    EXPECT_DEATH(c.on_access(0, 20, false, false, false), "finalize");
}

TEST(CollectorDeath, DoubleFinalizePanics)
{
    auto set = make_set();
    IntervalCollector c(1, &set);
    c.finalize(10);
    EXPECT_DEATH(c.finalize(20), "twice");
}

TEST(CollectorDeath, BadFramePanics)
{
    auto set = make_set();
    IntervalCollector c(2, &set);
    EXPECT_DEATH(c.on_access(7, 1, false, false, false), "range");
}
