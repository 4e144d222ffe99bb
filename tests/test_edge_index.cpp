/**
 * @file
 * Tests of util::EdgeIndex, the O(1) histogram binning path: exact
 * equivalence with the std::upper_bound reference over fuzzed edge
 * lists and values (below-range clamp, exact edges, edge +/- 1,
 * overflow bin, huge magnitudes), plus the sharing contract with
 * IntervalHistogramSet.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "interval/interval_histogram.hpp"
#include "util/edge_index.hpp"
#include "util/random.hpp"

using namespace leakbound;
using util::EdgeIndex;

namespace {

/** Draw a sorted, deduplicated random edge list. */
std::vector<std::uint64_t>
fuzz_edges(util::Rng &rng)
{
    std::vector<std::uint64_t> edges;
    const std::size_t count = 1 + rng.next_below(64);
    // Mix magnitudes: dense small values, mid-range thresholds, and
    // huge tail edges all in one list.
    for (std::size_t i = 0; i < count; ++i) {
        switch (rng.next_below(4)) {
          case 0:
            edges.push_back(rng.next_below(70));
            break;
          case 1:
            edges.push_back(rng.next_below(5000));
            break;
          case 2:
            edges.push_back(rng.next_below(1ULL << 21));
            break;
          default:
            edges.push_back(rng.next_u64() >> rng.next_below(40));
            break;
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace

TEST(EdgeIndex, MatchesReferenceOnHandPickedCases)
{
    const EdgeIndex index({10, 100, 1000});
    // Below-range values clamp into bin 0.
    EXPECT_EQ(index.bin_index(0), 0u);
    EXPECT_EQ(index.bin_index(9), 0u);
    // Exact edges open their own bin.
    EXPECT_EQ(index.bin_index(10), 0u);
    EXPECT_EQ(index.bin_index(100), 1u);
    EXPECT_EQ(index.bin_index(1000), 2u);
    // Interior and overflow values.
    EXPECT_EQ(index.bin_index(99), 0u);
    EXPECT_EQ(index.bin_index(101), 1u);
    EXPECT_EQ(index.bin_index(~0ULL), 2u);
}

TEST(EdgeIndex, MatchesReferenceOnDefaultIntervalEdges)
{
    const EdgeIndex index(interval::IntervalHistogramSet::default_edges());
    // Every edge, its neighbours, and a value sweep across the full
    // dynamic range agree with the reference.
    for (std::uint64_t e : index.edges()) {
        EXPECT_EQ(index.bin_index(e), index.bin_index_reference(e));
        EXPECT_EQ(index.bin_index(e + 1), index.bin_index_reference(e + 1));
        if (e > 0) {
            EXPECT_EQ(index.bin_index(e - 1),
                      index.bin_index_reference(e - 1));
        }
    }
    util::Rng rng(101);
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
        ASSERT_EQ(index.bin_index(v), index.bin_index_reference(v))
            << "value " << v;
    }
}

TEST(EdgeIndex, FuzzedEdgeListsMatchReferenceEverywhere)
{
    util::Rng rng(202);
    for (int round = 0; round < 200; ++round) {
        const EdgeIndex index(fuzz_edges(rng));
        const auto &edges = index.edges();

        // Deterministic probes: below range, every edge and its
        // neighbours, and the overflow bin.
        std::vector<std::uint64_t> probes = {0, 1, ~0ULL, ~0ULL - 1};
        for (std::uint64_t e : edges) {
            probes.push_back(e);
            probes.push_back(e + 1);
            if (e > 0)
                probes.push_back(e - 1);
        }
        for (std::uint64_t v : probes) {
            ASSERT_EQ(index.bin_index(v), index.bin_index_reference(v))
                << "round " << round << " value " << v;
        }
        // Random probes across all magnitudes.
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t v = rng.next_u64() >> rng.next_below(64);
            ASSERT_EQ(index.bin_index(v), index.bin_index_reference(v))
                << "round " << round << " value " << v;
        }
        // The last bin is the overflow bin.
        EXPECT_EQ(index.bin_index(~0ULL), edges.size() - 1);
    }
}

TEST(EdgeIndex, HistogramsShareOneIndex)
{
    // Sets over one edge list share its interned index (edges() is the
    // index's own list), so merging them copies no edges.
    interval::IntervalHistogramSet a({0, 10, 100});
    interval::IntervalHistogramSet b({0, 10, 100});
    EXPECT_EQ(&a.edges(), &b.edges());
    EXPECT_EQ(a.edges(), b.edges());

    interval::Interval iv;
    iv.length = 5;
    a.add(iv);
    iv.length = 50;
    b.add(iv);
    b.merge(a); // shared index: merge must accept without copying edges
    EXPECT_EQ(b.total_intervals(), 2u);
    EXPECT_EQ(b.total_length(), 55u);
    EXPECT_EQ(b.inner_count_in(0, 10), 1u);
    EXPECT_EQ(b.inner_count_in(10, 100), 1u);
}

TEST(EdgeIndex, IntervalSetHistogramsShareTheSetIndex)
{
    auto set = interval::IntervalHistogramSet::with_default_edges();
    // Feed every slot and confirm totals; the set shares one index
    // across its nine rows, so totals must still be exact.
    util::Rng rng(303);
    std::uint64_t expected_sum = 0;
    for (int i = 0; i < 10'000; ++i) {
        interval::Interval iv;
        iv.kind = static_cast<interval::IntervalKind>(rng.next_below(4));
        iv.pf = static_cast<interval::PrefetchClass>(rng.next_below(3));
        iv.ends_in_reuse = rng.next_bool(0.5);
        iv.length = rng.next_u64() >> rng.next_below(50);
        expected_sum += iv.length;
        set.add(iv);
    }
    EXPECT_EQ(set.total_intervals(), 10'000u);
    EXPECT_EQ(set.total_length(), expected_sum);
}
