/**
 * @file
 * Next-line coverage monitor (paper Sections 5.1-5.2).
 *
 * Next-line prefetching fetches block B when block B-1 is touched.
 * The paper classifies an access interval as next-line prefetchable
 * when "one or more accesses to the previous cache line occurs"
 * within it: the prefetcher would then have re-fetched (or woken) the
 * line just in time for the closing access.
 *
 * The monitor records the last access time of every block; the
 * experiment glue asks, when an access to block B closes an interval
 * that opened at t0, whether B-1 was accessed after t0.
 *
 * The table is paged: each page holds the last access of 64 adjacent
 * blocks as `cycle + 1` (0 = never), 512 B, and pages are found
 * through a one-page memo in front of a FlatMap page index.  Every
 * access asks about block-1 and then records block, which share a page
 * 63 times in 64, so the common case touches one host cache line with
 * no hashing at all.
 */

#ifndef LEAKBOUND_PREFETCH_NEXT_LINE_HPP
#define LEAKBOUND_PREFETCH_NEXT_LINE_HPP

#include <array>
#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace leakbound::prefetch {

/** Tracks per-block last access times for next-line coverage tests. */
class NextLineMonitor
{
  public:
    NextLineMonitor();

    // The memo points into pages_, so a copy would alias its source.
    NextLineMonitor(const NextLineMonitor &) = delete;
    NextLineMonitor &operator=(const NextLineMonitor &) = delete;

    /** Record an access to @p block at @p cycle. */
    void
    record(Addr block, Cycle cycle)
    {
        const Addr page = block >> kPageShift;
        std::uint64_t *stamps =
            page == memo_page_ ? memo_ : page_for_record(page);
        stamps[block & kPageMask] = cycle + 1;
    }

    /**
     * Would a next-line prefetcher cover an access to @p block closing
     * an interval that opened at @p open_since?  True when block-1 was
     * accessed strictly after @p open_since.
     */
    bool covers(Addr block, Cycle open_since) const;

    /**
     * Timeliness-aware variant: additionally require the trigger
     * access to precede the closing access at @p close_cycle by at
     * least @p lead_time cycles (the wakeup/re-fetch must have time to
     * complete).  The paper's accounting uses lead_time = 0; the
     * timeliness ablation uses the sleep exit path s3+s4.
     */
    bool
    covers(Addr block, Cycle open_since, Cycle close_cycle,
           Cycles lead_time) const
    {
        // Block 0 has no predecessor; its block-1 wraps around, and the
        // block != 0 term below rejects whatever that reads.
        const Addr prev = block - 1;
        const Addr page = prev >> kPageShift;
        const std::uint64_t stamp =
            (page == memo_page_ ? memo_ : find_page(page))[prev & kPageMask];
        const Cycle when = stamp - 1;
        const Cycle deadline =
            close_cycle >= lead_time ? close_cycle - lead_time : 0;
        // Branch-free: whether block-1 fell inside the window is data,
        // not a pattern a branch predictor can learn.
        const bool hit = (block != 0) & (stamp != 0) & (when > open_since) &
                         (when <= deadline);
        covered_ += hit;
        return hit;
    }

    /** Coverage queries answered positively (stats). */
    std::uint64_t covered() const { return covered_; }

    /** Forget everything. */
    void reset();

    /**
     * Append the table as (block, now - last_access) pairs sorted by
     * block — a canonical, translation-invariant snapshot for the
     * analytic state signature.  The covered() counter is excluded
     * (reporting only; it never influences future coverage answers).
     */
    void append_state(std::vector<std::uint64_t> &out, Cycle now) const;

    /**
     * Shift every recorded access time forward by @p delta — the
     * analytic fast path's time warp across skipped periods.
     */
    void warp(Cycles delta);

  private:
    static constexpr unsigned kPageShift = 6;
    static constexpr Addr kPageBlocks = Addr{1} << kPageShift;
    static constexpr Addr kPageMask = kPageBlocks - 1;
    /** No page number (block >> kPageShift) reaches it. */
    static constexpr Addr kNoPage = ~Addr{0};

    /** Last access + 1 of each block of one page; 0 = never. */
    using Page = std::array<std::uint64_t, kPageBlocks>;

    /**
     * The page's stamps, or a shared all-zero page (not memoized, so
     * record() never writes it) when nothing on it was recorded.
     */
    const std::uint64_t *find_page(Addr page) const;

    /** The page's stamps, allocating a zeroed page on first use. */
    std::uint64_t *page_for_record(Addr page);

    std::vector<Page> pages_;
    util::FlatMap index_; ///< page number -> position in pages_
    /** The last page looked up (its stamps at memo_), or kNoPage. */
    mutable Addr memo_page_ = kNoPage;
    mutable std::uint64_t *memo_ = nullptr;
    mutable std::uint64_t covered_ = 0;
};

} // namespace leakbound::prefetch

#endif // LEAKBOUND_PREFETCH_NEXT_LINE_HPP
