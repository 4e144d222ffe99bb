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
 * through a 16-entry direct-mapped memo (slot = page number mod 16) in
 * front of a FlatMap page index.  Every access asks about block-1 and
 * then records block, which share a page 63 times in 64, and a program
 * interleaves a few regions (stack, hot tables, streams), whose pages
 * mostly sit in different memo slots; so the common case touches one
 * memo line and one page line with no hashing at all.  Pages live in a
 * std::deque, which never moves them, so the memo's pointers stay
 * valid while the store and the index grow.
 */

#ifndef LEAKBOUND_PREFETCH_NEXT_LINE_HPP
#define LEAKBOUND_PREFETCH_NEXT_LINE_HPP

#include <array>
#include <cstddef>
#include <deque>
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
        const MemoEntry &memo = memo_[page & kMemoMask];
        std::uint64_t *stamps =
            memo.page == page ? memo.stamps : page_for_record(page);
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
        const MemoEntry &memo = memo_[page & kMemoMask];
        const std::uint64_t stamp = (memo.page == page ? memo.stamps
                                                       : find_page(page))
            [prev & kPageMask];
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
     * block: a canonical snapshot, independent of page layout, that the
     * next-line lockstep test compares with its per-block oracle.  The
     * covered() counter is excluded (reporting only; it never
     * influences future coverage answers).
     */
    void append_state(std::vector<std::uint64_t> &out, Cycle now) const;

  private:
    static constexpr unsigned kPageShift = 6;
    static constexpr Addr kPageBlocks = Addr{1} << kPageShift;
    static constexpr Addr kPageMask = kPageBlocks - 1;
    /** No page number (block >> kPageShift) reaches it. */
    static constexpr Addr kNoPage = ~Addr{0};
    static constexpr std::size_t kMemoSlots = 16;
    static constexpr Addr kMemoMask = kMemoSlots - 1;

    /** Last access + 1 of each block of one page; 0 = never. */
    using Page = std::array<std::uint64_t, kPageBlocks>;

    /** A page number (kNoPage for none) and its stamps. */
    struct MemoEntry
    {
        Addr page = kNoPage;
        std::uint64_t *stamps = nullptr;
    };

    /**
     * The page's stamps, memoized in its slot, or a shared all-zero
     * page (not memoized, so record() never writes it) when nothing on
     * it was recorded.
     */
    const std::uint64_t *find_page(Addr page) const;

    /**
     * The page's stamps, memoized in its slot, allocating a zeroed page
     * on first use.
     */
    std::uint64_t *page_for_record(Addr page);

    std::deque<Page> pages_;
    util::FlatMap index_; ///< page number -> position in pages_
    /** Recently looked-up pages, each in slot page & kMemoMask. */
    mutable std::array<MemoEntry, kMemoSlots> memo_{};
    mutable std::uint64_t covered_ = 0;
};

} // namespace leakbound::prefetch

#endif // LEAKBOUND_PREFETCH_NEXT_LINE_HPP
