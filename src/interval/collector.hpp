/**
 * @file
 * Streaming extraction of per-frame access intervals.
 *
 * The collector observes the cache's access stream — (frame, cycle)
 * events plus prefetchability annotations — and partitions every
 * frame's timeline into Leading / Inner / Trailing / Untouched
 * intervals (see interval.hpp), feeding them into an
 * IntervalHistogramSet and optionally retaining the raw intervals for
 * validation.
 *
 * Per frame it keeps one 8-byte stamp, the frame's last access cycle
 * + 1, with 0 meaning never touched (the encoding of
 * prefetch::NextLineMonitor).  At construction it resolves its sink
 * once into an IntervalHistogramSet::WriteView, so closing an interval
 * is a short inline path: the slot by arithmetic, one bin lookup, one
 * bin update.  Both of its callers in a run (core::BatchedObserver and
 * the multicore engine's L2 banks) inline it.
 *
 * Prefetchability flags are computed by the caller (the experiment
 * glue), which owns the per-block last-access tables and the stride
 * predictor: next-line coverage must be judged against the block the
 * closing access touches, which may not have been resident during the
 * interval (miss-closing intervals), so the collector cannot decide it
 * alone.  open_since() exposes the open interval's start time for that
 * judgement.
 */

#ifndef LEAKBOUND_INTERVAL_COLLECTOR_HPP
#define LEAKBOUND_INTERVAL_COLLECTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "interval/interval.hpp"
#include "interval/interval_histogram.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace leakbound::interval {

/**
 * Per-cache interval collector.  Drive it with on_access() during
 * simulation and call finalize() once at the end; results accumulate
 * in the sink histogram set.
 */
class IntervalCollector
{
  public:
    /**
     * @param num_frames physical frames in the observed cache
     * @param sink histogram set receiving the intervals (not owned;
     *             must outlive the collector; may be moved, not
     *             replaced by a copy, while the collector writes it)
     * @param keep_raw also retain every Interval in raw() (test use;
     *             costs memory proportional to the access count)
     */
    IntervalCollector(std::uint64_t num_frames, IntervalHistogramSet *sink,
                      bool keep_raw = false);

    /**
     * Record an access to @p frame at @p cycle, closing the frame's
     * open interval and opening a new one.
     *
     * @param reuse true when the access hits the resident block (so a
     *              slept line would have induced a real extra miss)
     * @param stride_predicted true when the stride predictor covered
     *              this access (classifies the *closing* interval)
     * @param nl_covered true when the line preceding the accessed
     *              block was touched inside the closing interval (a
     *              next-line prefetcher would have covered this access)
     *
     * Always inlined: it runs once per simulated access, and GCC's
     * size heuristics otherwise leave it out of line in some run loops.
     */
    [[gnu::always_inline]] void
    on_access(FrameId frame, Cycle cycle, bool reuse,
              bool stride_predicted, bool nl_covered)
    {
        LEAKBOUND_ASSERT(!finalized_, "access after finalize()");
        LEAKBOUND_ASSERT(frame < stamps_.size(), "frame id out of range");
        std::uint64_t &stamp = stamps_[frame];
        ++num_accesses_;

        std::size_t slot;
        Cycles length;
        if (stamp == 0) {
            // Close the Leading interval: power-on to first access.
            // The first access is a compulsory fill; no prefetch
            // class, no CD.
            slot = IntervalHistogramSet::kLeadingSlot;
            length = cycle;
        } else {
            LEAKBOUND_ASSERT(cycle >= stamp - 1,
                             "accesses must be time-ordered per frame");
            length = cycle - (stamp - 1);
            // Inner slot pf * 2 + reuse.  Next-line coverage takes
            // precedence; stride catches the non-sequential patterns
            // next-line misses (paper Section 5.2 counts them
            // disjointly the same way).
            const PrefetchClass pf = nl_covered ? PrefetchClass::NextLine
                                     : stride_predicted
                                         ? PrefetchClass::Stride
                                         : PrefetchClass::NonPrefetchable;
            slot = static_cast<std::size_t>(pf) * 2 + (reuse ? 1 : 0);
        }
        stamp = cycle + 1;
        view_.add(slot, length);
        if (keep_raw_)
            keep(slot, length);
    }

    /**
     * Start time of @p frame's open interval (its last access), or
     * false if the frame has never been accessed.
     */
    bool
    open_since(FrameId frame, Cycle &since) const
    {
        LEAKBOUND_ASSERT(frame < stamps_.size(), "frame id out of range");
        const std::uint64_t stamp = stamps_[frame];
        if (stamp == 0)
            return false;
        since = stamp - 1;
        return true;
    }

    /**
     * Close all open intervals at @p end_cycle, emitting Trailing
     * intervals for touched frames and Untouched intervals for frames
     * never accessed, and stamp the sink's run info.  Then check
     * frame-time conservation: the sink's summed interval length must
     * equal frames x @p end_cycle, which assumes this collector is the
     * sink's only writer.  Throws util::StatusError (Internal) when it
     * does not.
     */
    void finalize(Cycle end_cycle);

    /** Raw intervals (empty unless keep_raw was requested). */
    const std::vector<Interval> &raw() const { return raw_; }

    /** Accesses observed so far. */
    std::uint64_t num_accesses() const { return num_accesses_; }

  private:
    /** Append the interval just recorded in @p slot to raw_. */
    void keep(std::size_t slot, Cycles length);

    /** Last access + 1 of each frame; 0 = never touched. */
    std::vector<std::uint64_t> stamps_;
    IntervalHistogramSet *sink_;
    IntervalHistogramSet::WriteView view_;
    bool keep_raw_;
    bool finalized_ = false;
    std::uint64_t num_accesses_ = 0;
    std::vector<Interval> raw_;
};

/**
 * Access-count conservation: the collectors of one cache must have
 * observed exactly as many accesses (@p observed, summed num_accesses())
 * as the cache and its coherence fabric delivered (@p expected).  Frame
 * time telescopes to the end cycle whatever happens upstream, so this
 * is the check that catches a lost or never-delivered access.  Throws
 * util::StatusError (Internal) naming @p what on a mismatch.  O(1).
 */
void check_access_count(std::uint64_t observed, std::uint64_t expected,
                        const std::string &what);

} // namespace leakbound::interval

#endif // LEAKBOUND_INTERVAL_COLLECTOR_HPP
