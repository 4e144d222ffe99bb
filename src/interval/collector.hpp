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
 * Per-cache interval collector.  Drive it with on_access() /
 * mark_next_line() during simulation and call finalize() once at the
 * end; results accumulate in the sink histogram set.
 */
class IntervalCollector
{
  public:
    /**
     * @param num_frames physical frames in the observed cache
     * @param sink histogram set receiving the intervals (not owned;
     *             must outlive the collector)
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
     */
    void
    on_access(FrameId frame, Cycle cycle, bool reuse,
              bool stride_predicted, bool nl_covered)
    {
        LEAKBOUND_ASSERT(!finalized_, "access after finalize()");
        LEAKBOUND_ASSERT(frame < frames_.size(), "frame id out of range");
        FrameState &fs = frames_[frame];
        ++num_accesses_;

        Interval iv;
        if (!fs.touched) {
            // Close the Leading interval: power-on to first access.
            // The first access is a compulsory fill; no prefetch
            // class, no CD.
            iv.kind = IntervalKind::Leading;
            iv.length = cycle;
            iv.pf = PrefetchClass::NonPrefetchable;
            iv.ends_in_reuse = false;
        } else {
            LEAKBOUND_ASSERT(cycle >= fs.last_access,
                             "accesses must be time-ordered per frame");
            iv.kind = IntervalKind::Inner;
            iv.length = cycle - fs.last_access;
            // Next-line coverage takes precedence; stride catches the
            // non-sequential patterns next-line misses (paper Section
            // 5.2 counts them disjointly the same way).
            if (nl_covered)
                iv.pf = PrefetchClass::NextLine;
            else if (stride_predicted)
                iv.pf = PrefetchClass::Stride;
            else
                iv.pf = PrefetchClass::NonPrefetchable;
            iv.ends_in_reuse = reuse;
        }

        fs.touched = true;
        fs.last_access = cycle;
        sink_->add(iv);
        if (keep_raw_)
            raw_.push_back(iv);
    }

    /**
     * Start time of @p frame's open interval (its last access), or
     * false if the frame has never been accessed.
     */
    bool
    open_since(FrameId frame, Cycle &since) const
    {
        LEAKBOUND_ASSERT(frame < frames_.size(), "frame id out of range");
        const FrameState &fs = frames_[frame];
        if (!fs.touched)
            return false;
        since = fs.last_access;
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
    struct FrameState
    {
        Cycle last_access = 0;
        bool touched = false;
    };

    void emit(const Interval &iv);

    std::vector<FrameState> frames_;
    IntervalHistogramSet *sink_;
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
