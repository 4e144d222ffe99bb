/**
 * @file
 * Core vocabulary of the limit study: cache access intervals.
 *
 * An interval is the stretch of time a physical cache frame rests
 * between two consecutive accesses (paper Section 3.1).  Every frame's
 * timeline is fully partitioned into intervals so that per-frame
 * leakage energy can be accounted exactly:
 *
 *   power-on ... first access .... access ... last access ... sim end
 *   |-- Leading --|-- Inner --| ... |------ Trailing ---------|
 *
 * Frames never touched during the run carry a single Untouched interval
 * spanning the whole simulation.
 */

#ifndef LEAKBOUND_INTERVAL_INTERVAL_HPP
#define LEAKBOUND_INTERVAL_INTERVAL_HPP

#include <cstdint>

#include "util/types.hpp"

namespace leakbound::interval {

/**
 * Position of an interval inside its frame's lifetime; determines which
 * transition/re-fetch overheads apply (see core::EnergyModel).
 */
enum class IntervalKind : std::uint8_t {
    /**
     * Between two accesses.  Ends with an access, so a slept line pays
     * the full wakeup path (s3 + s4) and the induced-miss re-fetch
     * energy CD; a drowsy line pays the d3 wakeup.
     */
    Inner,
    /**
     * From power-on to the frame's first access.  The frame holds no
     * data yet; the first access is a compulsory miss that fetches
     * regardless, so sleeping this interval has no transition cost and
     * no CD.
     */
    Leading,
    /**
     * From the last access to the end of simulation.  Never re-read, so
     * sleep pays only the entry transition (s1), never CD.
     */
    Trailing,
    /** A frame never accessed during the run; sleep is free. */
    Untouched,
};

/** Number of IntervalKind values (for array sizing). */
inline constexpr std::size_t kNumIntervalKinds = 4;

/**
 * Prefetchability class of an interval (paper Section 5.2): could a
 * hardware prefetcher have re-fetched the line just in time at the end
 * of this interval?
 */
enum class PrefetchClass : std::uint8_t {
    /** No studied prefetcher covers the closing access. */
    NonPrefetchable,
    /** Covered by next-line prefetching (access to the previous line
     *  occurred inside the interval). */
    NextLine,
    /** Covered by stride-based prefetching (closing access's load PC
     *  had a twice-confirmed stride predicting this line). */
    Stride,
};

/** Number of PrefetchClass values (for array sizing). */
inline constexpr std::size_t kNumPrefetchClasses = 3;

/** One extracted interval. */
struct Interval
{
    Cycles length = 0;          ///< duration in cycles
    IntervalKind kind = IntervalKind::Inner;
    PrefetchClass pf = PrefetchClass::NonPrefetchable;
    /**
     * True when the access closing the interval re-references the block
     * already resident in the frame (a would-be hit: sleeping induces a
     * real extra miss).  False when the closing access replaces the
     * block (the fetch happens anyway, so sleeping was free).  The
     * paper's accounting deliberately ignores this (Section 3.1 "we
     * ignore the effect of live and dead intervals"); an ablation bench
     * turns the refinement on.
     */
    bool ends_in_reuse = true;
};

/** Printable name of an IntervalKind. */
const char *kind_name(IntervalKind kind);

} // namespace leakbound::interval

#endif // LEAKBOUND_INTERVAL_INTERVAL_HPP
