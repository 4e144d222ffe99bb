/**
 * @file
 * Exact policy evaluation over interval populations.
 *
 * evaluate_policy() computes the total leakage (+ induced dynamic)
 * energy a policy dissipates over a run, and the savings relative to
 * the all-active baseline (the paper's y-axis).  Evaluation runs over
 * the histogram cells of an IntervalHistogramSet and is exact because
 * every policy's energy is linear in interval length within a cell
 * (verified: the policy's published thresholds must all be histogram
 * edges, else this panics).
 */

#ifndef LEAKBOUND_CORE_SAVINGS_HPP
#define LEAKBOUND_CORE_SAVINGS_HPP

#include <string>
#include <vector>

#include "core/policy.hpp"
#include "interval/interval_histogram.hpp"

namespace leakbound::core {

/** Outcome of evaluating one policy on one interval population. */
struct SavingsResult
{
    std::string policy;        ///< scheme name
    Energy baseline = 0.0;     ///< all-active energy (frames * cycles)
    Energy total = 0.0;        ///< policy energy incl. standing overhead
    Energy overhead = 0.0;     ///< standing-overhead portion of total
    double savings = 0.0;      ///< 1 - total/baseline
    std::uint64_t induced_misses = 0; ///< slept reuse-ending inner intervals

    /** Interval counts by the mode the policy mostly used. */
    std::uint64_t active_intervals = 0;
    std::uint64_t drowsy_intervals = 0;
    std::uint64_t sleep_intervals = 0;

    /** Frame-cycles by dominant mode (sums to baseline). */
    Energy active_cycles = 0.0;
    Energy drowsy_cycles = 0.0;
    Energy sleep_cycles = 0.0;
};

/**
 * Evaluate @p policy on @p set exactly.  Panics if the histogram's bin
 * edges miss any policy threshold (build the set with the policy's
 * thresholds as extra edges; see core::Experiment which automates it).
 */
SavingsResult evaluate_policy(const Policy &policy,
                              const interval::IntervalHistogramSet &set);

/**
 * Reference evaluator over raw intervals (O(n) in interval count);
 * exists to validate the histogram path in tests.
 * @param num_frames / @p total_cycles supply the baseline denominator.
 */
SavingsResult evaluate_policy_raw(const Policy &policy,
                                  const std::vector<interval::Interval> &raw,
                                  std::uint64_t num_frames,
                                  Cycles total_cycles);

/**
 * Combine per-benchmark results into a suite aggregate by summing
 * energies (the paper's "average" bars): savings = 1 - ΣE/ΣB.
 */
SavingsResult combine_results(const std::vector<SavingsResult> &results);

/**
 * Evaluate every (policy, population) pair of a grid, fanning the
 * cells out over a util::ThreadPool of @p jobs workers (resolved via
 * ThreadPool::effective_jobs; <= 1 runs serially on the caller).
 *
 * Returns the grid row-major: cell [p * sets.size() + s] is policy p
 * evaluated on population s.  Evaluation is a pure function of
 * (policy, set), and results are merged back in submission order, so
 * the output is bit-identical to the serial double loop for every
 * jobs value — the suite runner's determinism contract one level down.
 * An exception thrown by a cell's evaluation propagates, the first
 * failing cell's in cell order.
 */
std::vector<SavingsResult>
evaluate_policy_grid(const std::vector<const Policy *> &policies,
                     const std::vector<const interval::IntervalHistogramSet *> &sets,
                     unsigned jobs = 1);

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_SAVINGS_HPP
