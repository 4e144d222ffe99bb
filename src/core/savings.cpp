/**
 * @file
 * Implementation of exact policy evaluation.
 */

#include "core/savings.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace leakbound::core {

using interval::CellRef;
using interval::Interval;
using interval::IntervalHistogramSet;
using interval::IntervalKind;

namespace {

/** Verify every policy threshold is a bin edge of @p set. */
void
check_thresholds(const Policy &policy, const IntervalHistogramSet &set)
{
    const auto &edges = set.edges();
    for (Cycles t : policy.thresholds()) {
        if (!std::binary_search(edges.begin(), edges.end(), t)) {
            LEAKBOUND_PANIC(
                "histogram edges miss threshold ", t, " of policy '",
                policy.name(),
                "'; build the IntervalHistogramSet with this policy's "
                "thresholds as extra edges");
        }
    }
}

/** Tally shared by both evaluators. */
void
account(SavingsResult &r, const Policy &policy, Cycles rep_length,
        IntervalKind kind, interval::PrefetchClass pf, bool reuse,
        std::uint64_t count, double length_sum)
{
    const Mode mode = policy.dominant_mode(rep_length, kind, pf, reuse);
    switch (mode) {
      case Mode::Active:
        r.active_intervals += count;
        r.active_cycles += length_sum;
        break;
      case Mode::Drowsy:
        r.drowsy_intervals += count;
        r.drowsy_cycles += length_sum;
        break;
      case Mode::Sleep:
        r.sleep_intervals += count;
        r.sleep_cycles += length_sum;
        if (kind == IntervalKind::Inner && reuse)
            r.induced_misses += count;
        break;
    }
}

void
finish(SavingsResult &r, const Policy &policy, std::uint64_t num_frames,
       Cycles total_cycles)
{
    r.policy = policy.name();
    r.baseline = static_cast<Energy>(num_frames) *
                 static_cast<Energy>(total_cycles);
    r.overhead = policy.standing_overhead() * r.baseline;
    r.total += r.overhead;
    r.savings = r.baseline > 0.0 ? 1.0 - r.total / r.baseline : 0.0;
}

} // namespace

SavingsResult
evaluate_policy(const Policy &policy, const IntervalHistogramSet &set)
{
    check_thresholds(policy, set);

    SavingsResult r;
    set.for_each_cell([&](const CellRef &cell) {
        // Within a cell the policy energy is linear in length, so the
        // cell total is intercept*count + slope*sum.  Recover the line
        // from two sample points (or one for unit-width cells).
        const Energy f0 = policy.interval_energy(cell.lower, cell.kind,
                                                 cell.pf,
                                                 cell.ends_in_reuse);
        Energy cell_total;
        if (cell.upper == cell.lower + 1) {
            cell_total = f0 * static_cast<double>(cell.count);
        } else {
            const Energy f1 = policy.interval_energy(
                cell.lower + 1, cell.kind, cell.pf, cell.ends_in_reuse);
            const double slope = f1 - f0;
            const double intercept =
                f0 - slope * static_cast<double>(cell.lower);
            cell_total = intercept * static_cast<double>(cell.count) +
                         slope * static_cast<double>(cell.sum);
        }
        r.total += cell_total;

        account(r, policy, cell.lower, cell.kind, cell.pf,
                cell.ends_in_reuse, cell.count,
                static_cast<double>(cell.sum));
    });

    finish(r, policy, set.num_frames(), set.total_cycles());
    return r;
}

SavingsResult
evaluate_policy_raw(const Policy &policy, const std::vector<Interval> &raw,
                    std::uint64_t num_frames, Cycles total_cycles)
{
    SavingsResult r;
    for (const Interval &iv : raw) {
        r.total += policy.interval_energy(iv.length, iv.kind, iv.pf,
                                          iv.ends_in_reuse);
        account(r, policy, iv.length, iv.kind, iv.pf, iv.ends_in_reuse, 1,
                static_cast<double>(iv.length));
    }
    finish(r, policy, num_frames, total_cycles);
    return r;
}

SavingsResult
combine_results(const std::vector<SavingsResult> &results)
{
    LEAKBOUND_ASSERT(!results.empty(), "combining zero results");
    SavingsResult out;
    out.policy = results.front().policy;
    for (const auto &r : results) {
        LEAKBOUND_ASSERT(r.policy == out.policy,
                         "combining results of different policies: ",
                         r.policy, " vs ", out.policy);
        out.baseline += r.baseline;
        out.total += r.total;
        out.overhead += r.overhead;
        out.induced_misses += r.induced_misses;
        out.active_intervals += r.active_intervals;
        out.drowsy_intervals += r.drowsy_intervals;
        out.sleep_intervals += r.sleep_intervals;
        out.active_cycles += r.active_cycles;
        out.drowsy_cycles += r.drowsy_cycles;
        out.sleep_cycles += r.sleep_cycles;
    }
    out.savings = out.baseline > 0.0 ? 1.0 - out.total / out.baseline : 0.0;
    return out;
}

std::vector<SavingsResult>
evaluate_policy_grid(
    const std::vector<const Policy *> &policies,
    const std::vector<const interval::IntervalHistogramSet *> &sets,
    unsigned jobs)
{
    for (const Policy *policy : policies)
        LEAKBOUND_ASSERT(policy != nullptr, "null policy in grid");
    for (const IntervalHistogramSet *set : sets)
        LEAKBOUND_ASSERT(set != nullptr, "null population in grid");

    const std::size_t cols = sets.size();
    return util::parallel_map_ordered(
        policies.size() * cols, jobs, [&](std::size_t i) {
            return evaluate_policy(*policies[i / cols], *sets[i % cols]);
        });
}

} // namespace leakbound::core
