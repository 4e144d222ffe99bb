/**
 * @file
 * The simulation engine: N in-order cores with private L1s over one
 * shared L2, an MSI-style invalidation filter between the L1Ds, and a
 * deterministic cycle interleaver.  Every run takes it, the
 * single-core ones (core::run_experiment) as N=1.
 *
 * Per-core interval populations come from per-core collectors fed by
 * a core::BatchedObserver, and the shared L2's population comes from
 * per-bank collectors, fed through one engine-level event log, whose
 * merged histogram is what the oracle bound is computed from.  An L2
 * line's sleep interval ends when *any* core touches it through a miss
 * or kills a sharer's copy through the invalidation filter.  The
 * filter is a duplicate-tag directory (a mirror of every core's L1D
 * tags) that only stores consult; its exactness is checked at end of
 * run, and a mismatch fails the run with a typed Internal error.  A
 * lone core without L2 collection has nothing to share and nothing to
 * observe at the L2, so it runs straight through its observer, with no
 * directory.
 *
 * Determinism contract: the interleaver is a single-threaded loop that
 * always runs the core with the minimum (cycle, core_id) pair, through
 * InOrderCore::run_until, until another core would take the minimum —
 * the same event order as stepping one fetch group at a time.  Every
 * observation is appended to a log in that order: a remote
 * invalidation joins the victim core's D-log, an L2 event the
 * engine's L2 log, and all logs are classified before the directory
 * check and the collectors' finalize.  Every
 * histogram, statistic, and serialized byte is therefore a pure
 * function of the configuration.  Results are byte-identical across
 * --jobs values and across runs, and golden digests pin the
 * interleaving (test_multicore_equivalence).
 */

#ifndef LEAKBOUND_MULTICORE_MULTICORE_HPP
#define LEAKBOUND_MULTICORE_MULTICORE_HPP

#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "cpu/inorder_core.hpp"
#include "interval/interval_histogram.hpp"
#include "sim/cache.hpp"

namespace leakbound::multicore {

/** What one core of a multicore run produced. */
struct CoreOutcome
{
    /** The benchmark this core ran (its slot of the resolved mix). */
    std::string workload;
    /**
     * This core's run statistics; cycles is the core's own final
     * cycle, which can trail the run's end_cycle (cores retire their
     * instruction budgets at different rates).
     */
    cpu::CoreRunStats stats;
    core::CacheObservation icache; ///< this core's private L1I
    core::CacheObservation dcache; ///< this core's private L1D
    /** Copies of this core's L1D lines killed by other cores' stores. */
    std::uint64_t invalidations_received = 0;

    CoreOutcome(core::CacheObservation ic, core::CacheObservation dc)
        : icache(std::move(ic)), dcache(std::move(dc))
    {
    }
};

/** Everything one multicore run produced. */
struct MulticoreResult
{
    /**
     * Composite workload label: the benchmark name itself for N=1
     * (anchoring the byte-identity reduction), "mc<N>:a+b+..." for
     * N > 1.
     */
    std::string label;
    /** One entry per core, in core-id order. */
    std::vector<CoreOutcome> cores;
    /**
     * The shared L2's merged interval population (union of the
     * per-bank collectors), present when collect_l2 was set.
     */
    std::optional<core::CacheObservation> l2cache;
    /**
     * The per-bank L2 histogram sets the merged population came from
     * (empty unless collect_l2); exposed for the invalidation-
     * accounting property tests.
     */
    std::vector<interval::IntervalHistogramSet> l2_banks;
    sim::CacheStats l2;     ///< shared-L2 statistics
    Cycle end_cycle = 0;    ///< max core cycle; every collector's close
    /** L1D copies killed through the invalidation filter, in total. */
    std::uint64_t invalidations = 0;
    /** Stores that killed at least one remote copy. */
    std::uint64_t invalidating_stores = 0;
    /**
     * L2 intervals closed by an invalidation rather than a touch (a
     * store that hit its own L1D, so the L2 saw no access, but whose
     * coherence action reached the shared line).  Only counted while
     * collect_l2 is on — it exists to make every L2 interval boundary
     * attributable (accesses + these closes + trailing finalizes).
     */
    std::uint64_t l2_interval_closes = 0;

    /**
     * Flatten into the single-core result shape: summed core stats
     * (cycles = end_cycle), per-level observations merged across
     * cores, workload = label.  This is what core::run_experiment
     * returns.
     */
    core::ExperimentResult to_experiment_result() const;
};

/**
 * Resolve the per-core benchmark list: a non-empty config mix is taken
 * verbatim (validate() has pinned its length to core_count); an empty
 * mix replicates @p benchmark core_count times, which requires it to
 * be a suite benchmark (util::StatusError(InvalidArgument) otherwise —
 * each core builds its own workload from its name).
 */
std::vector<std::string>
resolve_mix(const std::string &benchmark,
            const core::ExperimentConfig &config);

/** The composite label for a resolved mix (see MulticoreResult). */
std::string mix_label(const std::vector<std::string> &names);

/**
 * Run the simulation, every core's workload built from its name.
 * Throws util::StatusError with a typed InvalidArgument status on a
 * malformed config (config.validate(), keep_raw with more than one
 * core — raw-interval retention is single-core only — or an
 * unresolvable mix).
 */
MulticoreResult run_multicore(const std::string &benchmark,
                              const core::ExperimentConfig &config);

/**
 * run_multicore() over the caller's @p workload: a single core with an
 * empty workload_mix drives that instance (which may be any Workload,
 * not only a suite benchmark); any other shape resolves its mix from
 * workload.name().
 */
MulticoreResult run_multicore(workload::Workload &workload,
                              const core::ExperimentConfig &config);

} // namespace leakbound::multicore

#endif // LEAKBOUND_MULTICORE_MULTICORE_HPP
