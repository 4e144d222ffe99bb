/**
 * @file
 * Health counters for the artifact cache's degradation ladder.
 *
 * The cache is an accelerator, never a correctness dependency: any
 * failure it hits (corrupt entry, failed store, unwritable directory)
 * demotes it one rung — discard and re-simulate, then
 * simulate-without-caching, then cache-off-for-the-run — and the
 * suite still produces correct results.  This struct is the
 * accounting for that ladder: every degradation is counted and
 * surfaced in the JSON bench report's "cache_health" object, so a run
 * that silently lost its warm-cache speedup is visible in the report
 * instead of just mysteriously slow.
 *
 * Lives in its own header (not artifact_cache.hpp) because both
 * experiment.hpp (SuiteOutcome) and artifact_cache.hpp need it, and
 * artifact_cache.hpp already includes experiment.hpp.
 */

#ifndef LEAKBOUND_CORE_CACHE_HEALTH_HPP
#define LEAKBOUND_CORE_CACHE_HEALTH_HPP

#include <cstdint>

namespace leakbound::core {

/** Snapshot of one ArtifactCache's accumulated trouble. */
struct CacheHealth
{
    /** Entries that failed to serialize+publish (entry not cached). */
    std::uint64_t store_failures = 0;
    /** Entries discarded for magic/version/checksum/decode mismatch. */
    std::uint64_t corrupt_entries = 0;
    /** Jobs that ran with the cache demoted to pass-through. */
    std::uint64_t degraded_jobs = 0;
    /** Whether the cache finished the run demoted to pass-through. */
    bool degraded = false;

    /** Fold another snapshot in (suite reports aggregate per-run). */
    void
    accumulate(const CacheHealth &other)
    {
        store_failures += other.store_failures;
        corrupt_entries += other.corrupt_entries;
        degraded_jobs += other.degraded_jobs;
        degraded = degraded || other.degraded;
    }

    /** Anything worth reporting? */
    bool
    any() const
    {
        return store_failures || corrupt_entries || degraded_jobs ||
               degraded;
    }
};

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_CACHE_HEALTH_HPP
