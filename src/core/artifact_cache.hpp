/**
 * @file
 * Persistent, content-addressed cache of simulation artifacts.
 *
 * Every figure/table in the paper is a pure function of the interval
 * populations one suite replay produces, yet each bench binary used to
 * re-replay the full suite from scratch.  The artifact cache splits
 * that: `run_suite` fingerprints everything that determines a
 * benchmark's ExperimentResult (workload name, full ExperimentConfig
 * including the derived histogram edge list, and a format version) and
 * persists the result as one binary entry per (workload, config) under
 * a cache directory.  Warm runs load entries instead of simulating —
 * N bench binaries share 1× the replay cost — and a loaded result is
 * byte-identical to a fresh simulation (tested).
 *
 * On-disk entry (all little-endian; see DESIGN.md §5):
 *
 *   8B magic "lkbart01" | u32 format version | u64 fingerprint |
 *   u64 payload size | payload | u64 FNV-1a(payload)
 *
 * The payload is the serialized ExperimentResult minus wall_seconds
 * (wall time is reporting-only and never cached).  Entries are
 * published by util::write_file_atomic: a temporary of its own per
 * call, then one rename, so a reader sees a whole entry or none.  No
 * lock guards a miss: processes (or threads) that share a directory
 * and miss the same entry at once may each simulate it once, and each
 * renames a complete, identical file into place.  Any mismatch —
 * magic, version, fingerprint, size, checksum, or a bounds-check
 * inside the payload — discards the entry and re-simulates; a cache
 * entry is never trusted.
 *
 * Degradation ladder (see CacheHealth): the cache accelerates, it is
 * never load-bearing.  An unwritable directory demotes the whole cache
 * to pass-through (simulate, don't store) with a one-time warning, and
 * repeated store failures do the same.  Every rung is counted and
 * surfaced via health().
 */

#ifndef LEAKBOUND_CORE_ARTIFACT_CACHE_HPP
#define LEAKBOUND_CORE_ARTIFACT_CACHE_HPP

#include <atomic>
#include <functional>
#include <optional>
#include <string>

#include "core/cache_health.hpp"
#include "core/experiment.hpp"
#include "util/status.hpp"

namespace leakbound::core {

/**
 * Bump whenever the serialized layout, its semantics or the
 * fingerprint recipe change; it is mixed into every fingerprint and
 * stamped into every entry header.
 */
inline constexpr std::uint32_t kArtifactFormatVersion = 2;

/**
 * Fingerprint of every ExperimentConfig field that influences
 * simulation output: instruction budget, hierarchy and core geometry,
 * stride table shape, nl_lead_time, collect_l2, and the final
 * sorted+deduped histogram edge list derived from extra_edges.
 * Excluded by design: jobs (merge order is deterministic), keep_raw
 * (raw-keeping runs bypass the cache), cache_dir itself, the unused
 * engine field, and the cosmetic per-cache name strings.
 */
std::uint64_t fingerprint_config(const ExperimentConfig &config);

/**
 * Entry key from a precomputed config fingerprint and a workload name
 * (run_suite hashes the config once and derives per-benchmark keys).
 */
std::uint64_t fingerprint_entry(std::uint64_t config_fingerprint,
                                const std::string &workload);

/** Entry key: fingerprint_config extended with the workload name. */
std::uint64_t fingerprint_experiment(const std::string &workload,
                                     const ExperimentConfig &config);

/**
 * Serialize @p result (minus wall_seconds/from_cache, which are
 * reporting-only) to the cache payload layout.  Also the byte-identity
 * oracle used by the tests: fresh and cached results must serialize
 * identically.
 */
std::string serialize_result(const ExperimentResult &result);

/** Rebuild a result from serialize_result bytes; nullopt if corrupt. */
std::optional<ExperimentResult>
deserialize_result(const std::string &bytes);

/**
 * The cache directory for a run: @p flag_value if non-empty, else the
 * LEAKBOUND_CACHE_DIR environment variable, else "" (cache off).
 */
std::string resolve_cache_dir(const std::string &flag_value);

/** One cache directory; cheap to construct, safe to share per suite. */
class ArtifactCache
{
  public:
    /** Store failures tolerated before the cache demotes itself. */
    static constexpr std::uint64_t kMaxStoreFailures = 3;

    /** @param dir created on first store if missing. */
    explicit ArtifactCache(std::string dir);

    /**
     * Load the entry for @p key, or simulate and store it: probe,
     * then on a miss run @p simulate and publish its result.  Either
     * way the caller gets a correct result; the cache only ever
     * changes *where* it comes from.
     *
     * @param workload for log messages only.
     */
    ExperimentResult
    load_or_run(std::uint64_t key, const std::string &workload,
                const std::function<ExperimentResult()> &simulate);

    /** Probe for @p key without simulating (corrupt entries discard). */
    std::optional<ExperimentResult> try_load(std::uint64_t key) const;

    /**
     * Serialize + checksum + atomically publish @p result under
     * @p key.  A failed store is counted, and kMaxStoreFailures of
     * them demote the cache to pass-through for the rest of the run.
     */
    util::Status store(std::uint64_t key,
                       const ExperimentResult &result) const;

    /** Absolute-ish path of @p key's entry file. */
    std::string entry_path(std::uint64_t key) const;

    /** The directory this cache persists into. */
    const std::string &dir() const { return dir_; }

    /** Whether the cache has demoted itself to pass-through. */
    bool degraded() const
    {
        return degraded_.load(std::memory_order_relaxed);
    }

    /** Snapshot the accumulated health counters. */
    CacheHealth health() const;

  private:
    /** Demote to pass-through, warning once per cache. */
    void demote(const std::string &why) const;

    std::string dir_;

    // Health accounting; mutable because a const cache (shared across
    // suite threads) still records the trouble it runs into.
    mutable std::atomic<bool> degraded_{false};
    mutable std::atomic<std::uint64_t> store_failures_{0};
    mutable std::atomic<std::uint64_t> corrupt_entries_{0};
    mutable std::atomic<std::uint64_t> degraded_jobs_{0};
};

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_ARTIFACT_CACHE_HPP
