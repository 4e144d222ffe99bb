/**
 * @file
 * End-to-end experiment runner: executes a workload on the timing core
 * over the Alpha-like hierarchy, collecting the instruction- and
 * data-cache interval populations (with prefetchability annotations)
 * that every bench evaluates policies against.
 */

#ifndef LEAKBOUND_CORE_EXPERIMENT_HPP
#define LEAKBOUND_CORE_EXPERIMENT_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/cache_health.hpp"
#include "cpu/inorder_core.hpp"
#include "interval/interval_histogram.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "util/status.hpp"
#include "workload/workload.hpp"

namespace leakbound::core {

/**
 * Every run simulates; Sim is the only engine.  Nothing reads
 * ExperimentConfig::engine and fingerprints exclude it.  The enum and
 * the field stay only because the perfbench harness still assigns
 * Engine::Sim; the next change to that harness removes both.
 */
enum class Engine : std::uint8_t { Sim };

/**
 * Widest multicore configuration accepted anywhere (config validation,
 * request decode).  The duplicate-tag directory has no per-core bit, so
 * nothing in the engine caps N; 64 is the validated limit (directory
 * memory is N x L1D frames x 8 B, and a store scans N x ways tags).
 */
inline constexpr std::uint32_t kMaxCoreCount = 64;

/** Knobs of one simulation run. */
struct ExperimentConfig
{
    /** Dynamic instructions to execute per benchmark. */
    std::uint64_t instructions = 8'000'000;
    /** Memory system (defaults to the paper's Alpha-like hierarchy). */
    sim::HierarchyConfig hierarchy;
    /** Core shape (defaults to 4-wide). */
    cpu::CoreConfig core;
    /** Stride predictor shape (defaults to a 4K-entry table). */
    prefetch::StrideConfig stride;
    /**
     * Extra histogram edges beyond the defaults; pass every decision
     * threshold of every policy you will evaluate (or use
     * standard_extra_edges(), which covers all stock experiments).
     */
    std::vector<Cycles> extra_edges;
    /**
     * Also retain the L1s' raw intervals (memory-heavy; tests only).
     * Single-core only: with core_count > 1 the run fails with
     * InvalidArgument.  The L2's raw intervals are never kept.
     */
    bool keep_raw = false;
    /**
     * Timeliness requirement for next-line coverage: the trigger
     * access must precede the covered access by this many cycles.
     * 0 reproduces the paper's accounting.
     */
    Cycles nl_lead_time = 0;
    /**
     * Also collect the unified L2's interval population (the paper
     * studies the L1s; the L2 is the chip's biggest leaker and the
     * extension bench applies the same bound to it).  Costs one more
     * collector over 32K frames.
     */
    bool collect_l2 = false;
    /**
     * Worker threads run_suite() spreads the benchmarks over; 0 means
     * hardware_concurrency, 1 forces the serial path.  Each benchmark
     * simulates into its own private IntervalHistogramSet and results
     * are merged back in suite order, so the output is bit-identical
     * for every jobs value.
     */
    unsigned jobs = 1;
    /**
     * Directory of the persistent artifact cache (see
     * core/artifact_cache.hpp); empty disables caching.  When set,
     * run_suite() loads previously simulated (workload, config)
     * results instead of replaying them — loaded results are
     * byte-identical to fresh simulation.  keep_raw runs always bypass
     * the cache (raw intervals are memory-only and never persisted).
     */
    std::string cache_dir;
    /**
     * Do not cut this suite short on SIGINT/SIGTERM.  Batch binaries
     * want the default (stop dispatching, flush a partial report); the
     * serve daemon wants the opposite during drain — an admitted
     * request runs to completion so its waiting clients get real
     * results, and only *queued* requests are failed.  Excluded from
     * config fingerprints: it never changes what a completed
     * simulation produces.
     */
    bool ignore_interrupts = false;
    /** Unused; see Engine. */
    Engine engine = Engine::Sim;
    /**
     * Number of in-order cores sharing the L2.  Every run goes through
     * the multicore engine (src/multicore); a single core with an
     * empty workload_mix drives the workload run_experiment was given.
     */
    std::uint32_t core_count = 1;
    /**
     * Per-core benchmark names for heterogeneous multicore mixes.
     * Empty means homogeneous: every core runs the requested
     * benchmark.  Non-empty requires size() == core_count, and then
     * core i runs workload_mix[i] regardless of the requested name.
     */
    std::vector<std::string> workload_mix;

    /**
     * Cross-field validation of the multicore knobs (core_count,
     * workload_mix) plus the nested core config.  Typed errors, never
     * fatal(): InvalidArgument on core_count = 0 / > kMaxCoreCount, a
     * mix whose length differs from core_count, or a mix naming an
     * unknown benchmark.  Geometry (hierarchy) keeps its historical
     * fatal() validation — those are programmer errors, not request
     * input.
     */
    util::Status validate() const;
};

/** What one cache yielded. */
struct CacheObservation
{
    interval::IntervalHistogramSet intervals;
    /** Empty unless keep_raw; always empty for the L2. */
    std::vector<interval::Interval> raw;
    sim::CacheStats stats;

    explicit CacheObservation(interval::IntervalHistogramSet set)
        : intervals(std::move(set))
    {
    }
};

/** Everything one run produced. */
struct ExperimentResult
{
    std::string workload;
    cpu::CoreRunStats core;
    CacheObservation icache;
    CacheObservation dcache;
    /** Populated only when ExperimentConfig::collect_l2 was set. */
    std::optional<CacheObservation> l2cache;
    sim::CacheStats l2;
    /**
     * Wall-clock time the simulation took, in seconds (reporting only;
     * never feeds back into simulated results).  For a cache-loaded
     * result this is the load time, not the original replay time.
     */
    double wall_seconds = 0.0;
    /**
     * Whether this result was loaded from the artifact cache instead
     * of simulated (reporting only; the contents are byte-identical
     * either way).
     */
    bool from_cache = false;

    ExperimentResult(CacheObservation ic, CacheObservation dc)
        : icache(std::move(ic)), dcache(std::move(dc))
    {
    }
};

/**
 * Thresholds of every policy any stock bench evaluates, across all
 * four paper technology nodes, the Fig. 7 sweep, the 10K decay point
 * and the decay-sweep ablation.  Union them into
 * ExperimentConfig::extra_edges so one simulation serves them all.
 * Returns a reference to the memoized list (enumerated once per
 * process); copy it only when you need to mutate.
 */
const std::vector<Cycles> &standard_extra_edges();

/**
 * Run @p workload under @p config and collect both caches (and the L2
 * with collect_l2): multicore::run_multicore flattened by
 * MulticoreResult::to_experiment_result, with the wall time.  A single
 * core with an empty workload_mix drives @p workload itself; any other
 * shape builds its cores' workloads from names (see
 * multicore::resolve_mix).
 */
ExperimentResult run_experiment(workload::Workload &workload,
                                const ExperimentConfig &config);

/** How one suite job died (one entry per failed (workload) job). */
struct SuiteJobFailure
{
    /** Index of the job in the caller's names order. */
    std::size_t index = 0;
    /** The benchmark the job was running. */
    std::string workload;
    /** Error taxonomy bucket (io_error, fault_injected, internal...). */
    util::ErrorKind kind = util::ErrorKind::Internal;
    /** Human-readable detail. */
    std::string message;
    /** Retries burned before giving up (0 = failed on first try). */
    unsigned retries = 0;
};

/** Everything a fault-isolated suite run produced. */
struct SuiteOutcome
{
    /**
     * One slot per requested benchmark, in names order; nullopt where
     * that job failed.  Surviving slots are byte-identical to what a
     * fault-free run produces (failures never contaminate siblings).
     */
    std::vector<std::optional<ExperimentResult>> slots;
    /** One entry per empty slot, in names order. */
    std::vector<SuiteJobFailure> failures;
    /** Artifact-cache trouble encountered during this run. */
    CacheHealth cache;
    /** Whether SIGINT/SIGTERM cut the run short. */
    bool interrupted = false;

    /** The non-failed results in names order (consumes the slots). */
    std::vector<ExperimentResult> surviving() &&;
};

/**
 * Test/instrumentation seam: called on the worker thread right before
 * each job simulates, with the benchmark name.  A throwing hook makes
 * that job fail exactly like a mid-simulation fault, which is how the
 * isolation tests exercise the failure path in every build (the fault
 * injector only exists in chaos builds).
 */
using SuiteJobHook = std::function<void(const std::string &)>;

/** Retries a failed suite job gets when its error kind is transient. */
inline constexpr unsigned kMaxJobRetries = 2;

/**
 * Fault-isolated run_suite: one job failing (exception, injected
 * fault, interrupt) is recorded in the outcome instead of killing the
 * run, and every sibling job still completes and lands in its slot.
 * Transient failures (io_error, lock_timeout, fault_injected) retry up
 * to kMaxJobRetries times before being recorded.  After SIGINT or
 * SIGTERM no new job starts; jobs not yet dispatched are recorded as
 * `interrupted` failures and the outcome is flagged.
 */
SuiteOutcome
run_suite_isolated(const std::vector<std::string> &names,
                   const ExperimentConfig &config,
                   const SuiteJobHook &before_job = {});

/**
 * Run a list of benchmarks from the suite (workload::make_benchmark).
 *
 * With config.jobs != 1 the benchmarks run concurrently on a
 * util::ThreadPool — each into its own collector set — and the result
 * vector is assembled in @p names order, so callers observe exactly
 * the serial output regardless of the worker count.
 *
 * All-or-nothing wrapper over run_suite_isolated(): the first job
 * failure is rethrown as util::StatusError.  Callers that want partial
 * results use run_suite_isolated() directly.
 */
std::vector<ExperimentResult>
run_suite(const std::vector<std::string> &names,
          const ExperimentConfig &config);

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_EXPERIMENT_HPP
