/**
 * @file
 * Shared plumbing for the bench binaries: run the six-benchmark suite
 * once with edges covering every stock policy, and evaluate schemes
 * per cache with the paper's averaging (energy-pooled across
 * benchmarks).
 *
 * Every bench binary is self-contained: run it with no arguments and
 * it prints the table/figure it reproduces next to the paper's
 * reference numbers.  Common flags:
 *
 *   --instructions N   dynamic instructions per benchmark
 *   --jobs N           worker threads for the suite; benchmarks are
 *                      embarrassingly parallel and merged back in
 *                      suite order, so output is bit-identical for
 *                      every N.  0 (the default) uses all hardware
 *                      threads; 1 forces the serial path.
 *   --json PATH        also write a machine-readable report — every
 *                      emitted table plus wall-clock and per-benchmark
 *                      timings — to PATH (e.g. BENCH_suite.json).  The
 *                      file is rewritten (atomically: tmp + rename) as
 *                      results accrue, so a partial report is still
 *                      valid JSON and never torn.
 *   --csv-dir DIR      mirror each table to DIR/<slug>.csv
 *   --cache-dir DIR    persist/reuse per-benchmark simulation results
 *                      (core::ArtifactCache).  Empty falls back to the
 *                      LEAKBOUND_CACHE_DIR environment variable; unset
 *                      disables caching.  A warm cache turns suite
 *                      replay into per-benchmark loads, and loaded
 *                      results are byte-identical to fresh simulation.
 *   --suite-passes N   run the suite N times in-process (default 1).
 *                      With --cache-dir, pass 1 is the cold replay and
 *                      later passes are warm loads; every pass's wall
 *                      time lands in the JSON report's "suites" array,
 *                      so one invocation documents the cold/warm gap.
 */

#ifndef LEAKBOUND_BENCH_BENCH_COMMON_HPP
#define LEAKBOUND_BENCH_BENCH_COMMON_HPP

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/cache_health.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "core/suite_flags.hpp"
#include "util/binary_io.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/interrupt.hpp"
#include "util/json.hpp"
#include "util/status.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "workload/spec_suite.hpp"

namespace leakbound::bench {

/** Default per-benchmark instruction budget for bench runs. */
inline constexpr std::uint64_t kDefaultInstructions = 4'000'000;

/**
 * Everything the --json reporter accumulates over a bench binary's
 * lifetime.  One singleton per process (bench binaries are single
 * purpose); rewritten to disk after every suite run and table emit.
 */
struct BenchReport
{
    std::string program;     ///< binary name (from make_cli)
    std::string description; ///< one-line description (from make_cli)

    /** One simulated benchmark (suite runs may repeat names). */
    struct RunTiming
    {
        std::string benchmark;
        double wall_seconds = 0.0;
        std::uint64_t instructions = 0;
        std::uint64_t cycles = 0;
        double ipc = 0.0;
        bool from_cache = false; ///< loaded from the artifact cache
    };

    /** One run_suite call (cold vs warm is visible per pass). */
    struct SuiteTiming
    {
        double wall_seconds = 0.0;
        std::uint64_t simulated = 0; ///< benchmarks actually replayed
        std::uint64_t loaded = 0;    ///< benchmarks loaded from cache
        std::uint64_t failed = 0;    ///< jobs that produced no result
    };

    /**
     * One recorded failure.  `where` says which layer failed: "job"
     * (a suite benchmark produced no result), "cache" (the artifact
     * cache degraded), or "report" (a CSV/JSON mirror could not be
     * written; the table still printed).
     */
    struct Failure
    {
        std::string where;
        std::string benchmark; ///< benchmark or path; "" when n/a
        std::string kind;      ///< util::error_kind_name bucket
        std::string message;
        std::uint64_t retries = 0;
    };

    unsigned jobs = 1;                ///< resolved worker count
    std::string cache_dir;            ///< artifact cache in use ("" = off)
    double suite_wall_seconds = 0.0;  ///< summed over all suite runs
    std::vector<SuiteTiming> suites;  ///< per-suite-call timings
    std::vector<RunTiming> runs;      ///< per-benchmark timings
    std::vector<Failure> failures;    ///< everything that went wrong
    core::CacheHealth cache_health;   ///< summed over all suite runs
    bool interrupted = false;         ///< SIGINT/SIGTERM cut the run short
    /** Suite jobs that failed for a non-interrupt reason. */
    std::uint64_t failed_jobs = 0;

    /** One emitted table. */
    struct TableDump
    {
        std::string slug;
        std::string title;
        std::vector<std::string> header;
        std::vector<std::vector<std::string>> rows;
    };

    std::vector<TableDump> tables;

    /** Render the report as a JSON document. */
    std::string
    to_json(const util::Cli &cli) const
    {
        util::JsonWriter w;
        w.begin_object();
        w.key("bench").value(program);
        w.key("description").value(description);
        w.key("flags").begin_object();
        for (const auto &[name, value] : cli.snapshot())
            w.key(name).value(value);
        w.end_object();
        w.key("jobs").value(static_cast<std::uint64_t>(jobs));
        w.key("cache_dir").value(cache_dir);
        w.key("suite_wall_seconds").value(suite_wall_seconds);
        w.key("interrupted").value(interrupted);
        w.key("suites").begin_array();
        for (const SuiteTiming &suite : suites) {
            w.begin_object();
            w.key("wall_seconds").value(suite.wall_seconds);
            w.key("simulated").value(suite.simulated);
            w.key("loaded").value(suite.loaded);
            w.key("failed").value(suite.failed);
            w.end_object();
        }
        w.end_array();
        w.key("failures").begin_array();
        for (const Failure &failure : failures) {
            w.begin_object();
            w.key("where").value(failure.where);
            w.key("benchmark").value(failure.benchmark);
            w.key("kind").value(failure.kind);
            w.key("message").value(failure.message);
            w.key("retries").value(failure.retries);
            w.end_object();
        }
        w.end_array();
        w.key("cache_health").begin_object();
        w.key("store_failures").value(cache_health.store_failures);
        w.key("corrupt_entries").value(cache_health.corrupt_entries);
        w.key("lock_breaks").value(cache_health.lock_breaks);
        w.key("lock_timeouts").value(cache_health.lock_timeouts);
        w.key("lock_retries").value(cache_health.lock_retries);
        w.key("degraded_jobs").value(cache_health.degraded_jobs);
        w.key("degraded").value(cache_health.degraded);
        w.end_object();
        w.key("benchmarks").begin_array();
        for (const RunTiming &run : runs) {
            w.begin_object();
            w.key("benchmark").value(run.benchmark);
            w.key("wall_seconds").value(run.wall_seconds);
            w.key("instructions").value(run.instructions);
            w.key("cycles").value(run.cycles);
            w.key("ipc").value(run.ipc);
            w.key("from_cache").value(run.from_cache);
            w.end_object();
        }
        w.end_array();
        w.key("tables").begin_array();
        for (const TableDump &table : tables) {
            w.begin_object();
            w.key("slug").value(table.slug);
            w.key("title").value(table.title);
            w.key("header").value(table.header);
            w.key("rows").begin_array();
            for (const auto &row : table.rows)
                w.value(row);
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        return w.str();
    }
};

/** The process-wide report under construction. */
inline BenchReport &
report()
{
    static BenchReport instance;
    return instance;
}

/**
 * Rewrite the JSON report when --json was given.  The write is atomic
 * (tmp file + rename, shared with the artifact cache), so a reader —
 * or a crash mid-emit — never observes a torn report.  Unlike cache
 * entries, the report carries no checksum, so a torn publish (a
 * non-atomic filesystem, or the injected rename_torn fault) would
 * masquerade as success and hand a consumer half a JSON document —
 * each write is therefore verified by reading the file back, and a
 * mismatch retried a bounded number of times.  A persistent failure
 * warns instead of killing the bench (the tables still reach stdout),
 * and a file known to be torn is removed, so the consumer contract is
 * the same as the cache's: a valid report or no report, never a
 * corrupt one.
 */
inline void
flush_report(const util::Cli &cli)
{
    const std::string path = cli.get("json");
    if (path.empty())
        return;
    const std::string contents = report().to_json(cli) + "\n";
    constexpr int kMaxPublishAttempts = 5;
    util::Status wrote;
    for (int attempt = 0; attempt < kMaxPublishAttempts; ++attempt) {
        wrote = util::write_file_atomic(path, contents);
        if (!wrote.ok())
            continue;
        std::string check;
        if (util::read_file_bytes(path, check).ok() && check == contents)
            return;
        wrote = util::Status(util::ErrorKind::CorruptData,
                             "torn report publish: " + path);
        std::remove(path.c_str());
    }
    util::warn("cannot flush JSON report: ", wrote.to_string());
}

/**
 * Exit-code policy for bench binaries (documented in the README):
 * 0 = clean run, 2 = user error (util::fatal), 3 = one or more suite
 * jobs failed (partial results; see the report's "failures" array),
 * 128+signal = interrupted.  Call as `return bench::finish(cli);`.
 */
inline int
finish(const util::Cli &cli)
{
    flush_report(cli);
    return report().failed_jobs > 0 ? 3 : 0;
}

/**
 * Build the standard CLI for a bench binary.  The flag family itself
 * lives in core/suite_flags.hpp so `leakbound-client` and `leakboundd`
 * register the exact same names and help text.
 */
inline util::Cli
make_cli(const std::string &name, const std::string &desc)
{
    // Bench binaries are the process boundary: arm the cooperative
    // SIGINT/SIGTERM handler (flush-partial-report semantics) and, in
    // chaos builds, pick up $LEAKBOUND_FAULT_INJECTION.
    util::install_signal_handlers();
    util::fault::configure_from_env();
    util::Cli cli(name, desc);
    core::SuiteFlagSpec spec;
    spec.default_instructions = kDefaultInstructions;
    core::register_suite_flags(cli, spec);
    report().program = name;
    report().description = desc;
    return cli;
}

// The shared flag helpers themselves live in core/suite_flags.hpp;
// re-exported here so the 17 bench binaries keep their unqualified
// spelling (ADL would find the core overloads anyway — the using
// declarations make that the one unambiguous candidate).
using core::apply_suite_flags;
using core::suite_jobs;

/**
 * core::run_suite_isolated plus bookkeeping: wall-clock the run,
 * record per-benchmark timings, fold job failures and cache health
 * into the --json report, and return the surviving results.  All
 * bench binaries funnel their suite simulations through here.
 *
 * A failed job costs exactly its own rows (tables aggregate over the
 * survivors); an interrupt flushes the partial report with
 * `"interrupted": true` and exits 128+signal.
 */
inline std::vector<core::ExperimentResult>
run_suite_reported(const std::vector<std::string> &names,
                   const core::ExperimentConfig &config,
                   const util::Cli &cli)
{
    const auto start = std::chrono::steady_clock::now();
    core::SuiteOutcome outcome = core::run_suite_isolated(names, config);
    report().jobs = util::ThreadPool::effective_jobs(config.jobs);
    report().cache_dir = config.cache_dir;
    BenchReport::SuiteTiming suite;
    suite.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    report().suite_wall_seconds += suite.wall_seconds;
    for (const auto &slot : outcome.slots) {
        if (!slot)
            continue;
        const core::ExperimentResult &run = *slot;
        BenchReport::RunTiming timing;
        timing.benchmark = run.workload;
        timing.wall_seconds = run.wall_seconds;
        timing.instructions = run.core.instructions;
        timing.cycles = run.core.cycles;
        timing.ipc = run.core.ipc();
        timing.from_cache = run.from_cache;
        ++(run.from_cache ? suite.loaded : suite.simulated);
        report().runs.push_back(std::move(timing));
    }
    suite.failed = outcome.failures.size();
    report().suites.push_back(suite);

    for (const core::SuiteJobFailure &failure : outcome.failures) {
        report().failures.push_back(BenchReport::Failure{
            "job", failure.workload, util::error_kind_name(failure.kind),
            failure.message, failure.retries});
        if (failure.kind != util::ErrorKind::Interrupted)
            ++report().failed_jobs;
    }
    report().cache_health.accumulate(outcome.cache);
    if (outcome.cache.degraded || outcome.cache.store_failures ||
        outcome.cache.corrupt_entries || outcome.cache.lock_timeouts) {
        report().failures.push_back(BenchReport::Failure{
            "cache", config.cache_dir,
            util::error_kind_name(util::ErrorKind::IoError),
            "artifact cache degraded: " +
                std::to_string(outcome.cache.store_failures) +
                " store failures, " +
                std::to_string(outcome.cache.corrupt_entries) +
                " corrupt entries, " +
                std::to_string(outcome.cache.lock_timeouts) +
                " lock timeouts",
            0});
    }

    if (outcome.interrupted) {
        // Stop cleanly: persist what completed, mark the report, and
        // exit with the conventional signal status.
        report().interrupted = true;
        flush_report(cli);
        util::warn("interrupted; partial report flushed, exiting");
        std::exit(util::interrupt_exit_code() != 0
                      ? util::interrupt_exit_code()
                      : 130);
    }

    flush_report(cli);
    return std::move(outcome).surviving();
}

/**
 * Print @p table and, when --csv-dir / --json were given, mirror it to
 * <csv-dir>/<slug>.csv / the JSON report.
 */
inline void
emit(const util::Table &table, const util::Cli &cli,
     const std::string &slug)
{
    table.print();
    const std::string dir = cli.get("csv-dir");
    if (!dir.empty()) {
        const std::string path = dir + "/" + slug + ".csv";
        if (util::Status wrote = table.write_csv(path); !wrote.ok()) {
            // The table already printed; losing one CSV mirror is a
            // recorded degradation, not a reason to die.
            util::warn("cannot mirror table to CSV: ", wrote.to_string());
            report().failures.push_back(BenchReport::Failure{
                "report", path, util::error_kind_name(wrote.kind()),
                wrote.message(), 0});
        }
    }

    BenchReport::TableDump dump;
    dump.slug = slug;
    dump.title = table.title();
    dump.header = table.header();
    for (const auto &row : table.rows())
        if (!row.empty()) // drop separator rows
            dump.rows.push_back(row);
    report().tables.push_back(std::move(dump));
    flush_report(cli);
}

/**
 * Simulate the full six-benchmark suite with histogram edges covering
 * every stock experiment (plus @p extra_edges for custom sweeps),
 * honouring --instructions, --jobs, --cache-dir and --suite-passes.
 * With --suite-passes N > 1 the suite runs N times and the last pass's
 * results are returned — pointless without a cache, but with one the
 * JSON report then records the cold replay and the warm load times
 * side by side (the bench smoke test and the committed
 * BENCH_suite.json use exactly this).
 */
inline std::vector<core::ExperimentResult>
run_standard_suite(const util::Cli &cli,
                   std::vector<Cycles> extra_edges = {})
{
    core::ExperimentConfig config;
    apply_suite_flags(config, cli);
    config.extra_edges = core::standard_extra_edges();
    config.extra_edges.insert(config.extra_edges.end(),
                              extra_edges.begin(), extra_edges.end());
    const std::uint64_t passes =
        std::max<std::uint64_t>(cli.get_u64("suite-passes"), 1);
    if (passes > 1 && config.cache_dir.empty())
        util::warn("--suite-passes > 1 without --cache-dir just "
                   "repeats the same replay");
    for (std::uint64_t pass = 1; pass < passes; ++pass)
        run_suite_reported(workload::suite_names(), config, cli);
    return run_suite_reported(workload::suite_names(), config, cli);
}

/** Which L1 a scheme is evaluated against. */
enum class CacheSide { Instruction, Data };

/** The interval population of @p side in @p run. */
inline const interval::IntervalHistogramSet &
population(const core::ExperimentResult &run, CacheSide side)
{
    return side == CacheSide::Instruction ? run.icache.intervals
                                          : run.dcache.intervals;
}

/** Evaluate a policy on one cache of one run. */
inline core::SavingsResult
evaluate(const core::Policy &policy, const core::ExperimentResult &run,
         CacheSide side)
{
    return core::evaluate_policy(policy, population(run, side));
}

/**
 * The paper's "average" bars: pool energies across all benchmarks
 * (sum of policy energy over sum of baselines).
 */
inline core::SavingsResult
suite_average(const core::Policy &policy,
              const std::vector<core::ExperimentResult> &runs,
              CacheSide side)
{
    std::vector<core::SavingsResult> per_run;
    per_run.reserve(runs.size());
    for (const auto &run : runs)
        per_run.push_back(evaluate(policy, run, side));
    return core::combine_results(per_run);
}

/** Population pointers of @p side across @p runs, in suite order. */
inline std::vector<const interval::IntervalHistogramSet *>
populations(const std::vector<core::ExperimentResult> &runs, CacheSide side)
{
    std::vector<const interval::IntervalHistogramSet *> sets;
    sets.reserve(runs.size());
    for (const auto &run : runs)
        sets.push_back(&population(run, side));
    return sets;
}

/**
 * A (policy x benchmark) grid evaluated in one pooled pass: per-cell
 * results plus the energy-pooled suite average of every policy row.
 * Values are bit-identical to per-cell evaluate()/suite_average()
 * calls (deterministic merge; see core::evaluate_policy_grid).
 */
struct GridEvaluation
{
    std::vector<std::vector<core::SavingsResult>> cells; ///< [policy][run]
    std::vector<core::SavingsResult> averages;           ///< [policy]
};

/**
 * Evaluate @p policies against every run of @p side on the --jobs
 * thread pool.  This is the sweep binaries' inner loop: one pooled
 * pass replaces the serial policy-by-policy, run-by-run nesting.
 */
inline GridEvaluation
evaluate_grid(const std::vector<const core::Policy *> &policies,
              const std::vector<core::ExperimentResult> &runs,
              CacheSide side, const util::Cli &cli)
{
    const auto flat = core::evaluate_policy_grid(
        policies, populations(runs, side), suite_jobs(cli));

    GridEvaluation grid;
    grid.cells.reserve(policies.size());
    grid.averages.reserve(policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p) {
        std::vector<core::SavingsResult> row(
            flat.begin() + static_cast<std::ptrdiff_t>(p * runs.size()),
            flat.begin() +
                static_cast<std::ptrdiff_t>((p + 1) * runs.size()));
        grid.averages.push_back(core::combine_results(row));
        grid.cells.push_back(std::move(row));
    }
    return grid;
}

/** "96.4%"-style cell for a savings fraction. */
inline std::string
pct(double fraction)
{
    return util::format_percent(fraction);
}

} // namespace leakbound::bench

#endif // LEAKBOUND_BENCH_BENCH_COMMON_HPP
