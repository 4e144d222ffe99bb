/**
 * @file
 * Shared plumbing of the leakbound benchmark: run options, named
 * metrics, the operation ledger behind `attempted`/`failed`, in-memory
 * span tracing, the correctness helpers (serialize_result digests,
 * frame-time conservation) and the committed expected digests.
 *
 * Everything here sits outside the library: spans are opened and
 * closed around calls into leakbound's public entry points, never
 * inside them.  Every time is host time from std::chrono::steady_clock.
 */

#ifndef LEAKBENCH_COMMON_HPP
#define LEAKBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "interval/interval_histogram.hpp"

namespace leakbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p begun to now. */
double seconds_since(Clock::time_point begun);

/** Seconds from @p begun to @p ended. */
double seconds_between(Clock::time_point begun, Clock::time_point ended);

/** Settings of one benchmark run (the command line). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed phase. */
    double seconds = 10.0;
    /** Traced run: emit the per-layer ledger instead of end-to-end. */
    bool trace = false;
    /**
     * Self-test budgets: the same code paths on inputs small enough
     * that a run finishes in a second or two.
     */
    bool short_budget = false;
    /** Where expected.json lives. */
    std::string data_dir = "perfbench";
    /** Where reports go; the parent of scratch_dir. */
    std::string work_dir = ".bench_build";
    /** This process's own scratch space (private caches), removed at exit. */
    std::string scratch_dir = ".bench_build/scratch";
    /** Source revision, as the wrapper found it ("unknown" if none). */
    std::string commit = "unknown";
    /** When the process started (the first set-up is timed from here). */
    Clock::time_point started = Clock::now();
};

/** One measured value and its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Metrics by name (sorted, so reports diff cleanly). */
using Metrics = std::map<std::string, Metric>;

/**
 * Operations attempted and failed.  An operation is one suite job,
 * multicore run or daemon request (plus a few whole-run checks); it
 * fails when it errors, or when any correctness check on its output —
 * digest, conservation, invariant — does not hold.
 */
class Outcome
{
  public:
    /** Record one operation; a false @p ok counts it failed. */
    void record(bool ok, const std::string &why);

    /** Fold another ledger into this one. */
    void merge(const Outcome &other);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** The first few failure reasons, for the report and stderr. */
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    static constexpr std::size_t kMaxProblems = 20;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> problems_;
};

/** One traced interval: a layer call seen from the benchmark side. */
struct Span
{
    std::string name;
    std::int64_t start_ns = 0; ///< since the tracer's origin
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span
    std::uint64_t trace_id = 0; ///< shared by the spans of one operation
};

/**
 * In-memory span recorder.  Disabled tracers record nothing and cost a
 * branch; enabled ones append under a mutex (the daemon workload
 * traces from several client threads) and are written out once, when
 * the run ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    std::int64_t open(const std::string &name, std::int64_t parent = -1,
                      std::uint64_t trace_id = 0);

    /** Close span @p id (no-op for -1). */
    void close(std::int64_t id);

    /** Durations in ns of every closed span called @p name. */
    std::vector<double> durations_ns(const std::string &name) const;

    /** All spans as a JSON array. */
    std::string to_json() const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               std::int64_t parent = -1, std::uint64_t trace_id = 0)
        : tracer_(tracer), id_(tracer.open(name, parent, trace_id))
    {
    }
    ~ScopedSpan() { tracer_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

/** Median (0 for an empty sample). */
double median(std::vector<double> values);

/**
 * The @p q quantile with linear interpolation between order
 * statistics (numpy's default), 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

/** Hex FNV-1a of serialize_result(@p result): the byte-identity oracle. */
std::string result_digest(const leakbound::core::ExperimentResult &result);

/** Hex FNV-1a over @p values printed at full precision. */
std::string values_digest(const std::vector<double> &values);

/** Frame-time conservation: Σ interval length == frames × cycles. */
bool conserved(const leakbound::interval::IntervalHistogramSet &set);

/** conserved() on every histogram set of @p result. */
bool conserved(const leakbound::core::ExperimentResult &result);

/**
 * The digests committed in perfbench/expected.json, keyed
 * "<workload>/<budget>/<item>".  In regeneration mode every lookup is
 * recorded instead of compared, and the table is printed at the end.
 */
class Expectations
{
  public:
    /** Load @p path; an unreadable file leaves the table empty. */
    Expectations(const std::string &path, bool regenerate);

    /**
     * Compare @p digest with the committed value for @p key; true on a
     * match (always true while regenerating).
     */
    bool matches(const std::string &key, const std::string &digest);

    /** The table, as regenerated, in expected.json form. */
    std::string to_json() const;

  private:
    bool regenerate_;
    std::mutex mutex_;
    std::map<std::string, std::string> digests_;
};

/**
 * Placement of the calling thread on the least contended CPU it may
 * use; the original placement is restored on destruction (threads
 * started meanwhile would inherit the pin).
 *
 * On a shared host, a virtual CPU whose physical core is also running
 * another tenant executes the simulator up to twice as slowly, and
 * which CPUs suffer changes from one second to the next.  Before each
 * timed operation the thread times a short fixed arithmetic probe on
 * every CPU it may use and stays on the fastest, as a scheduler that
 * could see the contention would.
 */
class CpuPlacement
{
  public:
    CpuPlacement();
    ~CpuPlacement();

    CpuPlacement(const CpuPlacement &) = delete;
    CpuPlacement &operator=(const CpuPlacement &) = delete;

    /**
     * Probe every CPU and move to the fastest, first waiting a few
     * rounds for one as fast as the fastest probe so far.
     */
    void place_on_quietest();

    /** The fastest probe so far (s): the host's uncontended speed. */
    double fastest_probe_s() const { return fastest_s_; }

  private:
    /** Seconds the probe takes on the CPU the thread is on. */
    double probe();

    std::vector<int> cpus_;
    bool saved_ = false;
    std::vector<unsigned char> mask_; ///< the original cpu_set_t bytes
    std::uint64_t sink_ = 0;
    double fastest_s_ = 0.0;
};

/** The smallest of @p values (0 for an empty sample). */
double minimum(const std::vector<double> &values);

/** Peak resident set size of this process, MiB. */
double peak_rss_mb();

/** Host facts every report records (nproc, load, build, commit). */
std::string environment_json(const Options &options);

/** Splitmix64 step: the benchmark's own seeded generator. */
std::uint64_t splitmix64(std::uint64_t &state);

/** Seeded Fisher-Yates shuffle (stable across standard libraries). */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = splitmix64(state) % i;
        std::swap(items[i - 1], items[j]);
    }
}

} // namespace leakbench

#endif // LEAKBENCH_COMMON_HPP
