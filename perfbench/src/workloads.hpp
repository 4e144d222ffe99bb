/**
 * @file
 * The benchmark workloads (perfbench/README.md says why each was
 * chosen; BENCHMARK.json times the first two, and traced runs probe
 * the third for its layers):
 *
 *   paper_suite_cold     the six paper benchmarks, single-core, no
 *                        artifact cache, one thread, then the Fig. 8
 *                        policy grid
 *   multicore_shared_l2  eight cores over a 16-way shared L2 with L2
 *                        collection, then the per-level 70nm bounds
 *   daemon_sweep         an in-process leakboundd driven as a closed
 *                        loop by a seeded hot/stored/fresh request mix
 *
 * Each fills the end-to-end metrics of an untraced run, or, traced, the
 * per-layer ledger of the layers it exercises.
 */

#ifndef LEAKBENCH_WORKLOADS_HPP
#define LEAKBENCH_WORKLOADS_HPP

#include "common.hpp"

namespace leakbench {

/** What one workload run reports. */
struct RunOutput
{
    /** End-to-end metrics (untraced run), minus peak_rss_mb. */
    Metrics e2e;
    /** Per-layer metrics (traced run). */
    Metrics layers;
    /**
     * Supporting numbers printed beside the result and kept in the
     * report (sample counts, failed_frac), never in the final line.
     */
    Metrics info;
    /** Per-iteration samples behind the medians, for the report. */
    std::map<std::string, std::vector<double>> samples;
    Outcome outcome;
};

/**
 * setup_s (median of @p setup, kept in out.samples), wall_s and
 * ns_per_instr into out.e2e.
 */
void iteration_metrics(const std::vector<double> &setup, double wall_s,
                       double ns_per_instr, RunOutput &out);

/**
 * Operation latency: p50, p99, the sample count and the samples beyond
 * p99 of @p samples_ms into out.info.
 */
void latency_metrics(const std::vector<double> &samples_ms, RunOutput &out);

/**
 * trace.untraced_wall_s, trace.traced_wall_s and trace.overhead_frac
 * (their ratio minus one) into out.layers.
 */
void tracing_overhead(double untraced_wall_s, double traced_wall_s,
                      RunOutput &out);

/**
 * Run @p body (which returns the seconds it timed) until the timed
 * seconds reach @p seconds and at least @p min_iterations ran.
 */
template <typename F>
void
repeat_for(double seconds, int min_iterations, F &&body)
{
    double timed = 0.0;
    for (int i = 0; i < min_iterations || timed < seconds; ++i)
        timed += body(i);
}

void run_paper_suite_cold(const Options &options, Expectations &expected,
                          Tracer &tracer, RunOutput &out);

void run_multicore_shared_l2(const Options &options, Expectations &expected,
                             Tracer &tracer, RunOutput &out);

void run_daemon_sweep(const Options &options, Expectations &expected,
                      Tracer &tracer, RunOutput &out);

} // namespace leakbench

#endif // LEAKBENCH_WORKLOADS_HPP
