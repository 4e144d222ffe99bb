/**
 * @file
 * Lightweight statistics accumulators used by the experiment harness
 * and the daemon: running mean/variance (Welford) and a bounded
 * latency sample with percentiles.
 */

#ifndef LEAKBOUND_UTIL_STATS_HPP
#define LEAKBOUND_UTIL_STATS_HPP

#include <cstdint>
#include <limits>
#include <vector>

namespace leakbound::util {

/**
 * Running scalar distribution: count, sum, min, max, mean, sample
 * standard deviation, accumulated with Welford's algorithm so it is
 * numerically stable for long simulations.
 */
class Accumulator
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one (parallel reduction). */
    void merge(const Accumulator &other);

    /** Reset to the empty state. */
    void reset();

    /** Number of observations. */
    std::uint64_t count() const { return count_; }

    /** Sum of observations (0 when empty). */
    double sum() const { return sum_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Minimum observation (+inf when empty). */
    double min() const { return min_; }

    /** Maximum observation (-inf when empty). */
    double max() const { return max_; }

    /** Population variance (0 for fewer than 2 observations). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Bounded-memory percentile estimator for service latencies.
 *
 * The serve daemon's /stats endpoint reports p50/p99 request latency
 * over the daemon's lifetime.  Keeping every sample would grow without
 * bound in a long-running process, so past @p capacity samples the
 * recorder decimates: it keeps every k-th observation (doubling k each
 * time the buffer refills), which preserves an unbiased-enough view of
 * a stationary latency distribution while capping memory.  Exact while
 * under capacity — which covers every test and bench in this repo.
 */
class LatencyRecorder
{
  public:
    explicit LatencyRecorder(std::size_t capacity = 1 << 14);

    /** Record one observation (seconds, ms — any consistent unit). */
    void add(double value);

    /** Observations offered via add() (not the retained count). */
    std::uint64_t count() const { return total_; }

    /** Running min/max/mean over ALL observations (not decimated). */
    double min() const { return summary_.min(); }
    double max() const { return summary_.max(); }
    double mean() const { return summary_.mean(); }

    /**
     * The @p q quantile (0..1) over the retained samples; 0 when
     * empty.  q=0.5 is the median, q=0.99 the tail the SLO watches.
     */
    double quantile(double q) const;

    /** Shorthands for the two numbers the /stats endpoint exports. */
    double p50() const { return quantile(0.50); }
    double p99() const { return quantile(0.99); }

    /** Drop all samples and counters. */
    void reset();

  private:
    std::size_t capacity_;
    std::uint64_t total_ = 0;
    std::uint64_t stride_ = 1; ///< keep every stride_-th observation
    std::vector<double> samples_;
    Accumulator summary_;
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_STATS_HPP
