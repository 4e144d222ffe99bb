/**
 * @file
 * The per-layer ledger of single-core simulation.
 *
 * Simulation is one call (core::run_experiment), so its layers are
 * separated by cumulative stages, each of which calls one more layer's
 * public API than the one before:
 *
 *   stage 0  Workload::next_batch alone                    -> workload
 *   stage 1  + InOrderCore::run_with, no-op listener, over
 *              a fresh sim::Hierarchy                      -> cpu + sim
 *   stage 2  + interval::IntervalCollector on both L1s     -> interval
 *   stage 3  + prefetch::NextLineMonitor / StridePredictor -> prefetch
 *            (this is the whole simulation, and its result must
 *             serialize byte-identically to stage 4's)
 *   stage 4  the real core::run_experiment                 -> core listener
 *
 * The sim layer is split from the core by replaying each benchmark's
 * access stream, captured once during set-up, through a fresh
 * Hierarchy.  Each layer's self time is its stage minus the previous
 * one, so the layers sum to stage 4 by construction; the benchmark
 * cross-checks that sum against the untraced end-to-end figure.
 */

#ifndef LEAKBENCH_LEDGER_HPP
#define LEAKBENCH_LEDGER_HPP

#include <array>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/experiment.hpp"

namespace leakbench {

/** Stage times of one ledger round, per benchmark (ns). */
struct LedgerRound
{
    /** Stages 0-4, then the sim replay. */
    std::vector<std::array<double, 6>> benchmark;
};

/** The staged measurement of one benchmark list under one config. */
class Ledger
{
  public:
    /**
     * Set-up: capture every benchmark's access stream for the sim
     * replay.  @p config must not collect the L2 (the stages mirror the
     * L1 listener only).
     */
    Ledger(std::vector<std::string> benchmarks,
           leakbound::core::ExperimentConfig config);

    /**
     * One round: every stage of every benchmark, interleaved per
     * benchmark so drift hits all stages alike.  The first round also
     * checks replay fidelity and stage-3/stage-4 byte identity.  Each
     * benchmark's stages run on the CPU @p placement finds quietest.
     */
    LedgerRound round(std::uint64_t id, Tracer &tracer, Outcome &outcome,
                      CpuPlacement &placement);

    /** Rounds for at least @p seconds (and at least three). */
    std::vector<LedgerRound> rounds(double seconds, Tracer &tracer,
                                    Outcome &outcome, CpuPlacement &placement);

    /**
     * ns per instruction / per access for workload, cpu, sim, interval,
     * prefetch and the core listener, and their sum as
     * ledger.layer_sum_ns_per_instr.  Each stage counts, per benchmark,
     * its fastest round: the same estimator as the end-to-end figures.
     */
    Metrics summarize(const std::vector<LedgerRound> &rounds) const;

  private:
    std::vector<std::string> benchmarks_;
    leakbound::core::ExperimentConfig config_;
    /** Per benchmark: (address << 1) | is_instruction, in issue order. */
    std::vector<std::vector<std::uint64_t>> streams_;
    /** Per benchmark: L1I/L1D/L2 accesses + misses the capture saw. */
    std::vector<std::vector<std::uint64_t>> capture_stats_;
    std::uint64_t accesses_ = 0;
    std::uint64_t instructions_ = 0;
    bool checked_ = false;
    std::uint64_t sink_ = 0;
};

/**
 * Simulated statistics of a set of results as per-layer counts: core
 * fetch groups, IPC and stalls; L1I/L1D/L2 miss rates and L2
 * accesses; interval counts; next-line and stride coverage.
 */
Metrics count_metrics(
    const std::vector<const leakbound::core::ExperimentResult *> &results);

/**
 * Store and reload @p results through a private core::ArtifactCache
 * under @p dir (removed afterwards): median ms per entry for
 * artifact_cache.store_ms / load_ms, and the entry size in KiB.  Every
 * reloaded result must serialize byte-identically to its original.
 */
Metrics artifact_cache_metrics(
    const std::vector<const leakbound::core::ExperimentResult *> &results,
    const leakbound::core::ExperimentConfig &config, const std::string &dir,
    Tracer &tracer, Outcome &outcome);

} // namespace leakbench

#endif // LEAKBENCH_LEDGER_HPP
