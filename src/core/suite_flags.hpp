/**
 * @file
 * The shared `--instructions/--jobs/--json/--cache-dir/--suite-passes`
 * flag family, extracted from the bench harness so
 * every front end that runs suites — the 17 bench binaries,
 * `leakboundd`, `leakbound-client` — registers the same names with the
 * same help text and the same semantics, instead of each binary
 * re-declaring its own drifting copy.
 */

#ifndef LEAKBOUND_CORE_SUITE_FLAGS_HPP
#define LEAKBOUND_CORE_SUITE_FLAGS_HPP

#include <cstdint>

#include "core/experiment.hpp"
#include "util/cli.hpp"

namespace leakbound::core {

/**
 * Which of the family to register (front ends differ: a bench wants
 * all six, the daemon has no --json tables, the client has no
 * --cache-dir because caching is server-side).
 */
struct SuiteFlagSpec
{
    bool instructions = true;
    bool jobs = true;
    bool json = true;
    bool cache_dir = true;
    bool suite_passes = true;
    /** Default per-benchmark instruction budget. */
    std::uint64_t default_instructions = 4'000'000;
};

/** Register the selected flags on @p cli with the canonical help text. */
void register_suite_flags(util::Cli &cli, const SuiteFlagSpec &spec = {});

/**
 * The --jobs request resolved against the hardware (0 = all threads).
 * Requires the "jobs" flag to be registered.
 */
unsigned suite_jobs(const util::Cli &cli);

/**
 * Apply --instructions, --jobs and --cache-dir to @p config (cache-dir
 * resolves through $LEAKBOUND_CACHE_DIR when the flag is empty).
 * Requires those flags to be registered.
 */
void apply_suite_flags(ExperimentConfig &config, const util::Cli &cli);

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_SUITE_FLAGS_HPP
