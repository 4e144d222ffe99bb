/**
 * @file
 * Implementation of the shared suite flag family.
 */

#include "core/suite_flags.hpp"

#include <string>

#include "core/artifact_cache.hpp"
#include "util/thread_pool.hpp"

namespace leakbound::core {

void
register_suite_flags(util::Cli &cli, const SuiteFlagSpec &spec)
{
    if (spec.instructions) {
        cli.add_flag("instructions", "dynamic instructions per benchmark",
                     std::to_string(spec.default_instructions));
    }
    if (spec.jobs) {
        cli.add_flag("jobs",
                     "worker threads for suite simulation (0 = all "
                     "hardware threads); results are merged in suite "
                     "order, so output is identical for every value",
                     "0");
    }
    if (spec.json) {
        cli.add_flag("json",
                     "also write tables + wall-clock/per-benchmark "
                     "timings to this JSON file (empty = off)",
                     "");
    }
    if (spec.cache_dir) {
        cli.add_flag("cache-dir",
                     "persist/reuse per-benchmark simulation artifacts "
                     "in this directory (empty = $LEAKBOUND_CACHE_DIR, "
                     "or off); cached results are byte-identical to "
                     "fresh simulation",
                     "");
    }
    if (spec.suite_passes) {
        cli.add_flag("suite-passes",
                     "run the suite this many times in-process; with "
                     "--cache-dir the first pass is cold and later "
                     "passes are warm loads, each timed in the JSON "
                     "report",
                     "1");
    }
}

unsigned
suite_jobs(const util::Cli &cli)
{
    return util::ThreadPool::effective_jobs(
        static_cast<unsigned>(cli.get_u64("jobs")));
}

void
apply_suite_flags(ExperimentConfig &config, const util::Cli &cli)
{
    config.instructions = cli.get_u64("instructions");
    config.jobs = suite_jobs(cli);
    config.cache_dir = resolve_cache_dir(cli.get("cache-dir"));
}

} // namespace leakbound::core
