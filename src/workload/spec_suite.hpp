/**
 * @file
 * The benchmark suite of the paper (Section 4.1): six SPEC2000-like
 * synthetic programs — ammp, applu, mesa, vortex, gcc, gzip — plus the
 * Figure 2 human-resources loop demo.
 *
 * We cannot ship SPEC binaries or traces; each benchmark here is a
 * synthetic program tuned to the locality signature the paper's
 * results rest on (DESIGN.md §3).  In one line each:
 *
 *   ammp   : FP; huge array sweeps + neighbour lists — very long
 *            D-cache intervals, small hot code
 *   applu  : FP; deep loop nests over multi-dimensional arrays —
 *            stride-prefetchable D-cache traffic
 *   mesa   : FP; medium call graph + vertex streaming — mixed
 *   vortex : INT; large OO code + pointer chasing — big I-footprint,
 *            non-prefetchable data
 *   gcc    : INT; very large multi-phase code, irregular data — the
 *            hardest I-cache case
 *   gzip   : INT; tiny hot loops + buffer streaming — next-line
 *            heaven in the D-cache, trivial I-cache
 *
 * Three synthetic extras — stream, stencil, chase — are exactly
 * periodic loop nests (constant trip counts, deterministic data
 * patterns) that the multicore sweep mixes.  They are accepted by
 * make_benchmark()/is_benchmark() but are NOT in suite_names(): stock
 * suite reports (and the committed bench JSONs built from them) are
 * unchanged.
 */

#ifndef LEAKBOUND_WORKLOAD_SPEC_SUITE_HPP
#define LEAKBOUND_WORKLOAD_SPEC_SUITE_HPP

#include <string>
#include <vector>

#include "workload/workload.hpp"

namespace leakbound::workload {

/** The six benchmark names in the paper's plotting order. */
const std::vector<std::string> &suite_names();

/**
 * Build a benchmark by name ("ammp", "applu", "gcc", "gzip", "mesa",
 * "vortex", or the synthetic extras "stream", "stencil", "chase");
 * fatal() on unknown names.
 * @param seed 0 selects the benchmark's default seed.
 */
WorkloadPtr make_benchmark(const std::string &name, std::uint64_t seed = 0);

/**
 * Whether make_benchmark() accepts @p name — a cheap validity probe
 * (no workload is constructed) for callers that want the unknown-name
 * fatal() on their own thread before fanning jobs out to workers.
 */
bool is_benchmark(const std::string &name);

/**
 * The paper's Figure 2 example: a yearly loop whose inner loop's trip
 * count (|high(i) - low(i)|) controls the re-access interval of the
 * `add` instruction.  @p inner_min / @p inner_max bound that count.
 */
WorkloadPtr make_hr_loop(std::uint64_t inner_min = 2,
                         std::uint64_t inner_max = 256,
                         std::uint64_t seed = 1);

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_SPEC_SUITE_HPP
