/**
 * @file
 * Construction of the six synthetic SPEC2000-like benchmarks.
 *
 * Address map: code regions live at 0x0040_0000+, heap data regions at
 * 0x1000_0000+ (spaced far apart), stacks at 0x7fff_f000.  The exact
 * values only need to keep regions disjoint.
 *
 * Tuning goals (DESIGN.md §3 and §8): L1 miss rates of a few percent
 * (hot stack/structure data takes the majority of references), code
 * resident sets that are a meaningful fraction of the 64KB L1I, a
 * broad population of *medium* (10^2..10^4 cycle) re-access intervals
 * from section/loop rotation (these separate Hybrid from Sleep-only in
 * Fig. 7 and OPT from decay in Fig. 8), long cross-phase intervals for
 * the 180nm regime of Table 2, and long-interval mass dominated by
 * sequential/strided (prefetchable) traffic with an irregular
 * (non-prefetchable) minority, which is what lets Prefetch-B approach
 * the bound in Fig. 8.
 */

#include "workload/spec_suite.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "workload/callgraph.hpp"
#include "workload/data_pattern.hpp"
#include "workload/loop_program.hpp"

namespace leakbound::workload {

namespace {

constexpr Addr kCodeBase = 0x0040'0000;
constexpr Addr kHeapBase = 0x1000'0000;
constexpr Addr kStackTop = 0x7fff'f000;
constexpr Addr kRegionGap = 0x0100'0000; // 16MB between data regions

Addr
heap(std::uint32_t index)
{
    return kHeapBase + static_cast<Addr>(index) * kRegionGap;
}

/**
 * A "section": a two-level loop nest over @p nblocks straight-line
 * blocks drawn round-robin from @p rotation.  Blocks are grouped into
 * sub-loops of three that each repeat 4-12 times, and the whole chain
 * repeats reps_min..reps_max times.  The resulting code-line interval
 * spectrum is the paper-shaped one: ~10^2-cycle revisits while a
 * sub-loop spins, ~10^3-10^4-cycle revisits per section iteration
 * (the band that separates Hybrid from Sleep-only in Fig. 7), and
 * rotation-period ides of 10^5+ cycles between section visits (the
 * 180nm regime of Table 2).
 */
NodeSpec
make_section(std::uint64_t reps_min, std::uint64_t reps_max,
             std::uint32_t nblocks, const std::vector<BlockSpec> &rotation)
{
    std::vector<NodeSpec> chain;
    std::vector<NodeSpec> group;
    for (std::uint32_t i = 0; i < nblocks; ++i) {
        group.push_back(
            NodeSpec::make_block(rotation[i % rotation.size()]));
        if (group.size() == 3 || i + 1 == nblocks) {
            chain.push_back(
                NodeSpec::make_loop(4, 12, std::move(group)));
            group.clear();
        }
    }
    return NodeSpec::make_loop(reps_min, reps_max, std::move(chain));
}

/**
 * gzip: compression inner loops.  Small hot code (~8KB), a hot 32KB
 * sliding window, and streaming input/output buffers — the next-line
 * showcase.
 */
WorkloadPtr
make_gzip(std::uint64_t seed)
{
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_random(heap(0), 192 << 10, 4, seed ^ 1)); // 0 window (warm)
    patterns.push_back(make_sequential(heap(1), 2 << 20, 4));         // 1 input
    patterns.push_back(make_sequential(heap(2), 2 << 20, 4));         // 2 output
    patterns.push_back(make_stack(kStackTop, 2 << 10, seed ^ 3));     // 3 stack (hot)
    patterns.push_back(make_random(heap(3), 4 << 10, 4, seed ^ 5));   // 4 head table (hot)

    // Four sections: hash+match, literal copy, huffman emit, window
    // refill.  Rotation period lands in the low thousands of cycles.
    std::vector<NodeSpec> body;
    body.push_back(make_section(12, 40, 14,
                                {{44, 0.45, 0.20, 3},
                                 {40, 0.05, 0.05, 1},
                                 {36, 0.06, 0.20, 0},
                                 {40, 0.40, 0.20, 4}}));
    body.push_back(make_section(8, 24, 12,
                                {{40, 0.05, 0.05, 1},
                                 {44, 0.45, 0.40, 3},
                                 {32, 0.05, 0.80, 2}}));
    body.push_back(make_section(10, 30, 14,
                                {{48, 0.05, 0.70, 2},
                                 {36, 0.06, 0.10, 0},
                                 {32, 0.45, 0.25, 3},
                                 {36, 0.35, 0.20, 4}}));
    body.push_back(make_section(4, 12, 10,
                                {{40, 0.06, 0.45, 0},
                                 {36, 0.45, 0.15, 3}}));

    return std::make_unique<LoopProgram>(
        "gzip", kCodeBase, std::move(body), std::move(patterns), seed);
}

/**
 * ammp: molecular dynamics.  ~28KB of hot solver code sweeping
 * multi-megabyte atom/force arrays with unit stride, plus a hot
 * per-molecule scratch region.
 */
WorkloadPtr
make_ammp(std::uint64_t seed)
{
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(heap(0), 4 << 20, 8));         // 0 atoms
    patterns.push_back(make_random(heap(1), 6 << 10, 8, seed ^ 2));   // 1 scratch (hot)
    patterns.push_back(make_sequential(heap(2), 4 << 20, 8));         // 2 forces
    patterns.push_back(make_random(heap(3), 96 << 10, 8, seed ^ 4));  // 3 nbr lists (warm)
    patterns.push_back(make_stack(kStackTop, 2 << 10, seed ^ 5));     // 4 stack (hot)

    std::vector<NodeSpec> body;
    // Non-bonded force sweep: the dominant phase.
    body.push_back(make_section(20, 60, 24,
                                {{52, 0.05, 0.10, 0},
                                 {48, 0.45, 0.30, 1},
                                 {44, 0.06, 0.15, 3},
                                 {40, 0.04, 0.75, 2},
                                 {36, 0.40, 0.25, 4}}));
    // Bonded terms: smaller, hotter.
    body.push_back(make_section(15, 45, 20,
                                {{48, 0.45, 0.30, 1},
                                 {40, 0.40, 0.20, 4},
                                 {44, 0.04, 0.60, 2}}));
    // Integration/update pass.
    body.push_back(make_section(8, 20, 18,
                                {{56, 0.05, 0.50, 0},
                                 {44, 0.04, 0.55, 2},
                                 {36, 0.45, 0.25, 1}}));

    return std::make_unique<LoopProgram>(
        "ammp", kCodeBase, std::move(body), std::move(patterns), seed);
}

/**
 * applu: SSOR solver.  Deep loop nests over a 3D grid referenced at
 * unit, row and plane strides — the stride-prefetch showcase — with a
 * hot coefficient block.
 */
WorkloadPtr
make_applu(std::uint64_t seed)
{
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(heap(0), 4 << 20, 8));        // 0 grid unit
    patterns.push_back(make_strided(heap(0), 1 << 19, 8, 128));      // 1 rows
    patterns.push_back(make_strided(heap(0), 1 << 19, 8, 8192));     // 2 planes
    patterns.push_back(make_random(heap(1), 6 << 10, 8, seed ^ 3));  // 3 coeffs (hot)
    patterns.push_back(make_sequential(heap(2), 2 << 20, 8));        // 4 rhs
    patterns.push_back(make_stack(kStackTop, 2 << 10, seed ^ 5));    // 5 stack

    std::vector<NodeSpec> body;
    // Lower-triangular sweep.
    body.push_back(make_section(24, 72, 22,
                                {{56, 0.08, 0.20, 0},
                                 {48, 0.03, 0.15, 1},
                                 {44, 0.45, 0.35, 3},
                                 {36, 0.40, 0.25, 5}}));
    // Upper-triangular sweep (plane-strided).
    body.push_back(make_section(24, 72, 22,
                                {{56, 0.03, 0.20, 2},
                                 {48, 0.03, 0.15, 1},
                                 {40, 0.45, 0.35, 3},
                                 {36, 0.40, 0.20, 5}}));
    // Residual/RHS update.
    body.push_back(make_section(10, 28, 16,
                                {{52, 0.07, 0.60, 4},
                                 {44, 0.06, 0.20, 0},
                                 {36, 0.45, 0.30, 5}}));

    return std::make_unique<LoopProgram>(
        "applu", kCodeBase, std::move(body), std::move(patterns), seed);
}

/** Pattern pool shared by the call-graph benchmarks: index weights
 *  control the reference mix (hot structures + stack dominate). */
std::vector<DataPatternPtr>
callgraph_patterns(std::uint32_t region, std::uint64_t seed,
                   bool pointer_heavy)
{
    std::vector<DataPatternPtr> p;
    // Madly-hot data: top of stack and a tiny descriptor table take
    // the bulk of references (duplicated entries raise selection
    // weight; functions pick a pattern uniformly from the pool).
    for (int i = 0; i < 4; ++i) {
        p.push_back(make_stack(kStackTop - region * (1 << 20), 2 << 10,
                               seed ^ (100 + i)));
    }
    for (int i = 0; i < 3; ++i) {
        p.push_back(make_random(heap(region), 6 << 10, 8,
                                seed ^ (200 + i)));
    }
    // Warm structures: per-line re-access in the thousands of cycles.
    p.push_back(make_random(heap(region) + (1 << 20), 64 << 10, 8,
                            seed ^ 5));
    p.push_back(make_random(heap(region) + (2 << 20), 64 << 10, 8,
                            seed ^ 6));
    // Cold, mostly-sequential bulk data (symbol tables, object pools).
    p.push_back(make_sequential(heap(region + 1), 3 << 20, 8));
    p.push_back(make_sequential(heap(region + 2), 2 << 20, 8));
    if (pointer_heavy) {
        p.push_back(make_pointer_chase(heap(region + 3), 1 << 14, 128,
                                       seed ^ 7));
    } else {
        p.push_back(make_random(heap(region + 3), 1 << 20, 8, seed ^ 7));
    }
    return p;
}

/**
 * gcc: a compiler's phases.  Three disjoint large code regions
 * (parse / optimize / emit) visited in rotation; the walk keeps a hot
 * neighbourhood (resident set ~30KB) while the full footprint dwarfs
 * the L1I, and phase changes create the very long intervals the 180nm
 * regime needs.
 */
WorkloadPtr
make_gcc(std::uint64_t seed)
{
    auto make_phase = [&](const char *phase, std::uint32_t index,
                          std::uint32_t functions) -> WorkloadPtr {
        CallGraphSpec spec;
        spec.num_functions = functions;
        spec.min_instrs = 24;
        spec.max_instrs = 360;
        spec.fanout = 5;
        spec.locality = 0.82;
        spec.neighbourhood = 18;
        spec.repeat_min = 1;
        spec.repeat_max = 3;
        spec.mem_fraction = 0.30;
        spec.store_fraction = 0.35;
        return std::make_unique<CallGraphProgram>(
            phase, kCodeBase + index * (4 << 20), spec,
            callgraph_patterns(index * 5, seed ^ (index + 1),
                               /*pointer_heavy=*/index == 1),
            seed ^ (index * 7919));
    };

    std::vector<CompositeWorkload::Phase> phases;
    phases.push_back({make_phase("gcc-parse", 0, 240), 240'000});
    phases.push_back({make_phase("gcc-opt", 1, 300), 300'000});
    phases.push_back({make_phase("gcc-emit", 2, 200), 170'000});
    return std::make_unique<CompositeWorkload>("gcc", std::move(phases));
}

/**
 * mesa: 3D rasterization.  A moderate driver call graph alternating
 * with tight vertex-transform loops streaming vertex arrays.
 */
WorkloadPtr
make_mesa(std::uint64_t seed)
{
    CallGraphSpec cg;
    cg.num_functions = 130;
    cg.min_instrs = 32;
    cg.max_instrs = 320;
    cg.fanout = 4;
    cg.locality = 0.82;
    cg.neighbourhood = 14;
    cg.repeat_min = 1;
    cg.repeat_max = 3;
    cg.mem_fraction = 0.28;
    auto driver = std::make_unique<CallGraphProgram>(
        "mesa-driver", kCodeBase, cg,
        callgraph_patterns(0, seed ^ 21, /*pointer_heavy=*/false),
        seed ^ 77);

    std::vector<DataPatternPtr> tf_patterns;
    tf_patterns.push_back(make_sequential(heap(6), 2 << 20, 8));  // 0 in
    tf_patterns.push_back(make_sequential(heap(7), 2 << 20, 8));  // 1 out
    tf_patterns.push_back(make_random(heap(8), 6 << 10, 4, seed ^ 3)); // 2 state (hot)
    tf_patterns.push_back(make_stack(kStackTop, 2 << 10, seed ^ 4)); // 3
    tf_patterns.push_back(make_random(heap(9), 64 << 10, 4, seed ^ 5)); // 4 textures (warm)
    std::vector<NodeSpec> tf_body;
    tf_body.push_back(make_section(20, 60, 18,
                                   {{48, 0.06, 0.10, 0},
                                    {44, 0.05, 0.75, 1},
                                    {40, 0.45, 0.25, 2},
                                    {32, 0.40, 0.25, 3},
                                    {36, 0.10, 0.10, 4}}));
    tf_body.push_back(make_section(10, 30, 14,
                                   {{44, 0.45, 0.30, 2},
                                    {40, 0.40, 0.20, 3},
                                    {36, 0.08, 0.10, 4}}));
    auto transform = std::make_unique<LoopProgram>(
        "mesa-tnl", kCodeBase + (4 << 20), std::move(tf_body),
        std::move(tf_patterns), seed ^ 99);

    std::vector<CompositeWorkload::Phase> phases;
    phases.push_back({std::move(driver), 120'000});
    phases.push_back({std::move(transform), 180'000});
    return std::make_unique<CompositeWorkload>("mesa", std::move(phases));
}

/**
 * vortex: object-oriented database.  Two large code regions (schema
 * manipulation vs. transaction processing); object graphs are pointer
 * chased, giving the least prefetchable data traffic in the suite.
 */
WorkloadPtr
make_vortex(std::uint64_t seed)
{
    auto make_phase = [&](const char *phase, std::uint32_t index,
                          std::uint32_t functions) -> WorkloadPtr {
        CallGraphSpec spec;
        spec.num_functions = functions;
        spec.min_instrs = 40;
        spec.max_instrs = 360;
        spec.fanout = 4;
        spec.locality = 0.80;
        spec.neighbourhood = 16;
        spec.repeat_min = 1;
        spec.repeat_max = 3;
        spec.mem_fraction = 0.32;
        spec.store_fraction = 0.40;
        return std::make_unique<CallGraphProgram>(
            phase, kCodeBase + index * (4 << 20), spec,
            callgraph_patterns(index * 5 + 10, seed ^ (index + 31),
                               /*pointer_heavy=*/true),
            seed ^ (index * 104729));
    };

    std::vector<CompositeWorkload::Phase> phases;
    phases.push_back({make_phase("vortex-schema", 0, 200), 200'000});
    phases.push_back({make_phase("vortex-txn", 1, 260), 330'000});
    return std::make_unique<CompositeWorkload>("vortex", std::move(phases));
}

/**
 * stream: a STREAM-like copy/scale/add kernel.  Constant trip counts
 * and purely sequential data patterns make it exactly periodic, with
 * pattern cycles of short powers of two.
 */
WorkloadPtr
make_stream(std::uint64_t seed)
{
    // Pattern cycles are 16 accesses (128B regions).
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(heap(0), 128, 8)); // 0 src a
    patterns.push_back(make_sequential(heap(1), 128, 8)); // 1 src b
    patterns.push_back(make_sequential(heap(2), 128, 8)); // 2 dst
    patterns.push_back(make_sequential(heap(3), 128, 8)); // 3 coeffs

    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(
        16, 16,
        {NodeSpec::make_block({32, 0.40, 0.00, 0}),
         NodeSpec::make_block({32, 0.40, 0.00, 1}),
         NodeSpec::make_loop(8, 8,
                             {NodeSpec::make_block({16, 0.35, 0.90, 2})}),
         NodeSpec::make_block({16, 0.30, 0.00, 3})}));

    return std::make_unique<LoopProgram>(
        "stream", kCodeBase, std::move(body), std::move(patterns), seed);
}

/**
 * stencil: constant-trip sweeps at unit, row and plane strides over one
 * grid.  The 4KB-stride plane walk aliases a single L1 set — the
 * set-conflict case the differential fuzzer also probes — while
 * staying exactly periodic.
 */
WorkloadPtr
make_stencil(std::uint64_t seed)
{
    // A strided walk visits every element once per full cycle, so the
    // cycle length IS the element count (16/32/32/16 accesses).  The
    // "planes" walk uses 512-byte elements with an 8-element stride, so
    // each reference still hops 4KB — whole-way set aliasing — while
    // cycling in 32 accesses.
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(heap(0), 128, 8));  // 0 unit
    patterns.push_back(make_strided(heap(0), 32, 8, 4));   // 1 rows
    patterns.push_back(make_strided(heap(0), 32, 512, 8)); // 2 planes
    patterns.push_back(make_sequential(heap(1), 128, 8));  // 3 rhs

    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(
        12, 12,
        {NodeSpec::make_block({40, 0.35, 0.10, 0}),
         NodeSpec::make_block({32, 0.30, 0.10, 1}),
         NodeSpec::make_loop(6, 6,
                             {NodeSpec::make_block({24, 0.30, 0.40, 2})}),
         NodeSpec::make_block({24, 0.35, 0.60, 3})}));

    return std::make_unique<LoopProgram>(
        "stencil", kCodeBase, std::move(body), std::move(patterns), seed);
}

/**
 * chase: linked-list traversal over fixed permutation cycles.  The
 * chase order is random but frozen at construction, so the stream is
 * still exactly periodic, and it is the least cache-friendly of the
 * three extras.
 */
WorkloadPtr
make_chase(std::uint64_t seed)
{
    // 32- and 16-node cycles: irregular within the period, exactly
    // periodic across it.
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_pointer_chase(heap(0), 32, 64, seed ^ 1)); // 0
    patterns.push_back(make_pointer_chase(heap(1), 16, 128, seed ^ 2)); // 1
    patterns.push_back(make_sequential(heap(2), 128, 8));               // 2

    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(
        16, 16,
        {NodeSpec::make_block({40, 0.40, 0.15, 0}),
         NodeSpec::make_loop(4, 4,
                             {NodeSpec::make_block({24, 0.35, 0.20, 1})}),
         NodeSpec::make_block({24, 0.30, 0.30, 2})}));

    return std::make_unique<LoopProgram>(
        "chase", kCodeBase, std::move(body), std::move(patterns), seed);
}

/** The synthetic extras: servable via make_benchmark but kept out of
 *  suite_names() so stock suite reports are unchanged. */
const std::vector<std::string> &
synthetic_extra_names()
{
    static const std::vector<std::string> names = {"stream", "stencil",
                                                   "chase"};
    return names;
}

} // namespace

const std::vector<std::string> &
suite_names()
{
    static const std::vector<std::string> names = {
        "ammp", "applu", "gcc", "gzip", "mesa", "vortex"};
    return names;
}

bool
is_benchmark(const std::string &name)
{
    const auto &names = suite_names();
    if (std::find(names.begin(), names.end(), name) != names.end())
        return true;
    const auto &extras = synthetic_extra_names();
    return std::find(extras.begin(), extras.end(), name) != extras.end();
}

WorkloadPtr
make_benchmark(const std::string &name, std::uint64_t seed)
{
    if (name == "ammp")
        return make_ammp(seed ? seed : 0xa001);
    if (name == "applu")
        return make_applu(seed ? seed : 0xa002);
    if (name == "gcc")
        return make_gcc(seed ? seed : 0xa003);
    if (name == "gzip")
        return make_gzip(seed ? seed : 0xa004);
    if (name == "mesa")
        return make_mesa(seed ? seed : 0xa005);
    if (name == "vortex")
        return make_vortex(seed ? seed : 0xa006);
    if (name == "stream")
        return make_stream(seed ? seed : 0xa007);
    if (name == "stencil")
        return make_stencil(seed ? seed : 0xa008);
    if (name == "chase")
        return make_chase(seed ? seed : 0xa009);
    util::fatal("unknown benchmark '", name,
                "' (expected one of ammp, applu, gcc, gzip, mesa, "
                "vortex, stream, stencil, chase)");
}

WorkloadPtr
make_hr_loop(std::uint64_t inner_min, std::uint64_t inner_max,
             std::uint64_t seed)
{
    // The Figure 2 program: for each of 12 months, sum an employee
    // array slice (inner loop of varying range), then execute the
    // `add` instruction (total += sum) — whose re-access interval is
    // set by the slice length.
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(heap(0), 32 << 10, 4)); // a[j]

    // Blocks are padded to 16 instructions so the inner-loop body and
    // the `add` statement land on distinct cache lines (otherwise the
    // whole program shares one line and the effect is invisible).
    std::vector<NodeSpec> month;
    month.push_back(NodeSpec::make_loop(
        inner_min, inner_max,
        {NodeSpec::make_block({16, 0.25, 0.0, 0})})); // sum += a[j]
    month.push_back(NodeSpec::make_block({16, 0.0, 0.0, -1})); // add:

    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(12, 12, std::move(month)));

    return std::make_unique<LoopProgram>(
        "hr-loop", kCodeBase, std::move(body), std::move(patterns), seed);
}

} // namespace leakbound::workload
