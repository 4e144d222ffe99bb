/**
 * @file
 * The simulation kernel's correctness net: committed golden digests
 * plus three differentials.
 *
 *  - Golden digests: serialize_result digests of the paper suite and
 *    of every replacement kind and L2 shape the benches use, recorded
 *    on the code that predates the single stamp-based cache decision
 *    path, so any change to a cache decision shows up as a digest.
 *
 *  - Experiment level: 1000 seeded random LoopPrograms (RNG-fed
 *    patterns included) across random 1-64-way geometries, all three
 *    ReplacementKinds, fetch widths 1-16, next-line lead times
 *    {0, 7, 37} and keep_raw on or off, each run once through
 *    run_experiment (the engine driving the caller's workload through
 *    a BatchedObserver) and once through a test-side reference run:
 *    the per-op core (reference_core.hpp) driving a listener that
 *    classifies every access as it happens, into the per-operation
 *    collector and next-line oracles.  The two must be byte-identical
 *    under serialize_result, and with keep_raw their raw intervals must
 *    match.  On a mismatch the failing seed is printed with a greedily
 *    minimized program.
 *
 *  - Bare cache level: identical address streams, with interleaved
 *    invalidations, driven through a sim::Cache and the test-side
 *    oracle (reference_cache.hpp: the virtual replacement policies,
 *    one call per hit, fill and victim), asserting every AccessResult
 *    field per access — the eviction stream and, for Random
 *    replacement, the RNG draw stream must stay in lockstep, not just
 *    the end-of-run aggregates.
 *
 *  - Next-line tables: the paged prefetch::NextLineMonitor against the
 *    FlatMap-backed oracle (reference_next_line.hpp) over seeded
 *    streams of record, covers, append_state and reset, some wide
 *    enough to grow the page index and store under the memo,
 *    asserting every answer and snapshot.
 *
 *  - Observation: core::BatchedObserver (fetch-run records, repeat
 *    buffer, same-block data runs) against the same inline reference
 *    classification the experiment-level reference run uses, over
 *    seeded access streams through a random hierarchy, with remote
 *    kills and flushes at random points, asserting the serialized
 *    sets, the raw intervals and the access counts.
 *
 *  - Interval collection: interval::IntervalCollector (one stamp per
 *    frame, bins written through a set's write view) against the
 *    per-frame oracle (reference_collector.hpp) over seeded access
 *    streams, asserting every open_since answer and access count, and
 *    after finalize the serialized set and the raw intervals.
 *
 *  - Draws: util::Rng::next_below (lazy threshold), util::FixedBound
 *    (direct remainder), next_in through a FixedBound (CallGraphProgram's
 *    walk) and the Random and Stack data patterns against
 *    the per-draw oracle (reference_patterns.hpp) over seeded streams,
 *    asserting every value and the number of raw draws consumed.
 *
 *  - Span fetch: cpu::InOrderCore against the per-op run loop
 *    (reference_core.hpp) over random scripted programs (PC jumps,
 *    I-line crossings, 2/4/8-byte PC steps) and the nine benchmark
 *    workloads, at fetch widths 1-8, in random chains of run_until
 *    calls whose budgets end mid-group, asserting every listener
 *    event, every call's statistics and the cycle after every call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/batched_observer.hpp"
#include "core/experiment.hpp"
#include "core_fixtures.hpp"
#include "cpu/inorder_core.hpp"
#include "interval/collector.hpp"
#include "prefetch/next_line.hpp"
#include "reference_cache.hpp"
#include "reference_collector.hpp"
#include "reference_core.hpp"
#include "reference_next_line.hpp"
#include "reference_patterns.hpp"
#include "sim/cache.hpp"
#include "util/fingerprint.hpp"
#include "util/random.hpp"
#include "workload/data_pattern.hpp"
#include "workload/loop_program.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::core;
using workload::BlockSpec;
using workload::NodeSpec;

namespace {

constexpr Addr kCodeBase = 0x0040'0000;
constexpr Addr kHeapBase = 0x1000'0000;

/** One pattern-pool entry, regenerable (the minimizer rebuilds). */
struct PatternSpec
{
    enum class Kind { Sequential, Strided, Random, Chase, Stack } kind;
    std::uint64_t a = 0; ///< region bytes / elements / nodes / depth
    std::uint64_t b = 0; ///< step / stride / align / node bytes
    std::uint64_t seed = 0;
};

/** A regenerable fuzz program: spec tree + pattern pool + geometry. */
struct ProgramSpec
{
    std::uint64_t seed = 0;
    std::vector<NodeSpec> nodes;
    std::vector<PatternSpec> patterns;
    sim::HierarchyConfig hierarchy;
    std::uint64_t instructions = 0;
    std::uint32_t fetch_width = 4;
    Cycles nl_lead_time = 0;
    bool keep_raw = false;
};

workload::DataPatternPtr
build_pattern(const PatternSpec &spec, std::size_t index)
{
    const Addr base = kHeapBase + static_cast<Addr>(index) * (1 << 22);
    switch (spec.kind) {
      case PatternSpec::Kind::Sequential:
        return workload::make_sequential(
            base, spec.a, static_cast<std::uint32_t>(spec.b));
      case PatternSpec::Kind::Strided:
        return workload::make_strided(base, spec.a, 8, spec.b);
      case PatternSpec::Kind::Random:
        return workload::make_random(
            base, spec.a, static_cast<std::uint32_t>(spec.b), spec.seed);
      case PatternSpec::Kind::Chase:
        return workload::make_pointer_chase(
            base, spec.a, static_cast<std::uint32_t>(spec.b), spec.seed);
      case PatternSpec::Kind::Stack:
        return workload::make_stack(base + spec.a, spec.a, spec.seed);
    }
    return nullptr;
}

workload::WorkloadPtr
build_program(const ProgramSpec &spec)
{
    std::vector<workload::DataPatternPtr> pool;
    for (std::size_t i = 0; i < spec.patterns.size(); ++i)
        pool.push_back(build_pattern(spec.patterns[i], i));
    std::vector<NodeSpec> nodes = spec.nodes; // LoopProgram consumes it
    return std::make_unique<workload::LoopProgram>(
        "fuzz", kCodeBase, std::move(nodes), std::move(pool), spec.seed);
}

sim::ReplacementKind
random_replacement(util::Rng &rng)
{
    switch (rng.next_below(3)) {
      case 0: return sim::ReplacementKind::Lru;
      case 1: return sim::ReplacementKind::Fifo;
      default: return sim::ReplacementKind::Random;
    }
}

/**
 * Small geometries keep 2000 simulations fast while covering
 * direct-mapped through 64-way sets at every level.
 */
sim::HierarchyConfig
random_hierarchy(util::Rng &rng)
{
    sim::HierarchyConfig h;
    const std::uint32_t line = 32u << rng.next_below(2); // 32 or 64

    h.l1i.name = "kz-l1i";
    h.l1i.line_bytes = line;
    h.l1i.associativity = 1u << rng.next_below(7); // 1..64
    h.l1i.size_bytes =
        (1024u << rng.next_below(3)) * h.l1i.associativity;
    h.l1i.hit_latency = 1;
    h.l1i.replacement = random_replacement(rng);

    h.l1d.name = "kz-l1d";
    h.l1d.line_bytes = line;
    h.l1d.associativity = 1u << rng.next_below(7);
    h.l1d.size_bytes =
        (1024u << rng.next_below(3)) * h.l1d.associativity;
    h.l1d.hit_latency = 1 + rng.next_below(3);
    h.l1d.replacement = random_replacement(rng);

    h.l2.name = "kz-l2";
    h.l2.line_bytes = line;
    h.l2.associativity = 1u << rng.next_below(7);
    h.l2.size_bytes =
        (8192u << rng.next_below(3)) * h.l2.associativity;
    h.l2.hit_latency = 5 + rng.next_below(5);
    h.l2.replacement = random_replacement(rng);

    h.memory_latency = 20 + rng.next_below(80);
    return h;
}

PatternSpec
random_pattern(util::Rng &rng)
{
    PatternSpec p{};
    switch (rng.next_below(5)) {
      case 0:
        p.kind = PatternSpec::Kind::Sequential;
        p.a = 512u << rng.next_below(5); // 512B..8KB region
        p.b = 4u << rng.next_below(2);   // 4 or 8 byte step
        break;
      case 1:
        p.kind = PatternSpec::Kind::Strided;
        p.a = 256u << rng.next_below(4); // 256..2048 elements
        p.b = 1u << rng.next_below(10);  // 1..512 element stride
        break;
      case 2:
        p.kind = PatternSpec::Kind::Random;
        p.a = 1024u << rng.next_below(6); // 1KB..32KB working set
        p.b = 8;
        p.seed = rng.next_u64();
        break;
      case 3:
        p.kind = PatternSpec::Kind::Chase;
        p.a = 16u << rng.next_below(5); // 16..256 nodes
        p.b = 32u << rng.next_below(3); // 32..128 byte nodes
        p.seed = rng.next_u64();
        break;
      default:
        p.kind = PatternSpec::Kind::Stack;
        p.a = 512u << rng.next_below(3); // 512B..2KB stack depth
        p.seed = rng.next_u64();
        break;
    }
    return p;
}

/** A node tree of depth <= 3; trip counts may be random (min < max). */
NodeSpec
random_node(util::Rng &rng, int depth, std::size_t num_patterns)
{
    const bool leaf = depth >= 3 || rng.next_bool(0.45);
    if (leaf) {
        BlockSpec block;
        block.instrs = static_cast<std::uint32_t>(rng.next_in(4, 48));
        block.store_fraction = rng.next_double();
        if (rng.next_bool(0.8)) {
            block.pattern =
                static_cast<int>(rng.next_below(num_patterns));
            block.mem_fraction = 0.1 + 0.5 * rng.next_double();
        } else {
            block.pattern = -1; // pure compute block
            block.mem_fraction = 0.0;
        }
        return NodeSpec::make_block(block);
    }
    std::uint64_t min_trips;
    std::uint64_t max_trips;
    const std::uint64_t shape = rng.next_below(8);
    if (shape == 0) {
        min_trips = max_trips = 0; // still draws its trip count
    } else if (shape == 1) {
        min_trips = max_trips = 1;
    } else {
        min_trips = rng.next_in(1, 6);
        max_trips = min_trips + rng.next_below(8);
    }
    const std::size_t children = rng.next_in(1, 3);
    std::vector<NodeSpec> body;
    for (std::size_t i = 0; i < children; ++i)
        body.push_back(random_node(rng, depth + 1, num_patterns));
    return NodeSpec::make_loop(min_trips, max_trips, std::move(body));
}

ProgramSpec
random_program(std::uint64_t seed)
{
    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7);
    ProgramSpec spec;
    spec.seed = seed;
    const std::size_t npatterns = rng.next_in(1, 4);
    for (std::size_t i = 0; i < npatterns; ++i)
        spec.patterns.push_back(random_pattern(rng));
    const std::size_t nnodes = rng.next_in(1, 4);
    for (std::size_t i = 0; i < nnodes; ++i)
        spec.nodes.push_back(random_node(rng, 0, npatterns));
    spec.hierarchy = random_hierarchy(rng);
    // Budgets cross many fetch-ring refills and both partial-group and
    // workload-truncated endings.
    spec.instructions = 4'000 + rng.next_below(16'000);
    // Wide groups put up to a line's worth of data accesses between
    // two instruction accesses; a lead time makes next-line coverage
    // depend on the closing cycle as well as the open interval.
    spec.fetch_width = 1 + static_cast<std::uint32_t>(rng.next_below(16));
    const Cycles leads[] = {0, 7, 37};
    spec.nl_lead_time = leads[rng.next_below(3)];
    spec.keep_raw = rng.next_bool(0.5);
    return spec;
}

ExperimentConfig
config_for(const ProgramSpec &spec)
{
    ExperimentConfig config;
    config.instructions = spec.instructions;
    config.hierarchy = spec.hierarchy;
    config.core.fetch_width = spec.fetch_width;
    config.nl_lead_time = spec.nl_lead_time;
    config.keep_raw = spec.keep_raw;
    return config;
}

/**
 * The reference run's listener: classifies each access as it happens,
 * in the order the engine's observer classifies its log — open_since,
 * next-line covers, the collector, next-line record, plus the stride
 * predictor on the D side.
 */
class ReferenceListener
{
  public:
    ReferenceListener(const ExperimentConfig &config,
                      oracle::ReferenceCollector *icollector,
                      oracle::ReferenceCollector *dcollector)
        : iline_shift_(config.hierarchy.l1i.line_shift()),
          dline_shift_(config.hierarchy.l1d.line_shift()),
          icollector_(icollector), dcollector_(dcollector),
          stride_(config.stride), lead_(config.nl_lead_time)
    {
    }

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        const Addr block = pc >> iline_shift_;
        bool nl = false;
        Cycle since = 0;
        if (icollector_->open_since(result.l1.frame, since))
            nl = imonitor_.covers(block, since, cycle, lead_);
        icollector_->on_access(result.l1.frame, cycle, result.l1.hit,
                               /*stride_predicted=*/false, nl);
        imonitor_.record(block, cycle);
    }

    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool /*is_store*/,
            const sim::HierarchyResult &result)
    {
        const Addr block = addr >> dline_shift_;
        const bool stride_hit = stride_.access(pc, addr);
        bool nl = false;
        Cycle since = 0;
        if (dcollector_->open_since(result.l1.frame, since))
            nl = dmonitor_.covers(block, since, cycle, lead_);
        dcollector_->on_access(result.l1.frame, cycle, result.l1.hit,
                               stride_hit, nl);
        dmonitor_.record(block, cycle);
    }

    /** A remote kill of the copy in L1D @p frame at @p cycle. */
    void
    on_invalidation(Cycle cycle, FrameId frame)
    {
        dcollector_->on_access(frame, cycle, /*reuse=*/false,
                               /*stride_predicted=*/false,
                               /*nl_covered=*/false);
    }

  private:
    std::uint32_t iline_shift_;
    std::uint32_t dline_shift_;
    oracle::ReferenceCollector *icollector_;
    oracle::ReferenceCollector *dcollector_;
    prefetch::StridePredictor stride_;
    Cycles lead_;
    oracle::ReferenceNextLine imonitor_;
    oracle::ReferenceNextLine dmonitor_;
};

/** What run_experiment must return for @p spec, from the oracles. */
ExperimentResult
reference_experiment(const ProgramSpec &spec)
{
    const ExperimentConfig config = config_for(spec);
    auto workload = build_program(spec);
    const auto edges =
        interval::IntervalHistogramSet::default_edges(config.extra_edges);
    sim::Hierarchy hierarchy(config.hierarchy);
    ExperimentResult result{
        CacheObservation(interval::IntervalHistogramSet(edges)),
        CacheObservation(interval::IntervalHistogramSet(edges))};
    result.workload = workload->name();

    oracle::ReferenceCollector icollector(hierarchy.l1i().num_frames(),
                                          &result.icache.intervals,
                                          config.keep_raw);
    oracle::ReferenceCollector dcollector(hierarchy.l1d().num_frames(),
                                          &result.dcache.intervals,
                                          config.keep_raw);
    ReferenceListener listener(config, &icollector, &dcollector);
    oracle::ReferenceCore core(config.core, &hierarchy, workload.get());
    result.core = core.run_until(config.instructions,
                                 cpu::InOrderCore::kNoCycleLimit, listener);
    icollector.finalize(result.core.cycles);
    dcollector.finalize(result.core.cycles);

    result.icache.raw = icollector.raw();
    result.dcache.raw = dcollector.raw();
    result.icache.stats = hierarchy.l1i().stats();
    result.dcache.stats = hierarchy.l1d().stats();
    result.l2 = hierarchy.l2().stats();
    return result;
}

/** Whether two raw interval lists agree field by field. */
bool
same_intervals(const std::vector<interval::Interval> &a,
               const std::vector<interval::Interval> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const interval::Interval &x,
                         const interval::Interval &y) {
        return x.length == y.length && x.kind == y.kind && x.pf == y.pf &&
               x.ends_in_reuse == y.ends_in_reuse;
    });
}

/** Run one spec through the engine and the reference; true iff equal. */
bool
equivalent(const ProgramSpec &spec)
{
    auto workload = build_program(spec);
    const ExperimentResult engine = run_experiment(*workload, config_for(spec));
    const ExperimentResult reference = reference_experiment(spec);
    return serialize_result(engine) == serialize_result(reference) &&
           same_intervals(engine.icache.raw, reference.icache.raw) &&
           same_intervals(engine.dcache.raw, reference.dcache.raw) &&
           engine.icache.raw.empty() != spec.keep_raw;
}

std::string
describe_node(const NodeSpec &node)
{
    if (node.kind == NodeSpec::Kind::Block) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "block{instrs=%u mem=%.2f p=%d}",
                      node.block.instrs, node.block.mem_fraction,
                      node.block.pattern);
        return buf;
    }
    std::string out = "loop{trips=" + std::to_string(node.min_trips) +
                      ".." + std::to_string(node.max_trips) + " [";
    for (const NodeSpec &child : node.body)
        out += describe_node(child) + " ";
    out += "]}";
    return out;
}

/**
 * Greedy structural minimization: repeatedly drop top-level nodes
 * while the mismatch persists, then print what is left.
 */
std::string
minimize_and_describe(ProgramSpec spec)
{
    bool shrunk = true;
    while (shrunk) {
        shrunk = false;
        for (std::size_t i = 0;
             i < spec.nodes.size() && spec.nodes.size() > 1; ++i) {
            ProgramSpec candidate = spec;
            candidate.nodes.erase(candidate.nodes.begin() +
                                  static_cast<std::ptrdiff_t>(i));
            if (!equivalent(candidate)) {
                spec = std::move(candidate);
                shrunk = true;
                break;
            }
        }
    }
    std::string out = "seed=" + std::to_string(spec.seed) +
                      " instructions=" +
                      std::to_string(spec.instructions) +
                      " fetch_width=" + std::to_string(spec.fetch_width) +
                      " nl_lead_time=" +
                      std::to_string(spec.nl_lead_time) +
                      " keep_raw=" + std::to_string(spec.keep_raw) + "\n";
    for (const NodeSpec &node : spec.nodes)
        out += "  " + describe_node(node) + "\n";
    out += "  patterns=" + std::to_string(spec.patterns.size()) +
           " l1i=" + std::to_string(spec.hierarchy.l1i.size_bytes) +
           "B/" + std::to_string(spec.hierarchy.l1i.associativity) +
           "w l1d=" + std::to_string(spec.hierarchy.l1d.size_bytes) +
           "B/" + std::to_string(spec.hierarchy.l1d.associativity) +
           "w l2=" + std::to_string(spec.hierarchy.l2.size_bytes) + "B";
    return out;
}

/** The configuration shapes SingleCoreGolden pins. */
enum class GoldenShape { Default, CollectL2, Fifo, Random, L2Ways16, L2Ways64 };

ExperimentConfig
golden_config(GoldenShape shape, std::uint64_t instructions)
{
    ExperimentConfig config;
    config.instructions = instructions;
    config.extra_edges = standard_extra_edges();
    sim::HierarchyConfig &h = config.hierarchy;
    switch (shape) {
      case GoldenShape::Default:
        break;
      case GoldenShape::CollectL2:
        config.collect_l2 = true;
        break;
      case GoldenShape::Fifo:
      case GoldenShape::Random: {
        const sim::ReplacementKind kind = shape == GoldenShape::Fifo
                                              ? sim::ReplacementKind::Fifo
                                              : sim::ReplacementKind::Random;
        h.l1i.replacement = h.l1d.replacement = h.l2.replacement = kind;
        break;
      }
      case GoldenShape::L2Ways16:
        h.l2.associativity = 16;
        config.collect_l2 = true;
        break;
      case GoldenShape::L2Ways64:
        h.l2.associativity = 64; // 2 MB: 512 sets
        break;
    }
    return config;
}

/** A small random CacheConfig for the bare-cache stream differential. */
sim::CacheConfig
random_cache(util::Rng &rng, sim::ReplacementKind kind)
{
    sim::CacheConfig c;
    c.name = "kz-bare";
    c.line_bytes = 16u << rng.next_below(3); // 16, 32, 64
    c.associativity = 1u << rng.next_below(7); // 1..64
    c.size_bytes = (c.line_bytes * c.associativity)
                   << rng.next_below(4); // 1..8 sets
    c.hit_latency = 1;
    c.replacement = kind;
    return c;
}

} // namespace

/**
 * Committed serialize_result digests of single-core runs: every
 * replacement kind, the paper's direct-mapped L2 next to 16- and
 * 64-way ones, and the synthetic extras.  Any change to a cache
 * decision or the interval collectors shows up here.  Regenerate only
 * for a change meant to alter results, and say why.
 */
TEST(SingleCoreGolden, SerializedDigestsArePinned)
{
    struct Golden
    {
        const char *benchmark;
        GoldenShape shape;
        std::uint64_t instructions;
        const char *digest;
    };
    using S = GoldenShape;
    const std::vector<Golden> goldens = {
        {"ammp", S::Default, 50'000, "3cb8e7074469ef7e"},
        {"applu", S::Default, 50'000, "a40bc099cc4b2124"},
        {"gcc", S::Default, 50'000, "6959791b6229e98f"},
        {"gzip", S::Default, 50'000, "860a5d556f0dcdd0"},
        {"mesa", S::Default, 50'000, "91d12e508a2c2bad"},
        {"vortex", S::Default, 50'000, "22c533bfd214c5e2"},
        {"ammp", S::CollectL2, 50'000, "00fef01bd2d396c0"},
        {"applu", S::CollectL2, 50'000, "6398c7e457a5a365"},
        {"gcc", S::CollectL2, 50'000, "234d743c1332e6a7"},
        {"gzip", S::CollectL2, 50'000, "d33096c8120e959c"},
        {"mesa", S::CollectL2, 50'000, "61f73956ffd8876b"},
        {"vortex", S::CollectL2, 50'000, "426790efc64fe2d1"},
        {"gzip", S::Fifo, 50'000, "9b0e2e634e1bd4c8"},
        {"gcc", S::Fifo, 50'000, "7768d84e54769271"},
        {"gzip", S::Random, 50'000, "ec1eee1bf05a2f3e"},
        {"gcc", S::Random, 50'000, "d23b3929bc406eea"},
        {"gzip", S::L2Ways16, 50'000, "a9467366b351ceba"},
        {"gcc", S::L2Ways16, 50'000, "0a5dc26ae13ca9be"},
        {"gzip", S::L2Ways64, 50'000, "33d9eda4f1317ba6"},
        {"stream", S::Default, 200'000, "52981c994f5580c9"},
        {"stencil", S::Default, 200'000, "e3d9eb7853471be0"},
        {"chase", S::Default, 200'000, "033157a12f2e7733"},
        {"stream", S::Fifo, 200'000, "52981c994f5580c9"},
        {"stencil", S::Fifo, 200'000, "e3d9eb7853471be0"},
        {"chase", S::Fifo, 200'000, "646059be933c2aec"},
    };
    for (const Golden &golden : goldens) {
        auto workload = workload::make_benchmark(golden.benchmark);
        const ExperimentResult result = run_experiment(
            *workload, golden_config(golden.shape, golden.instructions));
        const std::string bytes = serialize_result(result);
        const std::string actual =
            util::hex64(util::fnv1a(bytes.data(), bytes.size()));
        EXPECT_EQ(actual, golden.digest)
            << golden.benchmark << " shape "
            << static_cast<int>(golden.shape) << ": actual digest "
            << actual;
    }
}

/**
 * The main gate: 1000 random programs, every one byte-identical
 * between run_experiment and the reference run.
 */
TEST(KernelEquivalence, FuzzedExperimentsAreByteIdentical)
{
    constexpr std::uint64_t kPrograms = 1000;
    for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
        const ProgramSpec spec = random_program(seed);
        if (!equivalent(spec)) {
            FAIL() << "engine/reference divergence; minimized:\n"
                   << minimize_and_describe(spec);
        }
    }
}

/**
 * Bare-cache lockstep: identical address streams through sim::Cache
 * and the reference cache must agree on every per-access observable —
 * the eviction stream (evicted/victim_block) and, under Random
 * replacement, the RNG draw stream, not just end-of-run aggregates.
 * Invalidations ride along, since multicore coherence rests on
 * invalidate_block leaving the replacement order consistent.
 */
TEST(KernelEquivalence, BareCacheStreamsMatch)
{
    constexpr std::uint64_t kGeometries = 60;
    constexpr std::uint64_t kAccesses = 20'000;
    for (const sim::ReplacementKind kind :
         {sim::ReplacementKind::Lru, sim::ReplacementKind::Fifo,
          sim::ReplacementKind::Random}) {
        for (std::uint64_t g = 1; g <= kGeometries; ++g) {
            util::Rng rng(g * 0x9e3779b97f4a7c15ULL +
                          static_cast<std::uint64_t>(kind));
            const sim::CacheConfig config = random_cache(rng, kind);
            const std::uint64_t cache_seed = rng.next_u64() | 1;
            sim::Cache cache(config, cache_seed);
            oracle::ReferenceCache reference(config, cache_seed);

            // A footprint a few times the cache keeps the miss rate
            // high enough that evictions dominate the stream.
            const std::uint64_t span = config.size_bytes * 4;
            std::uint64_t invalidated = 0;
            Addr previous = 0;
            for (std::uint64_t i = 0; i < kAccesses; ++i) {
                // Repeats of the previous address take the same-block
                // filter; invalidating that address makes the filter
                // forget it.  One step in eight is an invalidation.
                const std::uint64_t draw = rng.next_below(16);
                const Addr addr = draw < 4 ? previous : rng.next_below(span);
                if (draw == 0 || draw == 15) {
                    const Addr block = config.block_of(addr);
                    const FrameId frame = cache.invalidate_block(block);
                    ASSERT_EQ(frame, reference.invalidate_block(block))
                        << "geometry " << g << " step " << i;
                    invalidated += frame != kInvalidFrame;
                    continue;
                }
                const sim::AccessResult k = cache.access(addr);
                const sim::AccessResult r = reference.access(addr);
                ASSERT_EQ(k.hit, r.hit) << "geometry " << g << " step " << i;
                ASSERT_EQ(k.frame, r.frame)
                    << "geometry " << g << " step " << i;
                ASSERT_EQ(k.evicted, r.evicted)
                    << "geometry " << g << " step " << i;
                ASSERT_EQ(k.victim_block, r.victim_block)
                    << "geometry " << g << " step " << i;
                previous = addr;
            }
            EXPECT_EQ(cache.stats().accesses, reference.stats().accesses);
            EXPECT_EQ(cache.stats().hits, reference.stats().hits);
            EXPECT_EQ(cache.stats().misses, reference.stats().misses);
            EXPECT_EQ(cache.stats().evictions,
                      reference.stats().evictions);
            EXPECT_GT(cache.stats().evictions, 0u);
            EXPECT_GT(invalidated, 0u);

            // Snapshot-able policies must also agree on the canonical
            // decision state (Random appends nothing on both sides).
            std::vector<std::uint64_t> ks;
            std::vector<std::uint64_t> rs;
            ASSERT_EQ(cache.append_state(ks), reference.append_state(rs));
            EXPECT_EQ(ks, rs) << "geometry " << g;
        }
    }
}

/**
 * reset() must clear the derived state (stamps, the clock and the
 * same-block filter): a reset cache replays a stream identically to a
 * fresh one.
 */
TEST(KernelEquivalence, ResetRestoresColdBehaviour)
{
    for (const sim::ReplacementKind kind :
         {sim::ReplacementKind::Lru, sim::ReplacementKind::Fifo,
          sim::ReplacementKind::Random}) {
        util::Rng geo(7);
        sim::CacheConfig config = random_cache(geo, kind);
        sim::Cache once(config, 5);
        sim::Cache twice(config, 5);

        util::Rng warm(123);
        for (std::uint64_t i = 0; i < 5'000; ++i)
            twice.access(warm.next_below(config.size_bytes * 4));
        twice.reset();

        util::Rng replay_a(321);
        util::Rng replay_b(321);
        for (std::uint64_t i = 0; i < 5'000; ++i) {
            const Addr a = replay_a.next_below(config.size_bytes * 4);
            const Addr b = replay_b.next_below(config.size_bytes * 4);
            const sim::AccessResult ra = once.access(a);
            const sim::AccessResult rb = twice.access(b);
            ASSERT_EQ(ra.hit, rb.hit) << "access " << i;
            ASSERT_EQ(ra.frame, rb.frame) << "access " << i;
            ASSERT_EQ(ra.victim_block, rb.victim_block)
                << "access " << i;
        }
        EXPECT_EQ(once.stats().hits, twice.stats().hits);
    }
}

/**
 * Paged next-line tables against the FlatMap oracle.  The block streams
 * stress the paging: dense runs across page edges, k*64-1 next to
 * k*64 (block-1 on the previous page), blocks 0 and 1, and keys 2^40
 * apart (far pages through the index).  The last kWideStreams streams
 * also draw blocks over 4096 pages and never reset, so the page index
 * (512 slots, grown at 358 pages) and the page store grow several
 * times while memo entries point into the store.  Every covers()
 * answer (both overloads, lead times 0/7/37 or random), covered() and
 * every append_state snapshot must match, through resets.
 */
TEST(NextLine, PagedMatchesReference)
{
    constexpr std::uint64_t kStreams = 24;
    constexpr std::uint64_t kWideStreams = 8;
    constexpr std::uint64_t kSteps = 12'000;
    for (std::uint64_t stream = 1; stream <= kStreams + kWideStreams;
         ++stream) {
        const bool wide = stream > kStreams;
        util::Rng rng(stream * 0x9e3779b97f4a7c15ULL + 11);
        prefetch::NextLineMonitor paged;
        oracle::ReferenceNextLine reference;
        Cycle now = 0;
        Addr run = 64 + rng.next_below(1 << 12); // dense-run cursor
        std::uint64_t covered_answers = 0;

        auto draw_block = [&]() -> Addr {
            switch (rng.next_below(wide ? 8 : 6)) {
              case 0:
                return run++;
              case 1:
                return run - 1 - rng.next_below(8); // behind the cursor
              case 2: {
                const Addr k = 1 + rng.next_below(64);
                return k * 64 - rng.next_below(2); // k*64-1 or k*64
              }
              case 3:
                return rng.next_below(2); // blocks 0 and 1
              case 4:
                return (rng.next_below(4) << 40) + rng.next_below(130);
              case 5:
                return rng.next_below(1 << 14);
              default:
                return (Addr{5} << 40) + rng.next_below(Addr{64} << 12);
            }
        };

        for (std::uint64_t step = 0; step < kSteps; ++step) {
            const std::uint64_t op = rng.next_below(1000);
            if (op < 450) {
                now += rng.next_below(20);
                const Addr block = draw_block();
                paged.record(block, now);
                reference.record(block, now);
            } else if (op < 980) {
                const Addr block = draw_block();
                // Half the windows open just behind now, where the
                // strict "after open_since" edge decides.
                const Cycle open_since =
                    rng.next_bool(0.5)
                        ? now - std::min<Cycle>(now, rng.next_below(64))
                        : rng.next_below(now + 1);
                bool p, r;
                if (rng.next_bool(0.2)) {
                    p = paged.covers(block, open_since);
                    r = reference.covers(block, open_since);
                } else {
                    const Cycle close = now + rng.next_below(50);
                    const Cycles leads[] = {0, 7, 37, rng.next_below(100)};
                    const Cycles lead = leads[rng.next_below(4)];
                    p = paged.covers(block, open_since, close, lead);
                    r = reference.covers(block, open_since, close, lead);
                }
                ASSERT_EQ(p, r) << "stream " << stream << " step " << step
                                << " block " << block;
                covered_answers += p;
            } else if (op < 999 || wide) {
                std::vector<std::uint64_t> ps;
                std::vector<std::uint64_t> rs;
                const Cycle at = now + rng.next_below(100);
                paged.append_state(ps, at);
                reference.append_state(rs, at);
                ASSERT_EQ(ps, rs) << "stream " << stream << " step " << step;
            } else {
                paged.reset();
                reference.reset();
            }
            ASSERT_EQ(paged.covered(), reference.covered())
                << "stream " << stream << " step " << step;
        }
        std::vector<std::uint64_t> ps;
        std::vector<std::uint64_t> rs;
        paged.append_state(ps, now);
        reference.append_state(rs, now);
        EXPECT_EQ(ps, rs) << "stream " << stream;
        EXPECT_GT(covered_answers, 0u) << "stream " << stream;
        if (wide) {
            // The snapshot is a count, then (block, age) pairs.
            std::vector<Addr> pages;
            for (std::size_t i = 1; i < rs.size(); i += 2)
                pages.push_back(rs[i] >> 6);
            pages.erase(std::unique(pages.begin(), pages.end()),
                        pages.end());
            EXPECT_GT(pages.size(), 716u)
                << "stream " << stream << ": the index grew too little";
        }
    }
}

/**
 * core::BatchedObserver driven directly, in lockstep with the inline
 * reference classification (ReferenceListener: open_since, covers, the
 * per-operation collector, record, and a second StridePredictor on the
 * D side, one event at a time).  A random hierarchy produces the access
 * results.  Each stream is a chain of fetch runs of 1-40 groups (1-4 in
 * half the streams, so the 256-record log fills before the repeat
 * buffer; in the rest the repeat buffer fills first, mid-run), each
 * group with 0-3 data accesses at its cycle: half repeat the previous
 * access's block, the rest walk a stream or hit a small table, one PC
 * per kind.  A run's line is often the next line, sometimes a
 * return to an earlier one after a different one.  Remote kills
 * (invalidate_block, then on_invalidation) break same-block data runs,
 * and flushes come at random points.  After a final flush the
 * serialized I and D sets, the raw intervals under keep_raw and
 * num_accesses() must match.
 */
TEST(ObserverLockstep, RunsMatchInlineReference)
{
    constexpr std::uint64_t kStreams = 32;
    for (std::uint64_t stream = 1; stream <= kStreams; ++stream) {
        util::Rng rng(stream * 0x9e3779b97f4a7c15ULL + 53);
        ExperimentConfig config;
        config.hierarchy = random_hierarchy(rng);
        const Cycles leads[] = {0, 7, 37};
        config.nl_lead_time = leads[rng.next_below(3)];
        config.keep_raw = rng.next_bool(0.5);
        const std::uint64_t max_run = stream % 2 ? 4 : 40;

        sim::Hierarchy hierarchy(config.hierarchy);
        const std::uint64_t iframes = hierarchy.l1i().num_frames();
        const std::uint64_t dframes = hierarchy.l1d().num_frames();
        const auto edges = interval::IntervalHistogramSet::default_edges(
            standard_extra_edges());
        interval::IntervalHistogramSet iset(edges), dset(edges);
        interval::IntervalHistogramSet iref_set(edges), dref_set(edges);
        interval::IntervalCollector icollector(iframes, &iset,
                                               config.keep_raw);
        interval::IntervalCollector dcollector(dframes, &dset,
                                               config.keep_raw);
        prefetch::StridePredictor stride(config.stride);
        BatchedObserver observer(config.hierarchy, &icollector, &dcollector,
                                 &stride, config.nl_lead_time);
        oracle::ReferenceCollector iref(iframes, &iref_set, config.keep_raw);
        oracle::ReferenceCollector dref(dframes, &dref_set, config.keep_raw);
        ReferenceListener reference(config, &iref, &dref);

        const Pc iline = config.hierarchy.l1i.line_bytes;
        const Addr dline = config.hierarchy.l1d.line_bytes;
        Pc line = kCodeBase;
        Addr addr = kHeapBase;
        Addr streaming = kHeapBase + (1 << 20);
        Cycle cycle = 0;
        std::uint64_t kills = 0;
        for (std::uint64_t run = 0; run < 1'500; ++run) {
            const std::uint64_t pick = rng.next_below(8);
            if (pick < 4)
                line += iline; // fall through to the next line
            else if (pick < 7)
                line = kCodeBase + rng.next_below(48) * iline; // loop back
            // else the same line: the observer's run goes on

            const std::uint64_t groups = 1 + rng.next_below(max_run);
            for (std::uint64_t g = 0; g < groups; ++g) {
                const Pc pc = line + rng.next_below(iline / 4) * 4;
                for (std::uint64_t d = rng.next_below(4); d != 0; --d) {
                    const std::uint64_t kind = rng.next_below(4);
                    if (kind == 0)
                        addr = streaming += 8;
                    else if (kind == 1)
                        addr = kHeapBase + rng.next_below(64) * dline;
                    else
                        addr = (addr & ~(dline - 1)) +
                               rng.next_below(dline / 8) * 8;
                    // One PC per kind, so the stride table learns the
                    // stream, same-block repeats included.
                    const Pc dpc = kCodeBase + kind * 4;
                    const bool is_store = rng.next_bool(0.3);
                    const sim::HierarchyResult res =
                        hierarchy.access_data(addr);
                    observer.on_data(cycle, dpc, addr, is_store, res);
                    reference.on_data(cycle, dpc, addr, is_store, res);
                }
                if (rng.next_bool(0.05)) {
                    // A remote store kills the current block or another.
                    const Addr victim =
                        rng.next_bool(0.5)
                            ? addr / dline
                            : (kHeapBase / dline) + rng.next_below(64);
                    const FrameId frame =
                        hierarchy.l1d().invalidate_block(victim);
                    if (frame != kInvalidFrame) {
                        observer.on_invalidation(cycle, frame);
                        reference.on_invalidation(cycle, frame);
                        ++kills;
                    }
                }
                const sim::HierarchyResult res = hierarchy.access_instr(pc);
                observer.on_instr(cycle, pc, res);
                reference.on_instr(cycle, pc, res);
                cycle += 1 + (res.latency > 1 ? res.latency / 2 : 0) +
                         (rng.next_bool(0.01) ? rng.next_below(5'000) : 0);
                if (rng.next_bool(0.002))
                    observer.flush();
            }
        }
        observer.flush();

        ASSERT_EQ(icollector.num_accesses(), iref.num_accesses())
            << "stream " << stream;
        ASSERT_EQ(dcollector.num_accesses(), dref.num_accesses())
            << "stream " << stream;
        EXPECT_EQ(icollector.num_accesses(),
                  hierarchy.l1i().stats().accesses)
            << "stream " << stream;
        EXPECT_EQ(dcollector.num_accesses(),
                  hierarchy.l1d().stats().accesses + kills)
            << "stream " << stream;
        icollector.finalize(cycle);
        dcollector.finalize(cycle);
        iref.finalize(cycle);
        dref.finalize(cycle);
        const auto bytes = [](const interval::IntervalHistogramSet &set) {
            util::BinaryWriter out;
            set.serialize(out);
            return out.bytes();
        };
        EXPECT_TRUE(bytes(iset) == bytes(iref_set))
            << "stream " << stream << ": I sets differ";
        EXPECT_TRUE(bytes(dset) == bytes(dref_set))
            << "stream " << stream << ": D sets differ";
        EXPECT_TRUE(same_intervals(icollector.raw(), iref.raw()))
            << "stream " << stream << ": I raw intervals differ";
        EXPECT_TRUE(same_intervals(dcollector.raw(), dref.raw()))
            << "stream " << stream << ": D raw intervals differ";
        EXPECT_EQ(icollector.raw().empty(), !config.keep_raw)
            << "stream " << stream;
    }
}

/**
 * The stamp-based collector against the per-frame oracle.  Streams
 * draw 1-2048 frames, cycles from 0 with many repeats (accesses at
 * cycle 0, zero-length intervals) and rare long jumps (tail bins),
 * random reuse/stride/next-line flags, and keep_raw on and off.  Every
 * step compares open_since on the accessed frame and on a random one,
 * and num_accesses(); finalize at a random end cycle must leave
 * byte-identical serialized sets and equal raw intervals.
 */
TEST(CollectorLockstep, StampsMatchReference)
{
    constexpr std::uint64_t kStreams = 64;
    for (std::uint64_t stream = 1; stream <= kStreams; ++stream) {
        util::Rng rng(stream * 0x9e3779b97f4a7c15ULL + 29);
        const std::uint64_t frames =
            rng.next_bool(0.25) ? 1 + rng.next_below(4)
                                : 1 + rng.next_below(2048);
        const bool keep_raw = rng.next_bool(0.5);
        const auto edges = interval::IntervalHistogramSet::default_edges(
            rng.next_bool(0.5) ? standard_extra_edges()
                               : std::vector<Cycles>{});
        interval::IntervalHistogramSet set(edges), reference_set(edges);
        interval::IntervalCollector collector(frames, &set, keep_raw);
        oracle::ReferenceCollector reference(frames, &reference_set,
                                             keep_raw);

        auto check_open = [&](FrameId frame, std::uint64_t step) {
            Cycle since = 0, reference_since = 0;
            const bool open = collector.open_since(frame, since);
            ASSERT_EQ(open, reference.open_since(frame, reference_since))
                << "stream " << stream << " step " << step << " frame "
                << frame;
            if (open) {
                ASSERT_EQ(since, reference_since)
                    << "stream " << stream << " step " << step
                    << " frame " << frame;
            }
        };

        Cycle now = 0;
        const std::uint64_t steps = 1 + rng.next_below(6000);
        for (std::uint64_t step = 0; step < steps; ++step) {
            const std::uint64_t gap = rng.next_below(100);
            if (gap >= 97)
                now += rng.next_below(std::uint64_t{1} << 36);
            else if (gap >= 40)
                now += rng.next_below(1200);
            else if (gap >= 20)
                now += 1;
            const FrameId frame =
                rng.next_bool(0.1) ? 0 : rng.next_below(frames);
            const bool reuse = rng.next_bool(0.5);
            const bool stride = rng.next_bool(0.3);
            const bool nl = rng.next_bool(0.3);
            collector.on_access(frame, now, reuse, stride, nl);
            reference.on_access(frame, now, reuse, stride, nl);
            check_open(frame, step);
            check_open(rng.next_below(frames), step);
            if (HasFatalFailure())
                return;
            ASSERT_EQ(collector.num_accesses(), reference.num_accesses())
                << "stream " << stream << " step " << step;
        }

        const Cycle end =
            now + (rng.next_bool(0.3) ? 0 : rng.next_below(5000));
        collector.finalize(end);
        reference.finalize(end);
        util::BinaryWriter out, reference_out;
        set.serialize(out);
        reference_set.serialize(reference_out);
        EXPECT_TRUE(out.bytes() == reference_out.bytes())
            << "stream " << stream << ": serialized sets differ";

        EXPECT_TRUE(same_intervals(collector.raw(), reference.raw()))
            << "stream " << stream << ": raw intervals differ";
        EXPECT_EQ(collector.raw().empty(), !keep_raw) << "stream " << stream;
    }
}

namespace {

/**
 * Range bounds for the draw tests: small ones, both neighbours of
 * 2^32, the bounds around 2^63 and above 2^62 (where a draw is
 * rejected up to half the time), 2^64 - 1, and one random bound of
 * every bit width 1-64.
 */
std::vector<std::uint64_t>
draw_bounds()
{
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    constexpr std::uint64_t k62 = std::uint64_t{1} << 62;
    constexpr std::uint64_t k63 = std::uint64_t{1} << 63;
    std::vector<std::uint64_t> bounds = {1, 2, 3, 4, 5, 7, k32 - 1, k32 + 1,
                                         k63 - 1, k63, k63 + 1, 3 * k62,
                                         ~std::uint64_t{0}};
    util::Rng rng(0x5eed'b0d5);
    for (int width = 1; width <= 64; ++width) {
        const std::uint64_t top = std::uint64_t{1} << (width - 1);
        bounds.push_back(top | (rng.next_u64() & (top - 1)));
    }
    return bounds;
}

/**
 * Draw @p pattern through next() and through fill(n) for n in
 * {1, 7, 64, 255}, then again after reset(), against @p make(), a
 * fresh reference stream.
 */
template <typename MakeReference>
void
expect_same_addresses(workload::DataPattern &pattern,
                      const MakeReference &make, const std::string &what)
{
    std::vector<Addr> filled(255);
    for (int pass = 0; pass < 2; ++pass) {
        auto reference = make();
        for (int round = 0; round < 4; ++round) {
            for (int i = 0; i < 64; ++i) {
                ASSERT_EQ(pattern.next(), reference.next())
                    << what << " pass " << pass << " round " << round
                    << " next() " << i;
            }
            for (const std::size_t n : {1, 7, 64, 255}) {
                pattern.fill(filled.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(filled[i], reference.next())
                        << what << " pass " << pass << " round " << round
                        << " fill(" << n << ")[" << i << "]";
                }
            }
        }
        pattern.reset();
    }
}

} // namespace

/**
 * next_below with the lazy threshold against the per-call threshold
 * (reference_patterns.hpp): every value, and the raw draw after every
 * call, so a call that consumed one draw more or less fails at once.
 */
TEST(DrawLockstep, NextBelowMatchesReference)
{
    for (const std::uint64_t bound : draw_bounds()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            util::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ bound);
            util::Rng reference = rng;
            for (int i = 0; i < 1000; ++i) {
                ASSERT_EQ(rng.next_below(bound),
                          oracle::reference_next_below(reference, bound))
                    << "bound " << bound << " seed " << seed << " draw "
                    << i;
                ASSERT_EQ(rng.next_u64(), reference.next_u64())
                    << "draws consumed differ: bound " << bound << " seed "
                    << seed << " draw " << i;
            }
        }
    }
}

/**
 * FixedBound's direct remainder against %, at the edge numerators (0,
 * 1, b - 1, b, b + 1, 2b - 1, 2^64 - 1, both sides of random multiples
 * of b) and random ones, and its draws against the reference like
 * next_below's.
 */
TEST(DrawLockstep, FixedBoundMatchesModulo)
{
    util::Rng numerators(0xf1'0ed);
    for (const std::uint64_t b : draw_bounds()) {
        const util::FixedBound fixed(b);
        ASSERT_EQ(fixed.threshold(), (0 - b) % b) << "bound " << b;

        std::vector<std::uint64_t> ns = {
            0, 1, b - 1, b, b + 1, 2 * b - 1, ~std::uint64_t{0}};
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t r = numerators.next_u64();
            const std::uint64_t multiple = r - r % b;
            ns.push_back(multiple - 1);
            ns.push_back(multiple);
            ns.push_back(multiple + 1);
            ns.push_back(numerators.next_u64());
        }
        for (const std::uint64_t n : ns)
            ASSERT_EQ(fixed.reduce(n), n % b) << "bound " << b << " n " << n;

        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            util::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ ~b);
            util::Rng reference = rng;
            for (int i = 0; i < 500; ++i) {
                ASSERT_EQ(rng.next_below(fixed),
                          oracle::reference_next_below(reference, b))
                    << "bound " << b << " seed " << seed << " draw " << i;
                ASSERT_EQ(rng.next_u64(), reference.next_u64())
                    << "draws consumed differ: bound " << b << " seed "
                    << seed << " draw " << i;
            }
        }
    }
}

/**
 * next_in through a FixedBound of the span, as CallGraphProgram draws
 * its body repeats, against lo + the reference next_below of the span:
 * every value, and the raw draw after every call.
 */
TEST(DrawLockstep, NextInThroughFixedBoundMatchesReference)
{
    const std::pair<std::uint64_t, std::uint64_t> ranges[] = {
        {0, 0},          {1, 1},           {1, 3},
        {2, 9},          {5, 1025},        {1000, 1000 + (1u << 20)},
        {7, 7 + (3u << 14)}, {1, ~std::uint64_t{0}},
        {0, ~std::uint64_t{0} - 1}};
    for (const auto &[lo, hi] : ranges) {
        const std::uint64_t span = hi - lo + 1;
        const util::FixedBound fixed(span);
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            util::Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ lo ^ hi);
            util::Rng reference = rng;
            for (int i = 0; i < 500; ++i) {
                ASSERT_EQ(rng.next_in(lo, fixed),
                          lo + oracle::reference_next_below(reference, span))
                    << "range [" << lo << ", " << hi << "] seed " << seed
                    << " draw " << i;
                ASSERT_EQ(rng.next_u64(), reference.next_u64())
                    << "draws consumed differ: range [" << lo << ", " << hi
                    << "] seed " << seed << " draw " << i;
            }
        }
    }
}

/**
 * make_random and make_stack against the reference patterns, through
 * next(), fill() and reset(): slot counts 1, odd, 2^k and 3 * 2^k (the
 * paper workloads' tables are 2^k and 3 * 2^k slots) at 4- and 8-byte
 * alignment, and stack depths of one slot (8 bytes), two slots and the
 * workloads' 2 KiB.
 */
TEST(DrawLockstep, PatternsMatchReference)
{
    const std::uint64_t slot_counts[] = {1,       3,       61,     1021,
                                         64,      1 << 12, 1 << 17, 3 << 6,
                                         3 << 8,  3 << 14};
    const std::uint64_t depths[] = {8, 16, 2 << 10};
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const std::uint64_t slots : slot_counts) {
            for (const std::uint32_t align : {4u, 8u}) {
                const Addr base = kHeapBase + seed * (1 << 24);
                auto pattern =
                    workload::make_random(base, slots * align, align, seed);
                ASSERT_NO_FATAL_FAILURE(expect_same_addresses(
                    *pattern,
                    [&] {
                        return oracle::ReferenceRandomPattern(
                            base, slots * align, align, seed);
                    },
                    "random slots " + std::to_string(slots) + " align " +
                        std::to_string(align) + " seed " +
                        std::to_string(seed)));
            }
        }
        for (const std::uint64_t depth : depths) {
            const Addr top = 0x7fff'0000 - seed * (1 << 20);
            auto pattern = workload::make_stack(top, depth, seed);
            ASSERT_NO_FATAL_FAILURE(expect_same_addresses(
                *pattern,
                [&] {
                    return oracle::ReferenceStackPattern(top, depth, seed);
                },
                "stack depth " + std::to_string(depth) + " seed " +
                    std::to_string(seed)));
        }
    }
}

namespace {

/**
 * A random scripted program: straight runs of 1-48 ops at a 2-, 4- or
 * 8-byte step, each starting where the last one ended (sometimes at a
 * different step), at a small jump, or anywhere in a 16 KiB code
 * region at any even offset, so runs cross I-lines and line ends at
 * every alignment.
 */
std::vector<trace::MicroOp>
random_script(util::Rng &rng, std::size_t ops)
{
    const Pc steps[] = {2, 4, 4, 4, 8};
    std::vector<trace::MicroOp> script;
    Pc pc = kCodeBase;
    while (script.size() < ops) {
        const Pc step = steps[rng.next_below(5)];
        switch (rng.next_below(4)) {
          case 0:
            break; // continue where the last run ended
          case 1:
            pc += 2 * rng.next_below(16);
            break;
          default:
            pc = kCodeBase + 2 * rng.next_below(8 << 10);
            break;
        }
        const double mem = 0.5 * static_cast<double>(rng.next_below(3));
        const std::uint64_t run = 1 + rng.next_below(48);
        for (std::uint64_t i = 0; i < run; ++i, pc += step) {
            trace::MicroOp op;
            op.pc = pc;
            if (rng.next_bool(mem)) {
                op.kind = rng.next_bool(0.3) ? trace::InstrKind::Store
                                             : trace::InstrKind::Load;
                op.addr = kHeapBase + rng.next_below(1 << 17);
            }
            script.push_back(op);
        }
    }
    return script;
}

/**
 * Drive @p core and the per-op @p reference through the same random
 * chain of run_until calls, asserting that every call returns the same
 * statistics and leaves the same cycle, and that the event logs agree.
 * Budgets of 0-9 instructions end most calls mid-group; the limits
 * range from "one group" to unbounded.  Stops once both cores run dry
 * or @p total instructions have run.
 */
void
run_lockstep(cpu::InOrderCore &core, oracle::ReferenceCore &reference,
             util::Rng &rng, std::uint64_t total, const std::string &label)
{
    fixtures::EventLog log;
    fixtures::EventLog want;
    std::uint64_t done = 0;
    std::uint64_t calls = 0;
    while (done < total) {
        const std::uint64_t budget =
            rng.next_bool(0.7) ? rng.next_below(10) : rng.next_below(400);
        const Cycle limit =
            rng.next_bool(0.1)
                ? cpu::InOrderCore::kNoCycleLimit
                : core.cycle() + rng.next_below(rng.next_bool(0.5) ? 4 : 300);
        const cpu::CoreRunStats got = core.run_until(budget, limit, log);
        const cpu::CoreRunStats expected =
            reference.run_until(budget, limit, want);
        ++calls;
        ASSERT_EQ(got.instructions, expected.instructions)
            << label << " call " << calls;
        ASSERT_EQ(got.fetch_groups, expected.fetch_groups)
            << label << " call " << calls;
        ASSERT_EQ(got.loads, expected.loads) << label << " call " << calls;
        ASSERT_EQ(got.stores, expected.stores) << label << " call " << calls;
        ASSERT_EQ(got.instr_stall_cycles, expected.instr_stall_cycles)
            << label << " call " << calls;
        ASSERT_EQ(got.data_stall_cycles, expected.data_stall_cycles)
            << label << " call " << calls;
        ASSERT_EQ(got.cycles, expected.cycles) << label << " call " << calls;
        ASSERT_EQ(core.cycle(), reference.cycle())
            << label << " call " << calls;
        ASSERT_EQ(log.events.size(), want.events.size())
            << label << " call " << calls;
        if (budget != 0 && got.instructions == 0)
            break; // both ran dry
        done += got.instructions;
    }
    ASSERT_TRUE(log.events == want.events) << label;
}

} // namespace

/**
 * Span fetch against the per-op run loop on scripted programs: the
 * default next_spans splits them into spans wherever the PC step is
 * not 4 bytes, so group formation is checked across span boundaries,
 * inside spans and at every line offset.
 */
TEST(SpanFetch, ScriptedProgramsMatchPerOpCore)
{
    constexpr std::uint64_t kPrograms = 400;
    for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
        util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 5);
        const std::vector<trace::MicroOp> script =
            random_script(rng, 200 + rng.next_below(3000));
        cpu::CoreConfig config;
        config.fetch_width = 1 + static_cast<std::uint32_t>(rng.next_below(8));
        config.miss_overlap_percent =
            static_cast<std::uint32_t>(rng.next_below(101));
        sim::HierarchyConfig geometry;
        geometry.l1i.line_bytes = rng.next_bool(0.5) ? 32 : 64;

        fixtures::ScriptedWorkload w1(script);
        fixtures::ScriptedWorkload w2(script);
        sim::Hierarchy h1{geometry};
        sim::Hierarchy h2{geometry};
        cpu::InOrderCore core(config, &h1, &w1);
        oracle::ReferenceCore reference(config, &h2, &w2);
        const std::string label = "seed " + std::to_string(seed) +
                                  " width " +
                                  std::to_string(config.fetch_width);
        run_lockstep(core, reference, rng, ~std::uint64_t{0}, label);
        if (HasFatalFailure())
            return;
        EXPECT_EQ(h1.l1i().stats().accesses, h2.l1i().stats().accesses)
            << label;
        EXPECT_EQ(h1.l2().stats().misses, h2.l2().stats().misses) << label;
    }
}

/**
 * The same lockstep over the nine benchmark workloads, whose spans
 * come from the LoopProgram, CallGraphProgram and CompositeWorkload
 * emitters, against a second instance read through next().
 */
TEST(SpanFetch, BenchmarksMatchPerOpCore)
{
    const std::vector<std::string> names = {
        "ammp", "applu", "gcc",    "gzip", "mesa",
        "vortex", "stream", "stencil", "chase"};
    util::Rng rng(0x5fa9);
    for (const std::string &name : names) {
        for (int round = 0; round < 2; ++round) {
            cpu::CoreConfig config;
            config.fetch_width =
                1 + static_cast<std::uint32_t>(rng.next_below(8));
            auto w1 = workload::make_benchmark(name);
            auto w2 = workload::make_benchmark(name);
            sim::Hierarchy h1{sim::HierarchyConfig{}};
            sim::Hierarchy h2{sim::HierarchyConfig{}};
            cpu::InOrderCore core(config, &h1, w1.get());
            oracle::ReferenceCore reference(config, &h2, w2.get());
            run_lockstep(core, reference, rng, 40'000,
                         name + " width " +
                             std::to_string(config.fetch_width));
            if (HasFatalFailure())
                return;
        }
    }
}
