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
 *    patterns included, unlike the analytic fuzzer — the kernel has no
 *    eligibility gate) across random 1-64-way geometries, all three
 *    ReplacementKinds, fetch widths 1-16 and next-line lead times
 *    {0, 7, 37}, each run once through the kernel lane
 *    (run_one_kernel + BatchedObserver) and once with keep_raw set,
 *    which takes the general lane (run_one + CollectingListener, which
 *    classifies every access as it happens).
 *    serialize_result omits raw intervals, so the two must be
 *    byte-identical.  On a mismatch the failing seed is printed with a
 *    greedily minimized program.
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
 *    streams of record, covers, append_state, warp and reset, asserting
 *    every answer and snapshot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "prefetch/next_line.hpp"
#include "reference_cache.hpp"
#include "reference_next_line.hpp"
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
    return spec;
}

ExperimentConfig
config_for(const ProgramSpec &spec, bool keep_raw)
{
    ExperimentConfig config;
    config.instructions = spec.instructions;
    config.hierarchy = spec.hierarchy;
    config.core.fetch_width = spec.fetch_width;
    config.nl_lead_time = spec.nl_lead_time;
    config.engine = Engine::Sim;
    config.keep_raw = keep_raw;
    return config;
}

/** Run one spec through both run lanes; true iff byte-identical. */
bool
equivalent(const ProgramSpec &spec)
{
    auto kernel_workload = build_program(spec);
    const ExperimentResult kernel = run_experiment(
        *kernel_workload, config_for(spec, /*keep_raw=*/false));
    auto general_workload = build_program(spec);
    const ExperimentResult general = run_experiment(
        *general_workload, config_for(spec, /*keep_raw=*/true));
    return serialize_result(kernel) == serialize_result(general);
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
                      std::to_string(spec.nl_lead_time) + "\n";
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
 * 64-way ones, and the analytic fast path's commits.  Any change to a
 * cache decision, the interval collectors or the fast path shows up
 * here.  Regenerate only for a change meant to alter results, and say
 * why.
 */
TEST(SingleCoreGolden, SerializedDigestsArePinned)
{
    struct Golden
    {
        const char *benchmark;
        GoldenShape shape;
        std::uint64_t instructions;
        const char *digest;
        bool analytic; ///< the fast path must commit a period skip
    };
    using S = GoldenShape;
    const std::vector<Golden> goldens = {
        {"ammp", S::Default, 50'000, "3cb8e7074469ef7e", false},
        {"applu", S::Default, 50'000, "a40bc099cc4b2124", false},
        {"gcc", S::Default, 50'000, "6959791b6229e98f", false},
        {"gzip", S::Default, 50'000, "860a5d556f0dcdd0", false},
        {"mesa", S::Default, 50'000, "91d12e508a2c2bad", false},
        {"vortex", S::Default, 50'000, "22c533bfd214c5e2", false},
        {"ammp", S::CollectL2, 50'000, "00fef01bd2d396c0", false},
        {"applu", S::CollectL2, 50'000, "6398c7e457a5a365", false},
        {"gcc", S::CollectL2, 50'000, "234d743c1332e6a7", false},
        {"gzip", S::CollectL2, 50'000, "d33096c8120e959c", false},
        {"mesa", S::CollectL2, 50'000, "61f73956ffd8876b", false},
        {"vortex", S::CollectL2, 50'000, "426790efc64fe2d1", false},
        {"gzip", S::Fifo, 50'000, "9b0e2e634e1bd4c8", false},
        {"gcc", S::Fifo, 50'000, "7768d84e54769271", false},
        {"gzip", S::Random, 50'000, "ec1eee1bf05a2f3e", false},
        {"gcc", S::Random, 50'000, "d23b3929bc406eea", false},
        {"gzip", S::L2Ways16, 50'000, "a9467366b351ceba", false},
        {"gcc", S::L2Ways16, 50'000, "0a5dc26ae13ca9be", false},
        {"gzip", S::L2Ways64, 50'000, "33d9eda4f1317ba6", false},
        // The analytic extras commit only once a budget holds enough
        // periods (stencil does not at 50K).
        {"stream", S::Default, 200'000, "52981c994f5580c9", true},
        {"stencil", S::Default, 200'000, "e3d9eb7853471be0", true},
        {"chase", S::Default, 200'000, "033157a12f2e7733", true},
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
        EXPECT_EQ(result.analytic, golden.analytic) << golden.benchmark;
    }
}

/**
 * The main gate: 1000 random programs, every one byte-identical
 * across the kernel and general run lanes.
 */
TEST(KernelEquivalence, FuzzedExperimentsAreByteIdentical)
{
    constexpr std::uint64_t kPrograms = 1000;
    for (std::uint64_t seed = 1; seed <= kPrograms; ++seed) {
        const ProgramSpec spec = random_program(seed);
        if (!equivalent(spec)) {
            FAIL() << "kernel/general lane divergence; minimized:\n"
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
 * apart (far pages through the index).  Every covers() answer (both
 * overloads, lead times 0/7/37 or random), covered() and every
 * append_state snapshot must match, through warps and resets.
 */
TEST(NextLine, PagedMatchesReference)
{
    constexpr std::uint64_t kStreams = 24;
    constexpr std::uint64_t kSteps = 12'000;
    for (std::uint64_t stream = 1; stream <= kStreams; ++stream) {
        util::Rng rng(stream * 0x9e3779b97f4a7c15ULL + 11);
        prefetch::NextLineMonitor paged;
        oracle::ReferenceNextLine reference;
        Cycle now = 0;
        Addr run = 64 + rng.next_below(1 << 12); // dense-run cursor
        std::uint64_t covered_answers = 0;

        auto draw_block = [&]() -> Addr {
            switch (rng.next_below(6)) {
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
              default:
                return rng.next_below(1 << 14);
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
            } else if (op < 990) {
                std::vector<std::uint64_t> ps;
                std::vector<std::uint64_t> rs;
                const Cycle at = now + rng.next_below(100);
                paged.append_state(ps, at);
                reference.append_state(rs, at);
                ASSERT_EQ(ps, rs) << "stream " << stream << " step " << step;
            } else if (op < 999) {
                const Cycles delta = rng.next_below(5'000);
                paged.warp(delta);
                reference.warp(delta);
                now += delta;
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
    }
}
