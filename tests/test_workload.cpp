/**
 * @file
 * Tests of the workload substrate: data-pattern semantics, loop
 * program structure and determinism, the call-graph walker, phase
 * composition, the six-benchmark suite registry, and the span and
 * batch forms of every benchmark's stream against next().
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core_fixtures.hpp"
#include "workload/callgraph.hpp"
#include "workload/data_pattern.hpp"
#include "workload/loop_program.hpp"
#include "workload/spec_suite.hpp"

using namespace leakbound;
using namespace leakbound::workload;
using trace::InstrKind;
using trace::MicroOp;

// -------------------------------------------------------- data patterns

TEST(DataPattern, SequentialWrapsRegion)
{
    auto p = make_sequential(0x1000, 32, 8);
    EXPECT_EQ(p->next(), 0x1000u);
    EXPECT_EQ(p->next(), 0x1008u);
    EXPECT_EQ(p->next(), 0x1010u);
    EXPECT_EQ(p->next(), 0x1018u);
    EXPECT_EQ(p->next(), 0x1000u); // wrapped
    p->reset();
    EXPECT_EQ(p->next(), 0x1000u);
}

TEST(DataPattern, StridedVisitsStridePoints)
{
    auto p = make_strided(0, 16, 8, 4);
    EXPECT_EQ(p->next(), 0u);
    EXPECT_EQ(p->next(), 32u);
    EXPECT_EQ(p->next(), 64u);
    EXPECT_EQ(p->next(), 96u);
    // Wrap advances the phase so the next sweep covers new elements.
    EXPECT_EQ(p->next(), 8u);
}

TEST(DataPattern, RandomStaysInRegionAndIsSeeded)
{
    auto a = make_random(0x2000, 256, 8, 5);
    auto b = make_random(0x2000, 256, 8, 5);
    for (int i = 0; i < 1000; ++i) {
        const Addr x = a->next();
        EXPECT_EQ(x, b->next());
        EXPECT_GE(x, 0x2000u);
        EXPECT_LT(x, 0x2100u);
        EXPECT_EQ(x % 8, 0u);
    }
}

TEST(DataPattern, PointerChaseIsFullCyclePermutation)
{
    const std::uint64_t nodes = 64;
    auto p = make_pointer_chase(0, nodes, 64, 9);
    std::set<Addr> seen;
    for (std::uint64_t i = 0; i < nodes; ++i)
        seen.insert(p->next());
    EXPECT_EQ(seen.size(), nodes); // visits every node once
    // The next draw restarts the same cycle.
    const Addr again = p->next();
    EXPECT_TRUE(seen.count(again));
}

TEST(DataPattern, StackStaysBelowTop)
{
    auto p = make_stack(0x7000, 256, 3);
    for (int i = 0; i < 1000; ++i) {
        const Addr x = p->next();
        EXPECT_LT(x, 0x7000u);
        EXPECT_GE(x, 0x7000u - 256 - 64);
    }
}

// --------------------------------------------------------- loop program

namespace {

LoopProgram
two_level_loop()
{
    std::vector<DataPatternPtr> patterns;
    patterns.push_back(make_sequential(0x10000, 1024, 4));
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_loop(
        3, 3,
        {NodeSpec::make_block({8, 0.5, 0.25, 0}),
         NodeSpec::make_loop(2, 2, {NodeSpec::make_block({4, 0.0, 0.0, -1})})}));
    return LoopProgram("two-level", 0x1000, std::move(body),
                       std::move(patterns), 42);
}

} // namespace

TEST(LoopProgram, DeterministicAcrossInstancesAndReset)
{
    LoopProgram a = two_level_loop();
    LoopProgram b = two_level_loop();
    std::vector<MicroOp> first;
    for (int i = 0; i < 500; ++i) {
        MicroOp oa, ob;
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
        first.push_back(oa);
    }
    a.reset();
    for (int i = 0; i < 500; ++i) {
        MicroOp op;
        ASSERT_TRUE(a.next(op));
        EXPECT_EQ(op.pc, first[i].pc);
        EXPECT_EQ(op.addr, first[i].addr);
    }
}

TEST(LoopProgram, PcsStayInsideFootprint)
{
    LoopProgram p = two_level_loop();
    for (int i = 0; i < 10'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        EXPECT_GE(op.pc, 0x1000u);
        EXPECT_LT(op.pc, 0x1000u + p.code_bytes());
        if (op.kind != InstrKind::Op) {
            EXPECT_GE(op.addr, 0x10000u);
            EXPECT_LT(op.addr, 0x10000u + 1024u);
        } else {
            EXPECT_EQ(op.addr, kInvalidAddr);
        }
    }
}

TEST(LoopProgram, BlockKindsAreStaticPerPc)
{
    // A static instruction must always be the same kind (the layout is
    // fixed at construction).
    LoopProgram p = two_level_loop();
    std::map<Pc, InstrKind> kinds;
    for (int i = 0; i < 20'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        auto [it, inserted] = kinds.emplace(op.pc, op.kind);
        if (!inserted) {
            EXPECT_EQ(it->second, op.kind) << "pc " << op.pc;
        }
    }
}

TEST(LoopProgram, VariableTripsVaryPerEntry)
{
    // A loop with trips in [1, 100] must produce different iteration
    // counts across entries (Fig. 2's varying inner range).
    std::vector<DataPatternPtr> patterns;
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_block({4, 0.0, 0.0, -1})); // marker
    body.push_back(NodeSpec::make_loop(
        1, 100, {NodeSpec::make_block({4, 0.0, 0.0, -1})}));
    LoopProgram p("varloop", 0x1000, std::move(body), std::move(patterns),
                  7);
    // Count inner-block instructions between marker sightings.
    std::set<int> counts;
    int since_marker = 0;
    MicroOp op;
    for (int i = 0; i < 50'000 && counts.size() < 5; ++i) {
        ASSERT_TRUE(p.next(op));
        if (op.pc == 0x1000) { // marker block start
            counts.insert(since_marker);
            since_marker = 0;
        }
        ++since_marker;
    }
    EXPECT_GE(counts.size(), 5u) << "trip counts never varied";
}

TEST(LoopProgram, RejectsBadPatternIndex)
{
    std::vector<DataPatternPtr> patterns; // empty pool
    std::vector<NodeSpec> body;
    body.push_back(NodeSpec::make_block({4, 0.5, 0.0, 0}));
    EXPECT_EXIT(LoopProgram("bad", 0x1000, std::move(body),
                            std::move(patterns), 1),
                ::testing::ExitedWithCode(2), "pattern");
}

// ------------------------------------------------------------ callgraph

TEST(CallGraph, DeterministicAndInFootprint)
{
    CallGraphSpec spec;
    spec.num_functions = 16;
    spec.min_instrs = 8;
    spec.max_instrs = 32;
    std::vector<DataPatternPtr> pa, pb;
    pa.push_back(make_random(0x100000, 4096, 8, 1));
    pb.push_back(make_random(0x100000, 4096, 8, 1));
    CallGraphProgram a("cg", 0x4000, spec, std::move(pa), 11);
    CallGraphProgram b("cg", 0x4000, spec, std::move(pb), 11);
    for (int i = 0; i < 5000; ++i) {
        MicroOp oa, ob;
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.pc, ob.pc);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_GE(oa.pc, 0x4000u);
        EXPECT_LT(oa.pc, 0x4000u + a.code_bytes());
    }
}

TEST(CallGraph, VisitsManyFunctions)
{
    CallGraphSpec spec;
    spec.num_functions = 64;
    spec.min_instrs = 8;
    spec.max_instrs = 16;
    spec.mem_fraction = 0.0;
    CallGraphProgram p("cg", 0x4000, spec, {}, 5);
    std::set<Pc> lines;
    for (int i = 0; i < 100'000; ++i) {
        MicroOp op;
        ASSERT_TRUE(p.next(op));
        lines.insert(op.pc / 64);
    }
    // The walk must cover a large share of the code footprint.
    EXPECT_GT(lines.size() * 64, p.code_bytes() / 2);
}

TEST(CallGraph, RejectsBadSpecs)
{
    CallGraphSpec spec;
    spec.min_instrs = 10;
    spec.max_instrs = 5;
    EXPECT_EXIT(CallGraphProgram("bad", 0x4000, spec, {}, 1),
                ::testing::ExitedWithCode(2), "body size");
    CallGraphSpec spec2;
    spec2.mem_fraction = 0.5;
    EXPECT_EXIT(CallGraphProgram("bad2", 0x4000, spec2, {}, 1),
                ::testing::ExitedWithCode(2), "data patterns");
}

// ------------------------------------------------------------ composite

TEST(Composite, RotatesPhasesByQuantum)
{
    auto make_marker = [](Pc base) {
        std::vector<DataPatternPtr> none;
        std::vector<NodeSpec> body;
        body.push_back(NodeSpec::make_block({4, 0.0, 0.0, -1}));
        return std::make_unique<LoopProgram>("m", base, std::move(body),
                                             std::move(none), 1);
    };
    std::vector<CompositeWorkload::Phase> phases;
    phases.push_back({make_marker(0x1000), 10});
    phases.push_back({make_marker(0x9000), 10});
    CompositeWorkload comp("comp", std::move(phases));

    int switches = 0;
    bool in_first = true;
    for (int i = 0; i < 100; ++i) {
        MicroOp op;
        ASSERT_TRUE(comp.next(op));
        const bool first = op.pc < 0x9000;
        if (first != in_first) {
            ++switches;
            in_first = first;
        }
    }
    EXPECT_GE(switches, 8); // 100 instructions / 10-instruction quanta
}

// ----------------------------------------------------------- spec suite

TEST(SpecSuite, AllSixBenchmarksConstructAndRun)
{
    for (const std::string &name : suite_names()) {
        WorkloadPtr w = make_benchmark(name);
        ASSERT_NE(w, nullptr) << name;
        EXPECT_EQ(w->name(), name);
        MicroOp op;
        for (int i = 0; i < 10'000; ++i)
            ASSERT_TRUE(w->next(op)) << name;
    }
}

TEST(SpecSuite, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)make_benchmark("perlbmk"),
                ::testing::ExitedWithCode(2), "unknown benchmark");
}

TEST(SpecSuite, BenchmarksAreDeterministic)
{
    for (const std::string &name : suite_names()) {
        WorkloadPtr a = make_benchmark(name);
        WorkloadPtr b = make_benchmark(name);
        for (int i = 0; i < 2000; ++i) {
            MicroOp oa, ob;
            ASSERT_TRUE(a->next(oa));
            ASSERT_TRUE(b->next(ob));
            ASSERT_EQ(oa.pc, ob.pc) << name << " diverged at op " << i;
            ASSERT_EQ(oa.addr, ob.addr) << name;
        }
    }
}

TEST(SpecSuite, HrLoopIntervalTracksInnerRange)
{
    // Fig. 2's point, measured at the generator level: a larger inner
    // range means more instructions between successive visits to the
    // `add` block.
    auto measure = [](std::uint64_t range) {
        WorkloadPtr w = make_hr_loop(range, range); // fixed trips
        // The add block is the second top-of-month block; find its pc
        // by scanning for the second distinct non-loop block.
        MicroOp op;
        std::map<Pc, std::uint64_t> gaps;
        std::map<Pc, std::uint64_t> last;
        for (std::uint64_t i = 0; i < 200'000; ++i) {
            if (!w->next(op))
                break;
            if (last.count(op.pc))
                gaps[op.pc] = std::max(gaps[op.pc], i - last[op.pc]);
            last[op.pc] = i;
        }
        // The `add` block's re-visit gap is the largest periodic gap
        // inside the month loop; use the maximum over all pcs.
        std::uint64_t best = 0;
        for (auto &[pc, gap] : gaps)
            best = std::max(best, gap);
        return best;
    };
    const std::uint64_t small = measure(4);
    const std::uint64_t large = measure(128);
    EXPECT_GT(large, small * 4);
}

// ------------------------------------------------ spans and batches

namespace {

/** The paper suite and the three synthetic extras. */
const std::vector<std::string> kAllBenchmarks = {
    "ammp", "applu", "gcc", "gzip", "mesa", "vortex",
    "stream", "stencil", "chase"};

/**
 * Check @p batch's shape and expand it against @p ref.next(): every
 * span non-empty, memory ops in order inside their span, and op for op
 * the PCs, kinds and addresses next() produces.  @return the first
 * mismatch, or an empty string.
 */
std::string
spans_mismatch(const SpanBatch &batch, std::uint64_t got, Workload &ref)
{
    std::uint64_t instrs = 0;
    std::uint32_t m = 0;
    for (std::uint32_t s = 0; s < batch.spans; ++s) {
        const Span &span = batch.span[s];
        const std::uint32_t mem_end = m + span.mems;
        if (span.instrs == 0 || mem_end > batch.mems)
            return "malformed span " + std::to_string(s);
        for (std::uint32_t i = 0; i < span.instrs; ++i) {
            MicroOp want;
            if (!ref.next(want))
                return "next() ran dry";
            MicroOp op;
            op.pc = span.pc + Pc{i} * kInstrBytes;
            if (m < mem_end && SpanBatch::offset(batch.mem_slot[m]) == i) {
                op.kind = SpanBatch::is_store(batch.mem_slot[m])
                              ? InstrKind::Store
                              : InstrKind::Load;
                op.addr = batch.mem_addr[m++];
            }
            if (op.pc != want.pc || op.kind != want.kind ||
                op.addr != want.addr) {
                return "op " + std::to_string(instrs + i) + " of the batch: pc " +
                       std::to_string(op.pc) + " vs " + std::to_string(want.pc);
            }
        }
        if (m != mem_end)
            return "memory op past the end of span " + std::to_string(s);
        instrs += span.instrs;
    }
    if (m != batch.mems || instrs != got)
        return "batch totals disagree with its spans";
    return {};
}

/** Stream @p ops instructions of @p spans in calls capped at @p cap. */
void
expect_stream_matches_next(Workload &spans, Workload &ref, std::uint64_t cap,
                           std::uint64_t ops, const std::string &label)
{
    SpanBatch batch;
    std::uint64_t seen = 0;
    while (seen < ops) {
        batch.clear();
        const std::uint64_t got = spans.next_spans(batch, cap);
        ASSERT_GT(got, 0u) << label;
        ASSERT_LE(got, cap) << label;
        const std::string mismatch = spans_mismatch(batch, got, ref);
        ASSERT_EQ(mismatch, "") << label << ", batch at op " << seen;
        seen += got;
    }
}

} // namespace

TEST(Spans, ExpandToTheNextStreamForEveryBenchmark)
{
    // 1M instructions cross every composite quantum (gcc's three
    // phases rotate every 710K, vortex's every 530K, mesa's every
    // 300K); cap 1 makes every span one instruction, cap 7 cuts
    // bodies mid-way, 1000 lets the batch capacity cut them.
    for (const std::string &name : kAllBenchmarks) {
        for (const std::uint64_t cap : {1, 7, 64, 1000}) {
            WorkloadPtr spans = make_benchmark(name);
            WorkloadPtr ref = make_benchmark(name);
            expect_stream_matches_next(*spans, *ref, cap, 1'000'000,
                                       name + " cap " + std::to_string(cap));
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(Spans, CompositeCapsChildrenAtTheQuantum)
{
    // Quanta of 13 and 29 instructions land mid-block and mid-body at
    // every cap, so spans are cut at quantum boundaries constantly.
    auto make = [] {
        std::vector<DataPatternPtr> loop_patterns;
        loop_patterns.push_back(make_random(0x100000, 1 << 16, 8, 3));
        std::vector<NodeSpec> body;
        body.push_back(NodeSpec::make_loop(
            2, 5, {NodeSpec::make_block({11, 0.5, 0.3, 0}),
                   NodeSpec::make_block({6, 0.0, 0.0, -1})}));
        std::vector<DataPatternPtr> graph_patterns;
        graph_patterns.push_back(make_sequential(0x200000, 1 << 14, 8));
        graph_patterns.push_back(make_stack(0x7fff0000, 4096, 9));
        CallGraphSpec spec;
        spec.num_functions = 12;
        spec.min_instrs = 3;
        spec.max_instrs = 40;
        std::vector<CompositeWorkload::Phase> phases;
        phases.push_back({std::make_unique<LoopProgram>(
                              "loops", 0x1000, std::move(body),
                              std::move(loop_patterns), 5),
                          13});
        phases.push_back({std::make_unique<CallGraphProgram>(
                              "calls", 0x80000, spec,
                              std::move(graph_patterns), 6),
                          29});
        return std::make_unique<CompositeWorkload>("mix", std::move(phases));
    };
    for (const std::uint64_t cap : {1, 7, 64, 1000}) {
        auto spans = make();
        auto ref = make();
        expect_stream_matches_next(*spans, *ref, cap, 100'000,
                                   "cap " + std::to_string(cap));
        if (HasFatalFailure())
            return;
    }
}

TEST(Spans, DefaultSpansFollowTheFourByteStep)
{
    // A workload with only next(): consecutive 4-byte steps share a
    // span, any other PC starts a new one, and memory ops keep their
    // offsets.
    std::vector<MicroOp> ops;
    for (Pc pc : {0x100, 0x104, 0x108, 0x10a, 0x10e, 0x200, 0x208}) {
        MicroOp op;
        op.pc = pc;
        ops.push_back(op);
    }
    ops[2].kind = InstrKind::Load;
    ops[2].addr = 0x9000;
    ops[4].kind = InstrKind::Store;
    ops[4].addr = 0x9008;
    fixtures::ScriptedWorkload w(ops);
    SpanBatch batch;
    EXPECT_EQ(w.next_spans(batch, 100), 7u);
    ASSERT_EQ(batch.spans, 4u);
    EXPECT_EQ(batch.span[0].pc, 0x100u);
    EXPECT_EQ(batch.span[0].instrs, 3u);
    EXPECT_EQ(batch.span[0].mems, 1u);
    EXPECT_EQ(batch.span[1].pc, 0x10au);
    EXPECT_EQ(batch.span[1].instrs, 2u);
    EXPECT_EQ(batch.span[1].mems, 1u);
    EXPECT_EQ(batch.span[2].instrs, 1u);
    EXPECT_EQ(batch.span[3].pc, 0x208u);
    ASSERT_EQ(batch.mems, 2u);
    EXPECT_EQ(batch.mem_slot[0], SpanBatch::slot(2, false));
    EXPECT_EQ(batch.mem_slot[1], SpanBatch::slot(1, true));
    EXPECT_EQ(batch.mem_addr[1], 0x9008u);

    batch.clear();
    EXPECT_EQ(w.next_spans(batch, 100), 0u); // exhausted
    EXPECT_EQ(batch.spans, 0u);
}

TEST(Workload, NextBatchReproducesNext)
{
    // next_batch expands spans; whatever the batch size, the ops are
    // next()'s, and a batch never runs the stream ahead of its size.
    for (const std::string &name : kAllBenchmarks) {
        for (const std::size_t size : {1, 7, 64, 1000}) {
            WorkloadPtr batched = make_benchmark(name);
            WorkloadPtr ref = make_benchmark(name);
            std::vector<MicroOp> ops(size);
            for (std::uint64_t seen = 0; seen < 200'000; seen += size) {
                ASSERT_EQ(batched->next_batch(ops.data(), size), size)
                    << name;
                for (std::size_t i = 0; i < size; ++i) {
                    MicroOp want;
                    ref->next(want);
                    if (ops[i].pc != want.pc || ops[i].kind != want.kind ||
                        ops[i].addr != want.addr) {
                        FAIL() << name << " size " << size << " op "
                               << seen + i;
                    }
                }
            }
        }
    }

    // A finite stream: a short last batch, then nothing.
    std::vector<MicroOp> script(10);
    for (std::size_t i = 0; i < script.size(); ++i)
        script[i].pc = 0x400 + 4 * i;
    fixtures::ScriptedWorkload w(script);
    std::vector<MicroOp> ops(7);
    EXPECT_EQ(w.next_batch(ops.data(), 7), 7u);
    EXPECT_EQ(w.next_batch(ops.data(), 7), 3u);
    EXPECT_EQ(ops[2].pc, 0x424u);
    EXPECT_EQ(w.next_batch(ops.data(), 7), 0u);
}
