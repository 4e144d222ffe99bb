/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrate itself:
 * cache access throughput, interval collection, histogram insertion,
 * exact policy evaluation, the stride predictor, the next-line monitor,
 * span generation and the end-to-end pipeline.  These guard the "laptop-scale in
 * seconds" property the bench suite depends on.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "core/artifact_cache.hpp"
#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/savings.hpp"
#include "interval/collector.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/stride.hpp"
#include "sim/cache.hpp"
#include "trace/trace_io.hpp"
#include "util/binary_io.hpp"
#include "util/edge_index.hpp"
#include "util/flat_map.hpp"
#include "util/random.hpp"
#include "workload/spec_suite.hpp"

namespace {

using namespace leakbound;

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(sim::CacheConfig::alpha_l1d());
    util::Rng rng(1);
    // 256KB working set: a realistic hit/miss mix.
    std::vector<Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.next_below(256 * 1024);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i++ & 4095]));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_IntervalCollect(benchmark::State &state)
{
    // /0 bins over default_edges() (175 bins), /1 over the standard
    // edges every bench and perfbench run on (395 bins).  The accesses
    // are drawn before the timed loop and walked cyclically, so the
    // loop times the collector rather than the generator.
    auto set = interval::IntervalHistogramSet::with_default_edges(
        state.range(0) != 0 ? core::standard_extra_edges()
                            : std::vector<Cycles>{});
    interval::IntervalCollector collector(1024, &set);
    struct Access
    {
        std::uint16_t frame;
        std::uint8_t cycle_step;
        bool reuse;
        bool next_line;
    };
    constexpr std::size_t kAccesses = 1 << 16;
    std::vector<Access> accesses(kAccesses);
    util::Rng rng(2);
    for (Access &a : accesses) {
        a.cycle_step = static_cast<std::uint8_t>(rng.next_below(16));
        a.frame = static_cast<std::uint16_t>(rng.next_below(1024));
        a.reuse = rng.next_bool(0.9);
        a.next_line = rng.next_bool(0.2);
    }
    Cycle cycle = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Access &a = accesses[i++ & (kAccesses - 1)];
        cycle += a.cycle_step;
        collector.on_access(a.frame, cycle, a.reuse, false, a.next_line);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntervalCollect)->Arg(0)->Arg(1);

void
BM_HistogramAdd(benchmark::State &state)
{
    auto set = interval::IntervalHistogramSet::with_default_edges();
    const interval::IntervalHistogramSet::WriteView view = set.write_view();
    benchmark::DoNotOptimize(view.bins[0]);
    util::Rng rng(3);
    for (auto _ : state) {
        view.add(0, rng.next_below(1 << 20));
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

void
BM_EdgeIndexBin(benchmark::State &state)
{
    // The O(1) dense + log2-jump-table lookup behind WriteView::add.
    const util::EdgeIndex index(
        interval::IntervalHistogramSet::default_edges());
    util::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(index.bin_index(rng.next_below(1 << 20)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeIndexBin);

void
BM_EdgeIndexBinReference(benchmark::State &state)
{
    // The std::upper_bound reference path EdgeIndex replaced; kept
    // benched so the speedup stays visible in BENCH_micro.json.
    const util::EdgeIndex index(
        interval::IntervalHistogramSet::default_edges());
    util::Rng rng(3);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            index.bin_index_reference(rng.next_below(1 << 20)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EdgeIndexBinReference);

void
BM_FlatMapPutGet(benchmark::State &state)
{
    util::FlatMap map(1 << 16);
    util::Rng rng(4);
    for (auto _ : state) {
        const std::uint64_t k = rng.next_below(1 << 18);
        map.put(k, k);
        benchmark::DoNotOptimize(map.get_or(k ^ 1, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapPutGet);

void
BM_StridePredictor(benchmark::State &state)
{
    prefetch::StridePredictor predictor;
    util::Rng rng(5);
    Addr addr = 0x100000;
    for (auto _ : state) {
        const Pc pc = 0x4000 + (rng.next_below(64) << 2);
        addr += 64;
        benchmark::DoNotOptimize(predictor.access(pc, addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StridePredictor);

void
BM_NextLineMonitor(benchmark::State &state)
{
    // One observation's monitor work, covers (block-1) then record
    // (block), over a 32K-block region walked in order (arg 0) or at
    // random (arg 1): the paged table's best and worst case.  Arg 2
    // alternates among four regions at random bases, the way a
    // call-graph body mixes references: a stack (a 32-block window
    // that drifts), two hot 256-block tables read at random, and a
    // stream; that is the case a page memo must keep several pages for.
    constexpr std::size_t kBlocks = 1 << 15;
    std::vector<Addr> blocks(kBlocks);
    util::Rng rng(6);
    Addr bases[4];
    for (Addr &base : bases)
        base = rng.next_below(Addr{1} << 24);
    Addr stack = 0;
    for (std::size_t i = 0; i < kBlocks; ++i) {
        switch (state.range(0)) {
          case 0:
            blocks[i] = 0x40000 + i;
            break;
          case 1:
            blocks[i] = 0x40000 + rng.next_below(kBlocks);
            break;
          default:
            switch (i & 3) {
              case 0:
                stack = (stack + rng.next_below(3)) & 1023;
                blocks[i] = bases[0] + stack / 32 + rng.next_below(32);
                break;
              case 1:
              case 2:
                blocks[i] = bases[i & 3] + rng.next_below(256);
                break;
              default:
                blocks[i] = bases[3] + i / 4;
                break;
            }
            break;
        }
    }
    prefetch::NextLineMonitor monitor;
    Cycle cycle = 0;
    std::size_t i = 0;
    for (auto _ : state) {
        const Addr block = blocks[i++ & (kBlocks - 1)];
        cycle += 4;
        const Cycle open_since = cycle > 4096 ? cycle - 4096 : 0;
        benchmark::DoNotOptimize(monitor.covers(block, open_since, cycle, 0));
        monitor.record(block, cycle);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NextLineMonitor)->Arg(0)->Arg(1)->Arg(2);

void
BM_PolicyEvaluation(benchmark::State &state)
{
    // Evaluate OPT-Hybrid over a populated histogram set: this is the
    // inner loop of every figure sweep.
    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    const auto policy = core::make_opt_hybrid(model);
    auto set = interval::IntervalHistogramSet::with_default_edges(
        policy->thresholds());
    util::Rng rng(6);
    for (int i = 0; i < 100'000; ++i) {
        interval::Interval iv;
        iv.length = rng.next_below(1 << 21);
        iv.ends_in_reuse = rng.next_bool(0.7);
        set.add(iv);
    }
    set.set_run_info(1024, 4'000'000);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::evaluate_policy(*policy, set));
    }
}
BENCHMARK(BM_PolicyEvaluation);

void
BM_PolicyGrid(benchmark::State &state)
{
    // The sweep binaries' inner loop: a policy x population grid
    // evaluated on the pool (state.range(0) = jobs; 1 = serial).
    const core::EnergyModel model(
        power::node_params(power::TechNode::Nm70));
    std::vector<core::PolicyPtr> owned;
    owned.push_back(core::make_opt_drowsy(model));
    owned.push_back(core::make_opt_sleep(model, 10'000));
    owned.push_back(core::make_decay_sleep(model, 10'000));
    owned.push_back(core::make_opt_hybrid(model));
    std::vector<Cycles> thresholds;
    std::vector<const core::Policy *> policies;
    for (const auto &p : owned) {
        for (Cycles t : p->thresholds())
            thresholds.push_back(t);
        policies.push_back(p.get());
    }

    std::vector<interval::IntervalHistogramSet> sets;
    util::Rng rng(7);
    for (int s = 0; s < 6; ++s) {
        sets.push_back(
            interval::IntervalHistogramSet::with_default_edges(thresholds));
        for (int i = 0; i < 50'000; ++i) {
            interval::Interval iv;
            iv.length = rng.next_below(1 << 21);
            iv.ends_in_reuse = rng.next_bool(0.7);
            sets.back().add(iv);
        }
        sets.back().set_run_info(1024, 4'000'000);
    }
    std::vector<const interval::IntervalHistogramSet *> set_ptrs;
    for (const auto &set : sets)
        set_ptrs.push_back(&set);

    const unsigned jobs = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::evaluate_policy_grid(policies, set_ptrs, jobs));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(policies.size() * sets.size()));
}
BENCHMARK(BM_PolicyGrid)->Arg(1)->Arg(4);

void
BM_TraceIoRoundTrip(benchmark::State &state)
{
    // Streaming throughput of the block-buffered trace writer+reader:
    // one iteration writes and reads back a multi-block trace.
    const std::string path =
        (std::filesystem::temp_directory_path() / "lb_microbench_trace.bin")
            .string();
    constexpr std::size_t kRecords = 8 * trace::kBlockRecords;
    util::Rng rng(11);
    std::vector<trace::TimedAccess> records(kRecords);
    for (auto &rec : records) {
        rec.cycle = rng.next_u64();
        rec.pc = rng.next_u64();
        rec.addr = rng.next_u64();
        rec.kind = static_cast<trace::InstrKind>(rng.next_below(3));
    }
    for (auto _ : state) {
        {
            trace::TraceWriter w(path);
            for (const auto &rec : records)
                w.write(rec);
        }
        trace::TraceReader r(path);
        trace::TimedAccess rec;
        std::uint64_t sum = 0;
        while (r.next(rec))
            sum += rec.addr;
        benchmark::DoNotOptimize(sum);
    }
    std::remove(path.c_str());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kRecords));
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<std::int64_t>(2 * kRecords * trace::kTraceRecordBytes));
}
BENCHMARK(BM_TraceIoRoundTrip);

void
BM_ResultSerialize(benchmark::State &state)
{
    // Artifact-cache payload encode+decode for one benchmark result;
    // this bounds the per-entry overhead of a warm suite load.
    static const core::ExperimentResult result = [] {
        core::ExperimentConfig config;
        config.instructions = 100'000;
        config.extra_edges = core::standard_extra_edges();
        auto w = workload::make_benchmark("gzip");
        return core::run_experiment(*w, config);
    }();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::string payload = core::serialize_result(result);
        bytes = payload.size();
        benchmark::DoNotOptimize(core::deserialize_result(payload));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_ResultSerialize);

void
BM_SpanFetch(benchmark::State &state)
{
    // Workload::next_spans alone for one paper benchmark, refilling a
    // batch the way InOrderCore does; items are instructions, so
    // 1e9 / items_per_second is the workload's ns/instr.
    const std::string &name =
        workload::suite_names()[static_cast<std::size_t>(state.range(0))];
    auto w = workload::make_benchmark(name);
    workload::SpanBatch batch;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        batch.clear();
        instructions += w->next_spans(batch, ~std::uint64_t{0});
        benchmark::DoNotOptimize(batch.span[0].pc);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
    state.SetLabel(name);
}
BENCHMARK(BM_SpanFetch)->DenseRange(0, 5);

void
BM_EndToEndPipeline(benchmark::State &state)
{
    // Instructions-per-second of the full workload->core->interval
    // pipeline on gzip.
    core::ExperimentConfig config;
    config.instructions = 200'000;
    config.extra_edges = core::standard_extra_edges();
    for (auto _ : state) {
        auto w = workload::make_benchmark("gzip");
        benchmark::DoNotOptimize(core::run_experiment(*w, config));
    }
    state.SetItemsProcessed(state.iterations() * config.instructions);
}
BENCHMARK(BM_EndToEndPipeline);

} // namespace

BENCHMARK_MAIN();
