/**
 * @file
 * The per-layer ledger of single-core simulation (see ledger.hpp).
 */

#include "ledger.hpp"

#include <array>
#include <filesystem>
#include <limits>
#include <optional>

#include "core/artifact_cache.hpp"
#include "cpu/inorder_core.hpp"
#include "interval/collector.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"
#include "workload/spec_suite.hpp"

namespace leakbench {

using namespace leakbound;

namespace {

/** Stage 1: the core and hierarchy with nobody listening. */
struct NoopListener
{
    void on_instr(Cycle, Pc, const sim::HierarchyResult &) {}
    void on_data(Cycle, Pc, Addr, bool, const sim::HierarchyResult &) {}
    void on_group_end() {}
};

/** Set-up: record every hierarchy access in issue order. */
struct CaptureListener
{
    std::vector<std::uint64_t> *out;

    void
    on_instr(Cycle, Pc pc, const sim::HierarchyResult &)
    {
        out->push_back(pc << 1 | 1);
    }
    void
    on_data(Cycle, Pc, Addr addr, bool, const sim::HierarchyResult &)
    {
        out->push_back(addr << 1);
    }
    void on_group_end() {}
};

/** Stage 2: interval collection on both L1s, no prefetch monitors. */
struct CollectListener
{
    interval::IntervalCollector *icollector;
    interval::IntervalCollector *dcollector;

    void
    on_instr(Cycle cycle, Pc, const sim::HierarchyResult &r)
    {
        icollector->on_access(r.l1.frame, cycle, r.l1.hit, false, false);
    }
    void
    on_data(Cycle cycle, Pc, Addr, bool, const sim::HierarchyResult &r)
    {
        dcollector->on_access(r.l1.frame, cycle, r.l1.hit, false, false);
    }
    void on_group_end() {}
};

/**
 * Stage 3: the full collection semantics of run_experiment's listener
 * (next-line coverage on both L1s, stride prediction on the L1D),
 * written against the public collector and monitor APIs.
 */
struct FullListener
{
    interval::IntervalCollector *icollector;
    interval::IntervalCollector *dcollector;
    prefetch::StridePredictor *stride;
    prefetch::NextLineMonitor *imonitor;
    prefetch::NextLineMonitor *dmonitor;
    std::uint32_t ishift;
    std::uint32_t dshift;
    std::uint32_t dline;
    Cycles lead;

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &r)
    {
        const Addr block = pc >> ishift;
        bool nl = false;
        Cycle since = 0;
        if (icollector->open_since(r.l1.frame, since))
            nl = imonitor->covers(block, since, cycle, lead);
        icollector->on_access(r.l1.frame, cycle, r.l1.hit, false, nl);
        imonitor->record(block, cycle);
    }
    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool,
            const sim::HierarchyResult &r)
    {
        const Addr block = addr >> dshift;
        const bool stride_hit = stride->access(pc, addr, dline);
        bool nl = false;
        Cycle since = 0;
        if (dcollector->open_since(r.l1.frame, since))
            nl = dmonitor->covers(block, since, cycle, lead);
        dcollector->on_access(r.l1.frame, cycle, r.l1.hit, stride_hit, nl);
        dmonitor->record(block, cycle);
    }
    void on_group_end() {}
};

std::vector<std::uint64_t>
stats_vector(const sim::Hierarchy &h)
{
    return {h.l1i().stats().accesses, h.l1i().stats().misses,
            h.l1d().stats().accesses, h.l1d().stats().misses,
            h.l2().stats().accesses,  h.l2().stats().misses};
}

/** Time @p fn under a span; returns ns. */
template <typename F>
double
timed(Tracer &tracer, const char *name, std::int64_t parent,
      std::uint64_t trace_id, F &&fn)
{
    ScopedSpan span(tracer, name, parent, trace_id);
    const auto begun = Clock::now();
    fn();
    return seconds_since(begun) * 1e9;
}

} // namespace

Ledger::Ledger(std::vector<std::string> benchmarks,
               core::ExperimentConfig config)
    : benchmarks_(std::move(benchmarks)), config_(std::move(config))
{
    for (const std::string &name : benchmarks_) {
        auto w = workload::make_benchmark(name);
        sim::Hierarchy hierarchy(config_.hierarchy);
        std::vector<std::uint64_t> stream;
        stream.reserve(config_.instructions + config_.instructions / 2);
        CaptureListener capture{&stream};
        cpu::InOrderCore core(config_.core, &hierarchy, w.get());
        (void)core.run_with(config_.instructions, capture);
        accesses_ += stream.size();
        streams_.push_back(std::move(stream));
        capture_stats_.push_back(stats_vector(hierarchy));
    }
}

LedgerRound
Ledger::round(std::uint64_t id, Tracer &tracer, Outcome &outcome,
              CpuPlacement &placement)
{
    const core::ExperimentConfig &config = config_;
    const std::uint32_t ishift = config.hierarchy.l1i.line_shift();
    const std::uint32_t dshift = config.hierarchy.l1d.line_shift();
    const std::uint32_t dline = config.hierarchy.l1d.line_bytes;
    const bool check = !checked_;
    checked_ = true;

    LedgerRound round;
    ScopedSpan round_span(tracer, "ledger.round", -1, id);
    for (std::size_t b = 0; b < benchmarks_.size(); ++b) {
        const std::string &name = benchmarks_[b];
        ScopedSpan bench_span(tracer, "ledger.benchmark", round_span.id(), id);
        const std::int64_t parent = bench_span.id();
        std::array<double, 6> &t = round.benchmark.emplace_back();
        placement.place_on_quietest();

        auto w0 = workload::make_benchmark(name);
        t[0] = timed(tracer, "ledger.stage0.workload", parent, id,
                     [&] {
            std::array<trace::MicroOp, 64> ops;
            std::uint64_t got = 0;
            while (got < config.instructions) {
                const std::size_t n = w0->next_batch(ops.data(), ops.size());
                if (n == 0)
                    break;
                got += n;
                sink_ += ops[n - 1].pc;
            }
        });

        auto w1 = workload::make_benchmark(name);
        t[1] = timed(tracer, "ledger.stage1.cpu_sim", parent, id,
                     [&] {
            sim::Hierarchy hierarchy(config.hierarchy);
            cpu::InOrderCore core(config.core, &hierarchy, w1.get());
            NoopListener noop;
            sink_ += core.run_with(config.instructions, noop).cycles;
        });

        std::vector<std::uint64_t> replayed;
        t[5] = timed(tracer, "ledger.sim_replay", parent, id, [&] {
            sim::Hierarchy hierarchy(config.hierarchy);
            for (std::uint64_t a : streams_[b]) {
                const sim::HierarchyResult res =
                    (a & 1) ? hierarchy.access_instr(a >> 1)
                            : hierarchy.access_data(a >> 1);
                sink_ += res.latency;
            }
            replayed = stats_vector(hierarchy);
        });

        auto w2 = workload::make_benchmark(name);
        t[2] = timed(tracer, "ledger.stage2.interval", parent, id,
                     [&] {
            const auto edges =
                interval::IntervalHistogramSet::default_edges(
                    config.extra_edges);
            sim::Hierarchy hierarchy(config.hierarchy);
            interval::IntervalHistogramSet iset(edges), dset(edges);
            interval::IntervalCollector ic(hierarchy.l1i().num_frames(),
                                           &iset);
            interval::IntervalCollector dc(hierarchy.l1d().num_frames(),
                                           &dset);
            CollectListener listener{&ic, &dc};
            cpu::InOrderCore core(config.core, &hierarchy, w2.get());
            const auto stats = core.run_with(config.instructions, listener);
            ic.finalize(stats.cycles);
            dc.finalize(stats.cycles);
            sink_ += iset.total_intervals();
        });

        auto w3 = workload::make_benchmark(name);
        std::optional<core::ExperimentResult> staged;
        t[3] = timed(tracer, "ledger.stage3.prefetch", parent, id,
                     [&] {
            const auto edges =
                interval::IntervalHistogramSet::default_edges(
                    config.extra_edges);
            sim::Hierarchy hierarchy(config.hierarchy);
            core::ExperimentResult result{
                core::CacheObservation(interval::IntervalHistogramSet(edges)),
                core::CacheObservation(interval::IntervalHistogramSet(edges))};
            result.workload = w3->name();
            interval::IntervalCollector ic(hierarchy.l1i().num_frames(),
                                           &result.icache.intervals);
            interval::IntervalCollector dc(hierarchy.l1d().num_frames(),
                                           &result.dcache.intervals);
            prefetch::StridePredictor stride(config.stride);
            prefetch::NextLineMonitor imon, dmon;
            FullListener listener{&ic,    &dc,    &stride,
                                  &imon,  &dmon,  ishift,
                                  dshift, dline,  config.nl_lead_time};
            cpu::InOrderCore core(config.core, &hierarchy, w3.get());
            result.core = core.run_with(config.instructions, listener);
            ic.finalize(result.core.cycles);
            dc.finalize(result.core.cycles);
            result.icache.stats = hierarchy.l1i().stats();
            result.dcache.stats = hierarchy.l1d().stats();
            result.l2 = hierarchy.l2().stats();
            staged.emplace(std::move(result));
        });

        auto w4 = workload::make_benchmark(name);
        std::optional<core::ExperimentResult> real;
        t[4] = timed(tracer, "ledger.stage4.run_experiment", parent, id,
                     [&] {
            real.emplace(core::run_experiment(*w4, config));
        });

        if (check) {
            instructions_ += real->core.instructions;
            outcome.record(replayed == capture_stats_[b],
                           "ledger: replayed access stream of " + name +
                               " does not reproduce the captured cache "
                               "statistics");
            outcome.record(result_digest(*staged) == result_digest(*real),
                           "ledger: staged simulation of " + name +
                               " is not byte-identical to run_experiment");
        }
    }
    return round;
}

std::vector<LedgerRound>
Ledger::rounds(double seconds, Tracer &tracer, Outcome &outcome,
               CpuPlacement &placement)
{
    std::vector<LedgerRound> out;
    const auto begun = Clock::now();
    while (out.size() < 3 || seconds_since(begun) < seconds)
        out.push_back(round(out.size(), tracer, outcome, placement));
    return out;
}

Metrics
Ledger::summarize(const std::vector<LedgerRound> &rounds) const
{
    double fastest[6] = {0, 0, 0, 0, 0, 0};
    for (std::size_t b = 0; b < benchmarks_.size(); ++b)
        for (std::size_t k = 0; k < 6; ++k) {
            std::vector<double> v;
            for (const LedgerRound &round : rounds)
                v.push_back(round.benchmark[b][k]);
            fastest[k] += minimum(v);
        }
    const double s0 = fastest[0], s1 = fastest[1], s2 = fastest[2];
    const double s3 = fastest[3], s4 = fastest[4], replay = fastest[5];

    const double instr = static_cast<double>(instructions_);
    const double acc = static_cast<double>(accesses_);
    Metrics m;
    m["workload.ns_per_instr"] = {s0 / instr, "ns"};
    m["cpu.ns_per_instr"] = {(s1 - s0 - replay) / instr, "ns"};
    m["sim.ns_per_access"] = {replay / acc, "ns"};
    m["interval.ns_per_access"] = {(s2 - s1) / acc, "ns"};
    m["prefetch.ns_per_access"] = {(s3 - s2) / acc, "ns"};
    m["core.listener_ns_per_instr"] = {(s4 - s3) / instr, "ns"};
    // The layers telescope back to stage 4; summing them (rather than
    // reading s4) keeps the identity visible in the report.
    const double sum =
        m["workload.ns_per_instr"].value + m["cpu.ns_per_instr"].value +
        (m["sim.ns_per_access"].value + m["interval.ns_per_access"].value +
         m["prefetch.ns_per_access"].value) *
            acc / instr +
        m["core.listener_ns_per_instr"].value;
    m["ledger.layer_sum_ns_per_instr"] = {sum, "ns"};
    return m;
}

Metrics
count_metrics(const std::vector<const core::ExperimentResult *> &results)
{
    std::uint64_t instr = 0, cycles = 0, groups = 0, stalls = 0;
    std::uint64_t l1i_acc = 0, l1i_miss = 0, l1d_acc = 0, l1d_miss = 0;
    std::uint64_t l2_acc = 0, l2_miss = 0, intervals = 0;
    std::uint64_t inner = 0, nl = 0, dinner = 0, stride = 0;
    constexpr Cycles kAll = std::numeric_limits<Cycles>::max();
    for (const core::ExperimentResult *r : results) {
        instr += r->core.instructions;
        cycles += r->core.cycles;
        groups += r->core.fetch_groups;
        stalls += r->core.instr_stall_cycles + r->core.data_stall_cycles;
        l1i_acc += r->icache.stats.accesses;
        l1i_miss += r->icache.stats.misses;
        l1d_acc += r->dcache.stats.accesses;
        l1d_miss += r->dcache.stats.misses;
        l2_acc += r->l2.accesses;
        l2_miss += r->l2.misses;
        intervals += r->icache.intervals.total_intervals() +
                     r->dcache.intervals.total_intervals();
        if (r->l2cache)
            intervals += r->l2cache->intervals.total_intervals();
        inner += r->icache.intervals.total_inner_intervals() +
                 r->dcache.intervals.total_inner_intervals();
        nl += r->icache.intervals.inner_count_in(
                  interval::PrefetchClass::NextLine, 0, kAll) +
              r->dcache.intervals.inner_count_in(
                  interval::PrefetchClass::NextLine, 0, kAll);
        dinner += r->dcache.intervals.total_inner_intervals();
        stride += r->dcache.intervals.inner_count_in(
            interval::PrefetchClass::Stride, 0, kAll);
    }
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    Metrics m;
    m["cpu.fetch_groups"] = {static_cast<double>(groups), "count"};
    m["cpu.ipc"] = {ratio(instr, cycles), "instr/cycle"};
    m["cpu.stall_cycles_per_kinstr"] = {1000.0 * ratio(stalls, instr),
                                        "cycles"};
    m["sim.l1i.miss_rate"] = {ratio(l1i_miss, l1i_acc), "ratio"};
    m["sim.l1d.miss_rate"] = {ratio(l1d_miss, l1d_acc), "ratio"};
    m["sim.l2.miss_rate"] = {ratio(l2_miss, l2_acc), "ratio"};
    m["sim.l2.accesses"] = {static_cast<double>(l2_acc), "count"};
    m["interval.intervals"] = {static_cast<double>(intervals), "count"};
    m["prefetch.nl_covered_frac"] = {ratio(nl, inner), "ratio"};
    m["prefetch.stride_covered_frac"] = {ratio(stride, dinner), "ratio"};
    return m;
}

Metrics
artifact_cache_metrics(
    const std::vector<const core::ExperimentResult *> &results,
    const core::ExperimentConfig &config, const std::string &dir,
    Tracer &tracer, Outcome &outcome)
{
    constexpr int kRounds = 3;
    std::vector<double> store_ms, load_ms;
    double entry_kb = 0.0;
    bool identical = true;
    for (int round = 0; round < kRounds; ++round) {
        const std::string root = dir + "/round" + std::to_string(round);
        std::filesystem::remove_all(root);
        core::ArtifactCache cache(root);
        for (const core::ExperimentResult *result : results) {
            const std::uint64_t key =
                core::fingerprint_experiment(result->workload, config);
            auto begun = Clock::now();
            util::Status stored;
            {
                ScopedSpan span(tracer, "artifact_cache.store", -1, key);
                stored = cache.store(key, *result);
            }
            store_ms.push_back(seconds_since(begun) * 1e3);
            begun = Clock::now();
            std::optional<core::ExperimentResult> loaded;
            {
                ScopedSpan span(tracer, "artifact_cache.load", -1, key);
                loaded = cache.try_load(key);
            }
            load_ms.push_back(seconds_since(begun) * 1e3);
            identical = identical && stored.ok() && loaded &&
                        result_digest(*loaded) == result_digest(*result);
            std::error_code ec;
            entry_kb = static_cast<double>(std::filesystem::file_size(
                           cache.entry_path(key), ec)) /
                       1024.0;
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    outcome.record(identical, "artifact cache: a stored result did not "
                              "reload byte-identically");
    Metrics m;
    m["artifact_cache.store_ms"] = {median(store_ms), "ms"};
    m["artifact_cache.load_ms"] = {median(load_ms), "ms"};
    m["artifact_cache.entry_kb"] = {entry_kb, "KiB"};
    return m;
}

} // namespace leakbench
