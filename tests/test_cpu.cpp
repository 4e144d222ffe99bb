/**
 * @file
 * Tests of the in-order timing core: fetch-group formation, one L1I
 * access per group, miss stall accounting with the overlap model,
 * listener callback plumbing, and run_until's cycle-bounded stepping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cpu/inorder_core.hpp"
#include "sim/hierarchy.hpp"
#include "workload/spec_suite.hpp"
#include "workload/workload.hpp"

using namespace leakbound;
using namespace leakbound::cpu;
using trace::InstrKind;
using trace::MicroOp;

namespace {

/** Scripted workload: replays a fixed vector of micro-ops. */
class ScriptedWorkload final : public workload::Workload
{
  public:
    explicit ScriptedWorkload(std::vector<MicroOp> ops)
        : ops_(std::move(ops))
    {
    }

    std::string name() const override { return "scripted"; }

    bool
    next(MicroOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<MicroOp> ops_;
    std::size_t pos_ = 0;
};

/** Records every callback. */
class RecordingListener final : public AccessListener
{
  public:
    struct InstrEvent
    {
        Cycle cycle;
        Pc pc;
        bool hit;
    };
    struct DataEvent
    {
        Cycle cycle;
        Pc pc;
        Addr addr;
        bool is_store;
        bool hit;
    };

    void
    on_instr_access(Cycle cycle, Pc pc,
                    const sim::HierarchyResult &result) override
    {
        instr.push_back({cycle, pc, result.l1.hit});
    }

    void
    on_data_access(Cycle cycle, Pc pc, Addr addr, bool is_store,
                   const sim::HierarchyResult &result) override
    {
        data.push_back({cycle, pc, addr, is_store, result.l1.hit});
    }

    std::vector<InstrEvent> instr;
    std::vector<DataEvent> data;
};

/** Concrete run_with/run_until listener logging every event in order. */
struct EventLog
{
    enum Kind : int { Instr, Load, Store, GroupEnd };
    struct Event
    {
        Cycle cycle;
        Pc pc;
        Addr addr;
        Kind kind;
        FrameId frame;
        bool hit;

        bool operator==(const Event &) const = default;
    };

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        events.push_back(
            {cycle, pc, kInvalidAddr, Instr, result.l1.frame, result.l1.hit});
    }

    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
            const sim::HierarchyResult &result)
    {
        events.push_back({cycle, pc, addr, is_store ? Store : Load,
                          result.l1.frame, result.l1.hit});
    }

    void
    on_group_end()
    {
        events.push_back({0, 0, kInvalidAddr, GroupEnd, kInvalidFrame, false});
    }

    /**
     * Cycle at the end of every fetch group, given the run's end: each
     * group has one L1I event, stamped with its start cycle, and a group
     * ends where the next one starts.
     */
    std::vector<Cycle>
    group_end_cycles(Cycle final_cycle) const
    {
        std::vector<Cycle> ends;
        for (const Event &e : events) {
            if (e.kind != Instr)
                continue;
            if (!ends.empty())
                ends.back() = e.cycle;
            ends.push_back(final_cycle);
        }
        return ends;
    }

    std::vector<Event> events;
};

MicroOp
op_at(Pc pc, InstrKind kind = InstrKind::Op, Addr addr = kInvalidAddr)
{
    MicroOp op;
    op.pc = pc;
    op.kind = kind;
    op.addr = addr;
    return op;
}

/** N sequential non-memory ops starting at pc. */
std::vector<MicroOp>
straight_line(Pc pc, int n)
{
    std::vector<MicroOp> ops;
    for (int i = 0; i < n; ++i)
        ops.push_back(op_at(pc + 4 * i));
    return ops;
}

} // namespace

TEST(InOrderCore, FourWideGroupsOneFetchEach)
{
    // 16 sequential instructions in one cache line -> 4 groups.
    ScriptedWorkload w(straight_line(0x1000, 16));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(1'000'000);

    EXPECT_EQ(stats.instructions, 16u);
    EXPECT_EQ(stats.fetch_groups, 4u);
    EXPECT_EQ(listener.instr.size(), 4u);
    EXPECT_EQ(h.l1i().stats().accesses, 4u);
    // Only the first group misses (cold); the line then stays warm.
    EXPECT_EQ(h.l1i().stats().misses, 1u);
}

TEST(InOrderCore, GroupBreaksAtLineBoundary)
{
    // Two instructions straddling a 64B line boundary cannot share a
    // group even though the PCs are sequential.
    std::vector<MicroOp> ops = {op_at(0x1038), op_at(0x103c),
                                op_at(0x1040), op_at(0x1044)};
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(listener.instr[0].pc, 0x1038u);
    EXPECT_EQ(listener.instr[1].pc, 0x1040u);
}

TEST(InOrderCore, GroupBreaksAtTakenBranch)
{
    // A PC discontinuity (taken branch) ends the group.
    std::vector<MicroOp> ops = {op_at(0x1000), op_at(0x1004),
                                op_at(0x2000), op_at(0x2004)};
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(stats.instructions, 4u);
}

TEST(InOrderCore, CyclesAdvancePerGroupPlusStalls)
{
    // All hits after warmup: 1 cycle per group.
    std::vector<MicroOp> ops = straight_line(0x1000, 8);
    ScriptedWorkload warm(ops);
    sim::HierarchyConfig cfg;
    sim::Hierarchy h{cfg};
    // Pre-warm the caches.
    h.access_instr(0x1000);
    InOrderCore core(CoreConfig{}, &h, &warm, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 2u);
    EXPECT_EQ(stats.cycles, 2u);
    EXPECT_EQ(stats.instr_stall_cycles, 0u);
}

TEST(InOrderCore, MissStallUsesOverlapDiscount)
{
    // Cold fetch: L1I+L2 miss -> memory (100) - 1 = 99 raw penalty,
    // discounted to 50% -> 49-50 cycles of stall (rounding).
    ScriptedWorkload w(straight_line(0x1000, 4));
    sim::HierarchyConfig cfg;
    sim::Hierarchy h{cfg};
    CoreConfig core_cfg;
    core_cfg.miss_overlap_percent = 50;
    InOrderCore core(core_cfg, &h, &w, nullptr);
    const CoreRunStats stats = core.run(100);
    EXPECT_EQ(stats.fetch_groups, 1u);
    const Cycles raw_penalty = cfg.memory_latency - cfg.l1i.hit_latency;
    EXPECT_EQ(stats.cycles, 1 + (raw_penalty * 50 + 50) / 100);

    // Fully blocking configuration charges the whole penalty.
    ScriptedWorkload w2(straight_line(0x9000, 4));
    sim::Hierarchy h2{cfg};
    core_cfg.miss_overlap_percent = 100;
    InOrderCore blocking(core_cfg, &h2, &w2, nullptr);
    EXPECT_EQ(blocking.run(100).cycles, 1 + raw_penalty);
}

TEST(InOrderCore, DataAccessesReachTheL1D)
{
    std::vector<MicroOp> ops = {
        op_at(0x1000, InstrKind::Load, 0x80000),
        op_at(0x1004, InstrKind::Store, 0x80008),
        op_at(0x1008),
    };
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    const CoreRunStats stats = core.run(100);

    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
    ASSERT_EQ(listener.data.size(), 2u);
    EXPECT_FALSE(listener.data[0].is_store);
    EXPECT_TRUE(listener.data[1].is_store);
    EXPECT_EQ(listener.data[1].addr, 0x80008u);
    EXPECT_EQ(h.l1d().stats().accesses, 2u);
    // Same line: first misses, second hits.
    EXPECT_EQ(h.l1d().stats().hits, 1u);
}

TEST(InOrderCore, ZeroFetchWidthIsATypedError)
{
    CoreConfig bad;
    bad.fetch_width = 0;
    const util::Status status = bad.validate();
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.kind(), util::ErrorKind::InvalidArgument);

    // The constructor surfaces the same status as an exception — a
    // malformed request fails its own job instead of aborting.
    ScriptedWorkload w(straight_line(0x1000, 4));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    EXPECT_THROW(InOrderCore(bad, &h, &w, nullptr), util::StatusError);
    EXPECT_TRUE(CoreConfig{}.validate().ok());
}

TEST(InOrderCore, BatchedAndUnbatchedFetchAgree)
{
    // A hooked run fetches unbatched (the analytic fast path takes
    // state signatures between groups); batching only changes when the
    // workload generates ops, never which, so the op stream and all
    // statistics must match a batched run_with.
    const std::uint64_t budget = 20'000;
    auto wa = workload::make_benchmark("gcc");
    auto wb = workload::make_benchmark("gcc");
    sim::Hierarchy ha{sim::HierarchyConfig{}};
    sim::Hierarchy hb{sim::HierarchyConfig{}};
    InOrderCore batched(CoreConfig{}, &ha, wa.get());
    InOrderCore unbatched(CoreConfig{}, &hb, wb.get());
    EventLog log;
    const CoreRunStats a = batched.run_with(budget, log);
    std::uint64_t groups_seen = 0;
    const CoreRunStats b = unbatched.run(
        budget, [&groups_seen](const CoreRunStats &) {
            ++groups_seen;
            return true;
        });
    EXPECT_EQ(a.instructions, budget);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.fetch_groups, b.fetch_groups);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.instr_stall_cycles, b.instr_stall_cycles);
    EXPECT_EQ(a.data_stall_cycles, b.data_stall_cycles);
    EXPECT_GT(groups_seen, 0u);
    EXPECT_EQ(ha.l1i().stats().misses, hb.l1i().stats().misses);
    EXPECT_EQ(ha.l1d().stats().misses, hb.l1d().stats().misses);
    EXPECT_EQ(ha.l2().stats().misses, hb.l2().stats().misses);
}

TEST(InOrderCore, RespectsInstructionBudget)
{
    ScriptedWorkload w(straight_line(0x1000, 100));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(10);
    EXPECT_EQ(stats.instructions, 10u);
}

TEST(InOrderCore, StopsWhenWorkloadEnds)
{
    ScriptedWorkload w(straight_line(0x1000, 5));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w, nullptr);
    const CoreRunStats stats = core.run(1'000'000);
    EXPECT_EQ(stats.instructions, 5u);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(InOrderCore, ListenerSeesMonotoneCycles)
{
    // Interval collection depends on per-frame time-ordering; the
    // core must emit callbacks with non-decreasing cycles.
    std::vector<MicroOp> ops;
    for (int i = 0; i < 64; ++i) {
        ops.push_back(op_at(0x1000 + 4 * i,
                            i % 3 ? InstrKind::Op : InstrKind::Load,
                            i % 3 ? kInvalidAddr : 0x90000 + 64 * i));
    }
    ScriptedWorkload w(ops);
    sim::Hierarchy h{sim::HierarchyConfig{}};
    RecordingListener listener;
    InOrderCore core(CoreConfig{}, &h, &w, &listener);
    core.run(1'000'000);
    Cycle prev = 0;
    for (const auto &e : listener.instr) {
        EXPECT_GE(e.cycle, prev);
        prev = e.cycle;
    }
    prev = 0;
    for (const auto &e : listener.data) {
        EXPECT_GE(e.cycle, prev);
        prev = e.cycle;
    }
}

TEST(InOrderCore, RunUntilAlwaysRunsTheFirstGroup)
{
    // A limit at or below the current cycle still makes progress: one
    // fetch group, then the bound stops the run.
    ScriptedWorkload w(straight_line(0x1000, 16));
    sim::Hierarchy h{sim::HierarchyConfig{}};
    InOrderCore core(CoreConfig{}, &h, &w);
    EventLog log;
    const CoreRunStats first = core.run_until(1'000'000, 0, log);
    EXPECT_EQ(first.fetch_groups, 1u);
    EXPECT_EQ(first.instructions, 4u);

    const Cycle now = core.cycle();
    const CoreRunStats second = core.run_until(1'000'000, now, log);
    EXPECT_EQ(second.fetch_groups, 1u);
    EXPECT_EQ(second.instructions, 4u);
    EXPECT_GT(core.cycle(), now);
}

TEST(InOrderCore, RunUntilStopsAtTheFirstGroupBoundaryPastTheLimit)
{
    // The unbounded run's group-end cycles, cold misses included, are
    // the only places a bounded run may stop: the first one >= limit.
    const std::uint64_t budget = 4'000;
    auto fresh_run = [&](Cycle limit, EventLog &log, Cycle &end) {
        auto w = workload::make_benchmark("gzip");
        sim::Hierarchy h{sim::HierarchyConfig{}};
        InOrderCore core(CoreConfig{}, &h, w.get());
        const CoreRunStats stats = core.run_until(budget, limit, log);
        end = core.cycle();
        return stats;
    };

    EventLog full;
    Cycle full_end = 0;
    const CoreRunStats unbounded =
        fresh_run(InOrderCore::kNoCycleLimit, full, full_end);
    ASSERT_EQ(unbounded.instructions, budget);
    const std::vector<Cycle> ends = full.group_end_cycles(full_end);
    ASSERT_EQ(ends.size(), unbounded.fetch_groups);

    // Limits between boundaries, and limits exactly on one (which must
    // stop there, not one group later).
    const std::vector<Cycle> limits = {
        1, 2, 500, 1'234, ends[ends.size() / 3], ends[ends.size() / 2] + 1,
        full_end};
    for (const Cycle limit : limits) {
        const auto stop = std::lower_bound(ends.begin(), ends.end(), limit);
        ASSERT_NE(stop, ends.end()) << limit;
        EventLog log;
        Cycle end = 0;
        const CoreRunStats stats = fresh_run(limit, log, end);
        EXPECT_EQ(end, *stop) << limit;
        EXPECT_EQ(stats.cycles, *stop) << limit;
        EXPECT_EQ(stats.fetch_groups,
                  static_cast<std::uint64_t>(stop - ends.begin()) + 1)
            << limit;
        EXPECT_GE(end, limit);
    }
}

TEST(InOrderCore, BoundedChainReproducesOneUnboundedRun)
{
    // Bounded calls with batched fetch leave ops buffered in the fetch
    // ring between calls; the chain must still see exactly the stream,
    // events, statistics and final cycle of one unbounded run_with.
    const std::uint64_t budget = 20'000;

    auto w1 = workload::make_benchmark("gcc");
    sim::Hierarchy h1{sim::HierarchyConfig{}};
    InOrderCore whole(CoreConfig{}, &h1, w1.get());
    EventLog whole_log;
    const CoreRunStats expected = whole.run_with(budget, whole_log);

    auto w2 = workload::make_benchmark("gcc");
    sim::Hierarchy h2{sim::HierarchyConfig{}};
    InOrderCore chained(CoreConfig{}, &h2, w2.get());
    EventLog chain_log;
    CoreRunStats sum;
    std::uint64_t calls = 0;
    // Step sizes cycle through 0 (one group), 1, and longer slices.
    const Cycles steps[] = {0, 1, 3, 17, 64, 250};
    while (sum.instructions < budget) {
        const Cycle limit = chained.cycle() + steps[calls % 6];
        const CoreRunStats delta =
            chained.run_until(budget - sum.instructions, limit, chain_log);
        ASSERT_GT(delta.instructions, 0u);
        sum.instructions += delta.instructions;
        sum.fetch_groups += delta.fetch_groups;
        sum.loads += delta.loads;
        sum.stores += delta.stores;
        sum.instr_stall_cycles += delta.instr_stall_cycles;
        sum.data_stall_cycles += delta.data_stall_cycles;
        sum.cycles = delta.cycles;
        ++calls;
    }
    EXPECT_GT(calls, 100u);

    EXPECT_EQ(sum.instructions, expected.instructions);
    EXPECT_EQ(sum.cycles, expected.cycles);
    EXPECT_EQ(chained.cycle(), whole.cycle());
    EXPECT_EQ(sum.fetch_groups, expected.fetch_groups);
    EXPECT_EQ(sum.loads, expected.loads);
    EXPECT_EQ(sum.stores, expected.stores);
    EXPECT_EQ(sum.instr_stall_cycles, expected.instr_stall_cycles);
    EXPECT_EQ(sum.data_stall_cycles, expected.data_stall_cycles);
    ASSERT_EQ(chain_log.events.size(), whole_log.events.size());
    EXPECT_TRUE(chain_log.events == whole_log.events);
}
