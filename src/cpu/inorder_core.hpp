/**
 * @file
 * Four-wide in-order timing core (the SimpleScalar/Alpha-21264
 * substitute; DESIGN.md §3).
 *
 * Each cycle the core fetches up to `fetch_width` sequential
 * instructions from a single instruction cache line (one L1I access
 * per fetch group), issues the group's loads/stores to the L1D, and
 * advances time by one cycle plus any miss penalties.  This produces
 * the cycle-stamped per-frame access streams the interval analysis
 * consumes; the limit study needs relative access timing, not precise
 * out-of-order overlap.
 *
 * The run loop is a template over the access listener, so each
 * listener type (core::BatchedObserver for a lone core, the multicore
 * engine's node listener, a test's recorder) compiles into one
 * devirtualized routine: run_with runs it to the budget, and the
 * multicore interleaver steps it in bounded slices through run_until.
 *
 * Instruction fetch reads spans (Workload::next_spans): straight-line
 * runs plus their loads and stores, refilled one batch per virtual
 * call.  A fetch group's extent is arithmetic — the fetch width, the
 * distance to the end of the I-line, the remaining budget — and only
 * memory ops are visited one at a time.  A group continues into the
 * next span only when that span starts where the group's next
 * instruction would (group_pc + size * instr_bytes) on the same
 * I-line, which is the per-op rule; inside a span it continues only
 * when instr_bytes equals the span step, otherwise a span yields one
 * instruction per group, as the per-op rule would.
 */

#ifndef LEAKBOUND_CPU_INORDER_CORE_HPP
#define LEAKBOUND_CPU_INORDER_CORE_HPP

#include <algorithm>
#include <cstdint>

#include "sim/hierarchy.hpp"
#include "util/status.hpp"
#include "workload/workload.hpp"

namespace leakbound::cpu {

/** Core parameters. */
struct CoreConfig
{
    std::uint32_t fetch_width = 4; ///< instructions per fetch group
    std::uint32_t instr_bytes = 4; ///< fixed-width Alpha-style encoding
    /**
     * Fraction (percent) of the worst miss penalty in a fetch group
     * that actually stalls the core.  Approximates the out-of-order
     * 21264's ability to overlap misses with useful work and with each
     * other: misses within a group fully overlap (max, not sum), and
     * the remainder is discounted by this factor.  100 = fully
     * blocking, 0 = misses are free.
     */
    std::uint32_t miss_overlap_percent = 50;

    /**
     * Check invariants; InvalidArgument when fetch_width is zero.
     * InOrderCore's constructor throws util::StatusError on a bad
     * config, so a malformed request fails its own job instead of
     * killing the process.
     */
    util::Status validate() const;
};

/** Statistics of one core run. */
struct CoreRunStats
{
    std::uint64_t instructions = 0;
    Cycles cycles = 0;
    std::uint64_t fetch_groups = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    Cycles instr_stall_cycles = 0; ///< cycles lost to L1I misses
    Cycles data_stall_cycles = 0;  ///< cycles lost to L1D misses

    /** Instructions per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * The timing core.  Construct, then run_with() once or run_until() in
 * a chain; the final cycle count is the interval analysis' end-of-run
 * timestamp.
 */
class InOrderCore
{
  public:
    /**
     * @param config core parameters (validated; util::StatusError on a
     *        malformed config)
     * @param hierarchy the memory system (not owned)
     * @param source the workload generating instructions (not owned)
     */
    InOrderCore(const CoreConfig &config, sim::Hierarchy *hierarchy,
                workload::Workload *source);

    /**
     * Execute up to @p max_instructions, telling @p listener of every
     * access; returns run statistics.  @p L provides on_instr(cycle,
     * pc, result), called once per fetch group for its L1I access, and
     * on_data(cycle, pc, addr, is_store, result), once per load or
     * store; both inline into the loop.
     */
    template <typename L>
    CoreRunStats
    run_with(std::uint64_t max_instructions, L &listener)
    {
        return run_loop<false>(max_instructions, kNoCycleLimit, listener);
    }

    /** The cycle bound under which run_until never stops early. */
    static constexpr Cycle kNoCycleLimit = ~Cycle{0};

    /**
     * run_with() bounded in simulated time: the run also stops at the
     * first fetch-group boundary where cycle() >= @p limit.  The first
     * group always runs, even when @p limit <= cycle(), so every call
     * makes progress.  The stream position is preserved, so a chain of
     * bounded calls is byte-identical to one unbounded run_with: same
     * op stream, listener events, statistics and final cycle.  This is
     * the multicore interleaver's step.
     */
    template <typename L>
    CoreRunStats
    run_until(std::uint64_t max_instructions, Cycle limit, L &listener)
    {
        return run_loop<true>(max_instructions, limit, listener);
    }

    /** Current cycle (end-of-run timestamp after run_with()). */
    Cycle cycle() const { return cycle_; }

  private:
    /**
     * Where fetch stands in batch_: the current span, the instructions
     * of it already fetched, the next memory op, and one past the
     * current span's last memory op.  span == batch_.spans means the
     * batch is drained; otherwise the current span has instructions
     * left.
     */
    struct FetchCursor
    {
        std::uint32_t span = 0;
        std::uint32_t pos = 0;
        std::uint32_t mem = 0;
        std::uint32_t mem_end = 0;
    };

    /**
     * Refill the drained batch with at most @p budget instructions;
     * false when the workload is exhausted.  The batch refills only
     * once its leftovers are fetched, so a chain of runs consumes the
     * stream in order.
     */
    bool
    refill(FetchCursor &at, std::uint64_t budget)
    {
        batch_.clear();
        source_->next_spans(batch_, budget);
        at = FetchCursor{};
        if (batch_.spans == 0)
            return false;
        at.mem_end = batch_.span[0].mems;
        return true;
    }

    /**
     * The run loop, shared by both entry points.  @p Bounded compiles
     * run_until's per-group `cycle >= limit` test in; the unbounded
     * run_with carries no extra compare.
     */
    template <bool Bounded, typename L>
    CoreRunStats
    run_loop(std::uint64_t max_instructions, Cycle limit, L &listener)
    {
        using workload::kInstrBytes;
        using workload::SpanBatch;

        CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();
        const std::uint32_t width = config_.fetch_width;
        const Pc instr_bytes = config_.instr_bytes;
        // The most a group takes from one span: the fetch width when
        // instructions are as long as the span step; otherwise one,
        // since the span's next instruction is then not where the
        // group's next instruction would be.
        const std::uint32_t span_width =
            instr_bytes == kInstrBytes ? width : 1;

        // The cursor and the clock live in locals for the whole run, so
        // hierarchy and listener calls cannot force them back to memory.
        FetchCursor at = cursor_;
        Cycle cycle = cycle_;
        std::uint64_t left = max_instructions;
        while (left != 0) {
            if (at.span == batch_.spans && !refill(at, left))
                break; // finite workload exhausted

            // Form the fetch group: sequential PCs within one I-line,
            // up to the fetch width.  A taken branch (PC discontinuity)
            // ends the group, as does a line boundary.
            const workload::Span *span = &batch_.span[at.span];
            const Pc group_pc = span->pc + Pc{at.pos} * kInstrBytes;
            const Addr group_line = group_pc >> line_shift;
            const Pc line_end = (group_line + 1) << line_shift;

            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            for (;;) {
                // Take what the group may from this span: bounded by
                // the span, the width, the line and the budget.
                const Pc pc = span->pc + Pc{at.pos} * kInstrBytes;
                std::uint64_t take = std::min(
                    span->instrs - at.pos,
                    std::min(span_width, width - group_size));
                take = std::min(
                    take, (line_end - pc + kInstrBytes - 1) / kInstrBytes);
                take = std::min(take, left);
                const auto end = static_cast<std::uint32_t>(at.pos + take);

                for (; at.mem < at.mem_end; ++at.mem) {
                    const std::uint32_t slot = batch_.mem_slot[at.mem];
                    if (SpanBatch::offset(slot) >= end)
                        break;
                    const Addr addr = batch_.mem_addr[at.mem];
                    const bool is_store = SpanBatch::is_store(slot);
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    listener.on_data(
                        cycle,
                        span->pc + Pc{SpanBatch::offset(slot)} * kInstrBytes,
                        addr, is_store, dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty =
                            std::max(worst_data_penalty,
                                     dres.latency - l1d_hit);
                    }
                }
                group_size += static_cast<std::uint32_t>(take);
                left -= take;
                at.pos = end;

                // Stopping inside the span ends the group: the width,
                // the line, the budget or the step stopped it.
                if (at.pos != span->instrs)
                    break;
                if (++at.span != batch_.spans) {
                    at.pos = 0;
                    at.mem_end += batch_.span[at.span].mems;
                }
                if (group_size == width || left == 0)
                    break;
                if (at.span == batch_.spans && !refill(at, left))
                    break;
                span = &batch_.span[at.span];
                if (span->pc != group_pc + group_size * instr_bytes ||
                    span->pc >> line_shift != group_line) {
                    break;
                }
            }
            stats.instructions += group_size;

            // One instruction-cache access per fetch group.
            const sim::HierarchyResult ires =
                hierarchy_->access_instr(group_pc);
            listener.on_instr(cycle, group_pc, ires);
            const Cycles instr_penalty =
                ires.latency > l1i_hit ? ires.latency - l1i_hit : 0;

            // Misses within the group overlap with each other (take the
            // max) and partially with downstream work (the discount);
            // see CoreConfig::miss_overlap_percent.
            const Cycles worst =
                std::max(instr_penalty, worst_data_penalty);
            const Cycles stall =
                (worst * config_.miss_overlap_percent + 50) / 100;

            ++stats.fetch_groups;
            if (worst == instr_penalty)
                stats.instr_stall_cycles += stall;
            else
                stats.data_stall_cycles += stall;

            cycle += 1 + stall;

            if constexpr (Bounded) {
                if (cycle >= limit)
                    break;
            }
        }
        cursor_ = at;
        cycle_ = cycle;

        stats.cycles = cycle;
        return stats;
    }

    CoreConfig config_;
    sim::Hierarchy *hierarchy_;
    workload::Workload *source_;
    Cycle cycle_ = 0;

    workload::SpanBatch batch_;
    FetchCursor cursor_;
};

} // namespace leakbound::cpu

#endif // LEAKBOUND_CPU_INORDER_CORE_HPP
