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
 * The run loop is a template over the access listener, so the kernel
 * path (core::run_one with a concrete listener type) compiles into one
 * devirtualized routine; the classic AccessListener interface rides on
 * the same loop through a thin adapter, and the multicore interleaver
 * steps it in bounded slices through run_until.  Instruction fetch
 * consumes from a small ring refilled via Workload::next_batch — one
 * virtual call per ring instead of one per µop.
 */

#ifndef LEAKBOUND_CPU_INORDER_CORE_HPP
#define LEAKBOUND_CPU_INORDER_CORE_HPP

#include <algorithm>
#include <array>
#include <cstdint>

#include "sim/hierarchy.hpp"
#include "trace/record.hpp"
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

/**
 * Observer of the core's cache accesses; the experiment glue implements
 * this to drive interval collection and prefetch bookkeeping.
 */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    /** A fetch-group access to L1I at @p cycle for the line of @p pc. */
    virtual void on_instr_access(Cycle cycle, Pc pc,
                                 const sim::HierarchyResult &result) = 0;

    /** A load/store by @p pc to @p addr at @p cycle. */
    virtual void on_data_access(Cycle cycle, Pc pc, Addr addr,
                                bool is_store,
                                const sim::HierarchyResult &result) = 0;
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
 * The timing core.  Construct, then run() once; the final cycle count
 * is the interval analysis' end-of-run timestamp.
 */
class InOrderCore
{
  public:
    /**
     * @param config core parameters (validated; util::StatusError on a
     *        malformed config)
     * @param hierarchy the memory system (not owned)
     * @param source the workload generating instructions (not owned)
     * @param listener optional access observer (not owned)
     */
    InOrderCore(const CoreConfig &config, sim::Hierarchy *hierarchy,
                workload::Workload *source,
                AccessListener *listener = nullptr);

    /** Execute up to @p max_instructions; returns run statistics. */
    CoreRunStats run(std::uint64_t max_instructions);

    /**
     * run() with a concrete (non-virtual) listener: the kernel path.
     * @p L provides on_instr(cycle, pc, result), on_data(cycle, pc,
     * addr, is_store, result) and on_group_end(), all of which inline
     * into the loop.  The op stream, timing, and statistics are
     * byte-identical to run() over an equivalent AccessListener.
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

    /** Current cycle (end-of-run timestamp after run()). */
    Cycle cycle() const { return cycle_; }

  private:
    /** Ops buffered per Workload::next_batch refill. */
    static constexpr std::uint32_t kFetchRing = 64;

    /**
     * Expose the next op without consuming it, or nullptr when the
     * workload is exhausted.  The pointer aims into the fetch ring and
     * stays valid until the next peek — consume() never moves data, so
     * the run loop reads op fields in place instead of copying 24-byte
     * MicroOps through a peek/fetch shuffle.  The ring refills only
     * here, once its leftovers have drained, so a chain of runs
     * consumes the stream in order.
     */
    const trace::MicroOp *
    peek_ptr()
    {
        if (ring_pos_ < ring_len_)
            return &ring_[ring_pos_];
        ring_len_ = static_cast<std::uint32_t>(
            source_->next_batch(ring_.data(), kFetchRing));
        ring_pos_ = 0;
        return ring_len_ != 0 ? &ring_[0] : nullptr;
    }

    /** Consume the op peek_ptr() last returned. */
    void consume() { ++ring_pos_; }

    /**
     * The run loop, shared by every entry point.  @p Bounded compiles
     * run_until's per-group `cycle_ >= limit` test in; the unbounded
     * kernel path (run_with) carries no extra compare.
     */
    template <bool Bounded, typename L>
    CoreRunStats
    run_loop(std::uint64_t max_instructions, Cycle limit, L &listener)
    {
        CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();

        while (stats.instructions < max_instructions) {
            const trace::MicroOp *op = peek_ptr();
            if (!op)
                break; // finite workload exhausted

            // Form the fetch group: sequential PCs within one I-line,
            // up to the fetch width.  A taken branch (PC discontinuity)
            // ends the group, as does a line boundary.
            const Pc group_pc = op->pc;
            const Addr group_line = group_pc >> line_shift;

            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            Pc expected_pc = group_pc;
            for (;;) {
                // `op` is the accepted instruction at `expected_pc`;
                // consume it before processing (the next peek may
                // refill the ring, but only after `op` is done).
                consume();
                ++group_size;
                ++stats.instructions;
                if (op->kind != trace::InstrKind::Op) {
                    const bool is_store =
                        op->kind == trace::InstrKind::Store;
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(op->addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    listener.on_data(cycle_, op->pc, op->addr, is_store,
                                     dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty =
                            std::max(worst_data_penalty,
                                     dres.latency - l1d_hit);
                    }
                }

                if (group_size >= config_.fetch_width ||
                    stats.instructions >= max_instructions) {
                    break;
                }
                expected_pc += config_.instr_bytes;
                const trace::MicroOp *next_op = peek_ptr();
                if (!next_op || next_op->pc != expected_pc ||
                    next_op->pc >> line_shift != group_line) {
                    break;
                }
                op = next_op;
            }

            // One instruction-cache access per fetch group.
            const sim::HierarchyResult ires =
                hierarchy_->access_instr(group_pc);
            listener.on_instr(cycle_, group_pc, ires);
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

            cycle_ += 1 + stall;
            listener.on_group_end();

            if constexpr (Bounded) {
                if (cycle_ >= limit)
                    break;
            }
        }

        stats.cycles = cycle_;
        return stats;
    }

    CoreConfig config_;
    sim::Hierarchy *hierarchy_;
    workload::Workload *source_;
    AccessListener *listener_;
    Cycle cycle_ = 0;

    std::array<trace::MicroOp, kFetchRing> ring_{};
    std::uint32_t ring_pos_ = 0;
    std::uint32_t ring_len_ = 0;
};

} // namespace leakbound::cpu

#endif // LEAKBOUND_CPU_INORDER_CORE_HPP
