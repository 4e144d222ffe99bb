/**
 * @file
 * The per-op oracle for cpu::InOrderCore's fetch: the run loop as it
 * was before span fetch, reading one µop at a time through
 * Workload::next() and testing every next op for PC continuity, the
 * I-line and the fetch width.
 *
 * InOrderCore must agree with it on every listener event, every
 * statistic and the final cycle, through chains of bounded runs
 * (test_kernel_equivalence).
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_CORE_HPP
#define LEAKBOUND_TESTS_REFERENCE_CORE_HPP

#include <algorithm>
#include <cstdint>

#include "cpu/inorder_core.hpp"
#include "sim/hierarchy.hpp"
#include "trace/record.hpp"
#include "workload/workload.hpp"

namespace leakbound::oracle {

class ReferenceCore
{
  public:
    ReferenceCore(const cpu::CoreConfig &config, sim::Hierarchy *hierarchy,
                  workload::Workload *source)
        : config_(config), hierarchy_(hierarchy), source_(source)
    {
    }

    /** InOrderCore::run_until, one op at a time. */
    template <typename L>
    cpu::CoreRunStats
    run_until(std::uint64_t max_instructions, Cycle limit, L &listener)
    {
        cpu::CoreRunStats stats;
        const Cycles l1i_hit = hierarchy_->config().l1i.hit_latency;
        const Cycles l1d_hit = hierarchy_->config().l1d.hit_latency;
        const std::uint32_t line_shift =
            hierarchy_->config().l1i.line_shift();

        while (stats.instructions < max_instructions) {
            const trace::MicroOp *op = peek();
            if (!op)
                break;
            const Pc group_pc = op->pc;
            const Addr group_line = group_pc >> line_shift;

            Cycles worst_data_penalty = 0;
            std::uint32_t group_size = 0;
            Pc expected_pc = group_pc;
            for (;;) {
                const trace::MicroOp cur = *op;
                has_pending_ = false;
                ++group_size;
                ++stats.instructions;
                if (cur.kind != trace::InstrKind::Op) {
                    const bool is_store = cur.kind == trace::InstrKind::Store;
                    const sim::HierarchyResult dres =
                        hierarchy_->access_data(cur.addr);
                    if (is_store)
                        ++stats.stores;
                    else
                        ++stats.loads;
                    listener.on_data(cycle_, cur.pc, cur.addr, is_store, dres);
                    if (dres.latency > l1d_hit) {
                        worst_data_penalty = std::max(
                            worst_data_penalty, dres.latency - l1d_hit);
                    }
                }
                if (group_size >= config_.fetch_width ||
                    stats.instructions >= max_instructions) {
                    break;
                }
                expected_pc += workload::kInstrBytes;
                op = peek();
                if (!op || op->pc != expected_pc ||
                    op->pc >> line_shift != group_line) {
                    break;
                }
            }

            const sim::HierarchyResult ires =
                hierarchy_->access_instr(group_pc);
            listener.on_instr(cycle_, group_pc, ires);
            const Cycles instr_penalty =
                ires.latency > l1i_hit ? ires.latency - l1i_hit : 0;
            const Cycles worst = std::max(instr_penalty, worst_data_penalty);
            const Cycles stall =
                (worst * config_.miss_overlap_percent + 50) / 100;
            ++stats.fetch_groups;
            if (worst == instr_penalty)
                stats.instr_stall_cycles += stall;
            else
                stats.data_stall_cycles += stall;
            cycle_ += 1 + stall;
            if (cycle_ >= limit)
                break;
        }
        stats.cycles = cycle_;
        return stats;
    }

    Cycle cycle() const { return cycle_; }

  private:
    /** The next op, held until consumed; nullptr when exhausted. */
    const trace::MicroOp *
    peek()
    {
        if (!has_pending_)
            has_pending_ = source_->next(pending_);
        return has_pending_ ? &pending_ : nullptr;
    }

    cpu::CoreConfig config_;
    sim::Hierarchy *hierarchy_;
    workload::Workload *source_;
    Cycle cycle_ = 0;
    trace::MicroOp pending_;
    bool has_pending_ = false;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_CORE_HPP
