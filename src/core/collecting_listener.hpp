/**
 * @file
 * The interval-collecting access listener of run_one's general lane:
 * keep_raw runs and single-core L2 collection.  It classifies each
 * access as it happens, through the virtual AccessListener interface.
 * The kernel lane and every multicore core use core::BatchedObserver
 * instead; the kernel-equivalence fuzzer proves the two
 * byte-identical.
 */

#ifndef LEAKBOUND_CORE_COLLECTING_LISTENER_HPP
#define LEAKBOUND_CORE_COLLECTING_LISTENER_HPP

#include "cpu/inorder_core.hpp"
#include "interval/collector.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"

namespace leakbound::core {

/**
 * Drives the interval collectors and prefetch bookkeeping from the
 * core's access callbacks (see DESIGN.md §5 for the flag semantics).
 */
class CollectingListener final : public cpu::AccessListener
{
  public:
    CollectingListener(const sim::HierarchyConfig &config,
                       interval::IntervalCollector *icollector,
                       interval::IntervalCollector *dcollector,
                       prefetch::StridePredictor *stride,
                       Cycles nl_lead_time)
        : iline_shift_(config.l1i.line_shift()),
          dline_shift_(config.l1d.line_shift()), icollector_(icollector),
          dcollector_(dcollector), stride_(stride), nl_lead_(nl_lead_time)
    {
    }

    void
    on_instr_access(Cycle cycle, Pc pc,
                    const sim::HierarchyResult &result) override
    {
        const Addr block = pc >> iline_shift_;
        bool nl = false;
        Cycle since;
        if (icollector_->open_since(result.l1.frame, since))
            nl = imonitor_.covers(block, since, cycle, nl_lead_);
        icollector_->on_access(result.l1.frame, cycle, result.l1.hit,
                               /*stride_predicted=*/false, nl);
        imonitor_.record(block, cycle);
        on_l2(cycle, result);
    }

    void
    on_data_access(Cycle cycle, Pc pc, Addr addr, bool /*is_store*/,
                   const sim::HierarchyResult &result) override
    {
        const Addr block = addr >> dline_shift_;
        const bool stride_hit = stride_->access(pc, addr);
        bool nl = false;
        Cycle since;
        if (dcollector_->open_since(result.l1.frame, since))
            nl = dmonitor_.covers(block, since, cycle, nl_lead_);
        dcollector_->on_access(result.l1.frame, cycle, result.l1.hit,
                               stride_hit, nl);
        dmonitor_.record(block, cycle);
        on_l2(cycle, result);
    }

    /** Optional L2 observer (extension; no prefetch classification). */
    void
    set_l2_collector(interval::IntervalCollector *collector)
    {
        l2collector_ = collector;
    }

  private:
    void
    on_l2(Cycle cycle, const sim::HierarchyResult &result)
    {
        if (!l2collector_ || result.l1.hit)
            return; // the L2 is only touched on L1 misses
        l2collector_->on_access(result.l2.frame, cycle, result.l2.hit,
                                /*stride_predicted=*/false,
                                /*nl_covered=*/false);
    }

    std::uint32_t iline_shift_;
    std::uint32_t dline_shift_;
    interval::IntervalCollector *icollector_;
    interval::IntervalCollector *dcollector_;
    interval::IntervalCollector *l2collector_ = nullptr;
    prefetch::StridePredictor *stride_;
    Cycles nl_lead_;
    prefetch::NextLineMonitor imonitor_;
    prefetch::NextLineMonitor dmonitor_;
};

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_COLLECTING_LISTENER_HPP
