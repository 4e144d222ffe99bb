/**
 * @file
 * The simulation kernel's one access observer: every core of every run
 * (src/multicore, single-core runs included) logs through it.
 *
 * While the core runs, the observer only appends what it was told to
 * one of two per-side logs: an I-record (cycle, block, frame, hit) per
 * fetch-line run, that is per fetch group of a line other than the
 * previous group's, with the cycles of the run's further groups in a
 * repeat buffer; and a D-record (cycle, pc, addr, frame, hit) per load
 * or store, or an invalidation record when a remote store kills one of
 * this core's L1D copies.  When a side's log or the repeat buffer
 * fills, and before anyone reads results (flush()), it classifies that
 * side's records in order: open_since -> next-line covers -> collector
 * on_access -> next-line record, plus the stride predictor on the D
 * side.
 *
 * An access to the line its side touched last (a repeat fetch of the
 * run's line, a data access to the previous D-record's block) skips
 * open_since and covers.  Between two such accesses nothing else
 * touches that side's collector or monitor, so it is a sure L1 hit on
 * the same frame, and the interval it closes opened at the previous
 * access, after any access to block-1: covers would return false.  A
 * run records its block in the monitor once, at its last cycle; the
 * stamps it overwrites would never have been read.  An invalidation
 * record ends a D-side run.
 *
 * Deferring classification is exact.  The I-side and D-side observers
 * (collector, next-line monitor, stride predictor) share no state;
 * observation never feeds back into timing, cache or directory state;
 * histogram adds commute; and each log keeps its side's order, which
 * is the order the core (and, in a multicore run, the interleaver)
 * produced the events in.  The batch size is a constant: nothing about
 * the output depends on it.
 */

#ifndef LEAKBOUND_CORE_BATCHED_OBSERVER_HPP
#define LEAKBOUND_CORE_BATCHED_OBSERVER_HPP

#include <array>
#include <cstddef>

#include "interval/collector.hpp"
#include "prefetch/next_line.hpp"
#include "prefetch/stride.hpp"
#include "sim/hierarchy.hpp"

namespace leakbound::core {

/**
 * Records the L1 access streams of one core and classifies them in
 * batches (see the file comment).  Concrete and non-virtual:
 * InOrderCore::run_with / run_until inline it into the run loop.
 */
class BatchedObserver
{
  public:
    /** Records a log holds before it is classified. */
    static constexpr std::size_t kBatch = 256;
    /** Repeat-fetch cycles the I-side holds before it is classified. */
    static constexpr std::size_t kRepeats = 4 * kBatch;

    BatchedObserver(const sim::HierarchyConfig &config,
                    interval::IntervalCollector *icollector,
                    interval::IntervalCollector *dcollector,
                    prefetch::StridePredictor *stride, Cycles nl_lead_time)
        : iline_shift_(config.l1i.line_shift()),
          dline_shift_(config.l1d.line_shift()), icollector_(icollector),
          dcollector_(dcollector), stride_(stride), nl_lead_(nl_lead_time)
    {
    }

    /** A fetch group's L1I access at @p cycle for the line of @p pc. */
    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        const Addr block = pc >> iline_shift_;
        if (block == run_block_) {
            irepeats_[nrepeats_] = cycle;
            ilog_[ilen_ - 1].repeats_end = ++nrepeats_;
            if (nrepeats_ == kRepeats)
                flush_instr();
            return;
        }
        // A full log is classified only when a new run starts, so its
        // last run can still take repeats.
        if (ilen_ == kBatch)
            flush_instr();
        ilog_[ilen_++] = {cycle, block, result.l1.frame, nrepeats_,
                          result.l1.hit};
        run_block_ = block;
    }

    /** A load or store by @p pc to @p addr at @p cycle. */
    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool /*is_store*/,
            const sim::HierarchyResult &result)
    {
        append_data({cycle, pc, addr, result.l1.frame, result.l1.hit,
                     /*invalidation=*/false});
    }

    /**
     * A remote store killed the copy in L1D @p frame at @p cycle: the
     * frame's open interval closes with no reuse and no prefetch
     * class, and the monitors learn nothing (the core did not touch
     * the line).  The multicore engine calls this on cores that are
     * not running, so it is what can fill a log between two turns.
     */
    void
    on_invalidation(Cycle cycle, FrameId frame)
    {
        append_data({cycle, 0, 0, frame, false, /*invalidation=*/true});
    }

    /** Classify every logged record; call before reading results. */
    void
    flush()
    {
        flush_instr();
        flush_data();
    }

  private:
    /**
     * The first fetch of a run; the run's repeats are irepeats_ from
     * the previous record's repeats_end up to this one's.
     */
    struct InstrRecord
    {
        Cycle cycle;
        Addr block;
        FrameId frame;
        std::uint32_t repeats_end;
        bool hit;
    };

    struct DataRecord
    {
        Cycle cycle;
        Pc pc;
        Addr addr;
        FrameId frame;
        bool hit;
        bool invalidation;
    };

    void
    append_data(const DataRecord &record)
    {
        dlog_[dlen_] = record;
        if (++dlen_ == kBatch)
            flush_data();
    }

    /**
     * Classify and clear one side's log.  Never inlined, so the core's
     * run loop keeps only the appends and each classification loop
     * stays one tight routine; defined here, so the compiler still
     * sees both sides of the call.
     */
    [[gnu::noinline]] void
    flush_instr()
    {
        std::uint32_t k = 0;
        for (std::size_t i = 0; i < ilen_; ++i) {
            const InstrRecord &r = ilog_[i];
            bool nl = false;
            Cycle since = 0;
            if (icollector_->open_since(r.frame, since))
                nl = imonitor_.covers(r.block, since, r.cycle, nl_lead_);
            icollector_->on_access(r.frame, r.cycle, r.hit,
                                   /*stride_predicted=*/false, nl);
            Cycle last = r.cycle;
            for (; k < r.repeats_end; ++k) {
                last = irepeats_[k];
                icollector_->on_access(r.frame, last, /*reuse=*/true,
                                       /*stride_predicted=*/false,
                                       /*nl_covered=*/false);
            }
            imonitor_.record(r.block, last);
        }
        ilen_ = 0;
        nrepeats_ = 0;
        // The next fetch starts a run even on the same line: its first
        // access then takes the full path, which is exact too.
        run_block_ = kInvalidAddr;
    }

    [[gnu::noinline]] void
    flush_data()
    {
        Addr previous = kInvalidAddr;
        for (std::size_t i = 0; i < dlen_; ++i) {
            const DataRecord &r = dlog_[i];
            if (r.invalidation) {
                dcollector_->on_access(r.frame, r.cycle, /*reuse=*/false,
                                       /*stride_predicted=*/false,
                                       /*nl_covered=*/false);
                previous = kInvalidAddr;
                continue;
            }
            const Addr block = r.addr >> dline_shift_;
            const bool stride_hit = stride_->access(r.pc, r.addr);
            bool nl = false;
            Cycle since = 0;
            if (block != previous && dcollector_->open_since(r.frame, since))
                nl = dmonitor_.covers(block, since, r.cycle, nl_lead_);
            dcollector_->on_access(r.frame, r.cycle, r.hit, stride_hit, nl);
            dmonitor_.record(block, r.cycle);
            previous = block;
        }
        dlen_ = 0;
    }

    std::uint32_t iline_shift_;
    std::uint32_t dline_shift_;
    interval::IntervalCollector *icollector_;
    interval::IntervalCollector *dcollector_;
    prefetch::StridePredictor *stride_;
    Cycles nl_lead_;
    prefetch::NextLineMonitor imonitor_;
    prefetch::NextLineMonitor dmonitor_;
    std::size_t ilen_ = 0;
    std::size_t dlen_ = 0;
    /** The line of the open fetch run (ilog_[ilen_ - 1]), or none. */
    Addr run_block_ = kInvalidAddr;
    std::uint32_t nrepeats_ = 0;
    std::array<InstrRecord, kBatch> ilog_;
    std::array<Cycle, kRepeats> irepeats_;
    std::array<DataRecord, kBatch> dlog_;
};

} // namespace leakbound::core

#endif // LEAKBOUND_CORE_BATCHED_OBSERVER_HPP
