/**
 * @file
 * The per-operation oracle for interval::IntervalCollector: a
 * (last access, touched) pair per frame, each closed interval built as
 * an Interval and recorded through IntervalHistogramSet::add.  This is
 * the collector's logic before it kept one stamp per frame and wrote
 * the bins through a write view.
 *
 * The collector must agree with it on every open_since() answer, on
 * num_accesses(), and, after finalize, on the serialized set and on
 * raw() (test_kernel_equivalence).
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_COLLECTOR_HPP
#define LEAKBOUND_TESTS_REFERENCE_COLLECTOR_HPP

#include <cstdint>
#include <vector>

#include "interval/interval.hpp"
#include "interval/interval_histogram.hpp"
#include "util/types.hpp"

namespace leakbound::oracle {

class ReferenceCollector
{
  public:
    ReferenceCollector(std::uint64_t num_frames,
                       interval::IntervalHistogramSet *sink, bool keep_raw)
        : frames_(num_frames), sink_(sink), keep_raw_(keep_raw)
    {
    }

    void
    on_access(FrameId frame, Cycle cycle, bool reuse,
              bool stride_predicted, bool nl_covered)
    {
        FrameState &fs = frames_[frame];
        ++num_accesses_;

        interval::Interval iv;
        if (!fs.touched) {
            iv.kind = interval::IntervalKind::Leading;
            iv.length = cycle;
            iv.pf = interval::PrefetchClass::NonPrefetchable;
            iv.ends_in_reuse = false;
        } else {
            iv.kind = interval::IntervalKind::Inner;
            iv.length = cycle - fs.last_access;
            if (nl_covered)
                iv.pf = interval::PrefetchClass::NextLine;
            else if (stride_predicted)
                iv.pf = interval::PrefetchClass::Stride;
            else
                iv.pf = interval::PrefetchClass::NonPrefetchable;
            iv.ends_in_reuse = reuse;
        }
        fs.touched = true;
        fs.last_access = cycle;
        emit(iv);
    }

    bool
    open_since(FrameId frame, Cycle &since) const
    {
        const FrameState &fs = frames_[frame];
        if (!fs.touched)
            return false;
        since = fs.last_access;
        return true;
    }

    void
    finalize(Cycle end_cycle)
    {
        for (const FrameState &fs : frames_) {
            interval::Interval iv;
            iv.pf = interval::PrefetchClass::NonPrefetchable;
            iv.ends_in_reuse = false;
            if (!fs.touched) {
                iv.kind = interval::IntervalKind::Untouched;
                iv.length = end_cycle;
            } else {
                iv.kind = interval::IntervalKind::Trailing;
                iv.length = end_cycle - fs.last_access;
            }
            emit(iv);
        }
        sink_->set_run_info(frames_.size(), end_cycle);
    }

    const std::vector<interval::Interval> &raw() const { return raw_; }

    std::uint64_t num_accesses() const { return num_accesses_; }

  private:
    struct FrameState
    {
        Cycle last_access = 0;
        bool touched = false;
    };

    void
    emit(const interval::Interval &iv)
    {
        sink_->add(iv);
        if (keep_raw_)
            raw_.push_back(iv);
    }

    std::vector<FrameState> frames_;
    interval::IntervalHistogramSet *sink_;
    bool keep_raw_;
    std::uint64_t num_accesses_ = 0;
    std::vector<interval::Interval> raw_;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_COLLECTOR_HPP
