/**
 * @file
 * Implementation of the streaming interval collector.
 */

#include "interval/collector.hpp"

#include <string>

#include "util/logging.hpp"
#include "util/status.hpp"

namespace leakbound::interval {

IntervalCollector::IntervalCollector(std::uint64_t num_frames,
                                     IntervalHistogramSet *sink,
                                     bool keep_raw)
    : stamps_(num_frames), sink_(sink), keep_raw_(keep_raw)
{
    LEAKBOUND_ASSERT(sink_ != nullptr, "collector needs a sink");
    LEAKBOUND_ASSERT(num_frames > 0, "collector needs frames");
    view_ = sink_->write_view();
}

void
IntervalCollector::keep(std::size_t slot, Cycles length)
{
    Interval iv;
    iv.length = length;
    if (slot < IntervalHistogramSet::kInnerSlots) {
        iv.kind = IntervalKind::Inner;
        iv.pf = static_cast<PrefetchClass>(slot / 2);
        iv.ends_in_reuse = slot % 2 != 0;
    } else {
        iv.kind = slot == IntervalHistogramSet::kLeadingSlot
                      ? IntervalKind::Leading
                  : slot == IntervalHistogramSet::kTrailingSlot
                      ? IntervalKind::Trailing
                      : IntervalKind::Untouched;
        iv.pf = PrefetchClass::NonPrefetchable;
        iv.ends_in_reuse = false;
    }
    raw_.push_back(iv);
}

void
IntervalCollector::finalize(Cycle end_cycle)
{
    LEAKBOUND_ASSERT(!finalized_, "finalize() called twice");
    finalized_ = true;
    for (const std::uint64_t stamp : stamps_) {
        std::size_t slot = IntervalHistogramSet::kUntouchedSlot;
        Cycles length = end_cycle;
        if (stamp != 0) {
            LEAKBOUND_ASSERT(end_cycle >= stamp - 1,
                             "end_cycle before last access");
            slot = IntervalHistogramSet::kTrailingSlot;
            length = end_cycle - (stamp - 1);
        }
        view_.add(slot, length);
        if (keep_raw_)
            keep(slot, length);
    }
    sink_->set_run_info(stamps_.size(), end_cycle);

    // Frame-time conservation (DESIGN.md §5): every frame's intervals
    // tile [0, end_cycle] exactly, so the sink must hold frames x
    // end_cycle cycles.  A stray, lost or mis-scaled interval anywhere
    // upstream breaks the sum; fail the job instead of shipping a
    // wrong bound.  O(bins), once per collector.
    const std::uint64_t expected = stamps_.size() * end_cycle;
    const std::uint64_t actual = sink_->total_length();
    if (actual != expected) {
        throw util::StatusError(util::Status(
            util::ErrorKind::Internal,
            "frame-time conservation violated: intervals of " +
                std::to_string(stamps_.size()) + " frames sum to " +
                std::to_string(actual) + " cycles, expected " +
                std::to_string(expected)));
    }
}

void
check_access_count(std::uint64_t observed, std::uint64_t expected,
                   const std::string &what)
{
    if (observed == expected)
        return;
    throw util::StatusError(util::Status(
        util::ErrorKind::Internal,
        "access-count conservation violated: " + what + " collectors saw " +
            std::to_string(observed) + " accesses, the cache delivered " +
            std::to_string(expected)));
}

} // namespace leakbound::interval
