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
    : frames_(num_frames), sink_(sink), keep_raw_(keep_raw)
{
    LEAKBOUND_ASSERT(sink_ != nullptr, "collector needs a sink");
    LEAKBOUND_ASSERT(num_frames > 0, "collector needs frames");
}

void
IntervalCollector::emit(const Interval &iv)
{
    sink_->add(iv);
    if (keep_raw_)
        raw_.push_back(iv);
}

void
IntervalCollector::append_state(std::vector<std::uint64_t> &out,
                                Cycle now) const
{
    for (const FrameState &fs : frames_) {
        out.push_back(fs.touched ? 1 : 0);
        out.push_back(fs.touched ? now - fs.last_access : 0);
    }
}

void
IntervalCollector::warp(Cycles delta)
{
    LEAKBOUND_ASSERT(!finalized_, "warp after finalize()");
    for (FrameState &fs : frames_)
        if (fs.touched)
            fs.last_access += delta;
}

void
IntervalCollector::finalize(Cycle end_cycle)
{
    LEAKBOUND_ASSERT(!finalized_, "finalize() called twice");
    finalized_ = true;
    for (const FrameState &fs : frames_) {
        Interval iv;
        iv.pf = PrefetchClass::NonPrefetchable;
        iv.ends_in_reuse = false;
        if (!fs.touched) {
            iv.kind = IntervalKind::Untouched;
            iv.length = end_cycle;
        } else {
            LEAKBOUND_ASSERT(end_cycle >= fs.last_access,
                             "end_cycle before last access");
            iv.kind = IntervalKind::Trailing;
            iv.length = end_cycle - fs.last_access;
        }
        emit(iv);
    }
    sink_->set_run_info(frames_.size(), end_cycle);

    // Frame-time conservation (DESIGN.md §5): every frame's intervals
    // tile [0, end_cycle] exactly, so the sink must hold frames x
    // end_cycle cycles.  A stray, lost or mis-scaled interval anywhere
    // upstream breaks the sum; fail the job instead of shipping a
    // wrong bound.  O(bins), once per collector.
    const std::uint64_t expected = frames_.size() * end_cycle;
    const std::uint64_t actual = sink_->total_length();
    if (actual != expected) {
        throw util::StatusError(util::Status(
            util::ErrorKind::Internal,
            "frame-time conservation violated: intervals of " +
                std::to_string(frames_.size()) + " frames sum to " +
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
