/**
 * @file
 * The per-operation oracle for prefetch::NextLineMonitor: one FlatMap
 * entry per block holding its last access cycle, probed at block-1 on
 * every coverage query.  This is the monitor's logic before its table
 * was paged.
 *
 * The paged monitor must agree with it on every covers() answer, on
 * covered() and on append_state(), through record and reset
 * (test_kernel_equivalence).
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_NEXT_LINE_HPP
#define LEAKBOUND_TESTS_REFERENCE_NEXT_LINE_HPP

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "util/flat_map.hpp"
#include "util/types.hpp"

namespace leakbound::oracle {

class ReferenceNextLine
{
  public:
    ReferenceNextLine() : last_access_(1 << 11) {}

    void record(Addr block, Cycle cycle) { last_access_.put(block, cycle); }

    bool
    covers(Addr block, Cycle open_since) const
    {
        return covers(block, open_since,
                      std::numeric_limits<Cycle>::max(), 0);
    }

    bool
    covers(Addr block, Cycle open_since, Cycle close_cycle,
           Cycles lead_time) const
    {
        if (block == 0)
            return false;
        std::uint64_t when;
        if (!last_access_.get(block - 1, when))
            return false;
        const Cycle deadline =
            close_cycle >= lead_time ? close_cycle - lead_time : 0;
        const bool hit = when > open_since && when <= deadline;
        if (hit)
            ++covered_;
        return hit;
    }

    std::uint64_t covered() const { return covered_; }

    void
    reset()
    {
        last_access_.clear();
        covered_ = 0;
    }

    void
    append_state(std::vector<std::uint64_t> &out, Cycle now) const
    {
        // FlatMap slot order depends on insertion history, so sort.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
        entries.reserve(last_access_.size());
        last_access_.for_each([&](std::uint64_t block, std::uint64_t when) {
            entries.emplace_back(block, now - when);
        });
        std::sort(entries.begin(), entries.end());
        out.push_back(entries.size());
        for (const auto &[block, age] : entries) {
            out.push_back(block);
            out.push_back(age);
        }
    }

  private:
    util::FlatMap last_access_;
    mutable std::uint64_t covered_ = 0;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_NEXT_LINE_HPP
