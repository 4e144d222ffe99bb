/**
 * @file
 * Fixtures of the core tests: a workload replaying a fixed vector of
 * µops, and a listener logging every core event in order.
 */

#ifndef LEAKBOUND_TESTS_CORE_FIXTURES_HPP
#define LEAKBOUND_TESTS_CORE_FIXTURES_HPP

#include <string>
#include <utility>
#include <vector>

#include "sim/hierarchy.hpp"
#include "trace/record.hpp"
#include "workload/workload.hpp"

namespace leakbound::fixtures {

/**
 * Replays a fixed vector of µops.  It implements only next(), so the
 * core reads it through Workload's default next_spans.
 */
class ScriptedWorkload final : public workload::Workload
{
  public:
    explicit ScriptedWorkload(std::vector<trace::MicroOp> ops)
        : ops_(std::move(ops))
    {
    }

    std::string name() const override { return "scripted"; }

    bool
    next(trace::MicroOp &op) override
    {
        if (pos_ >= ops_.size())
            return false;
        op = ops_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<trace::MicroOp> ops_;
    std::size_t pos_ = 0;
};

/**
 * Concrete run_with/run_until listener logging every event in order.
 * Each fetch group logs exactly one Instr event, after its loads and
 * stores, so the Instr events mark the group boundaries.
 */
struct EventLog
{
    enum Kind : int { Instr, Load, Store };
    struct Event
    {
        Cycle cycle;
        Pc pc;
        Addr addr;
        Kind kind;
        FrameId frame;
        bool hit;
        Cycles latency;

        bool operator==(const Event &) const = default;
    };

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        events.push_back({cycle, pc, kInvalidAddr, Instr, result.l1.frame,
                          result.l1.hit, result.latency});
    }

    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
            const sim::HierarchyResult &result)
    {
        events.push_back({cycle, pc, addr, is_store ? Store : Load,
                          result.l1.frame, result.l1.hit, result.latency});
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

} // namespace leakbound::fixtures

#endif // LEAKBOUND_TESTS_CORE_FIXTURES_HPP
