/**
 * @file
 * Implementation of the in-order timing core: construction, config
 * validation, and the virtual-listener entry points (the run loop
 * itself is the template in the header).
 */

#include "cpu/inorder_core.hpp"

#include "util/logging.hpp"

namespace leakbound::cpu {

namespace {

/** Routes the templated run loop onto the virtual AccessListener. */
struct VirtualListener
{
    AccessListener *listener;

    void
    on_instr(Cycle cycle, Pc pc, const sim::HierarchyResult &result)
    {
        if (listener)
            listener->on_instr_access(cycle, pc, result);
    }

    void
    on_data(Cycle cycle, Pc pc, Addr addr, bool is_store,
            const sim::HierarchyResult &result)
    {
        if (listener)
            listener->on_data_access(cycle, pc, addr, is_store, result);
    }

    void on_group_end() {}
};

} // namespace

util::Status
CoreConfig::validate() const
{
    if (fetch_width == 0) {
        return util::Status(util::ErrorKind::InvalidArgument,
                            "fetch width must be at least 1");
    }
    return util::Status();
}

InOrderCore::InOrderCore(const CoreConfig &config, sim::Hierarchy *hierarchy,
                         workload::Workload *source,
                         AccessListener *listener)
    : config_(config), hierarchy_(hierarchy), source_(source),
      listener_(listener)
{
    LEAKBOUND_ASSERT(hierarchy_ != nullptr, "core needs a hierarchy");
    LEAKBOUND_ASSERT(source_ != nullptr, "core needs a workload");
    const util::Status status = config_.validate();
    if (!status.ok())
        throw util::StatusError(status);
}

CoreRunStats
InOrderCore::run(std::uint64_t max_instructions)
{
    VirtualListener listener{listener_};
    return run_loop<false>(max_instructions, kNoCycleLimit, listener);
}

} // namespace leakbound::cpu
