/**
 * @file
 * Implementation of the in-order timing core: construction and config
 * validation (the run loop itself is the template in the header).
 */

#include "cpu/inorder_core.hpp"

#include "util/logging.hpp"

namespace leakbound::cpu {

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
                         workload::Workload *source)
    : config_(config), hierarchy_(hierarchy), source_(source)
{
    LEAKBOUND_ASSERT(hierarchy_ != nullptr, "core needs a hierarchy");
    LEAKBOUND_ASSERT(source_ != nullptr, "core needs a workload");
    const util::Status status = config_.validate();
    if (!status.ok())
        throw util::StatusError(status);
}

} // namespace leakbound::cpu
