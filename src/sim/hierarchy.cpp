/**
 * @file
 * Implementation of the three-level hierarchy (construction and
 * validation; the access paths are inline in the header).
 */

#include "sim/hierarchy.hpp"

#include "util/logging.hpp"

namespace leakbound::sim {

void
HierarchyConfig::validate() const
{
    l1i.validate();
    l1d.validate();
    l2.validate();
    if (memory_latency <= l2.hit_latency) {
        util::fatal("memory latency (", memory_latency,
                    ") must exceed the L2 hit latency (", l2.hit_latency,
                    ")");
    }
}

namespace {

/**
 * Per-requester seed derivation: requester 0 keeps the historical
 * seeds (11 for L1I, 13 for L1D), later requesters shift far enough
 * that no two cores' Random-replacement streams can collide.
 */
constexpr std::uint64_t
requester_seed(std::uint64_t base, std::uint32_t requester)
{
    return base + (static_cast<std::uint64_t>(requester) << 6);
}

} // namespace

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config), l1i_(config.l1i, /*seed=*/11),
      l1d_(config.l1d, /*seed=*/13),
      owned_l2_(std::make_unique<Cache>(config.l2, /*seed=*/17)),
      l2_(owned_l2_.get())
{
    config_.validate();
}

Hierarchy::Hierarchy(const HierarchyConfig &config, Cache *shared_l2,
                     std::uint32_t requester)
    : config_(config), l1i_(config.l1i, requester_seed(11, requester)),
      l1d_(config.l1d, requester_seed(13, requester)),
      l2_(shared_l2)
{
    LEAKBOUND_ASSERT(shared_l2 != nullptr,
                     "shared-L2 node needs a live L2 instance");
    config_.validate();
}

} // namespace leakbound::sim
