/**
 * @file
 * Reference replacement policies: the per-access oracle sim::Cache is
 * differentially tested against (reference_cache.hpp drives them).
 *
 * Policies track recency/insertion metadata per frame and pick victims
 * per set: on_hit() per hit, on_fill() per fill, victim_way() per
 * replacement decision, each one virtual call.
 */

#ifndef LEAKBOUND_TESTS_REPLACEMENT_HPP
#define LEAKBOUND_TESTS_REPLACEMENT_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/cache_config.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace leakbound::oracle {

/** Abstract replacement policy over a sets x ways frame grid. */
class ReplacementPolicy
{
  public:
    /** @param sets number of sets; @param ways associativity. */
    ReplacementPolicy(std::uint64_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways)
    {
    }
    virtual ~ReplacementPolicy() = default;

    /** A resident block in (set, way) was re-accessed. */
    virtual void on_hit(std::uint64_t set, std::uint32_t way) = 0;

    /** A block was filled into (set, way). */
    virtual void on_fill(std::uint64_t set, std::uint32_t way) = 0;

    /** Pick the victim way in @p set (all ways are valid). */
    virtual std::uint32_t victim_way(std::uint64_t set) = 0;

    /**
     * Append a canonical snapshot of the policy's decision state to
     * @p out; @return false when the policy's future decisions are not
     * a pure function of appendable state (Random draws an RNG), as
     * sim::Cache::append_state does.  Stamp-based
     * policies append per-set way permutations in recency-rank order:
     * absolute stamp values are irrelevant, only their order decides
     * victims.
     */
    virtual bool
    append_state(std::vector<std::uint64_t> &out) const
    {
        (void)out;
        return false;
    }

  protected:
    std::uint64_t sets_;
    std::uint32_t ways_;
};

/**
 * Construct the policy selected by @p kind.
 * @param seed used only by Random.
 */
std::unique_ptr<ReplacementPolicy>
make_replacement(sim::ReplacementKind kind, std::uint64_t sets,
                 std::uint32_t ways, std::uint64_t seed = 1);

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REPLACEMENT_HPP
