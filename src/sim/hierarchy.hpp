/**
 * @file
 * Three-level memory hierarchy: split L1 (I/D) over a unified L2 over
 * flat memory, with the paper's latencies (Section 4.1).
 *
 * The access paths are defined inline so that, together with the
 * cache's access path, one hierarchy access compiles into a single
 * straight-line routine inside the simulation loop.
 */

#ifndef LEAKBOUND_SIM_HIERARCHY_HPP
#define LEAKBOUND_SIM_HIERARCHY_HPP

#include <memory>

#include "sim/cache.hpp"

namespace leakbound::sim {

/** Full hierarchy configuration. */
struct HierarchyConfig
{
    CacheConfig l1i = CacheConfig::alpha_l1i();
    CacheConfig l1d = CacheConfig::alpha_l1d();
    CacheConfig l2 = CacheConfig::alpha_l2();
    Cycles memory_latency = 100; ///< L2 miss service time

    /** Validate all levels. */
    void validate() const;
};

/** Outcome of one hierarchy access. */
struct HierarchyResult
{
    AccessResult l1;       ///< the L1-level outcome (frame etc.)
    bool l2_hit = false;   ///< meaningful only when !l1.hit
    /** The L2-level outcome; valid only when the L1 missed
     *  (l2.frame == kInvalidFrame otherwise). */
    AccessResult l2;
    Cycles latency = 0;    ///< total service latency in cycles
};

/**
 * The simulated memory system.  Instruction fetches go to L1I, data
 * accesses to L1D; both miss into the shared L2 and then memory.
 */
class Hierarchy
{
  public:
    /** Build the two L1s and the L2 of @p config. */
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * A private-L1 node over an externally owned shared L2 (the
     * multicore hierarchy, src/multicore): this instance builds only
     * the two L1s and routes their misses into @p shared_l2, which
     * must outlive it.  The L1 seeds are derived from @p requester so
     * distinct cores draw distinct Random-replacement streams;
     * requester 0 reproduces the single-requester seeds exactly,
     * which is what anchors the N=1 multicore byte-identity proof.
     */
    Hierarchy(const HierarchyConfig &config, Cache *shared_l2,
              std::uint32_t requester);

    /** Fetch the instruction line containing @p pc. */
    HierarchyResult access_instr(Pc pc) { return access_through(l1i_, pc); }

    /** Load/store the data line containing @p addr. */
    HierarchyResult access_data(Addr addr)
    {
        return access_through(l1d_, addr);
    }

    /** The instruction L1. */
    Cache &l1i() { return l1i_; }
    const Cache &l1i() const { return l1i_; }

    /** The data L1. */
    Cache &l1d() { return l1d_; }
    const Cache &l1d() const { return l1d_; }

    /** The unified L2 (owned, or the shared instance for a node). */
    Cache &l2() { return *l2_; }
    const Cache &l2() const { return *l2_; }

    /** Configuration in force. */
    const HierarchyConfig &config() const { return config_; }

  private:
    HierarchyResult
    access_through(Cache &l1, Addr addr)
    {
        HierarchyResult out;
        out.l1 = l1.access(addr);
        if (out.l1.hit) {
            out.latency = l1.config().hit_latency;
            return out;
        }
        out.l2 = l2_->access(addr);
        out.l2_hit = out.l2.hit;
        out.latency = out.l2.hit ? l2_->config().hit_latency
                                 : config_.memory_latency;
        return out;
    }

    HierarchyConfig config_;
    Cache l1i_;
    Cache l1d_;
    /** The L2 this instance owns; empty for shared-L2 nodes. */
    std::unique_ptr<Cache> owned_l2_;
    /** The L2 accesses go through (owned_l2_.get() or the shared one). */
    Cache *l2_;
};

} // namespace leakbound::sim

#endif // LEAKBOUND_SIM_HIERARCHY_HPP
