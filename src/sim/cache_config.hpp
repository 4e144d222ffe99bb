/**
 * @file
 * Cache geometry configuration and the paper's Alpha-21264-like
 * hierarchy presets (Section 4.1): 64KB 2-way L1I (1-cycle hit),
 * 64KB 2-way L1D (3-cycle hit), 2MB direct-mapped unified L2 (7-cycle
 * hit), LRU everywhere.
 */

#ifndef LEAKBOUND_SIM_CACHE_CONFIG_HPP
#define LEAKBOUND_SIM_CACHE_CONFIG_HPP

#include <cstdint>
#include <string>

#include "util/types.hpp"

namespace leakbound::sim {

/** Replacement policies the cache model supports. */
enum class ReplacementKind : std::uint8_t {
    Lru,    ///< least recently used (the paper's choice)
    Fifo,   ///< insertion order
    Random, ///< uniform random victim (deterministic seed)
};

/** Printable replacement policy name. */
const char *replacement_name(ReplacementKind kind);

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";     ///< for stats/logging
    std::uint64_t size_bytes = 64 * 1024;
    std::uint32_t line_bytes = 64;  ///< power of two
    std::uint32_t associativity = 2;
    Cycles hit_latency = 1;
    ReplacementKind replacement = ReplacementKind::Lru;

    /** Number of sets (size / (line * assoc)). */
    std::uint64_t num_sets() const;

    /** Number of physical frames (sets * assoc). */
    std::uint64_t num_frames() const;

    /** Block number of a byte address (addr / line_bytes). */
    Addr block_of(Addr addr) const { return addr >> line_shift(); }

    /** Set index of a block number. */
    std::uint64_t set_of_block(Addr block) const;

    /**
     * log2(line_bytes): addr >> line_shift() == addr / line_bytes.
     * Meaningful only for validated geometries (line_bytes is a power
     * of two); Cache precomputes it once at construction.
     */
    std::uint32_t line_shift() const;

    /**
     * num_sets() - 1: block & set_mask() == block % num_sets().
     * Meaningful only for validated geometries (num_sets is a power of
     * two); Cache precomputes it once at construction.
     */
    std::uint64_t set_mask() const;

    /** Check invariants (powers of two, divisibility); fatal() on bad
     *  user configuration. */
    void validate() const;

    /** The paper's L1 instruction cache. */
    static CacheConfig alpha_l1i();
    /** The paper's L1 data cache. */
    static CacheConfig alpha_l1d();
    /** The paper's unified L2. */
    static CacheConfig alpha_l2();
};

} // namespace leakbound::sim

#endif // LEAKBOUND_SIM_CACHE_CONFIG_HPP
