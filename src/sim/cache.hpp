/**
 * @file
 * Set-associative cache model (block-granular, tag-only).
 *
 * The model tracks residency, replacement and statistics; data values
 * are irrelevant to the leakage study.  Frames are identified by
 * FrameId = set * ways + way, the identifier the interval machinery
 * keys on (leakage is a property of the physical frame, not of the
 * block resident in it).
 *
 * One decision path serves every associativity: each frame carries a
 * recency stamp drawn from one per-cache clock, and access() holds the
 * per-access logic once per ReplacementKind.  A Release build calls
 * access() out of line; what a caller can take inline is the
 * same-block filter, repeat_hit().  The per-access oracle the cache is
 * differentially tested against lives in tests/ (DESIGN.md
 * "Simulation kernel").
 */

#ifndef LEAKBOUND_SIM_CACHE_HPP
#define LEAKBOUND_SIM_CACHE_HPP

#include <vector>

#include "sim/cache_config.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace leakbound::sim {

/** Outcome of one cache access. */
struct AccessResult
{
    bool hit = false;          ///< block was resident
    FrameId frame = kInvalidFrame; ///< frame accessed (or filled)
    bool evicted = false;      ///< a valid block was displaced
    Addr victim_block = kInvalidAddr; ///< displaced block number
};

/** Running cache statistics. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /** misses / accesses (0 when idle). */
    double miss_rate() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/**
 * One cache level.  Accesses are by byte address; allocate-on-miss,
 * no inclusion/exclusion enforcement (the hierarchy composes levels).
 */
class Cache
{
  public:
    /** @param config validated geometry; @param seed for Random repl. */
    explicit Cache(const CacheConfig &config, std::uint64_t seed = 1);

    /** Access byte address @p addr: hit or allocate. */
    AccessResult
    access(Addr addr)
    {
        switch (config_.replacement) {
          case ReplacementKind::Lru:
            return access<ReplacementKind::Lru>(addr);
          case ReplacementKind::Fifo:
            return access<ReplacementKind::Fifo>(addr);
          case ReplacementKind::Random:
            return access<ReplacementKind::Random>(addr);
        }
        LEAKBOUND_PANIC("unreachable: bad ReplacementKind");
    }

    /**
     * The same-block filter alone: when @p addr lies in the block this
     * cache accessed last, count the hit, set @p result to a hit on
     * that block's frame and return true; otherwise change nothing and
     * return false.  After any access the accessed block is resident,
     * and nothing touches this cache between two of its own accesses,
     * so a repeat of the previous block is a sure hit to the same
     * frame.  Under LRU that frame already holds the newest stamp, so
     * skipping its bump changes no recency order; FIFO and Random do
     * nothing on hits.  Defined here so that a caller can take repeats
     * inline (sim::Hierarchy::access_instr) and call access() only for
     * the rest.
     */
    bool
    repeat_hit(Addr addr, AccessResult &result)
    {
        if (addr >> line_shift_ != last_block_)
            return false;
        ++stats_.accesses;
        ++stats_.hits;
        result.hit = true;
        result.frame = last_frame_;
        return true;
    }

    /**
     * Frame currently holding @p block (a block number, not a byte
     * address); kInvalidFrame when not resident.
     */
    FrameId frame_of_block(Addr block) const;

    /** Block number resident in @p frame; kInvalidAddr when invalid. */
    Addr block_in_frame(FrameId frame) const;

    /**
     * Invalidate the copy of @p block (a block number, not a byte
     * address) held by this cache — the coherence action another
     * requester's store triggers through the directory.  Returns the
     * frame that held the block, or kInvalidFrame when it was not
     * resident.  Replacement state is deliberately left untouched:
     * a miss fills the first invalid way before it consults the
     * stamps, so the freed frame's stale stamp never picks a victim.
     * Statistics are untouched too — an invalidation is not an access
     * by this cache's requester.
     */
    FrameId invalidate_block(Addr block);

    /** Geometry. */
    const CacheConfig &config() const { return config_; }

    /** Physical frame count. */
    std::uint64_t num_frames() const { return config_.num_frames(); }

    /** Statistics so far. */
    const CacheStats &stats() const { return stats_; }

    /** Invalidate everything and clear statistics. */
    void reset();

    /**
     * Append the cache's decision state (resident tags, validity, and
     * each set's ways in recency order) to @p out; @return false when
     * the replacement policy is not snapshot-able (Random).
     * Statistics are excluded — they never influence future behaviour
     * — and so are absolute stamp values: two caches whose sets order
     * their ways alike make identical decisions forever.  The
     * bare-cache lockstep test compares this snapshot with the
     * reference policies' after every access.
     */
    bool append_state(std::vector<std::uint64_t> &out) const;

  private:
    /**
     * Way of the oldest stamp in the set starting at frame @p base:
     * the strict minimum scanned from way 0 upward, so ties go to the
     * lowest way (every way of a cold set carries stamp 0).
     */
    std::uint32_t
    oldest_way(std::uint64_t base) const
    {
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamp_[base];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (stamp_[base + w] < oldest) {
                oldest = stamp_[base + w];
                victim = w;
            }
        }
        return victim;
    }

    /**
     * The decision logic, specialized per policy: LRU stamps hits and
     * fills, FIFO stamps fills only, Random draws its victim and
     * stamps nothing.
     */
    template <ReplacementKind K>
    AccessResult
    access(Addr addr)
    {
        // Fetch groups walk an I-line 4 groups at a time and
        // unit-stride data walks a D-line 8 draws at a time, so the
        // same-block filter skips most set scans.
        AccessResult result;
        if (repeat_hit(addr, result))
            return result;

        const Addr block = addr >> line_shift_;
        const std::uint64_t base = (block & set_mask_) * ways_;

        ++stats_.accesses;

        std::uint32_t invalid_way = ways_; // sentinel
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!valid_[base + w]) {
                if (invalid_way == ways_)
                    invalid_way = w;
                continue;
            }
            if (tags_[base + w] == block) {
                if constexpr (K == ReplacementKind::Lru)
                    stamp_[base + w] = ++clock_;
                ++stats_.hits;
                result.hit = true;
                result.frame = static_cast<FrameId>(base + w);
                last_block_ = block;
                last_frame_ = result.frame;
                return result;
            }
        }

        // Miss path: prefer the first invalid way; otherwise the
        // policy picks a valid resident victim.
        ++stats_.misses;
        std::uint32_t way = invalid_way;
        if (way == ways_) {
            if constexpr (K == ReplacementKind::Random)
                way = static_cast<std::uint32_t>(rng_.next_below(ways_));
            else
                way = oldest_way(base);
            result.evicted = true;
            result.victim_block = tags_[base + way];
            ++stats_.evictions;
        }

        tags_[base + way] = block;
        valid_[base + way] = 1;
        if constexpr (K != ReplacementKind::Random)
            stamp_[base + way] = ++clock_;
        result.frame = static_cast<FrameId>(base + way);
        last_block_ = block;
        last_frame_ = result.frame;
        return result;
    }

    CacheConfig config_;
    // Geometry precomputed once at construction (all geometries are
    // validated powers of two): block = addr >> line_shift_,
    // set = block & set_mask_.
    std::uint32_t ways_ = 1;
    std::uint32_t line_shift_ = 0;
    std::uint64_t set_mask_ = 0;
    // Frame state stored structure-of-arrays: the hit scan touches only
    // the tag array, laid out contiguously per set.
    std::vector<Addr> tags_;          ///< resident block number per frame
    std::vector<std::uint8_t> valid_; ///< validity per frame
    /**
     * Recency stamp per frame (LRU and FIFO): the clock_ value of the
     * frame's last stamping access, 0 for never.  Only the order of
     * the stamps within a set is observable.
     */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
    // Same-block filter: the previously accessed block and its frame.
    // Derived state, so it is excluded from append_state() and
    // cleared by reset().
    Addr last_block_ = kInvalidAddr;
    FrameId last_frame_ = kInvalidFrame;
    util::Rng rng_;                  ///< Random victim draws
    CacheStats stats_;
    std::uint64_t seed_;
};

} // namespace leakbound::sim

#endif // LEAKBOUND_SIM_CACHE_HPP
