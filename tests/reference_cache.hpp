/**
 * @file
 * The per-access oracle for sim::Cache: the same tag store, driven
 * through the virtual replacement policies of replacement.hpp one call
 * per hit, fill and victim, with no same-block filter.
 *
 * sim::Cache must agree with it on every AccessResult, on the
 * statistics, on invalidate_block and on append_state, at every
 * associativity (test_kernel_equivalence).
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_CACHE_HPP
#define LEAKBOUND_TESTS_REFERENCE_CACHE_HPP

#include <memory>
#include <vector>

#include "replacement.hpp"
#include "sim/cache.hpp"
#include "util/logging.hpp"

namespace leakbound::oracle {

class ReferenceCache
{
  public:
    /** @param seed the Random policy's stream, as for sim::Cache. */
    ReferenceCache(const sim::CacheConfig &config, std::uint64_t seed)
        : config_(config), ways_(config.associativity),
          tags_(config.num_frames(), kInvalidAddr),
          valid_(config.num_frames(), 0),
          repl_(make_replacement(config.replacement, config.num_sets(),
                                 config.associativity, seed))
    {
    }

    /** Access byte address @p addr: hit or allocate. */
    sim::AccessResult
    access(Addr addr)
    {
        const Addr block = config_.block_of(addr);
        const std::uint64_t set = config_.set_of_block(block);
        const std::uint64_t base = set * ways_;

        ++stats_.accesses;

        sim::AccessResult result;
        // One pass over the set: find the resident block and remember
        // the first invalid way for the miss path.
        std::uint32_t invalid_way = ways_; // sentinel
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (!valid_[base + w]) {
                if (invalid_way == ways_)
                    invalid_way = w;
                continue;
            }
            if (tags_[base + w] == block) {
                repl_->on_hit(set, w);
                ++stats_.hits;
                result.hit = true;
                result.frame = static_cast<FrameId>(base + w);
                return result;
            }
        }

        // Miss path: prefer the invalid way found above; otherwise ask
        // the policy for a victim, which must name a valid resident way.
        ++stats_.misses;
        std::uint32_t way = invalid_way;
        if (way == ways_) {
            way = repl_->victim_way(set);
            LEAKBOUND_ASSERT(way < ways_ && valid_[base + way],
                             "replacement picked bad way ", way);
            result.evicted = true;
            result.victim_block = tags_[base + way];
            ++stats_.evictions;
        }

        tags_[base + way] = block;
        valid_[base + way] = 1;
        repl_->on_fill(set, way);
        result.frame = static_cast<FrameId>(base + way);
        return result;
    }

    /**
     * Invalidate @p block (a block number); replacement state is left
     * alone.  Returns the frame that held it, or kInvalidFrame.
     */
    FrameId
    invalidate_block(Addr block)
    {
        const std::uint64_t base = config_.set_of_block(block) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (valid_[base + w] && tags_[base + w] == block) {
                valid_[base + w] = 0;
                tags_[base + w] = kInvalidAddr;
                return static_cast<FrameId>(base + w);
            }
        }
        return kInvalidFrame;
    }

    /** Statistics so far. */
    const sim::CacheStats &stats() const { return stats_; }

    /** Tags, packed validity, then the policy's canonical state. */
    bool
    append_state(std::vector<std::uint64_t> &out) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i)
            out.push_back(valid_[i] ? tags_[i] : kInvalidAddr);
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < valid_.size(); ++i) {
            word = (word << 1) | (valid_[i] ? 1 : 0);
            if ((i & 63) == 63) {
                out.push_back(word);
                word = 0;
            }
        }
        if (valid_.size() & 63)
            out.push_back(word);
        return repl_->append_state(out);
    }

  private:
    sim::CacheConfig config_;
    std::uint32_t ways_;
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> valid_;
    std::unique_ptr<ReplacementPolicy> repl_;
    sim::CacheStats stats_;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_CACHE_HPP
