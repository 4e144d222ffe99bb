/**
 * @file
 * Implementation of the set-associative cache model: construction,
 * invalidation and state snapshots.  The access path lives in
 * cache.hpp, where the compiler sees all of it; a Release build still
 * calls access() out of line, and only the same-block filter
 * (repeat_hit) is inlined, into sim::Hierarchy::access_instr.
 */

#include "sim/cache.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace leakbound::sim {

Cache::Cache(const CacheConfig &config, std::uint64_t seed)
    : config_(config), rng_(seed), seed_(seed)
{
    config_.validate();
    ways_ = config_.associativity;
    line_shift_ = config_.line_shift();
    set_mask_ = config_.set_mask();
    tags_.assign(config_.num_frames(), kInvalidAddr);
    valid_.assign(config_.num_frames(), 0);
    stamp_.assign(config_.num_frames(), 0);
}

FrameId
Cache::frame_of_block(Addr block) const
{
    const std::uint64_t base = (block & set_mask_) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
        if (valid_[base + w] && tags_[base + w] == block)
            return static_cast<FrameId>(base + w);
    }
    return kInvalidFrame;
}

FrameId
Cache::invalidate_block(Addr block)
{
    const FrameId frame = frame_of_block(block);
    if (frame == kInvalidFrame)
        return kInvalidFrame;
    valid_[frame] = 0;
    tags_[frame] = kInvalidAddr;
    // The same-block filter must forget an invalidated block, or the
    // next access to it would short-circuit into a phantom hit on a
    // frame that no longer holds it.
    if (block == last_block_) {
        last_block_ = kInvalidAddr;
        last_frame_ = kInvalidFrame;
    }
    return frame;
}

Addr
Cache::block_in_frame(FrameId frame) const
{
    LEAKBOUND_ASSERT(frame < tags_.size(), "frame id out of range");
    return valid_[frame] ? tags_[frame] : kInvalidAddr;
}

bool
Cache::append_state(std::vector<std::uint64_t> &out) const
{
    for (std::size_t i = 0; i < tags_.size(); ++i)
        out.push_back(valid_[i] ? tags_[i] : kInvalidAddr);
    // Validity packed separately: an invalid frame and a resident
    // kInvalidAddr tag must not compare equal (the latter cannot occur
    // with real addresses, but keep the snapshot self-contained).
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
    if (config_.replacement == ReplacementKind::Random)
        return false;
    // Each set's ways sorted by (stamp, way): the order oldest_way()
    // consumes them in, ties toward the lower way.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(ways_);
    for (std::uint64_t base = 0; base < stamp_.size(); base += ways_) {
        for (std::uint32_t w = 0; w < ways_; ++w)
            order[w] = {stamp_[base + w], w};
        std::sort(order.begin(), order.end());
        for (const auto &[stamp, w] : order)
            out.push_back(w);
    }
    return true;
}

void
Cache::reset()
{
    tags_.assign(tags_.size(), kInvalidAddr);
    valid_.assign(valid_.size(), 0);
    stamp_.assign(stamp_.size(), 0);
    clock_ = 0;
    stats_ = CacheStats{};
    rng_ = util::Rng(seed_);
    last_block_ = kInvalidAddr;
    last_frame_ = kInvalidFrame;
}

} // namespace leakbound::sim
