/**
 * @file
 * Implementation of the data-pattern generators.
 */

#include "workload/data_pattern.hpp"

#include <numeric>
#include <vector>

#include "util/logging.hpp"

namespace leakbound::workload {

namespace {

class SequentialPattern final : public DataPattern
{
  public:
    SequentialPattern(Addr base, std::uint64_t region, std::uint32_t step)
        : base_(base), region_(region), step_(step)
    {
        LEAKBOUND_ASSERT(region_ > 0 && step_ > 0, "degenerate stream");
    }

    Addr
    next() override
    {
        const Addr a = base_ + offset_;
        offset_ += step_;
        if (offset_ >= region_)
            offset_ = 0;
        return a;
    }

    void reset() override { offset_ = 0; }

    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next(); // devirtualized: final class
    }

  private:
    Addr base_;
    std::uint64_t region_;
    std::uint32_t step_;
    std::uint64_t offset_ = 0;
};

class StridedPattern final : public DataPattern
{
  public:
    StridedPattern(Addr base, std::uint64_t elements,
                   std::uint32_t elem_bytes, std::uint64_t stride_elems)
        : base_(base), elements_(elements), elem_bytes_(elem_bytes),
          stride_(stride_elems)
    {
        LEAKBOUND_ASSERT(elements_ > 0 && elem_bytes_ > 0 && stride_ > 0,
                         "degenerate strided pattern");
    }

    Addr
    next() override
    {
        const Addr a = base_ + index_ * elem_bytes_;
        index_ += stride_;
        if (index_ >= elements_) {
            // Advance the phase so successive sweeps cover the gaps
            // between stride points, like a column-major inner loop.
            ++phase_;
            if (phase_ >= stride_)
                phase_ = 0;
            index_ = phase_;
        }
        return a;
    }

    void
    reset() override
    {
        index_ = 0;
        phase_ = 0;
    }

    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next(); // devirtualized: final class
    }

  private:
    Addr base_;
    std::uint64_t elements_;
    std::uint32_t elem_bytes_;
    std::uint64_t stride_;
    std::uint64_t index_ = 0;
    std::uint64_t phase_ = 0;
};

std::uint64_t
slot_count(std::uint64_t region, std::uint32_t align)
{
    LEAKBOUND_ASSERT(region / align > 0, "region smaller than alignment");
    return region / align;
}

class RandomPattern final : public DataPattern
{
  public:
    RandomPattern(Addr base, std::uint64_t region, std::uint32_t align,
                  std::uint64_t seed)
        : base_(base), slots_(slot_count(region, align)), align_(align),
          seed_(seed), rng_(seed)
    {
    }

    Addr
    next() override
    {
        return base_ + rng_.next_below(slots_) * align_;
    }

    void reset() override { rng_ = util::Rng(seed_); }

    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next(); // devirtualized: final class
    }

  private:
    Addr base_;
    util::FixedBound slots_; // a divide-free next_below(slots)
    std::uint32_t align_;
    std::uint64_t seed_;
    util::Rng rng_;
};

class PointerChasePattern final : public DataPattern
{
  public:
    PointerChasePattern(Addr base, std::uint64_t nodes,
                        std::uint32_t node_bytes, std::uint64_t seed)
        : base_(base), node_bytes_(node_bytes), next_node_(nodes)
    {
        LEAKBOUND_ASSERT(nodes > 1, "pointer chase needs >= 2 nodes");
        // Build a single-cycle random permutation (Sattolo's algorithm)
        // so the chase visits every node before repeating.
        std::vector<std::uint64_t> order(nodes);
        std::iota(order.begin(), order.end(), 0);
        util::Rng rng(seed);
        for (std::uint64_t i = nodes - 1; i > 0; --i) {
            const std::uint64_t j = rng.next_below(i);
            std::swap(order[i], order[j]);
        }
        for (std::uint64_t i = 0; i + 1 < nodes; ++i)
            next_node_[order[i]] = order[i + 1];
        next_node_[order[nodes - 1]] = order[0];
    }

    Addr
    next() override
    {
        const Addr a = base_ + current_ * node_bytes_;
        current_ = next_node_[current_];
        return a;
    }

    void reset() override { current_ = 0; }

    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next(); // devirtualized: final class
    }

  private:
    Addr base_;
    std::uint32_t node_bytes_;
    std::vector<std::uint64_t> next_node_;
    std::uint64_t current_ = 0;
};

class StackPattern final : public DataPattern
{
  public:
    StackPattern(Addr top, std::uint64_t depth, std::uint64_t seed)
        : top_(top), depth_(depth / 8), seed_(seed), rng_(seed)
    {
        LEAKBOUND_ASSERT(depth_ > 0, "stack depth too small");
    }

    Addr
    next() override
    {
        // Random walk of the current depth; references cluster near
        // the top of the stack as real frames do.  The walk steps up
        // when bit 63 of the first draw is clear, which is exactly
        // next_bool(0.5): (u >> 11) * 2^-53 < 0.5 iff u < 2^63.  The
        // jitter is the second draw's low two bits, exactly
        // next_below(4), which rejects nothing because 4 divides 2^64.
        // The step, the ends of the walk and the clamp at slot 0 are
        // arithmetic, so no branch depends on a random bit.
        const std::uint64_t up = ~rng_.next_u64() >> 63;
        const std::uint64_t pos = pos_;
        pos_ = pos + (up & (pos + 1 < depth_)) - ((up ^ 1) & (pos > 0));
        const std::uint64_t jitter = rng_.next_u64() & 3;
        const std::uint64_t slot =
            (pos_ - jitter) & (0 - std::uint64_t{pos_ > jitter});
        return top_ - (slot + 1) * 8;
    }

    void
    reset() override
    {
        rng_ = util::Rng(seed_);
        pos_ = 0;
    }

    void
    fill(Addr *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next(); // devirtualized: final class
    }

  private:
    Addr top_;
    std::uint64_t depth_;
    std::uint64_t seed_;
    util::Rng rng_;
    std::uint64_t pos_ = 0;
};

} // namespace

DataPatternPtr
make_sequential(Addr base, std::uint64_t region_bytes, std::uint32_t step)
{
    return std::make_unique<SequentialPattern>(base, region_bytes, step);
}

DataPatternPtr
make_strided(Addr base, std::uint64_t elements, std::uint32_t elem_bytes,
             std::uint64_t stride_elems)
{
    return std::make_unique<StridedPattern>(base, elements, elem_bytes,
                                            stride_elems);
}

DataPatternPtr
make_random(Addr base, std::uint64_t region_bytes, std::uint32_t align,
            std::uint64_t seed)
{
    return std::make_unique<RandomPattern>(base, region_bytes, align, seed);
}

DataPatternPtr
make_pointer_chase(Addr base, std::uint64_t nodes, std::uint32_t node_bytes,
                   std::uint64_t seed)
{
    return std::make_unique<PointerChasePattern>(base, nodes, node_bytes,
                                                 seed);
}

DataPatternPtr
make_stack(Addr top, std::uint64_t depth_bytes, std::uint64_t seed)
{
    return std::make_unique<StackPattern>(top, depth_bytes, seed);
}

} // namespace leakbound::workload
