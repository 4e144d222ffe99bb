/**
 * @file
 * The per-draw oracle for util::Rng::next_below, util::FixedBound and
 * the two data patterns the workloads draw most from: the threshold
 * computed with a divide on every call and the stack walk's branch on
 * next_bool(0.5).  This is the code before the lazy threshold, the
 * fixed-bound reciprocal and the bit-63 walk.
 *
 * The library must agree with it on every value and on the number of
 * raw draws consumed (test_kernel_equivalence).
 */

#ifndef LEAKBOUND_TESTS_REFERENCE_PATTERNS_HPP
#define LEAKBOUND_TESTS_REFERENCE_PATTERNS_HPP

#include <cstdint>

#include "util/random.hpp"
#include "util/types.hpp"

namespace leakbound::oracle {

/** Uniform draw in [0, bound): reject r < 2^64 mod bound, then r % bound. */
inline std::uint64_t
reference_next_below(util::Rng &rng, std::uint64_t bound)
{
    const std::uint64_t threshold = (~bound + 1) % bound;
    for (;;) {
        const std::uint64_t r = rng.next_u64();
        if (r >= threshold)
            return r % bound;
    }
}

/** workload::make_random: a uniform slot of the region per draw. */
class ReferenceRandomPattern
{
  public:
    ReferenceRandomPattern(Addr base, std::uint64_t region,
                           std::uint32_t align, std::uint64_t seed)
        : base_(base), slots_(region / align), align_(align), rng_(seed)
    {
    }

    Addr
    next()
    {
        return base_ + reference_next_below(rng_, slots_) * align_;
    }

  private:
    Addr base_;
    std::uint64_t slots_;
    std::uint32_t align_;
    util::Rng rng_;
};

/** workload::make_stack: a bounded random walk below the top. */
class ReferenceStackPattern
{
  public:
    ReferenceStackPattern(Addr top, std::uint64_t depth, std::uint64_t seed)
        : top_(top), depth_(depth / 8), rng_(seed)
    {
    }

    Addr
    next()
    {
        if (rng_.next_bool(0.5)) {
            if (pos_ + 1 < depth_)
                ++pos_;
        } else if (pos_ > 0) {
            --pos_;
        }
        const std::uint64_t jitter = reference_next_below(rng_, 4);
        const std::uint64_t slot = pos_ > jitter ? pos_ - jitter : 0;
        return top_ - (slot + 1) * 8;
    }

  private:
    Addr top_;
    std::uint64_t depth_;
    util::Rng rng_;
    std::uint64_t pos_ = 0;
};

} // namespace leakbound::oracle

#endif // LEAKBOUND_TESTS_REFERENCE_PATTERNS_HPP
