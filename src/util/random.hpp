/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in leakbound (synthetic workloads, random
 * replacement, jitter) flows through Xoshiro256StarStar seeded via
 * SplitMix64, so every experiment is exactly reproducible from a seed.
 * We do not use std::mt19937 because its state is large and its
 * cross-platform distribution guarantees are weaker than doing the
 * range reduction ourselves.
 *
 * Range reduction is exact rejection sampling: a draw r is rejected
 * while r < 2^64 mod bound and the value is r % bound, so every value
 * in [0, bound) is equally likely.  Two things keep it off the divider
 * without changing a value or the number of draws consumed:
 *
 *  - Lazy threshold.  2^64 mod bound is always below bound, so a draw
 *    r >= bound is accepted without computing it; Rng::next_below
 *    pays the second divide only when r < bound, which for the small
 *    bounds the workloads use is almost never.
 *  - FixedBound.  A bound fixed for an object's lifetime precomputes
 *    the threshold and the 128-bit reciprocal ceil(2^128 / bound), and
 *    reduces by direct remainder (Lemire, Kaser & Kurz, "Faster
 *    Remainder by Direct Computation", 2019): with F = 128 fraction
 *    bits the result equals r % bound for every 64-bit r and bound, so
 *    a draw costs multiplies instead of a divide.
 *
 * Multiply-shift reduction ((r * bound) >> 64) would be cheaper still,
 * but it maps draws to different values and would change every
 * workload's stream.
 */

#ifndef LEAKBOUND_UTIL_RANDOM_HPP
#define LEAKBOUND_UTIL_RANDOM_HPP

#include <array>
#include <cstdint>

#include "util/logging.hpp"

namespace leakbound::util {

/**
 * A range bound fixed for an object's lifetime: Rng::next_below on a
 * FixedBound consumes the same draws and returns the same values as on
 * the bound it was built from, with the rejection threshold and the
 * reciprocal computed once here instead of a divide per draw.
 */
class FixedBound
{
  public:
    explicit FixedBound(std::uint64_t bound) : bound_(bound)
    {
        LEAKBOUND_ASSERT(bound != 0, "FixedBound(0)");
        threshold_ = (0 - bound) % bound;
        // ceil(2^128 / bound) = floor((2^128 - 1) / bound) + 1, which
        // wraps to 0 for bound 1, where every remainder is 0 anyway.
        reciprocal_ = ~Wide{0} / bound + 1;
    }

    /** Draws below this are rejected: 2^64 mod bound. */
    std::uint64_t threshold() const { return threshold_; }

    /** n % bound, by direct remainder. */
    std::uint64_t
    reduce(std::uint64_t n) const
    {
        // The top 64 bits of the 192-bit product of the bound and the
        // fraction (reciprocal * n) mod 2^128, from two 64 x 64 -> 128
        // products.
        const Wide frac = reciprocal_ * n;
        const Wide low = Wide{static_cast<std::uint64_t>(frac)} * bound_;
        const Wide high = Wide{static_cast<std::uint64_t>(frac >> 64)} *
                              bound_ +
                          (low >> 64);
        return static_cast<std::uint64_t>(high >> 64);
    }

  private:
    using Wide = unsigned __int128;

    std::uint64_t bound_;
    std::uint64_t threshold_ = 0;
    Wide reciprocal_ = 0;
};

/** SplitMix64 step; used to expand a 64-bit seed into generator state. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** 1.0 by Blackman & Vigna: fast, high-quality, 256-bit state.
 */
class Rng
{
  public:
    /** Construct from a single 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x1eafb01dULL)
    {
        std::uint64_t sm = seed;
        for (auto &word : state_)
            word = splitmix64(sm);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t
    next_u64()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform draw in [0, bound); bound must be nonzero. */
    std::uint64_t
    next_below(std::uint64_t bound)
    {
        LEAKBOUND_ASSERT(bound != 0, "next_below(0)");
        // Reject r < 2^64 mod bound; that threshold is below bound, so
        // it is computed only for a draw below bound.
        std::uint64_t r = next_u64();
        if (r < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (r < threshold)
                r = next_u64();
        }
        return r % bound;
    }

    /** next_below on the bound @p bound was built from, without a divide. */
    std::uint64_t
    next_below(const FixedBound &bound)
    {
        std::uint64_t r = next_u64();
        while (r < bound.threshold())
            r = next_u64();
        return bound.reduce(r);
    }

    /**
     * Uniform draw in the closed range [lo, hi].  The full 64-bit range
     * is one raw draw; any other range draws as next_below(hi - lo + 1).
     */
    std::uint64_t
    next_in(std::uint64_t lo, std::uint64_t hi)
    {
        LEAKBOUND_ASSERT(lo <= hi, "next_in: lo > hi");
        const std::uint64_t span = hi - lo + 1;
        if (span == 0) [[unlikely]]
            return next_u64(); // 2^64 values: every draw is in range
        return lo + next_below(span);
    }

    /**
     * next_in(lo, lo + span - 1) for the span @p span was built from,
     * without a divide: the same value and the same draws.
     */
    std::uint64_t
    next_in(std::uint64_t lo, const FixedBound &span)
    {
        return lo + next_below(span);
    }

    /** Uniform double in [0, 1). */
    double
    next_double()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p of returning true. */
    bool
    next_bool(double p)
    {
        return next_double() < p;
    }

    /** Derive an independent child generator (for parallel streams). */
    Rng
    split()
    {
        return Rng(next_u64() ^ 0xd3c5d1f9ad1cba57ULL);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_RANDOM_HPP
