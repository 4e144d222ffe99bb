/**
 * @file
 * Data-reference pattern generators for synthetic workloads.
 *
 * Each pattern yields a deterministic (seeded) stream of byte
 * addresses with a characteristic locality signature:
 *
 *  - Sequential  : streaming through a region (gzip buffers) — the
 *                  classic next-line-prefetchable pattern
 *  - Strided     : constant non-unit stride through an array (applu's
 *                  multidimensional sweeps) — stride-prefetchable
 *  - Random      : uniform within a working set (gcc hash tables) —
 *                  non-prefetchable
 *  - PointerChase: a fixed random permutation cycle (vortex's linked
 *                  structures) — non-prefetchable but repeatable
 *  - Stack       : small bounded random walk near a stack top —
 *                  highly local
 */

#ifndef LEAKBOUND_WORKLOAD_DATA_PATTERN_HPP
#define LEAKBOUND_WORKLOAD_DATA_PATTERN_HPP

#include <memory>

#include "util/random.hpp"
#include "util/types.hpp"

namespace leakbound::workload {

/** A deterministic stream of data addresses. */
class DataPattern
{
  public:
    virtual ~DataPattern() = default;

    /** Next referenced byte address. */
    virtual Addr next() = 0;

    /**
     * Produce the next @p n addresses into @p out — exactly the stream
     * n calls to next() would yield.  Concrete patterns override this
     * with the same loop so next() devirtualizes inside it (they are
     * final classes); generators batch one fill() per basic-block span
     * instead of one virtual draw per memory op.
     */
    virtual void
    fill(Addr *out, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = next();
    }

    /** Restart the stream deterministically. */
    virtual void reset() = 0;
};

/** Owning pattern handle. */
using DataPatternPtr = std::unique_ptr<DataPattern>;

/**
 * Streaming: base, base+step, base+2*step, ... wrapping at
 * base+region_bytes.
 */
DataPatternPtr make_sequential(Addr base, std::uint64_t region_bytes,
                               std::uint32_t step = 8);

/**
 * Strided array walk: elements of @p elem_bytes, advancing
 * @p stride_elems elements per reference, wrapping over @p elements.
 */
DataPatternPtr make_strided(Addr base, std::uint64_t elements,
                            std::uint32_t elem_bytes,
                            std::uint64_t stride_elems);

/** Uniform random within [base, base+region_bytes), @p align-aligned. */
DataPatternPtr make_random(Addr base, std::uint64_t region_bytes,
                           std::uint32_t align, std::uint64_t seed);

/**
 * Pointer chase over a fixed random permutation cycle of @p nodes
 * nodes of @p node_bytes each.
 */
DataPatternPtr make_pointer_chase(Addr base, std::uint64_t nodes,
                                  std::uint32_t node_bytes,
                                  std::uint64_t seed);

/**
 * Stack-like: bounded random walk within @p depth_bytes below
 * @p top, 8-byte aligned.
 */
DataPatternPtr make_stack(Addr top, std::uint64_t depth_bytes,
                          std::uint64_t seed);

} // namespace leakbound::workload

#endif // LEAKBOUND_WORKLOAD_DATA_PATTERN_HPP
