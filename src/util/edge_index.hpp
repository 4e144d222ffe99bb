/**
 * @file
 * O(1) bin lookup over an immutable, shared histogram edge list.
 *
 * Binning used to binary-search the ~190-entry edge list on every
 * sample — the single hottest operation of the simulator (one lookup
 * per closed interval per access).  EdgeIndex precomputes two
 * small tables once per edge list:
 *
 *   - a *dense* direct-index table answering every value below 4096 in
 *     one load (the default interval edges are densest in 0..64 and
 *     the 1057-cycle inflection region);
 *   - a *log2-bucketed jump table* for the tail: the bucket of a value
 *     is its bit width, each bucket is split into 64 equal sub-slots,
 *     and each sub-slot stores the bin of its first value.  A lookup
 *     lands at most a couple of edges away from the answer, so the
 *     final walk is a short bounded scan (0 steps for most slots).
 *
 * The index is immutable after construction, so one instance is safely
 * shared — across the nine rows of an interval::IntervalHistogramSet
 * and across threads of the pooled evaluators.  Debug builds
 * cross-check every lookup against the std::upper_bound reference.
 */

#ifndef LEAKBOUND_UTIL_EDGE_INDEX_HPP
#define LEAKBOUND_UTIL_EDGE_INDEX_HPP

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/logging.hpp"

namespace leakbound::util {

/**
 * Immutable O(1) value->bin index over a sorted, unique edge list:
 * bin i covers [edges[i], edges[i+1]), the last bin is
 * [edges.back(), +inf), and values below edges[0] clamp into bin 0.
 */
class EdgeIndex
{
  public:
    /** Build from sorted, deduplicated, non-empty edges (panics else). */
    explicit EdgeIndex(std::vector<std::uint64_t> edges);

    /**
     * Build an index ready for sharing.  Indexes are interned: calls
     * with an edge list seen before (and still alive somewhere) return
     * the existing instance instead of rebuilding the tables, so the
     * per-experiment default edge list is indexed once per process.
     */
    static std::shared_ptr<const EdgeIndex>
    make(std::vector<std::uint64_t> edges);

    /** Index of the bin containing @p value (debug-checked O(1)). */
    std::size_t
    bin_index(std::uint64_t value) const
    {
        const std::size_t fast = lookup(value);
#ifndef NDEBUG
        LEAKBOUND_ASSERT(fast == bin_index_reference(value),
                         "EdgeIndex lookup mismatch at value ", value);
#endif
        return fast;
    }

    /**
     * Reference implementation via std::upper_bound; the correctness
     * oracle for bin_index (tests and debug builds compare the two).
     */
    std::size_t bin_index_reference(std::uint64_t value) const;

    /** The edge list (one bin per edge, last bin unbounded). */
    const std::vector<std::uint64_t> &edges() const { return edges_; }

    /** Number of bins, including the overflow bin. */
    std::size_t num_bins() const { return edges_.size(); }

  private:
    /** Values below 2^kDenseBits resolve via the dense table. */
    static constexpr unsigned kDenseBits = 12;
    /** Each log2 bucket of the tail splits into 2^kSubBits sub-slots. */
    static constexpr unsigned kSubBits = 6;

    std::size_t
    lookup(std::uint64_t value) const
    {
        if (value < (std::uint64_t{1} << kDenseBits))
            return dense_[static_cast<std::size_t>(value)];
        // Bucket = floor(log2(value)); sub-slot = next kSubBits bits.
        const unsigned k =
            63u - static_cast<unsigned>(std::countl_zero(value));
        const std::size_t slot =
            (static_cast<std::size_t>(k - kDenseBits) << kSubBits) +
            static_cast<std::size_t>((value - (std::uint64_t{1} << k)) >>
                                     (k - kSubBits));
        std::size_t bin = slot_bin_[slot];
        // Walk the few edges (usually none) between the sub-slot start
        // and the value.
        const std::size_t last = edges_.size() - 1;
        while (bin < last && edges_[bin + 1] <= value)
            ++bin;
        return bin;
    }

    std::vector<std::uint64_t> edges_;
    std::vector<std::uint32_t> dense_;    ///< bin of every value < 2^12
    std::vector<std::uint32_t> slot_bin_; ///< bin of each sub-slot start
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_EDGE_INDEX_HPP
