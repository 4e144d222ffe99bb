/**
 * @file
 * Generic edge-list histogram over unsigned 64-bit samples.
 *
 * Bins are half-open ranges defined by a sorted edge list
 * `[e0, e1, ..., en]`: bin i covers `[e_i, e_{i+1})`, with an implicit
 * overflow bin `[e_n, +inf)`.  Each bin tracks both the sample count and
 * the sum of samples, which lets linear functions of the samples be
 * evaluated *exactly* per bin — the key trick exploited by
 * interval::IntervalHistogram (see DESIGN.md §5).
 *
 * Binning goes through a shared immutable util::EdgeIndex (O(1) per
 * sample); histograms built from the same index share it instead of
 * copying the edge list.
 */

#ifndef LEAKBOUND_UTIL_HISTOGRAM_HPP
#define LEAKBOUND_UTIL_HISTOGRAM_HPP

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/binary_io.hpp"
#include "util/edge_index.hpp"

namespace leakbound::util {

/** Count and sum of the samples falling into one histogram bin. */
struct HistBin
{
    std::uint64_t count = 0; ///< number of samples in the bin
    std::uint64_t sum = 0;   ///< sum of sample values in the bin
};

/**
 * Edge-list histogram of u64 samples with per-bin count and sum.
 */
class Histogram
{
  public:
    /**
     * Construct from sorted, deduplicated edges.  Edges that are
     * unsorted or duplicated are a caller bug (panics).
     * @param edges bin boundaries; must contain at least one element.
     */
    explicit Histogram(std::vector<std::uint64_t> edges);

    /** Braced-list convenience: `Histogram h({0, 10, 100})`. */
    Histogram(std::initializer_list<std::uint64_t> edges)
        : Histogram(std::vector<std::uint64_t>(edges))
    {
    }

    /**
     * Construct over a prebuilt shared edge index; histograms over the
     * same edge list should share one index (see IntervalHistogramSet).
     */
    explicit Histogram(std::shared_ptr<const EdgeIndex> index);

    /** Add one sample (inline — the simulation kernel's hot sink). */
    void add(std::uint64_t value) { add_many(value, 1); }

    /** Add @p n identical samples of @p value. */
    void
    add_many(std::uint64_t value, std::uint64_t n)
    {
        HistBin &b = bins_[index_->bin_index(value)];
        b.count += n;
        b.sum += value * n;
    }

    /** Merge a histogram with identical edges into this one. */
    void merge(const Histogram &other);

    /** Number of bins, including the overflow bin. */
    std::size_t num_bins() const { return bins_.size(); }

    /** Lower edge of bin @p i. */
    std::uint64_t lower_edge(std::size_t i) const;

    /**
     * Upper edge of bin @p i (exclusive); UINT64_MAX for the overflow
     * bin.
     */
    std::uint64_t upper_edge(std::size_t i) const;

    /** Bin contents. */
    const HistBin &bin(std::size_t i) const;

    /** Index of the bin containing @p value. */
    std::size_t bin_index(std::uint64_t value) const
    {
        return index_->bin_index(value);
    }

    /** Total samples across all bins. */
    std::uint64_t total_count() const;

    /** Total sum across all bins. */
    std::uint64_t total_sum() const;

    /** The edge list this histogram was built from. */
    const std::vector<std::uint64_t> &edges() const
    {
        return index_->edges();
    }

    /** The shared edge index binning goes through. */
    const std::shared_ptr<const EdgeIndex> &edge_index() const
    {
        return index_;
    }

    /** Render a compact textual summary (one line per non-empty bin). */
    std::string dump() const;

    /**
     * Append the bin contents (count/sum pairs, length-prefixed) to
     * @p w.  The edge list is *not* written — sets of histograms over
     * one edge list store it once (see IntervalHistogramSet).
     */
    void write_bins(BinaryWriter &w) const;

    /**
     * Replace the bin contents with bins read from @p r, written by
     * write_bins over an identical edge list.  @return false (leaving
     * the histogram unspecified) when the input is truncated or its
     * bin count does not match this histogram's edges.
     */
    bool read_bins(BinaryReader &r);

    /**
     * Build a log2-spaced edge list covering [1, max_value], useful for
     * distribution reporting.
     */
    static std::vector<std::uint64_t> log2_edges(std::uint64_t max_value);

  private:
    std::shared_ptr<const EdgeIndex> index_;
    std::vector<HistBin> bins_;
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_HISTOGRAM_HPP
