/**
 * @file
 * Implementation of the edge-list histogram.
 */

#include "util/histogram.hpp"

#include <algorithm>
#include <sstream>

#include "util/logging.hpp"

namespace leakbound::util {

Histogram::Histogram(std::vector<std::uint64_t> edges)
    : Histogram(EdgeIndex::make(std::move(edges)))
{
}

Histogram::Histogram(std::shared_ptr<const EdgeIndex> index)
    : index_(std::move(index))
{
    LEAKBOUND_ASSERT(index_ != nullptr, "histogram needs an edge index");
    // One bin per edge: bin i = [edges[i], edges[i+1]); last bin is
    // the overflow bin [edges.back(), +inf).  Samples below edges[0]
    // are clamped into bin 0 (callers are expected to pass edge 0).
    bins_.resize(index_->num_bins());
}

void
Histogram::merge(const Histogram &other)
{
    LEAKBOUND_ASSERT(index_ == other.index_ || edges() == other.edges(),
                     "merging histograms with different edges");
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        bins_[i].count += other.bins_[i].count;
        bins_[i].sum += other.bins_[i].sum;
    }
}

std::uint64_t
Histogram::lower_edge(std::size_t i) const
{
    LEAKBOUND_ASSERT(i < bins_.size(), "bin index out of range");
    return edges()[i];
}

std::uint64_t
Histogram::upper_edge(std::size_t i) const
{
    LEAKBOUND_ASSERT(i < bins_.size(), "bin index out of range");
    return i + 1 < bins_.size() ? edges()[i + 1]
                                : ~static_cast<std::uint64_t>(0);
}

const HistBin &
Histogram::bin(std::size_t i) const
{
    LEAKBOUND_ASSERT(i < bins_.size(), "bin index out of range");
    return bins_[i];
}

std::uint64_t
Histogram::total_count() const
{
    std::uint64_t total = 0;
    for (const auto &b : bins_)
        total += b.count;
    return total;
}

std::uint64_t
Histogram::total_sum() const
{
    std::uint64_t total = 0;
    for (const auto &b : bins_)
        total += b.sum;
    return total;
}

std::string
Histogram::dump() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        if (bins_[i].count == 0)
            continue;
        os << '[' << lower_edge(i) << ", ";
        if (i + 1 < bins_.size())
            os << upper_edge(i);
        else
            os << "inf";
        os << "): count=" << bins_[i].count << " sum=" << bins_[i].sum
           << '\n';
    }
    return os.str();
}

void
Histogram::write_bins(BinaryWriter &w) const
{
    w.put_u64(bins_.size());
    for (const HistBin &b : bins_) {
        w.put_u64(b.count);
        w.put_u64(b.sum);
    }
}

bool
Histogram::read_bins(BinaryReader &r)
{
    const std::uint64_t n = r.get_u64();
    if (r.failed() || n != bins_.size())
        return false;
    for (HistBin &b : bins_) {
        b.count = r.get_u64();
        b.sum = r.get_u64();
    }
    return !r.failed();
}

std::vector<std::uint64_t>
Histogram::log2_edges(std::uint64_t max_value)
{
    std::vector<std::uint64_t> edges{0, 1};
    for (std::uint64_t e = 2; e < max_value && e != 0; e <<= 1)
        edges.push_back(e);
    edges.push_back(max_value);
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace leakbound::util
