/**
 * @file
 * Implementation of the exact interval histogram set.
 */

#include "interval/interval_histogram.hpp"

#include <algorithm>

#include "power/technology.hpp"
#include "util/logging.hpp"

namespace leakbound::interval {

IntervalHistogramSet::IntervalHistogramSet(std::vector<std::uint64_t> edges)
    : index_(util::EdgeIndex::make(std::move(edges)))
{
    LEAKBOUND_ASSERT(!index_->edges().empty() &&
                         index_->edges().front() == 0,
                     "interval histogram edges must start at 0");
    bins_.resize(kNumSlots * index_->num_bins());
}

IntervalHistogramSet
IntervalHistogramSet::with_default_edges(
    const std::vector<Cycles> &extra_thresholds)
{
    return IntervalHistogramSet(default_edges(extra_thresholds));
}

IntervalHistogramSet::WriteView
IntervalHistogramSet::write_view()
{
    WriteView view;
    view.index = index_.get();
    for (std::size_t i = 0; i < kNumSlots; ++i)
        view.bins[i] = row(i);
    return view;
}

void
IntervalHistogramSet::merge(const IntervalHistogramSet &other)
{
    LEAKBOUND_ASSERT(index_ == other.index_ || edges() == other.edges(),
                     "merging interval sets with different edges");
    for (std::size_t i = 0; i < bins_.size(); ++i) {
        bins_[i].count += other.bins_[i].count;
        bins_[i].sum += other.bins_[i].sum;
    }
    num_frames_ += other.num_frames_;
    // Runs are merged side by side (e.g. averaging benchmarks); the
    // cycle axis must match for baseline_energy to stay meaningful, so
    // keep the max and rely on per-frame totals via baseline_energy of
    // each component when exactness matters (Savings handles this by
    // aggregating energies, not sets, across benchmarks).
    total_cycles_ = std::max(total_cycles_, other.total_cycles_);
}

void
IntervalHistogramSet::set_run_info(std::uint64_t num_frames,
                                   Cycles total_cycles)
{
    num_frames_ = num_frames;
    total_cycles_ = total_cycles;
}

Energy
IntervalHistogramSet::baseline_energy() const
{
    return static_cast<Energy>(num_frames_) *
           static_cast<Energy>(total_cycles_);
}

void
IntervalHistogramSet::for_each_cell(
    const std::function<void(const CellRef &)> &fn) const
{
    const std::vector<std::uint64_t> &e = edges();
    const std::size_t n = e.size();
    for (std::size_t s = 0; s < kNumSlots; ++s) {
        CellRef cell;
        cell.kind = s < kInnerSlots      ? IntervalKind::Inner
                    : s == kLeadingSlot  ? IntervalKind::Leading
                    : s == kTrailingSlot ? IntervalKind::Trailing
                                         : IntervalKind::Untouched;
        cell.pf = s < kInnerSlots ? static_cast<PrefetchClass>(s / 2)
                                  : PrefetchClass::NonPrefetchable;
        cell.ends_in_reuse = s < kInnerSlots && s % 2 == 1;
        const HistBin *bins = row(s);
        for (std::size_t i = 0; i < n; ++i) {
            if (bins[i].count == 0)
                continue;
            cell.lower = e[i];
            cell.upper = i + 1 < n ? e[i + 1] : ~Cycles{0};
            cell.count = bins[i].count;
            cell.sum = bins[i].sum;
            fn(cell);
        }
    }
}

std::uint64_t
IntervalHistogramSet::total_intervals() const
{
    std::uint64_t total = 0;
    for (const HistBin &b : bins_)
        total += b.count;
    return total;
}

std::uint64_t
IntervalHistogramSet::total_inner_intervals() const
{
    std::uint64_t total = 0;
    for (const HistBin *b = row(0); b != row(kInnerSlots); ++b)
        total += b->count;
    return total;
}

std::uint64_t
IntervalHistogramSet::total_length() const
{
    std::uint64_t total = 0;
    for (const HistBin &b : bins_)
        total += b.sum;
    return total;
}

std::uint64_t
IntervalHistogramSet::inner_count_in(PrefetchClass pf, Cycles lo,
                                     Cycles hi) const
{
    const std::vector<std::uint64_t> &e = edges();
    const std::size_t n = e.size();
    std::uint64_t total = 0;
    for (int reuse = 0; reuse < 2; ++reuse) {
        const HistBin *bins = row(slot(IntervalKind::Inner, pf, reuse != 0));
        for (std::size_t i = 0; i < n; ++i) {
            const Cycles upper = i + 1 < n ? e[i + 1] : ~Cycles{0};
            if (e[i] >= lo && upper <= hi)
                total += bins[i].count;
        }
    }
    return total;
}

std::uint64_t
IntervalHistogramSet::inner_count_in(Cycles lo, Cycles hi) const
{
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kNumPrefetchClasses; ++p)
        total += inner_count_in(static_cast<PrefetchClass>(p), lo, hi);
    return total;
}

void
IntervalHistogramSet::serialize(util::BinaryWriter &w) const
{
    const std::size_t n = index_->num_bins();
    w.put_u64_vector(edges());
    w.put_u64(kNumSlots);
    for (std::size_t s = 0; s < kNumSlots; ++s) {
        w.put_u64(n);
        const HistBin *bins = row(s);
        for (std::size_t i = 0; i < n; ++i) {
            w.put_u64(bins[i].count);
            w.put_u64(bins[i].sum);
        }
    }
    w.put_u64(num_frames_);
    w.put_u64(total_cycles_);
}

std::optional<IntervalHistogramSet>
IntervalHistogramSet::deserialize(util::BinaryReader &r)
{
    std::vector<std::uint64_t> edges = r.get_u64_vector();
    if (r.failed() || edges.empty() || edges.front() != 0)
        return std::nullopt;
    for (std::size_t i = 1; i < edges.size(); ++i)
        if (edges[i] <= edges[i - 1])
            return std::nullopt;

    IntervalHistogramSet set(std::move(edges));
    const std::size_t n = set.index_->num_bins();
    if (r.get_u64() != kNumSlots || r.failed())
        return std::nullopt;
    for (std::size_t s = 0; s < kNumSlots; ++s) {
        // A failed read returns 0, which is never a row's bin count.
        if (r.get_u64() != n)
            return std::nullopt;
        HistBin *bins = set.row(s);
        for (std::size_t i = 0; i < n; ++i) {
            bins[i].count = r.get_u64();
            bins[i].sum = r.get_u64();
        }
    }
    set.num_frames_ = r.get_u64();
    set.total_cycles_ = r.get_u64();
    if (r.failed())
        return std::nullopt;
    return set;
}

std::vector<std::uint64_t>
IntervalHistogramSet::default_edges(const std::vector<Cycles> &extra)
{
    std::vector<std::uint64_t> edges;
    // Fine-grained small lengths: the active-drowsy point (6), the
    // transition overheads (3, 30, 33, 37) and everything nearby.
    for (std::uint64_t e = 0; e <= 64; ++e)
        edges.push_back(e);
    // Log2-ish coverage for distribution reporting.
    for (std::uint64_t e = 128; e <= (1ULL << 40); e <<= 1)
        edges.push_back(e);

    // Every decision threshold T any stock experiment uses, with T+1
    // (the "> T" boundary) and T+overhead boundaries for decay-style
    // piecewise policies.
    std::vector<std::uint64_t> thresholds = {
        // paper Table 1 inflection points
        1057, 5088, 10328, 103084,
        // Fig. 7 sweep values
        1200, 1500, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000,
        // decay sweep (ablation): 1K..64K
        1000, 16000, 32000, 64000,
    };
    thresholds.insert(thresholds.end(), extra.begin(), extra.end());

    // Decay-style policies sleep a frame only after the threshold plus
    // the node's sleep transition overhead has elapsed, so those
    // boundaries must be exact bin edges too.  Derive the overhead
    // offsets from the actual technology parameters (historically a
    // hardcoded 37 = the 70nm s1+s3+s4) so custom timings keep landing
    // on exact edges at every node.
    std::vector<std::uint64_t> overheads;
    for (power::TechNode node : power::all_nodes())
        overheads.push_back(
            power::node_params(node).timings.sleep_overhead());
    std::sort(overheads.begin(), overheads.end());
    overheads.erase(std::unique(overheads.begin(), overheads.end()),
                    overheads.end());

    for (std::uint64_t t : thresholds) {
        edges.push_back(t);
        edges.push_back(t + 1);
        for (std::uint64_t o : overheads) {
            edges.push_back(t + o);
            edges.push_back(t + o + 1);
        }
    }

    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    return edges;
}

} // namespace leakbound::interval
