/**
 * @file
 * PC-indexed stride predictor (Farkas et al. [3], as used by the
 * paper, Section 5.1): per static load, a miss/access is considered
 * stride-covered once the same stride has been observed at least
 * twice and the current address extends the run.
 *
 * Modeled as a direct-mapped hardware table with PC tags (capacity
 * collisions behave like the real structure), plus an "ideal"
 * unbounded mode for limit studies.
 */

#ifndef LEAKBOUND_PREFETCH_STRIDE_HPP
#define LEAKBOUND_PREFETCH_STRIDE_HPP

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace leakbound::prefetch {

/** Configuration of the stride table. */
struct StrideConfig
{
    std::uint32_t table_entries = 4096; ///< power of two; 0 = unbounded
    std::uint32_t confirmations = 2;    ///< strides seen before trusting
};

/**
 * Stride predictor.  access() returns whether the access was covered
 * *before* learning from it (so the prediction is causally honest).
 */
class StridePredictor
{
  public:
    explicit StridePredictor(const StrideConfig &config = StrideConfig{});

    /**
     * Observe a load/store by instruction @p pc to byte address
     * @p addr.  @return true when a twice-confirmed stride predicted
     * an address in the same cache line of @p line_bytes granularity.
     * Header-inline: this is a per-memory-op call on the simulation
     * kernel's hot path.
     */
    bool
    access(Pc pc, Addr addr, std::uint32_t line_bytes = 64)
    {
        ++observed_;
        Entry &e = slot_for(pc);

        bool predicted = false;
        if (e.valid && e.tag == pc) {
            const std::int64_t stride =
                static_cast<std::int64_t>(addr) -
                static_cast<std::int64_t>(e.last_addr);
            // Prediction check happens against the state *before* this
            // access: the predictor would have issued last_addr + stride.
            if (e.confidence >= config_.confirmations &&
                stride == e.stride) {
                const Addr predicted_addr = static_cast<Addr>(
                    static_cast<std::int64_t>(e.last_addr) + e.stride);
                predicted =
                    (predicted_addr / line_bytes) == (addr / line_bytes);
            }
            // Learn.
            if (stride == e.stride) {
                if (e.confidence < ~0u)
                    ++e.confidence;
            } else {
                e.stride = stride;
                e.confidence = 1;
            }
            e.last_addr = addr;
        } else {
            // Cold or conflicting entry: claim it.
            e.valid = true;
            e.tag = pc;
            e.last_addr = addr;
            e.stride = 0;
            e.confidence = 0;
        }

        if (predicted)
            ++covered_;
        return predicted;
    }

    /** Covered accesses so far. */
    std::uint64_t covered() const { return covered_; }

    /** Total accesses so far. */
    std::uint64_t observed() const { return observed_; }

    /** Forget everything. */
    void reset();

  private:
    struct Entry
    {
        Pc tag = 0;
        Addr last_addr = 0;
        std::int64_t stride = 0;
        std::uint32_t confidence = 0;
        bool valid = false;
    };

    Entry &
    slot_for(Pc pc)
    {
        if (config_.table_entries != 0) {
            return table_[(pc >> 2) & (config_.table_entries - 1)];
        }
        // Unbounded: linear search (test/limit-study use only).
        for (auto &e : table_) {
            if (e.valid && e.tag == pc)
                return e;
        }
        table_.emplace_back();
        return table_.back();
    }

    StrideConfig config_;
    std::vector<Entry> table_;
    std::uint64_t covered_ = 0;
    std::uint64_t observed_ = 0;
};

} // namespace leakbound::prefetch

#endif // LEAKBOUND_PREFETCH_STRIDE_HPP
