/**
 * @file
 * LRU, FIFO and Random replacement implementations.
 */

#include "replacement.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace leakbound::oracle {

namespace {

/**
 * Canonicalize a stamp grid as per-set way permutations sorted by
 * (stamp, way).  The victim scan takes the strict minimum from way 0
 * upward, so ties break toward the lowest way — exactly the order this
 * sort produces; two states with equal rank orders make identical
 * decisions forever regardless of absolute stamp values.
 */
void
append_rank_state(const std::vector<std::uint64_t> &stamp,
                  std::uint64_t sets, std::uint32_t ways,
                  std::vector<std::uint64_t> &out)
{
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order(ways);
    for (std::uint64_t set = 0; set < sets; ++set) {
        for (std::uint32_t w = 0; w < ways; ++w)
            order[w] = {stamp[set * ways + w], w};
        std::sort(order.begin(), order.end());
        for (const auto &[s, w] : order)
            out.push_back(w);
    }
}

/**
 * True LRU via a per-frame logical timestamp.  The timestamp counter
 * is shared across sets (monotonicity is all that matters).
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint64_t sets, std::uint32_t ways)
        : ReplacementPolicy(sets, ways), stamp_(sets * ways, 0)
    {
    }

    void
    on_hit(std::uint64_t set, std::uint32_t way) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    void
    on_fill(std::uint64_t set, std::uint32_t way) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    std::uint32_t
    victim_way(std::uint64_t set) override
    {
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamp_[set * ways_];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const std::uint64_t s = stamp_[set * ways_ + w];
            if (s < oldest) {
                oldest = s;
                victim = w;
            }
        }
        return victim;
    }

    bool
    append_state(std::vector<std::uint64_t> &out) const override
    {
        append_rank_state(stamp_, sets_, ways_, out);
        return true;
    }

  private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

/** FIFO: victims rotate by insertion order; hits don't refresh. */
class FifoPolicy final : public ReplacementPolicy
{
  public:
    FifoPolicy(std::uint64_t sets, std::uint32_t ways)
        : ReplacementPolicy(sets, ways), stamp_(sets * ways, 0)
    {
    }

    void on_hit(std::uint64_t, std::uint32_t) override {}

    void
    on_fill(std::uint64_t set, std::uint32_t way) override
    {
        stamp_[set * ways_ + way] = ++clock_;
    }

    std::uint32_t
    victim_way(std::uint64_t set) override
    {
        std::uint32_t victim = 0;
        std::uint64_t oldest = stamp_[set * ways_];
        for (std::uint32_t w = 1; w < ways_; ++w) {
            const std::uint64_t s = stamp_[set * ways_ + w];
            if (s < oldest) {
                oldest = s;
                victim = w;
            }
        }
        return victim;
    }

    bool
    append_state(std::vector<std::uint64_t> &out) const override
    {
        append_rank_state(stamp_, sets_, ways_, out);
        return true;
    }

  private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t clock_ = 0;
};

/** Uniform random victim from a deterministic stream. */
class RandomPolicy final : public ReplacementPolicy
{
  public:
    RandomPolicy(std::uint64_t sets, std::uint32_t ways, std::uint64_t seed)
        : ReplacementPolicy(sets, ways), rng_(seed)
    {
    }

    void on_hit(std::uint64_t, std::uint32_t) override {}
    void on_fill(std::uint64_t, std::uint32_t) override {}

    std::uint32_t
    victim_way(std::uint64_t) override
    {
        return static_cast<std::uint32_t>(rng_.next_below(ways_));
    }

  private:
    util::Rng rng_;
};

} // namespace

std::unique_ptr<ReplacementPolicy>
make_replacement(sim::ReplacementKind kind, std::uint64_t sets,
                 std::uint32_t ways, std::uint64_t seed)
{
    LEAKBOUND_ASSERT(sets > 0 && ways > 0, "degenerate geometry");
    switch (kind) {
      case sim::ReplacementKind::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
      case sim::ReplacementKind::Fifo:
        return std::make_unique<FifoPolicy>(sets, ways);
      case sim::ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(sets, ways, seed);
    }
    LEAKBOUND_PANIC("unreachable: bad ReplacementKind");
}

} // namespace leakbound::oracle
