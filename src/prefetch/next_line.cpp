/**
 * @file
 * Implementation of the next-line coverage monitor.
 */

#include "prefetch/next_line.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace leakbound::prefetch {

namespace {

/** Initial page-index slots: a few hundred pages before the first grow. */
constexpr std::size_t kIndexSlots = 1 << 9;

} // namespace

NextLineMonitor::NextLineMonitor() : index_(kIndexSlots) {}

bool
NextLineMonitor::covers(Addr block, Cycle open_since) const
{
    return covers(block, open_since,
                  std::numeric_limits<Cycle>::max(), 0);
}

const std::uint64_t *
NextLineMonitor::find_page(Addr page) const
{
    static constexpr Page kUntouched{};
    std::uint64_t at;
    if (!index_.get(page, at))
        return kUntouched.data();
    memo_page_ = page;
    // The memo is written through by record(), which only a non-const
    // monitor can call.
    memo_ = const_cast<std::uint64_t *>(pages_[at].data());
    return memo_;
}

std::uint64_t *
NextLineMonitor::page_for_record(Addr page)
{
    std::uint64_t at;
    if (!index_.get(page, at)) {
        at = pages_.size();
        pages_.emplace_back(); // zeroed; may move every page
        index_.put(page, at);
    }
    memo_page_ = page;
    memo_ = pages_[at].data();
    return memo_;
}

void
NextLineMonitor::append_state(std::vector<std::uint64_t> &out,
                              Cycle now) const
{
    // Pages sit in first-touch order, so sort them by page number.
    std::vector<std::pair<Addr, std::uint64_t>> order;
    order.reserve(pages_.size());
    index_.for_each([&order](std::uint64_t page, std::uint64_t at) {
        order.emplace_back(page, at);
    });
    std::sort(order.begin(), order.end());

    const std::size_t count_at = out.size();
    out.push_back(0);
    std::uint64_t count = 0;
    for (const auto &[page, at] : order) {
        const Page &stamps = pages_[at];
        for (Addr i = 0; i < kPageBlocks; ++i) {
            if (stamps[i] == 0)
                continue;
            out.push_back(page << kPageShift | i);
            out.push_back(now - (stamps[i] - 1));
            ++count;
        }
    }
    out[count_at] = count;
}

void
NextLineMonitor::warp(Cycles delta)
{
    for (Page &stamps : pages_)
        for (std::uint64_t &stamp : stamps)
            if (stamp != 0)
                stamp += delta;
}

void
NextLineMonitor::reset()
{
    pages_.clear();
    index_.clear();
    memo_page_ = kNoPage;
    memo_ = nullptr;
    covered_ = 0;
}

} // namespace leakbound::prefetch
