/**
 * @file
 * Implementation of the statistics accumulators.
 */

#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace leakbound::util {

void
Accumulator::add(double x)
{
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

LatencyRecorder::LatencyRecorder(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 2))
{
    samples_.reserve(capacity_);
}

void
LatencyRecorder::add(double value)
{
    summary_.add(value);
    if (total_++ % stride_ == 0) {
        if (samples_.size() == capacity_) {
            // Buffer full: thin to every other retained sample and
            // double the stride, so memory stays bounded while the
            // kept samples remain spread over the whole history.
            std::size_t kept = 0;
            for (std::size_t i = 0; i < samples_.size(); i += 2)
                samples_[kept++] = samples_[i];
            samples_.resize(kept);
            stride_ *= 2;
        }
        samples_.push_back(value);
    }
}

double
LatencyRecorder::quantile(double q) const
{
    if (samples_.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    std::vector<double> sorted = samples_;
    const std::size_t rank = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                     sorted.end());
    return sorted[rank];
}

void
LatencyRecorder::reset()
{
    total_ = 0;
    stride_ = 1;
    samples_.clear();
    summary_.reset();
}

double
Accumulator::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

} // namespace leakbound::util
