/**
 * @file
 * Implementation of the stride predictor.
 */

#include "prefetch/stride.hpp"

#include "util/logging.hpp"

namespace leakbound::prefetch {

StridePredictor::StridePredictor(const StrideConfig &config)
    : config_(config)
{
    if (config_.table_entries == 0) {
        // Unbounded mode starts empty and grows on demand (handled in
        // slot_for via chaining on the vector); reserve a little.
        table_.reserve(1 << 12);
    } else {
        LEAKBOUND_ASSERT(
            (config_.table_entries & (config_.table_entries - 1)) == 0,
            "stride table entries must be a power of two");
        table_.resize(config_.table_entries);
    }
}

void
StridePredictor::reset()
{
    const StrideConfig config = config_;
    *this = StridePredictor(config);
}

} // namespace leakbound::prefetch
