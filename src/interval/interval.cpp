/**
 * @file
 * Name tables for interval enums.
 */

#include "interval/interval.hpp"

namespace leakbound::interval {

const char *
kind_name(IntervalKind kind)
{
    switch (kind) {
      case IntervalKind::Inner:
        return "inner";
      case IntervalKind::Leading:
        return "leading";
      case IntervalKind::Trailing:
        return "trailing";
      case IntervalKind::Untouched:
        return "untouched";
    }
    return "?";
}

} // namespace leakbound::interval
