/**
 * @file
 * Small string formatting helpers used by the table/CSV printers and
 * bench harnesses: percentages, thousands separators, fixed-width
 * doubles, and basic split/trim.
 */

#ifndef LEAKBOUND_UTIL_STRING_UTILS_HPP
#define LEAKBOUND_UTIL_STRING_UTILS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace leakbound::util {

/** Format @p fraction (0..1) as a percentage string, e.g. "96.4%". */
std::string format_percent(double fraction, int decimals = 1);

/** Format a double with a fixed number of decimals. */
std::string format_fixed(double value, int decimals);

/** Format an integer with thousands separators, e.g. "103,084". */
std::string format_commas(std::uint64_t value);

/** Split @p text on @p sep; empty fields are preserved. */
std::vector<std::string> split(std::string_view text, char sep);

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** True if @p text starts with @p prefix. */
bool starts_with(std::string_view text, std::string_view prefix);

/** Lowercase an ASCII string. */
std::string to_lower(std::string_view text);

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_STRING_UTILS_HPP
