/**
 * @file
 * Implementation of string formatting helpers.
 */

#include "util/string_utils.hpp"

#include <cctype>
#include <cstdio>

namespace leakbound::util {

std::string
format_percent(double fraction, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

std::string
format_fixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

std::string
format_commas(std::uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    out.reserve(digits.size() + digits.size() / 3);
    std::size_t lead = digits.size() % 3;
    if (lead == 0)
        lead = 3;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i != 0 && (i + 3 - lead) % 3 == 0)
            out.push_back(',');
        out.push_back(digits[i]);
    }
    return out;
}

std::vector<std::string>
split(std::string_view text, char sep)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            fields.emplace_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

std::string
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return std::string(text.substr(begin, end - begin));
}

bool
starts_with(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
to_lower(std::string_view text)
{
    std::string out(text);
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

} // namespace leakbound::util
