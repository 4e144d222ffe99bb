/**
 * @file
 * Implementation of the ASCII table renderer.
 */

#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hpp"

namespace leakbound::util {

Table::Table(std::string title)
    : title_(std::move(title))
{
}

void
Table::set_header(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::add_row(std::vector<std::string> row)
{
    LEAKBOUND_ASSERT(header_.empty() || row.size() == header_.size(),
                     "table row width ", row.size(),
                     " != header width ", header_.size());
    rows_.push_back(std::move(row));
}

void
Table::add_separator()
{
    rows_.emplace_back();
}

std::string
Table::render() const
{
    // Compute per-column widths over header + all rows.
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&widths](const std::vector<std::string> &row) {
        if (row.empty())
            return;
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    widen(header_);
    for (const auto &row : rows_)
        widen(row);

    std::size_t total = 0;
    for (auto w : widths)
        total += w + 3;

    std::ostringstream os;
    os << "== " << title_ << " ==\n";
    auto emit_row = [&os, &widths](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size()) {
                for (std::size_t pad = row[i].size(); pad < widths[i];
                     ++pad) {
                    os << ' ';
                }
                os << " | ";
            }
        }
        os << '\n';
    };
    if (!header_.empty()) {
        emit_row(header_);
        os << std::string(total > 3 ? total - 3 : total, '-') << '\n';
    }
    for (const auto &row : rows_) {
        if (row.empty())
            os << std::string(total > 3 ? total - 3 : total, '-') << '\n';
        else
            emit_row(row);
    }
    return os.str();
}

void
Table::print() const
{
    const std::string text = render();
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
}

} // namespace leakbound::util
