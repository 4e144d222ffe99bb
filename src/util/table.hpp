/**
 * @file
 * ASCII table rendering for bench output.  Every bench binary prints the
 * rows/series the paper reports through this printer so outputs share a
 * uniform, diffable format.
 */

#ifndef LEAKBOUND_UTIL_TABLE_HPP
#define LEAKBOUND_UTIL_TABLE_HPP

#include <string>
#include <vector>

namespace leakbound::util {

/**
 * Column-aligned text table with a title, a header row, and data rows.
 * Cells are strings; numeric formatting is the caller's job (see
 * string_utils.hpp helpers).
 */
class Table
{
  public:
    /** @param title caption printed above the table. */
    explicit Table(std::string title);

    /** Set the header row (defines the column count). */
    void set_header(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void add_row(std::vector<std::string> row);

    /** Append a horizontal separator row. */
    void add_separator();

    /** Render the full table as a string. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    /** Number of data rows added so far. */
    std::size_t num_rows() const { return rows_.size(); }

    /** The caption passed at construction. */
    const std::string &title() const { return title_; }

    /** The header row. */
    const std::vector<std::string> &header() const { return header_; }

    /**
     * All rows in insertion order; separators appear as empty vectors
     * (the JSON reporter skips them, the renderer draws rules).
     */
    const std::vector<std::vector<std::string>> &rows() const
    {
        return rows_;
    }

  private:
    std::string title_;
    std::vector<std::string> header_;
    /** Separator rows are encoded as empty vectors. */
    std::vector<std::vector<std::string>> rows_;
};

} // namespace leakbound::util

#endif // LEAKBOUND_UTIL_TABLE_HPP
