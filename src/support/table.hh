/**
 * @file
 * Text and CSV table rendering for the benchmark harnesses.
 *
 * Every bench binary prints the rows of the paper table or figure it
 * regenerates; TextTable keeps the formatting uniform (right-aligned
 * numerics, padded headers) and can also emit CSV so the series can be
 * replotted.
 */

#ifndef HOTPATH_SUPPORT_TABLE_HH
#define HOTPATH_SUPPORT_TABLE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hotpath
{

/** A simple column-aligned table of strings. */
class TextTable
{
  public:
    /** Set the header row; resets column count. */
    void setHeader(std::vector<std::string> names);

    /** Start a new row. */
    void beginRow();

    /** Append a cell to the current row. */
    void addCell(std::string value);
    /** Append a fixed-precision numeric cell. */
    void addCell(double value, int precision = 2);
    /** Append an integer cell with thousands separators. */
    void addCell(std::uint64_t value);
    /** Append a signed integer cell with thousands separators. */
    void addCell(std::int64_t value);

    /** Convenience: percentage cell, e.g. 97.53 -> "97.53%". */
    void addPercentCell(double value, int precision = 2);

    /** Render the padded text table. */
    void print(std::ostream &os) const;

    /** Render as CSV. */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with fixed precision. */
std::string formatDouble(double value, int precision = 2);

/** Format value as a percentage string with fixed precision. */
std::string formatPercent(double value, int precision = 2);

/** Insert thousands separators, e.g. 36738 -> "36,738". */
std::string formatWithCommas(std::uint64_t value);

} // namespace hotpath

#endif // HOTPATH_SUPPORT_TABLE_HH
