#include "support/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>

#include "support/logging.hh"

namespace hotpath
{

void
TextTable::setHeader(std::vector<std::string> names)
{
    header = std::move(names);
}

void
TextTable::beginRow()
{
    rows.emplace_back();
}

void
TextTable::addCell(std::string value)
{
    HOTPATH_ASSERT(!rows.empty(), "beginRow() before addCell()");
    rows.back().push_back(std::move(value));
}

void
TextTable::addCell(double value, int precision)
{
    addCell(formatDouble(value, precision));
}

void
TextTable::addCell(std::uint64_t value)
{
    addCell(formatWithCommas(value));
}

void
TextTable::addCell(std::int64_t value)
{
    if (value < 0) {
        std::string cell = "-";
        cell += formatWithCommas(static_cast<std::uint64_t>(-value));
        addCell(std::move(cell));
    } else {
        addCell(formatWithCommas(static_cast<std::uint64_t>(value)));
    }
}

void
TextTable::addPercentCell(double value, int precision)
{
    addCell(formatPercent(value, precision));
}

void
TextTable::print(std::ostream &os) const
{
    const std::size_t columns = header.size();
    std::vector<std::size_t> width(columns, 0);
    for (std::size_t c = 0; c < columns; ++c)
        width[c] = header[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size() && c < columns; ++c)
            width[c] = std::max(width[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < columns; ++c) {
            const std::string &cell = c < cells.size() ? cells[c] : "";
            os << (c == 0 ? "| " : " | ");
            os << std::setw(static_cast<int>(width[c]))
               << (c == 0 ? std::left : std::right) << cell
               << std::right;
        }
        os << " |\n";
    };

    print_row(header);
    os << "|";
    for (std::size_t c = 0; c < columns; ++c) {
        os << std::string(width[c] + 2, '-');
        os << "|";
    }
    os << "\n";
    for (const auto &row : rows)
        print_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                os << ",";
            os << cells[c];
        }
        os << "\n";
    };
    print_row(header);
    for (const auto &row : rows)
        print_row(row);
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
formatPercent(double value, int precision)
{
    return formatDouble(value, precision) + "%";
}

std::string
formatWithCommas(std::uint64_t value)
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

} // namespace hotpath
