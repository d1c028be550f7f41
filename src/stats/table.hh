/**
 * @file
 * ASCII table renderer used by the per-figure benchmark harnesses to
 * print the same rows/series the paper reports.
 */

#ifndef MOP_STATS_TABLE_HH
#define MOP_STATS_TABLE_HH

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace mop::stats
{

/** Simple column-aligned table with a title and optional footnote. */
class Table
{
  public:
    explicit Table(std::string title) : title_(std::move(title)) {}

    void
    setColumns(std::vector<std::string> names)
    {
        columns_ = std::move(names);
    }

    /** Begin a row labeled by its first cell. */
    void
    addRow(std::vector<std::string> cells)
    {
        rows_.push_back(std::move(cells));
    }

    void setFootnote(std::string s) { footnote_ = std::move(s); }

    static std::string
    fmt(double v, int prec = 3)
    {
        std::ostringstream ss;
        ss << std::fixed << std::setprecision(prec) << v;
        return ss.str();
    }

    static std::string
    pct(double v, int prec = 1)
    {
        std::ostringstream ss;
        ss << std::fixed << std::setprecision(prec) << (v * 100.0) << "%";
        return ss.str();
    }

    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> columns_;
    std::vector<std::vector<std::string>> rows_;
    std::string footnote_;
};

} // namespace mop::stats

#endif // MOP_STATS_TABLE_HH
