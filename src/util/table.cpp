#include "util/table.hpp"

#include <algorithm>
#include <cstddef>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::util {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
  return *this;
}

Table& Table::add_row(std::vector<std::string> row) {
  CS_CHECK_MSG(header_.empty() || row.size() == header_.size(),
               "row width " << row.size() << " != header width "
                            << header_.size());
  rows_.push_back(std::move(row));
  return *this;
}

// Human-facing console alignment only: Table output is never digested,
// exported to CSV, or replayed — fixed precision is a display choice here,
// not a determinism hazard (CSV/history writers must use util::fmt_double).
std::string Table::num(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;  // lint:allow(float-format)
  return oss.str();
}

std::string Table::sci(double v, int precision) {
  std::ostringstream oss;
  oss << std::scientific << std::setprecision(precision) << v;  // lint:allow(float-format)
  return oss.str();
}

std::string Table::integer(long long v) { return std::to_string(v); }

std::string Table::pct(double ratio, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << (100.0 * ratio)  // lint:allow(float-format)
      << "%";
  return oss.str();
}

std::string Table::boolean(bool v) { return v ? "yes" : "no"; }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths;
  auto absorb = [&widths](const std::vector<std::string>& row) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i)
      widths[i] = std::max(widths[i], row[i].size());
  };
  if (!header_.empty()) absorb(header_);
  for (const auto& row : rows_) absorb(row);

  auto rule = [&os, &widths]() {
    os << '+';
    for (std::size_t w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto emit = [&os, &widths](const std::vector<std::string>& row) {
    os << '|';
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      os << ' ' << cell << std::string(widths[i] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  rule();
  if (!header_.empty()) {
    emit(header_);
    rule();
  }
  for (const auto& row : rows_) emit(row);
  rule();
}

}  // namespace crusader::util
