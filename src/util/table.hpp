#pragma once
// ASCII table writer used by every benchmark binary so that all
// experiment tables share one consistent, paper-style format.

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace crusader::util {

/// Column-aligned table. Cells are strings; helpers format numbers.
class Table {
 public:
  explicit Table(std::string title = {});

  Table& set_header(std::vector<std::string> header);
  Table& add_row(std::vector<std::string> row);

  /// Number formatting helpers.
  [[nodiscard]] static std::string num(double v, int precision = 4);
  [[nodiscard]] static std::string sci(double v, int precision = 3);
  [[nodiscard]] static std::string integer(long long v);
  [[nodiscard]] static std::string pct(double ratio, int precision = 1);
  [[nodiscard]] static std::string boolean(bool v);

  /// Render with box-drawing alignment to the stream.
  void print(std::ostream& os) const;

  [[nodiscard]] const std::string& title() const noexcept { return title_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace crusader::util
