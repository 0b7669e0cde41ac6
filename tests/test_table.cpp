#include "util/table.hpp"

#include <cstddef>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

#include "util/check.hpp"

namespace crusader::util {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.set_header({"a", "bee"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("bee"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, AlignsColumns) {
  Table t;
  t.set_header({"x", "y"});
  t.add_row({"longvalue", "1"});
  std::ostringstream oss;
  t.print(oss);
  // Every line between rules must have equal length.
  std::istringstream iss(oss.str());
  std::string line;
  std::size_t len = 0;
  while (std::getline(iss, line)) {
    if (line.empty()) continue;
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len) << line;
  }
}

TEST(Table, RowWidthMismatchThrows) {
  Table t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), CheckFailure);
}

TEST(Table, NumberFormatters) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::pct(0.5, 0), "50%");
  EXPECT_EQ(Table::boolean(true), "yes");
  EXPECT_EQ(Table::boolean(false), "no");
  EXPECT_EQ(Table::sci(1234.5, 2).substr(0, 4), "1.23");
}

TEST(Table, EmptyTableStillPrints) {
  Table t("empty");
  std::ostringstream oss;
  t.print(oss);
  EXPECT_NE(oss.str().find("empty"), std::string::npos);
}

}  // namespace
}  // namespace crusader::util
