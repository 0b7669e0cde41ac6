#pragma once
// One spelling table per enum: rows of {value, text}. The first row for a
// value is its canonical name (what to_string prints and the CSV records);
// every row parses, so later rows for the same value are aliases. to_string
// and the command-line parsers both read the table, so no spelling is
// written twice.

#include <cstddef>
#include <optional>
#include <string_view>

namespace crusader::util {

template <typename E>
struct Spelling {
  E value;
  const char* text;
};

/// The canonical spelling of `value`: the text of its first row.
template <typename E, std::size_t N>
[[nodiscard]] constexpr const char* spell(const Spelling<E> (&table)[N],
                                          E value) {
  for (const auto& row : table)
    if (row.value == value) return row.text;
  return "?";
}

/// The value whose row spells `text` exactly; nullopt for no row.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> parse_spelling(
    const Spelling<E> (&table)[N], std::string_view text) {
  for (const auto& row : table)
    if (text == row.text) return row.value;
  return std::nullopt;
}

}  // namespace crusader::util
