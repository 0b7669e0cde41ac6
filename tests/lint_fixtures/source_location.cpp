// Golden fixture for scripts/lint_determinism.py — rule: source-location.
// expect: source-location source-location source-location source-location source-location
// A failure message that names the file or line it was raised on puts the
// checkout path into whatever row carries it. Names that merely contain the
// words (file_line_count, source_locations_seen) must NOT be flagged.
#include <source_location>  // VIOLATION: the header is only there to use it
#include <string>

namespace fixture {

std::string where_preprocessor() {
  return std::string(__FILE__) + ":" + std::to_string(__LINE__);  // VIOLATION
}

std::string where_builtin() {
  return std::string(__builtin_FILE()) + std::to_string(__builtin_LINE());  // VIOLATION
}

unsigned where_std(
    std::source_location loc = std::source_location::current()) {  // VIOLATION
  return loc.line();
}

const char* basename_only() {
  return __FILE_NAME__;  // VIOLATION: still a build-layout detail
}

int file_line_count = 0;        // fine: an identifier, not the macro
int source_locations_seen = 0;  // fine: an identifier, not the type

}  // namespace fixture
