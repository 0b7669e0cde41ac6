#pragma once
// Invariant checking macros. Always on: simulation correctness depends on
// these, and the cost is negligible relative to event dispatch.

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace crusader::util {

/// Thrown when an internal invariant is violated. Tests rely on this being an
/// exception (rather than abort) so that violations are reportable.
class CheckFailure : public std::logic_error {
 public:
  explicit CheckFailure(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when a configured experiment violates the paper's model (e.g. a
/// Byzantine node emits an honest signature it never received).
class ModelViolation : public std::runtime_error {
 public:
  explicit ModelViolation(const std::string& what) : std::runtime_error(what) {}
};

/// The message names the failed expression and the caller's text, never the
/// source location: an errored row's `error` column carries it, and that row
/// must not depend on where the repo is checked out or which line the check
/// sits on.
[[noreturn]] inline void check_fail(const char* expr,
                                    const std::string& msg) {
  std::string what = std::string("CHECK failed: ") + expr;
  if (!msg.empty()) what += " — " + msg;
  throw CheckFailure(what);
}

}  // namespace crusader::util

#define CS_CHECK(expr)                                    \
  do {                                                    \
    if (!(expr)) ::crusader::util::check_fail(#expr, ""); \
  } while (0)

#define CS_CHECK_MSG(expr, msg)                                \
  do {                                                         \
    if (!(expr)) {                                             \
      std::ostringstream cs_check_oss;                         \
      cs_check_oss << msg;                                     \
      ::crusader::util::check_fail(#expr, cs_check_oss.str()); \
    }                                                          \
  } while (0)
