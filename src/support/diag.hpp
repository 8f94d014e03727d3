// Diagnostics: source locations, formatted errors, and the PSCP exception
// type used for all user-input (parse/type/constraint) failures.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace pscp {

/// Position inside a user-supplied text (chart source, action code, asm).
struct SourceLoc {
  std::string file;  ///< logical file name ("<chart>", "motor.c", ...)
  int line = 0;      ///< 1-based; 0 means "unknown"
  int column = 0;    ///< 1-based; 0 means "unknown"

  [[nodiscard]] bool known() const { return line > 0; }
  [[nodiscard]] std::string str() const;
};

/// printf-style formatting into a std::string (std::format is unavailable
/// on the reference toolchain).
[[gnu::format(printf, 1, 2)]] std::string strfmt(const char* fmt, ...);

/// The exception thrown for every recoverable PSCP error. Carries an
/// optional source location which is prepended to what().
class Error : public std::runtime_error {
 public:
  explicit Error(std::string message);
  Error(SourceLoc loc, std::string message);

  [[nodiscard]] const SourceLoc& where() const { return loc_; }

 private:
  SourceLoc loc_;
};

/// Throw an Error with printf-style formatting.
[[noreturn, gnu::format(printf, 1, 2)]] void fail(const char* fmt, ...);
[[noreturn, gnu::format(printf, 2, 3)]] void failAt(const SourceLoc& loc,
                                                    const char* fmt, ...);

/// Deepest nesting the text front ends accept: action expressions and
/// statements, transition-label and spec expressions, and the chart's state
/// hierarchy. An atom, a top-level statement and a top-level state are one
/// level deep; each enclosing parenthesized group, operator, statement or
/// state adds one. An operator chain nests its left operand one level per
/// operator where the parser builds a left-deep tree. Later passes recurse
/// over these trees, so the bound is what keeps hostile input off the end
/// of the stack (and the hierarchy passes out of cubic time).
inline constexpr int kMaxNesting = 256;

/// A located parse error when `depth` exceeds kMaxNesting; `what` names
/// the construct ("expression", "statement", "state").
void checkNesting(int depth, const SourceLoc& loc, const char* what);

/// One level of nesting on `depth` for the guard's scope (checked as
/// checkNesting does before the level is counted).
class NestingGuard {
 public:
  NestingGuard(int& depth, const SourceLoc& loc, const char* what) : depth_(depth) {
    checkNesting(depth_ + 1, loc, what);
    ++depth_;
  }
  ~NestingGuard() { --depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

 private:
  int& depth_;
};

namespace detail {
[[noreturn]] void assertFail(const char* cond, const char* file, int line);
}  // namespace detail

/// Internal invariant check; always on (these models are not hot enough to
/// justify a release/debug split, and silent corruption is far worse).
#define PSCP_ASSERT(cond)                                        \
  do {                                                           \
    if (!(cond)) ::pscp::detail::assertFail(#cond, __FILE__, __LINE__); \
  } while (false)

}  // namespace pscp
