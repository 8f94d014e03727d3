#include "support/diag.hpp"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace pscp {

std::string SourceLoc::str() const {
  if (!known()) return file.empty() ? std::string("<unknown>") : file;
  std::string out = file.empty() ? std::string("<input>") : file;
  out += ':';
  out += std::to_string(line);
  if (column > 0) {
    out += ':';
    out += std::to_string(column);
  }
  return out;
}

namespace {

std::string vstrfmt(const char* fmt, va_list args) {
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed < 0) return fmt;  // formatting failure: degrade gracefully
  std::vector<char> buf(static_cast<size_t>(needed) + 1);
  std::vsnprintf(buf.data(), buf.size(), fmt, args);
  return std::string(buf.data(), static_cast<size_t>(needed));
}

}  // namespace

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vstrfmt(fmt, args);
  va_end(args);
  return out;
}

Error::Error(std::string message) : std::runtime_error(std::move(message)) {}

Error::Error(SourceLoc loc, std::string message)
    : std::runtime_error(loc.str() + ": " + message), loc_(std::move(loc)) {}

void fail(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string msg = vstrfmt(fmt, args);
  va_end(args);
  throw Error(std::move(msg));
}

void failAt(const SourceLoc& loc, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string msg = vstrfmt(fmt, args);
  va_end(args);
  throw Error(loc, std::move(msg));
}

void checkNesting(int depth, const SourceLoc& loc, const char* what) {
  if (depth > kMaxNesting)
    failAt(loc, "%s nested deeper than %d levels", what, kMaxNesting);
}

namespace detail {

void assertFail(const char* cond, const char* file, int line) {
  throw Error(strfmt("internal assertion failed: %s (%s:%d)", cond, file, line));
}

}  // namespace detail
}  // namespace pscp
