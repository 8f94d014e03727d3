// In-memory span recorder for the traced run: one span (name, start, end,
// parent) around each call the benchmark makes into a layer. Spans are
// appended to a flat vector and written out once, when the run ends.
// A null Spans* means an untraced run; every helper is then a no-op.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

[[nodiscard]] inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanTotals {
  int64_t count = 0;
  int64_t totalNs = 0;
  int64_t selfNs = 0;  ///< duration minus the time child spans cover
};

class Spans {
 public:
  Spans() { records_.reserve(size_t{1} << 20); }

  /// Open a span under the innermost open span; returns its handle.
  int32_t begin(const char* name) {
    records_.push_back({name, nowNs(), 0, open_.empty() ? -1 : open_.back()});
    const auto index = static_cast<int32_t>(records_.size() - 1);
    open_.push_back(index);
    return index;
  }
  /// Close the innermost span, optionally renaming it (a probe learns a
  /// cycle's class only after the call returns). Returns its duration.
  int64_t end(const char* rename = nullptr) {
    Record& r = records_[static_cast<size_t>(open_.back())];
    open_.pop_back();
    r.end = nowNs();
    if (rename != nullptr) r.name = rename;
    return r.end - r.start;
  }

  /// Per-name count, total and self time over every recorded span.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const;
  /// Median cost of an empty begin()/end() pair, measured on a scratch
  /// recorder; subtracted from per-call probe means.
  [[nodiscard]] static double emptySpanNs();
  /// Chrome-trace JSON (complete events; the parent index rides in args).
  /// At most `perNameCap` spans of each name are written; totals() always
  /// covers all of them.
  bool write(const std::string& path, size_t perNameCap) const;

 private:
  struct Record {
    const char* name;
    int64_t start;
    int64_t end;
    int32_t parent;
  };
  std::vector<Record> records_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder records nothing.
class Scoped {
 public:
  Scoped(Spans* spans, const char* name) : spans_(spans) {
    if (spans_ != nullptr) spans_->begin(name);
  }
  ~Scoped() {
    if (spans_ != nullptr) spans_->end();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans* spans_;
};

/// Run `fn` under a span named `name` (or just a clock pair when `spans`
/// is null) and return its duration in ns.
template <class Fn>
int64_t timeSpan(Spans* spans, const char* name, Fn&& fn) {
  if (spans != nullptr) {
    spans->begin(name);
    fn();
    return spans->end();
  }
  const int64_t start = nowNs();
  fn();
  return nowNs() - start;
}

}  // namespace fleetbench
