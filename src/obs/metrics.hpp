// MetricsRegistry: named counters and bucketed histograms with plain-text
// and JSON dumps. The TraceRecorder populates one from machine events; the
// benches and reports read their numbers from here instead of re-deriving
// them ad hoc (Tables 3/4 discipline: one source of measured truth).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pscp::obs {

/// Bucketed histogram over int64 samples. Bucket i counts samples with
/// value <= bounds[i]; one implicit overflow bucket catches the rest.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<int64_t> bucketBounds);

  void record(int64_t value);

  [[nodiscard]] int64_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] int64_t sum() const { return sum_; }
  /// Smallest/largest recorded sample. On an empty histogram both report 0
  /// by contract (check empty() to tell a genuine 0 minimum from "no
  /// samples"); the internal sentinels never leak out.
  [[nodiscard]] int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] int64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  [[nodiscard]] const std::vector<int64_t>& bounds() const { return bounds_; }
  /// counts().size() == bounds().size() + 1 (last entry = overflow bucket).
  [[nodiscard]] const std::vector<int64_t>& counts() const { return counts_; }

  /// Interval guaranteed to contain the exact nearest-rank q-quantile of
  /// the recorded samples: the bucket holding the rank-ceil(q*count)
  /// sample, clipped to [min, max]. hi - lo is the bucketing error bound
  /// (0 on an empty histogram, and whenever the bucket is a single value).
  /// Empty-histogram contract: quantileBounds() returns {0, 0} and
  /// quantile() returns 0.0 for every q — same convention as min()/max();
  /// check empty() to distinguish "no samples" from a genuine 0 quantile.
  struct QuantileBound {
    int64_t lo = 0;
    int64_t hi = 0;
  };
  [[nodiscard]] QuantileBound quantileBounds(double q) const;
  /// Point estimate of the q-quantile: rank-interpolated within the
  /// bracket from quantileBounds(q), so quantile(q) is always inside it.
  /// Exact-vs-bucketed error is bounded by that bracket's width.
  [[nodiscard]] double quantile(double q) const;

  /// Rebuild a histogram from externally maintained bucket counts (the
  /// fleet's per-worker counter blocks keep atomic bucket arrays; health
  /// snapshots re-enter the reporting stack through here).
  /// `counts` must have bounds.size() + 1 entries; `sum`/`min`/`max` are
  /// the tracked aggregate stats for the same samples. An all-zero counts
  /// array yields an empty histogram with the given bounds.
  [[nodiscard]] static Histogram fromCounts(std::vector<int64_t> bucketBounds,
                                            const std::vector<int64_t>& counts,
                                            int64_t sum, int64_t min,
                                            int64_t max);

 private:
  /// Bucket index and cumulative count strictly before it for a 1-based
  /// sample rank; requires count_ > 0.
  [[nodiscard]] size_t bucketOfRank(int64_t rank, int64_t* cumBefore) const;
  [[nodiscard]] QuantileBound bucketRange(size_t bucket) const;

  std::vector<int64_t> bounds_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t sum_ = 0;
  int64_t min_ = 0;  ///< valid only when count_ > 0
  int64_t max_ = 0;  ///< valid only when count_ > 0
};

class MetricsRegistry {
 public:
  /// Mutable reference to a counter, created at zero on first use.
  int64_t& counter(const std::string& name);
  void add(const std::string& name, int64_t delta) { counter(name) += delta; }

  /// Histogram with the given bucket bounds, created on first use (bounds
  /// of an existing histogram are kept).
  Histogram& histogram(const std::string& name, std::vector<int64_t> bucketBounds);

  /// Read-only lookup; missing counters read as 0, missing histograms as
  /// an empty histogram.
  [[nodiscard]] int64_t value(const std::string& name) const;
  [[nodiscard]] bool hasCounter(const std::string& name) const {
    return counters_.count(name) != 0;
  }
  [[nodiscard]] const Histogram* findHistogram(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, int64_t>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Aligned plain-text report (counters first, then histograms).
  [[nodiscard]] std::string dumpText() const;
  /// Machine-readable dump: {"counters": {...}, "histograms": {...}}.
  [[nodiscard]] std::string dumpJson() const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pscp::obs
