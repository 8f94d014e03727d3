#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "support/diag.hpp"
#include "support/text.hpp"

namespace pscp::obs {

Histogram::Histogram(std::vector<int64_t> bucketBounds)
    : bounds_(std::move(bucketBounds)), counts_(bounds_.size() + 1, 0) {
  PSCP_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::record(int64_t value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  counts_[static_cast<size_t>(it - bounds_.begin())] += 1;
}

size_t Histogram::bucketOfRank(int64_t rank, int64_t* cumBefore) const {
  PSCP_ASSERT(count_ > 0 && rank >= 1 && rank <= count_);
  int64_t cum = 0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (cum + counts_[b] >= rank) {
      *cumBefore = cum;
      return b;
    }
    cum += counts_[b];
  }
  PSCP_ASSERT(false && "histogram bucket counts do not sum to count()");
  return counts_.size() - 1;
}

Histogram::QuantileBound Histogram::bucketRange(size_t bucket) const {
  // Samples in bucket b satisfy bounds[b-1] < v <= bounds[b] (overflow
  // bucket: v > bounds.back()); clip to the recorded [min, max].
  QuantileBound r;
  r.lo = bucket == 0 ? min_ : std::max(min_, bounds_[bucket - 1] + 1);
  r.hi = bucket < bounds_.size() ? std::min(max_, bounds_[bucket]) : max_;
  if (r.lo > r.hi) r.lo = r.hi;  // single-sided clip on sparse data
  return r;
}

Histogram::QuantileBound Histogram::quantileBounds(double q) const {
  if (count_ == 0) return {0, 0};
  if (q <= 0.0) return {min_, min_};
  if (q >= 1.0) return {max_, max_};
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
  int64_t cumBefore = 0;
  return bucketRange(bucketOfRank(rank, &cumBefore));
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
  int64_t cumBefore = 0;
  const size_t bucket = bucketOfRank(rank, &cumBefore);
  const QuantileBound range = bucketRange(bucket);
  const int64_t inBucket = counts_[bucket];
  // Rank-interpolate inside the bracket; midpoint convention for the rank
  // position keeps the estimate inside [lo, hi] for every q.
  const double fraction =
      inBucket <= 1 ? 0.5
                    : (static_cast<double>(rank - cumBefore) - 0.5) /
                          static_cast<double>(inBucket);
  return static_cast<double>(range.lo) +
         fraction * static_cast<double>(range.hi - range.lo);
}

Histogram Histogram::fromCounts(std::vector<int64_t> bucketBounds,
                                const std::vector<int64_t>& counts, int64_t sum,
                                int64_t min, int64_t max) {
  Histogram h(std::move(bucketBounds));
  PSCP_ASSERT(counts.size() == h.counts_.size() &&
              "fromCounts requires bounds.size() + 1 bucket counts");
  int64_t total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    PSCP_ASSERT(counts[i] >= 0);
    h.counts_[i] = counts[i];
    total += counts[i];
  }
  h.count_ = total;
  if (total > 0) {
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
  }
  return h;
}

int64_t& MetricsRegistry::counter(const std::string& name) {
  return counters_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<int64_t> bucketBounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(name, Histogram(std::move(bucketBounds))).first;
  return it->second;
}

int64_t MetricsRegistry::value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricsRegistry::findHistogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::dumpText() const {
  size_t nameWidth = 0;
  for (const auto& [name, value] : counters_) nameWidth = std::max(nameWidth, name.size());
  std::string out;
  for (const auto& [name, value] : counters_)
    out += padRight(name, nameWidth) + " " +
           padLeft(strfmt("%lld", static_cast<long long>(value)), 12) + "\n";
  for (const auto& [name, h] : histograms_) {
    out += strfmt("%s  count=%lld min=%lld max=%lld mean=%.2f\n", name.c_str(),
                  static_cast<long long>(h.count()), static_cast<long long>(h.min()),
                  static_cast<long long>(h.max()), h.mean());
    for (size_t i = 0; i < h.counts().size(); ++i) {
      if (h.counts()[i] == 0) continue;
      const std::string label =
          i < h.bounds().size()
              ? strfmt("<= %lld", static_cast<long long>(h.bounds()[i]))
              : std::string("> last");
      out += strfmt("  %-10s %lld\n", label.c_str(),
                    static_cast<long long>(h.counts()[i]));
    }
  }
  return out;
}

std::string MetricsRegistry::dumpJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ",";
    first = false;
    out += strfmt("\"%s\":%lld", name.c_str(), static_cast<long long>(value));
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += strfmt("\"%s\":{\"count\":%lld,\"sum\":%lld,\"min\":%lld,\"max\":%lld,",
                  name.c_str(), static_cast<long long>(h.count()),
                  static_cast<long long>(h.sum()), static_cast<long long>(h.min()),
                  static_cast<long long>(h.max()));
    out += "\"bounds\":[";
    for (size_t i = 0; i < h.bounds().size(); ++i) {
      if (i != 0) out += ",";
      out += strfmt("%lld", static_cast<long long>(h.bounds()[i]));
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.counts().size(); ++i) {
      if (i != 0) out += ",";
      out += strfmt("%lld", static_cast<long long>(h.counts()[i]));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

}  // namespace pscp::obs
