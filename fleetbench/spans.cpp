#include "spans.hpp"

#include <algorithm>
#include <cstdio>

namespace fleetbench {

std::map<std::string, SpanTotals> Spans::totals() const {
  // Children close before their parent and never overlap each other (one
  // recording thread), so the time a span's children cover is the sum of
  // their durations.
  std::vector<int64_t> childNs(records_.size(), 0);
  for (const Record& r : records_)
    if (r.parent >= 0) childNs[static_cast<size_t>(r.parent)] += r.end - r.start;
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    SpanTotals& t = out[r.name];
    t.count += 1;
    t.totalNs += r.end - r.start;
    t.selfNs += r.end - r.start - childNs[i];
  }
  return out;
}

double Spans::emptySpanNs() {
  Spans scratch;
  std::vector<int64_t> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    scratch.begin("calibrate");
    samples.push_back(scratch.end());
  }
  std::nth_element(samples.begin(), samples.begin() + 10000, samples.end());
  return static_cast<double>(samples[10000]);
}

bool Spans::write(const std::string& path, size_t perNameCap) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const int64_t origin = records_.empty() ? 0 : records_.front().start;
  std::map<std::string, size_t> written;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (written[r.name]++ >= perNameCap) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d}}",
                 first ? "" : ",\n", r.name,
                 static_cast<double>(r.start - origin) / 1000.0,
                 static_cast<double>(r.end - r.start) / 1000.0, i, r.parent);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace fleetbench
