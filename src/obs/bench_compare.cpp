#include "obs/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>

#include "support/diag.hpp"
#include "support/text.hpp"

namespace pscp::obs {

namespace {

bool containsAny(const std::string& haystack,
                 std::initializer_list<const char*> needles) {
  for (const char* n : needles)
    if (haystack.find(n) != std::string::npos) return true;
  return false;
}

const char* directionName(MetricDirection d) {
  switch (d) {
    case MetricDirection::kHigherIsBetter: return "higher";
    case MetricDirection::kLowerIsBetter: return "lower";
    case MetricDirection::kTwoSided: return "exact";
  }
  return "?";
}

}  // namespace

MetricDirection metricDirection(const std::string& path) {
  const std::string p = toLower(path);
  // Higher-is-better wins ties ("speedup_cycles" is still a speedup, and
  // "cycles_per_sec" is a rate, not a cycle count).
  if (containsAny(p, {"speedup", "throughput", "util", "ops_per", "per_sec",
                      "efficiency", "ipc"}))
    return MetricDirection::kHigherIsBetter;
  // "_ns"/"ns_per", not bare "ns": "transitions" is a structural count.
  if (containsAny(p, {"_ns", "ns_per", "cycles", "stall", "wait", "latency",
                      "time", "depth", "misses"}))
    return MetricDirection::kLowerIsBetter;
  return MetricDirection::kTwoSided;
}

BenchCompareResult compareBenchJson(const JsonValue& baseline,
                                    const JsonValue& current,
                                    const BenchCompareOptions& options) {
  BenchCompareResult result;
  // The "host" block is provenance, not performance: its numeric leaves
  // (core counts) are dropped from the comparison entirely, and a
  // member-wise mismatch raises the hostMismatch warning instead.
  const JsonValue* baseHost = baseline.find("host");
  const JsonValue* curHost = current.find("host");
  if (baseHost != nullptr && curHost != nullptr &&
      baseHost->dump() != curHost->dump()) {
    result.hostMismatch = true;
    // Name the differing members instead of dumping both blobs: a
    // capability mismatch (jit) changes what the numbers *mean*, while
    // cpu_model/governor drift merely adds noise — the reader should see
    // which case this is at a glance.
    const auto memberDump = [](const JsonValue* host, const std::string& key) {
      const JsonValue* v = host->find(key);
      return v == nullptr ? std::string("<absent>") : v->dump();
    };
    std::vector<std::string> keys;
    for (const auto& [key, value] : baseHost->object) keys.push_back(key);
    for (const auto& [key, value] : curHost->object)
      if (baseHost->find(key) == nullptr) keys.push_back(key);
    for (const std::string& key : keys) {
      const std::string baseMember = memberDump(baseHost, key);
      const std::string curMember = memberDump(curHost, key);
      if (baseMember == curMember) continue;
      const bool capability = key == "jit";
      result.notes.push_back(strfmt(
          "host mismatch%s: %s baseline %s vs current %s",
          capability ? " (execution capability — metrics not comparable)" : "",
          key.c_str(), baseMember.c_str(), curMember.c_str()));
    }
  } else if ((baseHost == nullptr) != (curHost == nullptr)) {
    result.notes.push_back(strfmt("host metadata present only in %s document",
                                  baseHost != nullptr ? "baseline" : "current"));
  }
  const auto isHostPath = [](const std::string& path) {
    return path.rfind("host.", 0) == 0;
  };
  std::map<std::string, double> base;
  for (const auto& [path, value] : baseline.numericLeaves())
    if (!isHostPath(path)) base[path] = value;
  std::map<std::string, double> cur;
  for (const auto& [path, value] : current.numericLeaves())
    if (!isHostPath(path)) cur[path] = value;

  // Thread-scaling metrics (speedup_vs_1t, efficiency) are meaningless
  // when the document's own host ran fewer hardware threads than the
  // sweep asked for — a 4-thread sweep on a 1-CPU container measures
  // scheduler interleaving, not scaling. When either document's sweep
  // oversubscribed its host, the metric is noted and skipped, not gated.
  const auto docThreads = [](const std::map<std::string, double>& leaves) {
    const auto it = leaves.find("hardware_threads");
    return it == leaves.end() ? 0.0 : it->second;
  };
  const double baseHw = docThreads(base);
  const double curHw = docThreads(cur);
  const auto siblingThreads = [](const std::map<std::string, double>& leaves,
                                 const std::string& path) -> const double* {
    const size_t dot = path.rfind('.');
    const std::string sibling =
        (dot == std::string::npos ? std::string() : path.substr(0, dot + 1)) +
        "threads";
    const auto it = leaves.find(sibling);
    return it == leaves.end() ? nullptr : &it->second;
  };

  for (const auto& [path, baseValue] : base) {
    const auto it = cur.find(path);
    if (it == cur.end()) {
      result.notes.push_back(strfmt("baseline-only metric: %s", path.c_str()));
      continue;
    }
    MetricDelta d;
    d.path = path;
    d.baseline = baseValue;
    d.current = it->second;
    d.direction = metricDirection(path);
    d.tolerance = options.tolerance;
    size_t bestMatch = 0;
    for (const auto& [pattern, tol] : options.perMetricTolerance)
      if (pattern.size() >= bestMatch && path.find(pattern) != std::string::npos) {
        bestMatch = pattern.size();
        d.tolerance = tol;
      }
    for (const std::string& pattern : options.ignore)
      if (path.find(pattern) != std::string::npos) d.ignored = true;

    if (!d.ignored && containsAny(toLower(path), {"speedup", "efficiency"})) {
      const double* baseThreads = siblingThreads(base, path);
      const double* curThreads = siblingThreads(cur, path);
      const bool baseOversub =
          baseThreads != nullptr && baseHw > 0.0 && *baseThreads > baseHw;
      const bool curOversub =
          curThreads != nullptr && curHw > 0.0 && *curThreads > curHw;
      if (baseOversub || curOversub) {
        d.ignored = true;
        result.notes.push_back(strfmt(
            "scaling metric %s not gated: %s host ran %g threads on %g "
            "hardware threads (oversubscribed sweep measures scheduling, "
            "not scaling)",
            path.c_str(), baseOversub ? "baseline" : "current",
            baseOversub ? *baseThreads : *curThreads,
            baseOversub ? baseHw : curHw));
      }
    }

    if (baseValue == 0.0) {
      // No relative scale: gate exactly (any change on a zero baseline is
      // flagged for two-sided/lower-is-better metrics, a drop to nothing
      // cannot happen, a rise from zero of a lower-is-better metric can).
      d.change = d.current == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
      d.regression = !d.ignored && d.current != 0.0 &&
                     d.direction != MetricDirection::kHigherIsBetter;
    } else {
      d.change = (d.current - d.baseline) / std::fabs(d.baseline);
      switch (d.direction) {
        case MetricDirection::kHigherIsBetter:
          d.regression = d.change < -d.tolerance;
          break;
        case MetricDirection::kLowerIsBetter:
          d.regression = d.change > d.tolerance;
          break;
        case MetricDirection::kTwoSided:
          d.regression = std::fabs(d.change) > d.tolerance;
          break;
      }
      d.regression = d.regression && !d.ignored;
    }
    if (d.regression) ++result.regressions;
    result.deltas.push_back(std::move(d));
  }

  for (const auto& [path, value] : cur) {
    (void)value;
    if (base.find(path) == base.end())
      result.notes.push_back(strfmt("new metric (not in baseline): %s", path.c_str()));
  }
  return result;
}

std::string BenchCompareResult::summaryText() const {
  std::vector<std::vector<std::string>> rows;
  for (const MetricDelta& d : deltas) {
    const bool infinite = std::isinf(d.change);
    rows.push_back(
        {d.path, strfmt("%.4g", d.baseline), strfmt("%.4g", d.current),
         infinite ? std::string("inf") : strfmt("%+.1f%%", 100.0 * d.change),
         directionName(d.direction), strfmt("%.0f%%", 100.0 * d.tolerance),
         d.ignored ? "ignored" : (d.regression ? "REGRESSION" : "ok")});
  }
  std::string out = renderTable(
      {"metric", "baseline", "current", "change", "dir", "tol", "verdict"}, rows);
  for (const std::string& note : notes) out += "note: " + note + "\n";
  if (hostMismatch)
    out +=
        "WARNING: baseline and current were captured on different host "
        "shapes; deltas may reflect the machine, not the code\n";
  out += regressions == 0
             ? strfmt("PASS: %zu metrics compared, no regressions\n", deltas.size())
             : strfmt("REGRESSION: %d of %zu metrics regressed\n", regressions,
                      deltas.size());
  return out;
}

}  // namespace pscp::obs
