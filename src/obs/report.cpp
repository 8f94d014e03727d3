#include "obs/report.hpp"

#include <algorithm>
#include <cstdio>

#include "support/diag.hpp"
#include "support/json.hpp"
#include "support/text.hpp"

namespace pscp::obs {

namespace {

std::string nameOf(const std::vector<std::string>& names, size_t index,
                   const char* prefix) {
  if (index < names.size() && !names[index].empty()) return names[index];
  return strfmt("%s%zu", prefix, index);
}

double pct(int64_t part, int64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

std::string i64(int64_t v) { return strfmt("%lld", static_cast<long long>(v)); }

/// Transition ids ordered by descending profile cycles, zero-call entries
/// dropped — shared by the text and JSON emitters so both agree.
std::vector<int> rankedTransitions(const Profiler& prof) {
  std::vector<int> ids;
  for (size_t t = 0; t < prof.transitions().size(); ++t)
    if (prof.transitions()[t].calls > 0) ids.push_back(static_cast<int>(t));
  std::sort(ids.begin(), ids.end(), [&](int a, int b) {
    const auto& pa = prof.transitions()[static_cast<size_t>(a)];
    const auto& pb = prof.transitions()[static_cast<size_t>(b)];
    if (pa.cycles != pb.cycles) return pa.cycles > pb.cycles;
    return a < b;
  });
  return ids;
}

std::vector<std::pair<int, StateProfile>> rankedStates(
    const Profiler& prof, const std::vector<StateProfile>& states) {
  (void)prof;
  std::vector<std::pair<int, StateProfile>> out;
  for (size_t s = 0; s < states.size(); ++s)
    if (states[s].totalCalls > 0) out.emplace_back(static_cast<int>(s), states[s]);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.totalCycles != b.second.totalCycles)
      return a.second.totalCycles > b.second.totalCycles;
    return a.first < b.first;
  });
  return out;
}

std::string percentileRow(const char* label, const SampleQuantile& q) {
  return strfmt("  %-22s p50 %6lld   p90 %6lld   p99 %6lld   min %5lld   "
                "max %6lld   mean %8.1f   (n=%lld)\n",
                label, static_cast<long long>(q.quantile(0.50)),
                static_cast<long long>(q.quantile(0.90)),
                static_cast<long long>(q.quantile(0.99)),
                static_cast<long long>(q.min()), static_cast<long long>(q.max()),
                q.mean(), static_cast<long long>(q.count()));
}

std::string percentileJson(const SampleQuantile& q) {
  return strfmt("{\"p50\":%lld,\"p90\":%lld,\"p99\":%lld,\"min\":%lld,"
                "\"max\":%lld,\"mean\":%.2f}",
                static_cast<long long>(q.quantile(0.50)),
                static_cast<long long>(q.quantile(0.90)),
                static_cast<long long>(q.quantile(0.99)),
                static_cast<long long>(q.min()), static_cast<long long>(q.max()),
                q.mean());
}

}  // namespace

std::string profileText(const Profiler& prof, const ReportOptions& options) {
  const TraceMeta& meta = prof.meta();
  std::string out;
  out += strfmt("=== PSCP cycle-attribution profile: %s (%d TEP%s) ===\n",
                meta.chartName.empty() ? "<unnamed>" : meta.chartName.c_str(),
                meta.tepCount, meta.tepCount == 1 ? "" : "s");
  out += strfmt("config cycles %lld (quiescent %lld)   machine cycles %lld   "
                "transitions fired %lld\n\n",
                static_cast<long long>(prof.configCycles()),
                static_cast<long long>(prof.quiescentCycles()),
                static_cast<long long>(prof.totalCycles()),
                static_cast<long long>(prof.transitionsFired()));

  out += "-- where the cycles went (exclusive, critical-path attribution) --\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (int c = 0; c < kCycleCatCount; ++c) {
      const int64_t v = prof.categoryTotals()[static_cast<size_t>(c)];
      rows.push_back({cycleCatName(static_cast<CycleCat>(c)), i64(v),
                      strfmt("%5.1f%%", pct(v, prof.totalCycles()))});
    }
    rows.push_back({"total", i64(prof.totalCycles()), "100.0%"});
    out += renderTable({"category", "cycles", "share"}, rows);
  }

  out += "\n-- critical TEP (bounded the configuration cycle) --\n";
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t i = 0; i < prof.teps().size(); ++i) {
      const TepProfile& tp = prof.teps()[i];
      rows.push_back(
          {strfmt("TEP %zu", i), i64(tp.criticalCycles),
           strfmt("%5.1f%%", pct(tp.criticalCycles,
                                 prof.configCycles() - prof.quiescentCycles())),
           i64(tp.busyCycles), i64(tp.busStalls), i64(tp.memWaits),
           i64(tp.routines), i64(tp.instructions)});
    }
    out += renderTable({"tep", "critical", "share", "busy", "stalls", "waits",
                        "routines", "instr"},
                       rows);
  }

  out += "\n-- latency percentiles (reference-clock cycles / queue entries) --\n";
  out += percentileRow("config-cycle length", prof.cycleLength());
  out += percentileRow("dispatch queue depth", prof.queueDepth());
  out += percentileRow("routine length", prof.routineLength());

  const std::vector<int> ranked = rankedTransitions(prof);
  const size_t topN = options.topN <= 0
                          ? ranked.size()
                          : std::min(ranked.size(), static_cast<size_t>(options.topN));
  out += strfmt("\n-- top %zu of %zu transitions by cycles --\n", topN, ranked.size());
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t k = 0; k < topN; ++k) {
      const int t = ranked[k];
      const TransitionProfile& p = prof.transitions()[static_cast<size_t>(t)];
      rows.push_back({nameOf(meta.transitionNames, static_cast<size_t>(t), "T"),
                      i64(p.calls), i64(p.cycles),
                      strfmt("%5.1f%%", pct(p.cycles, prof.totalCycles())),
                      i64(p.instructions), i64(p.busStalls), i64(p.memWaits),
                      strfmt("%lld/%lld", static_cast<long long>(p.minCycles),
                             static_cast<long long>(p.maxCycles))});
    }
    out += renderTable({"transition", "calls", "cycles", "share", "instr",
                        "stalls", "waits", "min/max"},
                       rows);
  }

  const auto states = rankedStates(prof, prof.stateProfiles());
  const size_t stateN = options.topN <= 0
                            ? states.size()
                            : std::min(states.size(), static_cast<size_t>(options.topN));
  out += strfmt("\n-- top %zu of %zu state regions by total cycles --\n", stateN,
                states.size());
  {
    std::vector<std::vector<std::string>> rows;
    for (size_t k = 0; k < stateN; ++k) {
      const auto& [id, sp] = states[k];
      rows.push_back({nameOf(meta.stateNames, static_cast<size_t>(id), "S"),
                      i64(sp.totalCalls), i64(sp.totalCycles),
                      strfmt("%5.1f%%", pct(sp.totalCycles, prof.totalCycles())),
                      i64(sp.selfCalls), i64(sp.selfCycles)});
    }
    out += renderTable(
        {"state region", "calls", "cycles", "share", "self calls", "self cycles"},
        rows);
  }
  return out;
}

std::string profileJson(const Profiler& prof) {
  const TraceMeta& meta = prof.meta();
  std::string out = "{\"schema\":\"pscp-profile-v1\",";
  out += strfmt("\"chart\":\"%s\",\"teps\":%d,", jsonEscape(meta.chartName).c_str(),
                meta.tepCount);
  out += strfmt("\"totals\":{\"config_cycles\":%lld,\"machine_cycles\":%lld,"
                "\"transitions_fired\":%lld,\"quiescent_cycles\":%lld},",
                static_cast<long long>(prof.configCycles()),
                static_cast<long long>(prof.totalCycles()),
                static_cast<long long>(prof.transitionsFired()),
                static_cast<long long>(prof.quiescentCycles()));
  out += "\"categories\":{";
  for (int c = 0; c < kCycleCatCount; ++c) {
    if (c != 0) out += ",";
    out += strfmt("\"%s\":%lld", cycleCatName(static_cast<CycleCat>(c)),
                  static_cast<long long>(
                      prof.categoryTotals()[static_cast<size_t>(c)]));
  }
  out += "},\"percentiles\":{";
  out += "\"config_cycle_cycles\":" + percentileJson(prof.cycleLength());
  out += ",\"dispatch_queue_depth\":" + percentileJson(prof.queueDepth());
  out += ",\"routine_cycles\":" + percentileJson(prof.routineLength());
  out += "},\"transitions\":[";
  {
    bool first = true;
    for (int t : rankedTransitions(prof)) {
      const TransitionProfile& p = prof.transitions()[static_cast<size_t>(t)];
      if (!first) out += ",";
      first = false;
      out += strfmt(
          "{\"id\":%d,\"name\":\"%s\",\"calls\":%lld,\"cycles\":%lld,"
          "\"instructions\":%lld,\"bus_stalls\":%lld,\"mem_waits\":%lld,"
          "\"min_cycles\":%lld,\"max_cycles\":%lld}",
          t,
          jsonEscape(nameOf(meta.transitionNames, static_cast<size_t>(t), "T"))
              .c_str(),
          static_cast<long long>(p.calls), static_cast<long long>(p.cycles),
          static_cast<long long>(p.instructions),
          static_cast<long long>(p.busStalls), static_cast<long long>(p.memWaits),
          static_cast<long long>(p.minCycles), static_cast<long long>(p.maxCycles));
    }
  }
  out += "],\"states\":[";
  {
    bool first = true;
    for (const auto& [id, sp] : rankedStates(prof, prof.stateProfiles())) {
      if (!first) out += ",";
      first = false;
      out += strfmt(
          "{\"id\":%d,\"name\":\"%s\",\"self_calls\":%lld,\"self_cycles\":%lld,"
          "\"total_calls\":%lld,\"total_cycles\":%lld}",
          id,
          jsonEscape(nameOf(meta.stateNames, static_cast<size_t>(id), "S")).c_str(),
          static_cast<long long>(sp.selfCalls), static_cast<long long>(sp.selfCycles),
          static_cast<long long>(sp.totalCalls),
          static_cast<long long>(sp.totalCycles));
    }
  }
  out += "],\"teps\":[";
  for (size_t i = 0; i < prof.teps().size(); ++i) {
    const TepProfile& tp = prof.teps()[i];
    if (i != 0) out += ",";
    out += strfmt("{\"busy_cycles\":%lld,\"bus_stalls\":%lld,\"mem_waits\":%lld,"
                  "\"routines\":%lld,\"instructions\":%lld,\"critical_cycles\":%lld}",
                  static_cast<long long>(tp.busyCycles),
                  static_cast<long long>(tp.busStalls),
                  static_cast<long long>(tp.memWaits),
                  static_cast<long long>(tp.routines),
                  static_cast<long long>(tp.instructions),
                  static_cast<long long>(tp.criticalCycles));
  }
  out += "]}";
  return out;
}

void writeProfileJson(const Profiler& profiler, const std::string& path) {
  const std::string json = profileJson(profiler);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) fail("cannot open '%s' for writing", path.c_str());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

}  // namespace pscp::obs
