// Report layer over the cycle-attribution Profiler: perf-style flat text
// reports (category breakdown, critical-TEP share, percentile latencies,
// top-N transitions and state regions, per-TEP utilisation) and a stable
// machine-readable JSON document.
//
// JSON schema "pscp-profile-v1" (field order fixed; additive changes bump
// the suffix):
//   {"schema":"pscp-profile-v1","chart":...,"teps":N,
//    "totals":{"config_cycles","machine_cycles","transitions_fired",
//              "quiescent_cycles"},
//    "categories":{"sla_decode":cycles,...,"idle":cycles},   // sums to
//                                                            // machine_cycles
//    "percentiles":{"config_cycle_cycles":{"p50","p90","p99","min","max",
//                   "mean"},"dispatch_queue_depth":{...},"routine_cycles":{...}},
//    "transitions":[{"id","name","calls","cycles","instructions",
//                    "bus_stalls","mem_waits","min_cycles","max_cycles"}],
//    "states":[{"id","name","self_calls","self_cycles","total_calls",
//               "total_cycles"}],
//    "teps":[{"busy_cycles","bus_stalls","mem_waits","routines",
//             "instructions","critical_cycles"}]}
// Transitions/states with zero calls are omitted; transitions are sorted
// by descending cycles (then id) so diffs of two profiles line up.
#pragma once

#include <string>

#include "obs/profiler.hpp"

namespace pscp::obs {

struct ReportOptions {
  int topN = 10;  ///< rows in the transition / state tables (<= 0: all)
};

/// Perf-style plain-text report.
[[nodiscard]] std::string profileText(const Profiler& profiler,
                                      const ReportOptions& options = {});

/// Stable JSON document (schema pscp-profile-v1, see header comment).
[[nodiscard]] std::string profileJson(const Profiler& profiler);

/// Convenience: write profileJson() to `path`.
void writeProfileJson(const Profiler& profiler, const std::string& path);

}  // namespace pscp::obs
