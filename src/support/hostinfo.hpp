// Host-shape metadata for benchmark provenance. Every BENCH_*.json embeds
// a "host" block (CPU model, logical/physical core counts, frequency
// governor) so a number can be traced back to the machine that produced
// it: two runs from different host shapes do not measure the same thing.
//
// Best-effort, Linux-first: /proc/cpuinfo and sysfs cpufreq when present,
// "unknown" otherwise. Never throws, never blocks on anything but two
// small file reads.
#pragma once

#include <string>

#include "support/json.hpp"

namespace pscp {

struct HostInfo {
  std::string cpuModel = "unknown";   ///< /proc/cpuinfo "model name"
  int logicalCpus = 0;                ///< std::thread::hardware_concurrency
  int physicalCores = 0;              ///< unique (physical id, core id) pairs;
                                      ///< falls back to logicalCpus
  std::string governor = "unknown";   ///< cpu0 cpufreq scaling_governor
};

/// Probe the current machine (cached after the first call).
[[nodiscard]] const HostInfo& hostInfo();

/// The "host" block for BENCH_*.json:
/// { "cpu_model": s, "logical_cpus": n, "physical_cores": n, "governor": s,
///   "jit": "off"|"always"|"unavailable" } — the last is the
/// effective native-tier capability, so a number can be traced to the
/// execution tier that produced it.
[[nodiscard]] JsonValue hostInfoJson(const HostInfo& info = hostInfo());

}  // namespace pscp
