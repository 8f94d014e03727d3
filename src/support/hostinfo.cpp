#include "support/hostinfo.hpp"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "tep/jit/tier.hpp"

namespace pscp {

namespace {

std::string trimmed(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

HostInfo probe() {
  HostInfo info;
  info.logicalCpus = static_cast<int>(std::thread::hardware_concurrency());

  std::ifstream cpuinfo("/proc/cpuinfo");
  if (cpuinfo) {
    std::set<std::pair<int, int>> cores;  // (physical id, core id)
    int physicalId = 0;
    std::string line;
    while (std::getline(cpuinfo, line)) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string key = trimmed(line.substr(0, colon));
      const std::string value = trimmed(line.substr(colon + 1));
      if (key == "model name" && info.cpuModel == "unknown" && !value.empty()) {
        info.cpuModel = value;
      } else if (key == "physical id") {
        physicalId = std::atoi(value.c_str());
      } else if (key == "core id") {
        cores.emplace(physicalId, std::atoi(value.c_str()));
      }
    }
    if (!cores.empty()) info.physicalCores = static_cast<int>(cores.size());
  }
  if (info.physicalCores == 0) info.physicalCores = info.logicalCpus;

  std::ifstream governor(
      "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor) {
    std::string value;
    if (std::getline(governor, value) && !trimmed(value).empty())
      info.governor = trimmed(value);
  }
  return info;
}

}  // namespace

const HostInfo& hostInfo() {
  static const HostInfo cached = probe();
  return cached;
}

JsonValue hostInfoJson(const HostInfo& info) {
  JsonValue host = JsonValue::makeObject();
  host.set("cpu_model", JsonValue::makeString(info.cpuModel));
  host.set("logical_cpus", JsonValue::makeNumber(info.logicalCpus));
  host.set("physical_cores", JsonValue::makeNumber(info.physicalCores));
  host.set("governor", JsonValue::makeString(info.governor));
  // Effective native-tier capability: the PSCP_JIT mode ("off" disables
  // even on capable hosts) or "unavailable" when the backend is compiled
  // out / the host ISA is unsupported. A number measured on one tier
  // says nothing about the other.
  host.set("jit", JsonValue::makeString(
                      tep::jit::jitBackendAvailable()
                          ? tep::jit::jitModeName(tep::jit::jitModeFromEnv())
                          : "unavailable"));
  return host;
}

}  // namespace pscp
