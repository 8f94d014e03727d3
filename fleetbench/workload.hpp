// Workload definitions for the fleet benchmark: the three SMD duty cycles,
// their seeded stimulus scripts, fleet set-up, and the standalone mirror
// machines the oracle check and the per-layer probes step.
//
// Every stimulus is a pure function of (seed, epoch, instance), so the
// fleet run, the oracle mirrors and the probes regenerate the same script
// without storing it, and the fleet itself only ever sees the generated
// injections and timers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"
#include "spans.hpp"

namespace fleetbench {

/// The paper's Table 2 PHI pulse period in reference-clock cycles.
inline constexpr int64_t kPhiPeriod = 1600;

struct WorkloadSpec {
  std::string name;
  size_t instances = 0;
  int cyclesPerEpoch = 1;
  /// Per-epoch, per-instance X+Y pulse-pair probability, as 1/pulseEvery
  /// (1 = every instance every epoch, 0 = never after warm-up).
  uint32_t pulseEvery = 0;
  /// Instances carrying a PHI_PULSE hardware timer, out of 4 (0 or 1).
  int timerQuarters = 0;
  bool armed = false;  ///< telemetry + journal
  /// Timed epochs in each replay of a run (README.md, "Replays").
  int64_t epochsPerReplay = 0;
};

/// The named workloads; `scale` < 1 shrinks instance counts (self-test).
[[nodiscard]] bool findWorkload(const std::string& name, double scale,
                                WorkloadSpec* out);

/// The seeded script for one workload run.
class Script {
 public:
  Script(const WorkloadSpec& spec, uint64_t seed);

  /// True when `instance` receives an X+Y pair at `epoch`'s first cycle.
  [[nodiscard]] bool pulses(int64_t epoch, size_t instance) const;
  [[nodiscard]] bool hasTimer(size_t instance) const { return timer_[instance] != 0; }
  /// Seeded sample of `count` instance indices, half from the timer
  /// instances when the workload has any, so every cycle class shows up.
  [[nodiscard]] std::vector<size_t> sample(size_t count) const;

 private:
  WorkloadSpec spec_;
  uint64_t seed_;
  std::vector<uint8_t> timer_;
};

struct PulseIds {
  int power = 0;
  int dataValid = 0;
  int x = 0;
  int y = 0;
};

[[nodiscard]] PulseIds resolvePulseIds(const pscp::machine::ChartImage& image);

/// Heap bytes in use, from the allocator's own accounting.
[[nodiscard]] int64_t heapInUse();

/// One full set-up: image build, fleet construction, spawn, warm-up,
/// timers and the first (settle) epoch. Spans cover each layer call. The
/// fleet steps inline on the calling thread (FleetConfig's default).
struct Setup {
  std::shared_ptr<const pscp::machine::ChartImage> image;
  std::unique_ptr<pscp::fleet::Fleet> fleet;
  std::vector<pscp::fleet::InstanceId> ids;
  double seconds = 0.0;       ///< image build through the settle epoch
  double instanceKb = 0.0;    ///< heap growth per instance, spawn + warm-up
  bool warmedOk = true;       ///< every instance reached Moving
  int64_t injected = 0;
  int64_t refused = 0;
};

[[nodiscard]] Setup setUp(const WorkloadSpec& spec, const Script& script,
                          bool armed, Spans* spans);

/// Inject an X+Y pair into each target; returns events attempted and adds
/// refusals to *refused.
int64_t injectEpoch(pscp::fleet::Fleet& fleet,
                    const std::vector<pscp::fleet::InstanceId>& ids,
                    const PulseIds& pulse, const std::vector<size_t>& targets,
                    int64_t* refused);

/// Instances pulsed at `epoch` (computed outside the timed epoch).
void epochTargets(const Script& script, size_t instances, int64_t epoch,
                  std::vector<size_t>* out);

/// A standalone machine over the fleet's image, warmed by the fleet's
/// recipe (and given a PHI timer when its fleet twin has one), with
/// counters kept the way Fleet::snapshot keeps them.
struct Mirror {
  Mirror(const std::shared_ptr<const pscp::machine::ChartImage>& image, bool withTimer,
         pscp::tep::jit::JitMode mode);

  std::unique_ptr<pscp::machine::PscpMachine> machine;
  bool warmedOk = false;
  pscp::machine::CycleStats stats;  ///< reused across cycles
  int64_t machineCycles = 0;
  int64_t configCycles = 0;
  int64_t quiescentCycles = 0;
  int64_t firedTransitions = 0;
  int64_t busStallCycles = 0;
  int64_t eventsDelivered = 0;
};

}  // namespace fleetbench
