#include "workload.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>

#include "workloads/smd_fleet.hpp"

namespace fleetbench {

using pscp::fleet::Fleet;
using pscp::fleet::FleetConfig;
using pscp::fleet::InstanceId;

namespace {

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeded Fisher-Yates permutation of 0..n-1 on its own hash stream.
std::vector<size_t> permutation(size_t n, uint64_t seed, uint64_t stream) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  uint64_t state = splitmix64(seed ^ splitmix64(stream));
  for (size_t i = n; i > 1; --i) {
    state = splitmix64(state);
    std::swap(order[i - 1], order[state % i]);
  }
  return order;
}

}  // namespace

bool findWorkload(const std::string& name, double scale, WorkloadSpec* out) {
  // Why each one is here: README.md, "Workloads". All run inline: on 2
  // workers smd_sparse's run-to-run spread on a shared 4-vCPU host exceeded
  // any usable bound, so the pool is covered by the barrier probe alone.
  static const WorkloadSpec kSpecs[] = {
      {"smd_busy", 32, 4, 1, 0, false, 1000},
      {"smd_idle", 1024, 16, 0, 0, false, 800},
      {"smd_sparse", 256, 8, 16, 1, true, 800},
  };
  for (const WorkloadSpec& spec : kSpecs) {
    if (spec.name != name) continue;
    *out = spec;
    out->instances = std::max<size_t>(
        8, static_cast<size_t>(std::llround(static_cast<double>(spec.instances) * scale)));
    return true;
  }
  return false;
}

Script::Script(const WorkloadSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), timer_(spec.instances, 0) {
  const size_t timed = spec.instances * static_cast<size_t>(spec.timerQuarters) / 4;
  const std::vector<size_t> order = permutation(spec.instances, seed, 1);
  for (size_t i = 0; i < timed; ++i) timer_[order[i]] = 1;
}

bool Script::pulses(int64_t epoch, size_t instance) const {
  if (spec_.pulseEvery <= 1) return spec_.pulseEvery == 1;
  const uint64_t h = splitmix64(seed_ ^ splitmix64(static_cast<uint64_t>(epoch) * 0x100000001b3ull +
                                                   static_cast<uint64_t>(instance)));
  return h % spec_.pulseEvery == 0;
}

std::vector<size_t> Script::sample(size_t count) const {
  count = std::min(count, spec_.instances);
  const size_t wantTimers = spec_.timerQuarters > 0 ? count / 2 : 0;
  const std::vector<size_t> order = permutation(spec_.instances, seed_, 2);
  std::vector<uint8_t> taken(spec_.instances, 0);
  std::vector<size_t> out;
  size_t timers = 0;
  for (size_t i : order) {
    const bool fits = hasTimer(i) ? timers < wantTimers
                                  : out.size() - timers < count - wantTimers;
    if (!fits) continue;
    taken[i] = 1;
    timers += hasTimer(i) ? 1 : 0;
    out.push_back(i);
  }
  // Too few of one kind (tiny self-test fleets): top up from the rest.
  for (size_t i : order)
    if (out.size() < count && taken[i] == 0) out.push_back(i);
  std::sort(out.begin(), out.end());
  return out;
}

PulseIds resolvePulseIds(const pscp::machine::ChartImage& image) {
  PulseIds ids;
  ids.power = image.layout().eventBit("POWER");
  ids.dataValid = image.layout().eventBit("DATA_VALID");
  ids.x = image.layout().eventBit("X_PULSE");
  ids.y = image.layout().eventBit("Y_PULSE");
  return ids;
}

int64_t heapInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<int64_t>(info.uordblks + info.hblkhd);
}

Setup setUp(const WorkloadSpec& spec, const Script& script, bool armed,
            Spans* spans) {
  Setup s;
  const int64_t start = nowNs();
  {
    Scoped span(spans, "compiler.image_build");
    s.image = pscp::workloads::makeSmdFleetImage();
  }
  FleetConfig config;
  config.telemetry = armed;
  config.journal = armed;
  {
    Scoped span(spans, "fleet.construct");
    s.fleet = std::make_unique<Fleet>(s.image, config);
  }
  Fleet& fleet = *s.fleet;
  const PulseIds pulse = resolvePulseIds(*s.image);
  const int64_t heapBefore = heapInUse();
  {
    Scoped span(spans, "fleet.spawn");
    s.ids = fleet.spawnMany(spec.instances);
  }
  {
    // The recipe of workloads::warmUpSmdFleet, through the journaled
    // control surface, without its trailing pulse injection.
    Scoped span(spans, "fleet.warm");
    const std::vector<int> power{pulse.power};
    const std::vector<int> data{pulse.dataValid};
    const std::vector<int> none;
    for (InstanceId id : s.ids) {
      fleet.setInputPort(id, "Buffer", 255);
      fleet.warmCycle(id, power);
      for (int i = 0; i < 4; ++i) fleet.warmCycle(id, data);
      for (int i = 0; i < 4; ++i) fleet.warmCycle(id, none);
      const pscp::machine::PscpMachine& m = fleet.machine(id);
      s.warmedOk = s.warmedOk && m.isActive("RunX") && m.isActive("RunY") &&
                   m.isActive("RunPhi");
    }
  }
  if (spec.timerQuarters > 0) {
    Scoped span(spans, "fleet.add_timer");
    for (size_t i = 0; i < s.ids.size(); ++i)
      if (script.hasTimer(i)) fleet.addTimer(s.ids[i], "PHI_PULSE", kPhiPeriod);
  }
  s.instanceKb = static_cast<double>(heapInUse() - heapBefore) /
                 static_cast<double>(spec.instances) / 1024.0;
  // The settle epoch (epoch 0 of the script) builds the shards and wakes
  // the pool; it is set-up work, so it stays out of the timed window.
  std::vector<size_t> targets;
  epochTargets(script, spec.instances, 0, &targets);
  {
    Scoped span(spans, "fleet.inject");
    s.injected += injectEpoch(fleet, s.ids, pulse, targets, &s.refused);
  }
  {
    Scoped span(spans, "fleet.step");
    fleet.step(spec.cyclesPerEpoch);
  }
  s.seconds = static_cast<double>(nowNs() - start) / 1e9;
  return s;
}

void epochTargets(const Script& script, size_t instances, int64_t epoch,
                  std::vector<size_t>* out) {
  out->clear();
  for (size_t i = 0; i < instances; ++i)
    if (script.pulses(epoch, i)) out->push_back(i);
}

int64_t injectEpoch(Fleet& fleet, const std::vector<InstanceId>& ids,
                    const PulseIds& pulse, const std::vector<size_t>& targets,
                    int64_t* refused) {
  for (size_t i : targets) {
    if (!fleet.inject(ids[i], pulse.x)) ++*refused;
    if (!fleet.inject(ids[i], pulse.y)) ++*refused;
  }
  return 2 * static_cast<int64_t>(targets.size());
}

Mirror::Mirror(const std::shared_ptr<const pscp::machine::ChartImage>& image,
               bool withTimer, pscp::tep::jit::JitMode mode)
    : machine(std::make_unique<pscp::machine::PscpMachine>(image)) {
  machine->setJitMode(mode);
  warmedOk = pscp::workloads::warmUpSmdInstance(*machine,
                                                resolvePulseIds(*image).dataValid);
  if (withTimer) machine->addTimer("PHI_PULSE", kPhiPeriod);
}

}  // namespace fleetbench
