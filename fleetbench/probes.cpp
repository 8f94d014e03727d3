#include "probes.hpp"

#include <algorithm>

#include "obs/journal/replay.hpp"
#include "obs/sink.hpp"
#include "support/diag.hpp"
#include "workloads/smd_fleet.hpp"

namespace fleetbench {

using pscp::fleet::Fleet;
using pscp::tep::jit::JitMode;

namespace {

const std::vector<int> kNoEvents;

/// Below this many timed cycles of a class, the script's own mix is
/// topped up with a synthetic stimulus that produces the class.
constexpr int64_t kMinClassSamples = 256;
constexpr int64_t kMaxCapturedCrs = 4096;

double medianOf(std::vector<int64_t> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid), v.end());
  return static_cast<double>(v[mid]);
}

/// Keeps every `stride`-th CR the machine hands its observer: the exact
/// word image the SLA decodes, with external, TEP-raised and timer events.
class CrCapture final : public pscp::obs::ObsSink {
 public:
  CrCapture(int64_t stride, std::vector<pscp::BitVec>* out) : stride_(stride), out_(out) {}
  void onCrSampled(const pscp::BitVec& cr, int64_t /*time*/) override {
    if (seen_++ % stride_ == 0) out_->push_back(cr);
  }

 private:
  int64_t stride_;
  int64_t seen_ = 0;
  std::vector<pscp::BitVec>* out_;
};

}  // namespace

void stepMirror(Mirror& m, const std::vector<int>& events, int cycles, Spans* spans,
                const CycleNames* names, MirrorTally* tally) {
  m.eventsDelivered += static_cast<int64_t>(events.size());
  for (int c = 0; c < cycles; ++c) {
    const std::vector<int>& in = c == 0 ? events : kNoEvents;
    if (spans != nullptr) spans->begin("pscp.cycle");
    m.machine->configurationCycleIds(in, &m.stats);
    const size_t fired = m.stats.fired.size();
    if (spans != nullptr) {
      const char* name = fired >= 2   ? names->lockstep
                         : fired == 1 ? names->serial
                                      : names->quiescent;
      const int64_t ns = spans->end(name);
      ClassTally& cls = fired >= 2   ? tally->lockstep
                        : fired == 1 ? tally->serial
                                     : tally->quiescent;
      cls.count += 1;
      cls.ns += ns;
      cls.machineCycles += m.stats.cycles;
      cls.busStalls += m.stats.busStallCycles;
    }
    m.machineCycles += m.stats.cycles;
    m.configCycles += 1;
    m.quiescentCycles += m.stats.quiescent ? 1 : 0;
    m.firedTransitions += static_cast<int64_t>(fired);
    m.busStallCycles += m.stats.busStallCycles;
  }
  m.machine->clearPortWrites();
}

OracleResult checkOracle(const Setup& setup, const WorkloadSpec& spec,
                         const Script& script, const std::vector<size_t>& sample,
                         int64_t lastEpoch) {
  OracleResult r;
  const PulseIds pulse = resolvePulseIds(*setup.image);
  const std::vector<int> pair{pulse.x, pulse.y};
  for (size_t index : sample) {
    Mirror m(setup.image, script.hasTimer(index), JitMode::kOff);
    for (int64_t e = 0; e <= lastEpoch; ++e)
      stepMirror(m, script.pulses(e, index) ? pair : kNoEvents, spec.cyclesPerEpoch,
                 nullptr, nullptr, nullptr);
    const pscp::fleet::InstanceId id = setup.ids[index];
    const pscp::fleet::InstanceSnapshot snap = setup.fleet->snapshot(id);
    const pscp::BitVec& fleetCr = setup.fleet->machine(id).crBits();
    const pscp::BitVec& mirrorCr = m.machine->crBits();
    bool crEqual = fleetCr.wordCount() == mirrorCr.wordCount();
    for (size_t w = 0; crEqual && w < fleetCr.wordCount(); ++w)
      crEqual = fleetCr.word(w) == mirrorCr.word(w);
    std::string what;
    if (!m.warmedOk) what = "mirror did not reach Moving";
    else if (!crEqual) what = "CR words differ";
    else if (snap.machineCycles != m.machineCycles) what = "machine cycles differ";
    else if (snap.configCycles != m.configCycles) what = "config cycles differ";
    else if (snap.quiescentCycles != m.quiescentCycles) what = "quiescent cycles differ";
    else if (snap.firedTransitions != m.firedTransitions) what = "fired transitions differ";
    else if (snap.busStallCycles != m.busStallCycles) what = "bus-stall cycles differ";
    else if (snap.eventsDelivered != m.eventsDelivered) what = "delivered events differ";
    ++r.checked;
    if (what.empty()) continue;
    ++r.mismatches;
    if (r.firstError.empty())
      r.firstError = pscp::strfmt("instance %zu: %s (fleet vs interpreter mirror)",
                                  index, what.c_str());
  }
  return r;
}

MirrorProbe probeMirrors(const Setup& setup, const WorkloadSpec& spec,
                         const Script& script, const std::vector<size_t>& sample,
                         int64_t epochs, JitMode mode, const CycleNames& names,
                         Spans* spans) {
  MirrorProbe p;
  const PulseIds pulse = resolvePulseIds(*setup.image);
  const std::vector<int> pair{pulse.x, pulse.y};
  for (size_t index : sample) {
    Mirror m(setup.image, script.hasTimer(index), mode);
    for (int64_t e = 0; e < epochs; ++e)
      stepMirror(m, script.pulses(e, index) ? pair : kNoEvents, spec.cyclesPerEpoch,
                 spans, &names, &p.tally);
  }
  p.scriptOnly = p.tally;

  // Top-ups: a fresh timer-less mirror fed a stimulus that produces the
  // missing class, promoted through its first epochs before timing.
  const std::vector<int> xOnly{pulse.x};
  struct TopUp {
    ClassTally MirrorTally::*cls;
    const std::vector<int>* events;
  };
  for (const TopUp& t : {TopUp{&MirrorTally::lockstep, &pair},
                         TopUp{&MirrorTally::serial, &xOnly},
                         TopUp{&MirrorTally::quiescent, &kNoEvents}}) {
    if ((p.tally.*t.cls).count >= kMinClassSamples) continue;
    Mirror m(setup.image, /*withTimer=*/false, mode);
    for (int e = 0; e < 2 * kMinClassSamples; ++e)
      stepMirror(m, *t.events, spec.cyclesPerEpoch, nullptr, nullptr, nullptr);
    MirrorTally extra;
    for (int e = 0; e < 16 * kMinClassSamples && (extra.*t.cls).count < kMinClassSamples;
         ++e)
      stepMirror(m, *t.events, spec.cyclesPerEpoch, spans, &names, &extra);
    ClassTally& into = p.tally.*t.cls;
    into.count += (extra.*t.cls).count;
    into.ns += (extra.*t.cls).ns;
    into.machineCycles += (extra.*t.cls).machineCycles;
    into.busStalls += (extra.*t.cls).busStalls;
  }
  return p;
}

std::vector<pscp::BitVec> captureDecodedCrs(const Setup& setup, const WorkloadSpec& spec,
                                            const Script& script,
                                            const std::vector<size_t>& sample,
                                            int64_t epochs) {
  // An odd stride keeps the workload's mix of epoch-start and mid-epoch
  // decodes: every workload's cycles per epoch is a power of two.
  const int64_t decodes =
      static_cast<int64_t>(sample.size()) * epochs * spec.cyclesPerEpoch;
  std::vector<pscp::BitVec> crs;
  CrCapture capture((decodes / kMaxCapturedCrs) | 1, &crs);
  const PulseIds pulse = resolvePulseIds(*setup.image);
  const std::vector<int> pair{pulse.x, pulse.y};
  for (size_t index : sample) {
    Mirror m(setup.image, script.hasTimer(index), JitMode::kOff);
    m.machine->setObsOptions(pscp::obs::ObsOptions{&capture});
    for (int64_t e = 0; e < epochs; ++e)
      stepMirror(m, script.pulses(e, index) ? pair : kNoEvents, spec.cyclesPerEpoch,
                 nullptr, nullptr, nullptr);
  }
  return crs;
}

SelectProbe probeSelect(const pscp::machine::ChartImage& image,
                        const std::vector<pscp::BitVec>& crs, Spans* spans) {
  SelectProbe r;
  if (crs.empty()) return r;
  const pscp::sla::Sla& sla = image.sla();
  std::vector<pscp::statechart::TransitionId> out;
  int64_t selected = 0;
  for (const pscp::BitVec& cr : crs) {
    sla.selectInto(cr, out);
    selected += static_cast<int64_t>(out.size());
  }
  r.selectedPerDecode = static_cast<double>(selected) / static_cast<double>(crs.size());
  // One span per pass over every captured CR: a single call is too short
  // to time against the clock's own cost.
  std::vector<int64_t> passes;
  int64_t total = 0;
  while (passes.size() < 5 || total < 20'000'000) {
    const int64_t ns = timeSpan(spans, "sla.select_pass", [&] {
      for (const pscp::BitVec& cr : crs) sla.selectInto(cr, out);
    });
    passes.push_back(ns);
    total += ns;
  }
  r.nsPerSelect = medianOf(passes) / static_cast<double>(crs.size());
  return r;
}

double probeBarrierUs(const Setup& setup, int workers, Spans* spans) {
  pscp::fleet::FleetConfig config;
  config.workerThreads = workers;
  Fleet empty(setup.image, config);
  for (int i = 0; i < 200; ++i) empty.step(1);
  std::vector<int64_t> steps;
  steps.reserve(2000);
  for (int i = 0; i < 2000; ++i)
    steps.push_back(timeSpan(spans, "fleet.barrier_step", [&] { empty.step(1); }));
  return medianOf(std::move(steps)) / 1000.0;
}

double probeMachineHeapKb(const Setup& setup) {
  const int64_t before = heapInUse();
  int64_t after = 0;
  {
    pscp::machine::PscpMachine machine(setup.image);
    (void)pscp::workloads::warmUpSmdInstance(machine,
                                             resolvePulseIds(*setup.image).dataValid);
    after = heapInUse();
  }
  return static_cast<double>(after - before) / 1024.0;
}

ObsProbe probeObs(const WorkloadSpec& spec, const Script& script,
                  const std::string& outDir, Spans* spans) {
  constexpr int kRounds = 6;
  constexpr int kEpochsPerRound = 64;
  ObsProbe r;
  Setup armed = setUp(spec, script, true, nullptr);
  Setup plain = setUp(spec, script, false, nullptr);
  const PulseIds pulse = resolvePulseIds(*armed.image);
  std::vector<int64_t> armedNs, plainNs;
  std::vector<size_t> targets;
  int64_t refused = armed.refused + plain.refused;
  int64_t nextEpoch[2] = {1, 1};
  for (int round = 0; round < kRounds; ++round) {
    for (int turn = 0; turn < 2; ++turn) {
      // Alternate which side goes first so drift hits both alike.
      const int side = (round + turn) % 2;  // 0 = armed, 1 = disarmed
      Setup& s = side == 0 ? armed : plain;
      for (int k = 0; k < kEpochsPerRound; ++k) {
        epochTargets(script, spec.instances, nextEpoch[side]++, &targets);
        const int64_t ns =
            timeSpan(spans, side == 0 ? "obs.armed_epoch" : "obs.disarmed_epoch", [&] {
              injectEpoch(*s.fleet, s.ids, pulse, targets, &refused);
              s.fleet->step(spec.cyclesPerEpoch);
            });
        (side == 0 ? armedNs : plainNs).push_back(ns);
      }
    }
  }
  r.failed += refused;
  r.armedStepRatio = medianOf(armedNs) / medianOf(plainNs);

  std::vector<int64_t> snaps;
  for (int i = 0; i < 200; ++i)
    snaps.push_back(timeSpan(spans, "obs.health_snapshot",
                             [&] { (void)armed.fleet->healthSnapshot(); }));
  r.healthSnapshotUs = medianOf(std::move(snaps)) / 1000.0;

  const Fleet& fleet = *armed.fleet;
  r.journalOpsPerEpoch = static_cast<double>(fleet.journal()->ops().size()) /
                         static_cast<double>(fleet.epochs());
  std::string error;
  bool written = false;
  r.journalWriteMs =
      static_cast<double>(timeSpan(spans, "obs.journal_write", [&] {
        written = fleet.writeJournal(outDir + "/" + spec.name + ".journal.bin",
                                     /*binary=*/true, &error);
      })) / 1e6;
  if (!written) {
    ++r.failed;
    r.error = "journal write failed: " + error;
  }
  std::string replayError;
  const int64_t replayNs =
      timeSpan(spans, "obs.replay", [&] { replayError = replayJournal(armed); });
  if (!replayError.empty()) {
    ++r.failed;
    if (r.error.empty()) r.error = replayError;
  }
  r.replayNsPerInstanceCycle =
      static_cast<double>(replayNs) /
      static_cast<double>(static_cast<int64_t>(spec.instances) * spec.cyclesPerEpoch *
                          fleet.epochs());
  return r;
}

std::string replayJournal(const Setup& setup) {
  pscp::obs::journal::Replayer replayer(setup.fleet->journal(), setup.image);
  pscp::obs::journal::ReplayOptions options;
  options.workerThreads = 1;
  options.verifyCheckpoints = true;
  const pscp::obs::journal::ReplayResult result = replayer.run(options);
  if (!result.ok) return "journal replay failed: " + result.error;
  if (!result.verified)
    return pscp::strfmt("journal replay diverged at epoch %lld",
                        static_cast<long long>(result.firstMismatch.epoch));
  return "";
}

}  // namespace fleetbench
