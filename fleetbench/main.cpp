// Fleet benchmark program: runs one SMD workload over fleet::Fleet, checks
// the sampled instances against the lockstep interpreter, and prints one
// JSON result line (end-to-end metrics untraced, per-layer metrics with
// --trace 1). See README.md for the metrics and why each workload exists.
//
//   fleetbench --workload smd_busy|smd_idle|smd_sparse --seed N
//              --seconds S --trace 0|1 [--out DIR] [--scale F]
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/percentile.hpp"
#include "probes.hpp"
#include "support/hostinfo.hpp"
#include "support/json.hpp"
#include "tep/jit/tier.hpp"
#include "workload.hpp"

using namespace fleetbench;
using pscp::JsonValue;

namespace {

/// Fleet counters for the sim metrics are read after exactly this many
/// timed epochs, so they repeat bit for bit whatever the host speed.
constexpr int64_t kSimEpochs = 64;
/// Worker count of the pool the barrier probe prices (the host has 4 vCPUs).
constexpr int kPoolWorkers = 2;
/// Fewest replays in a run (README.md, "Replays"), whatever --seconds
/// says; at least two, so a traced run has a plain and a traced one.
constexpr int kMinReplays = 4;
/// Instances the oracle check and the probes mirror (fewer on tiny fleets).
constexpr size_t kSample = 16;
/// Script epochs each probe mirror steps.
constexpr int64_t kProbeEpochs = 2048;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  double scale = 1.0;
};

bool parseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") a->workload = v;
    else if (key == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") a->seconds = std::atof(v);
    else if (key == "--trace") a->trace = std::atoi(v) != 0;
    else if (key == "--out") a->out = v;
    else if (key == "--scale") a->scale = std::atof(v);
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 && a->scale > 0.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of epoch durations, in µs.
double quantileUs(std::vector<int64_t> ns, double q) {
  std::sort(ns.begin(), ns.end());
  return static_cast<double>(pscp::obs::quantileOfSorted(ns, q)) / 1000.0;
}

/// The timed epochs of one replay.
struct Window {
  std::vector<int64_t> epochNs;
  int64_t injected = 0;
  int64_t injectNs = 0;  ///< under spans only
};

class Runner {
 public:
  Runner(const WorkloadSpec& spec, const Script& script, Setup& setup)
      : spec_(spec), script_(script), setup_(setup),
        pulse_(resolvePulseIds(*setup.image)) {}

  /// Step the script's epochs 1..epochs, timing each from the start of
  /// its injections until Fleet::step returns.
  void run(int64_t epochs, Spans* spans, Window* w) {
    pscp::fleet::Fleet& fleet = *setup_.fleet;
    for (; nextEpoch_ <= epochs; ++nextEpoch_) {
      epochTargets(script_, spec_.instances, nextEpoch_, &targets_);
      const int64_t start = nowNs();
      if (spans != nullptr) {
        spans->begin("epoch");
        spans->begin("fleet.inject");
      }
      w->injected += injectEpoch(fleet, setup_.ids, pulse_, targets_, &refused_);
      if (spans != nullptr) {
        w->injectNs += spans->end();
        spans->begin("fleet.step");
      }
      fleet.step(spec_.cyclesPerEpoch);
      if (spans != nullptr) {
        spans->end();
        spans->end();
      }
      w->epochNs.push_back(nowNs() - start);
      if (nextEpoch_ == kSimEpochs) simSnapshot_ = fleet.mergedMetrics();
    }
  }

  [[nodiscard]] int64_t refused() const { return refused_; }
  [[nodiscard]] const pscp::obs::MetricsRegistry& simSnapshot() const {
    return simSnapshot_;
  }

 private:
  const WorkloadSpec& spec_;
  const Script& script_;
  Setup& setup_;
  PulseIds pulse_;
  std::vector<size_t> targets_;
  int64_t nextEpoch_ = 1;  // epoch 0 is the settle epoch in set-up
  int64_t refused_ = 0;
  pscp::obs::MetricsRegistry simSnapshot_;
};

/// Each epoch's time in its fastest replay. Every replay steps the same
/// script from a fresh set-up, so whatever an epoch costs the program (a
/// JIT compile, a re-pack, a pulse burst) recurs in each replay, while the
/// slowdowns a shared host's neighbours cause change from one CPU and one
/// fraction of a second to the next, and rarely cover an epoch in all of
/// them.
std::vector<int64_t> fastestPerEpoch(const std::vector<Window>& replays) {
  std::vector<int64_t> out;
  for (const Window& w : replays) {
    if (out.empty()) out = w.epochNs;
    for (size_t i = 0; i < out.size() && i < w.epochNs.size(); ++i)
      out[i] = std::min(out[i], w.epochNs[i]);
  }
  return out;
}

double nsPerInstanceCycle(const WorkloadSpec& spec, const std::vector<int64_t>& epochNs) {
  double total = 0.0;
  for (int64_t ns : epochNs) total += static_cast<double>(ns);
  return total / (static_cast<double>(epochNs.size()) * static_cast<double>(spec.instances) *
                  spec.cyclesPerEpoch);
}

class Result {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    metrics_.set(name, JsonValue::makeObject());
    JsonValue& m = metrics_.object.back().second;
    m.set("value", JsonValue::makeNumber(value));
    m.set("unit", JsonValue::makeString(unit));
  }
  void fail(int64_t count, const std::string& why) {
    failed_ += count;
    if (count > 0 && error_.empty()) error_ = why;
  }
  int64_t attempted = 0;

  /// The result line: exactly correct / attempted / failed / metrics.
  [[nodiscard]] std::string line() const {
    JsonValue r = JsonValue::makeObject();
    r.set("correct", JsonValue::makeBool(ok()));
    r.set("attempted", JsonValue::makeNumber(static_cast<double>(std::max<int64_t>(attempted, 1))));
    r.set("failed", JsonValue::makeNumber(static_cast<double>(failed_)));
    r.set("metrics", metrics_);
    return r.dump();
  }
  [[nodiscard]] bool ok() const { return failed_ == 0; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const JsonValue& metrics() const { return metrics_; }

 private:
  JsonValue metrics_ = JsonValue::makeObject();
  int64_t failed_ = 0;
  std::string error_;
};

JsonValue provenance(const Args& args, const WorkloadSpec& spec) {
  JsonValue p = pscp::hostInfoJson();
  int nproc = 0;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) nproc = CPU_COUNT(&set);
  const char* jitEnv = std::getenv("PSCP_JIT");
  const char* simdEnv = std::getenv("PSCP_SIMD");
  p.set("nproc", JsonValue::makeNumber(nproc));
  p.set("jit_backend", JsonValue::makeBool(pscp::tep::jit::jitBackendAvailable()));
  p.set("env_PSCP_JIT", JsonValue::makeString(jitEnv != nullptr ? jitEnv : ""));
  p.set("env_PSCP_SIMD", JsonValue::makeString(simdEnv != nullptr ? simdEnv : ""));
  p.set("build_type", JsonValue::makeString(FLEETBENCH_BUILD_TYPE));
  p.set("workload", JsonValue::makeString(spec.name));
  p.set("instances", JsonValue::makeNumber(static_cast<double>(spec.instances)));
  p.set("workers", JsonValue::makeNumber(1));
  p.set("pool_probe_workers", JsonValue::makeNumber(kPoolWorkers));
  p.set("seed", JsonValue::makeNumber(static_cast<double>(args.seed)));
  p.set("seconds", JsonValue::makeNumber(args.seconds));
  p.set("trace", JsonValue::makeBool(args.trace));
  // The barrier probe's workers plus the control thread each want a CPU.
  p.set("undersized_host", JsonValue::makeBool(nproc < kPoolWorkers + 1));
  return p;
}

/// VmHWM from /proc/self/status; 0 when unavailable.
long peakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return kb;
}

void writeFile(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "wb")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

/// The replays' timed epochs. Traced runs alternate untraced and traced
/// replays, so trace.overhead_ratio compares like with like.
struct Timed {
  std::vector<Window> plain, traced;
  int64_t jitCompileMicros = 0;  ///< last replay's image, read before probes share it
};

/// Per-replay records, for the steadiness study.
void describeReplays(const WorkloadSpec& spec, const Timed& timed, JsonValue* detail) {
  JsonValue ns = JsonValue::makeArray();
  for (const Window& w : timed.plain)
    ns.array.push_back(JsonValue::makeNumber(nsPerInstanceCycle(spec, w.epochNs)));
  detail->set("replay_ns_per_instance_cycle", ns);
  JsonValue fastest = JsonValue::makeArray();
  for (int64_t v : fastestPerEpoch(timed.plain))
    fastest.array.push_back(JsonValue::makeNumber(static_cast<double>(v)));
  detail->set("fastest_epoch_ns", fastest);
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// The traced run's probes and the per-layer metrics, ledger included.
void reportLayers(const Args& args, const WorkloadSpec& spec, const Script& script,
                  const Setup& setup, const Runner& runner, const Timed& timed,
                  const std::vector<size_t>& sample, Spans& spanStore, Result* result,
                  JsonValue* detail) {
  Spans* spans = &spanStore;
  const pscp::fleet::Fleet& fleet = *setup.fleet;
  const pscp::obs::MetricsRegistry merged = fleet.mergedMetrics();
  const double spanNs = Spans::emptySpanNs();
  const CycleNames nativeNames{"pscp.lockstep_cycle", "pscp.serial_cycle",
                               "pscp.quiescent_cycle"};
  const CycleNames interpNames{"tep.interp_lockstep_cycle", "tep.interp_serial_cycle",
                               "tep.interp_quiescent_cycle"};
  const MirrorProbe native = probeMirrors(setup, spec, script, sample, kProbeEpochs,
                                          fleet.config().jitMode, nativeNames, spans);
  const MirrorProbe interp = probeMirrors(setup, spec, script, sample, kProbeEpochs,
                                          pscp::tep::jit::JitMode::kOff, interpNames, spans);
  // Simulated statistics must not depend on the tier.
  result->fail(native.tally == interp.tally ? 0 : 1,
               "mirror cycle statistics differ between JIT modes");
  const SelectProbe select = probeSelect(
      *setup.image, captureDecodedCrs(setup, spec, script, sample, kProbeEpochs), spans);
  // The pool's barrier, and for the ledger the inline step's own overhead.
  const double barrierUs = probeBarrierUs(setup, kPoolWorkers, spans);
  const double inlineStepUs = probeBarrierUs(setup, 1, spans);
  const double machineKb = probeMachineHeapKb(setup);
  const ObsProbe obs = probeObs(spec, script, args.out, spans);
  result->fail(obs.failed, obs.error);

  const auto perCall = [&](const ClassTally& c) {
    return c.count == 0 ? 0.0
                        : std::max(0.0, static_cast<double>(c.ns) / static_cast<double>(c.count) -
                                            spanNs);
  };
  const auto totals = spanStore.totals();
  const auto spanMean = [&](const char* name, double perCount) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.totalNs) /
           (static_cast<double>(it->second.count) * perCount);
  };
  const auto counter = [&](const pscp::obs::MetricsRegistry& m, const char* name) {
    return static_cast<double>(m.value(name));
  };
  const double n = static_cast<double>(spec.instances);
  const MirrorTally& t = native.tally;
  const MirrorTally& sim = interp.tally;
  const pscp::obs::MetricsRegistry& simFleet = runner.simSnapshot();

  result->metric("compiler.image_build_ms", spanMean("compiler.image_build", 1e6), "ms");
  result->metric("fleet.spawn_us", spanMean("fleet.spawn", n * 1e3), "us");
  result->metric("fleet.warm_us", spanMean("fleet.warm", n * 1e3), "us");
  int64_t injected = 0, injectNs = 0, tracedEpochs = 0;
  for (const Window& w : timed.traced) {
    injected += w.injected;
    injectNs += w.injectNs;
    tracedEpochs += static_cast<int64_t>(w.epochNs.size());
  }
  result->metric("fleet.inject_ns",
                 ratio(static_cast<double>(injectNs), static_cast<double>(injected)), "ns");
  result->metric("fleet.barrier_us", barrierUs, "us");
  result->metric("fleet.steal_chunks_per_epoch",
                 ratio(counter(merged, "fleet.steal_chunks"), static_cast<double>(fleet.epochs())),
                 "count");
  result->metric("fleet.quiescent_share",
                 ratio(counter(simFleet, "fleet.quiescent_cycles"),
                       counter(simFleet, "fleet.config_cycles")),
                 "ratio");
  result->metric("pscp.lockstep_cycle_ns", perCall(t.lockstep), "ns");
  result->metric("pscp.serial_cycle_ns", perCall(t.serial), "ns");
  result->metric("pscp.quiescent_cycle_ns", perCall(t.quiescent), "ns");
  result->metric("pscp.host_ns_per_machine_cycle",
                 ratio(perCall(t.lockstep) * static_cast<double>(t.lockstep.count),
                       static_cast<double>(t.lockstep.machineCycles)),
                 "ns");
  result->metric("pscp.machine_cycles_per_lockstep_cycle",
                 ratio(static_cast<double>(sim.lockstep.machineCycles),
                       static_cast<double>(sim.lockstep.count)),
                 "cycles");
  result->metric("pscp.bus_stall_cycles_per_lockstep_cycle",
                 ratio(static_cast<double>(sim.lockstep.busStalls),
                       static_cast<double>(sim.lockstep.count)),
                 "cycles");
  result->metric("pscp.machine_heap_kb", machineKb, "KB");
  result->metric("sla.select_ns", select.nsPerSelect, "ns");
  result->metric("sla.selected_per_decode", select.selectedPerDecode, "count");
  result->metric("tep.interp_serial_cycle_ns", perCall(sim.serial), "ns");
  // Denominator: fired transitions. TierResidency::interpRuns never counts
  // lockstep routines, so a share over it overstates the native tier.
  result->metric("jit.native_share",
                 ratio(counter(merged, "fleet.jit_native_routines"),
                       counter(merged, "fleet.fired_transitions")),
                 "ratio");
  result->metric("jit.compile_ms", static_cast<double>(timed.jitCompileMicros) / 1000.0, "ms");
  result->metric("obs.armed_step_ratio", obs.armedStepRatio, "ratio");
  result->metric("obs.health_snapshot_us", obs.healthSnapshotUs, "us");
  result->metric("obs.journal_ops_per_epoch", obs.journalOpsPerEpoch, "count");
  result->metric("obs.journal_write_ms", obs.journalWriteMs, "ms");
  result->metric("obs.replay_ns_per_instance_cycle", obs.replayNsPerInstanceCycle, "ns");

  // The ledger: the traced blocks' ns per instance-cycle, split into the
  // probed layer costs weighted by the fleet's own cycle mix.
  const double total = nsPerInstanceCycle(spec, fastestPerEpoch(timed.traced));
  const double quiescentShare =
      ratio(counter(merged, "fleet.quiescent_cycles"), counter(merged, "fleet.config_cycles"));
  const MirrorTally& mix = native.scriptOnly;
  const double busyMix = static_cast<double>(mix.lockstep.count + mix.serial.count);
  const double lockstepOfBusy =
      busyMix == 0.0 ? 1.0 : static_cast<double>(mix.lockstep.count) / busyMix;
  const std::pair<const char*, double> rows[] = {
      {"ledger.inject_ns_per_instance_cycle",
       ratio(static_cast<double>(injectNs),
             static_cast<double>(tracedEpochs) * n * spec.cyclesPerEpoch)},
      {"ledger.lockstep_ns_per_instance_cycle",
       perCall(t.lockstep) * (1.0 - quiescentShare) * lockstepOfBusy},
      {"ledger.serial_ns_per_instance_cycle",
       perCall(t.serial) * (1.0 - quiescentShare) * (1.0 - lockstepOfBusy)},
      {"ledger.quiescent_ns_per_instance_cycle", perCall(t.quiescent) * quiescentShare},
      {"ledger.barrier_ns_per_instance_cycle", inlineStepUs * 1000.0 / (n * spec.cyclesPerEpoch)},
      {"ledger.obs_ns_per_instance_cycle",
       spec.armed ? total * (1.0 - ratio(1.0, obs.armedStepRatio)) : 0.0},
  };
  double residual = total;
  for (const auto& [name, value] : rows) {
    result->metric(name, value, "ns");
    residual -= value;
  }
  result->metric("fleet.residual_ns_per_instance_cycle", residual, "ns");
  result->metric("ledger.ns_per_instance_cycle", total, "ns");
  result->metric("trace.overhead_ratio",
                 total / nsPerInstanceCycle(spec, fastestPerEpoch(timed.plain)), "ratio");
  result->metric("trace.span_cost_ns", spanNs, "ns");

  const std::string spanPath =
      pscp::strfmt("%s/%s-seed%llu.spans.json", args.out.c_str(), spec.name.c_str(),
                   static_cast<unsigned long long>(args.seed));
  if (!spanStore.write(spanPath, 5000)) result->fail(1, "cannot write " + spanPath);
  JsonValue selfNs = JsonValue::makeObject();
  for (const auto& [name, tot] : totals)
    selfNs.set(name, JsonValue::makeNumber(static_cast<double>(tot.selfNs)));
  detail->set("span_self_ns", selfNs);
}

int run(const Args& args) {
  WorkloadSpec spec;
  if (!findWorkload(args.workload, args.scale, &spec)) {
    std::fprintf(stderr, "fleetbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Script script(spec, args.seed);
  std::filesystem::create_directories(args.out);
  const JsonValue prov = provenance(args, spec);
  std::printf("provenance %s\n", prov.dump().c_str());
  std::fflush(stdout);

  Spans spanStore;
  Spans* spans = args.trace ? &spanStore : nullptr;
  Result result;

  // The replays, until --seconds have gone by, set-ups included. Replay r
  // runs on the r-th allowed CPU in turn; the last one's fleet is kept for
  // the oracle check and probes.
  const int64_t deadlineNs = nowNs() + static_cast<int64_t>(args.seconds * 1e9);
  const int64_t epochs = spec.epochsPerReplay;
  cpu_set_t allowed;
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  std::vector<double> setupSeconds, instanceKb;
  Setup setup;
  std::optional<Runner> runner;
  Timed timed;
  for (int r = 0; r < kMinReplays || nowNs() < deadlineNs; ++r) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[static_cast<size_t>(r) % cpus.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    setup = Setup{};  // free the previous replay's fleet first
    setup = setUp(spec, script, spec.armed, spans);
    setupSeconds.push_back(setup.seconds);
    instanceKb.push_back(setup.instanceKb);
    result.fail(setup.warmedOk ? 0 : 1, "an instance did not reach Moving");
    result.fail(setup.refused, "Fleet::inject refused an event");
    result.attempted += setup.injected + static_cast<int64_t>(spec.instances);

    const bool traced = spans != nullptr && r % 2 == 1;
    std::vector<Window>& into = traced ? timed.traced : timed.plain;
    into.emplace_back();
    runner.emplace(spec, script, setup);
    runner->run(epochs, traced ? spans : nullptr, &into.back());
    result.attempted += into.back().injected + epochs * static_cast<int64_t>(spec.instances);
    result.fail(runner->refused(), "Fleet::inject refused an event");
  }
  // The probes' worker pools inherit this thread's mask.
  sched_setaffinity(0, sizeof(allowed), &allowed);
  timed.jitCompileMicros = setup.fleet->tierResidency().compileMicros;

  // Oracle: sampled instances against the lockstep interpreter, and for an
  // armed fleet its own journal replayed with checkpoint verification.
  const std::vector<size_t> sample = script.sample(kSample);
  const OracleResult oracle = checkOracle(setup, spec, script, sample, epochs);
  result.fail(oracle.mismatches, oracle.firstError);
  if (spec.armed) {
    const std::string replayError = replayJournal(setup);
    result.fail(replayError.empty() ? 0 : 1, replayError);
  }

  JsonValue detail = JsonValue::makeObject();
  JsonValue setupList = JsonValue::makeArray();
  for (double v : setupSeconds) setupList.array.push_back(JsonValue::makeNumber(v));
  detail.set("setup_s", setupList);
  detail.set("epochs_per_replay", JsonValue::makeNumber(static_cast<double>(epochs)));
  detail.set("oracle_instances", JsonValue::makeNumber(static_cast<double>(oracle.checked)));
  describeReplays(spec, timed, &detail);

  if (args.trace) {
    reportLayers(args, spec, script, setup, *runner, timed, sample, spanStore, &result, &detail);
  } else {
    const std::vector<int64_t> epochNs = fastestPerEpoch(timed.plain);
    result.metric("instance_cycles_per_s", 1e9 / nsPerInstanceCycle(spec, epochNs), "1/s");
    result.metric("epoch_p50_us", quantileUs(epochNs, 0.5), "us");
    result.metric("epoch_p90_us", quantileUs(epochNs, 0.9), "us");
    // The fastest of identical set-ups, for the reason fastestPerEpoch gives.
    result.metric("setup_s", *std::min_element(setupSeconds.begin(), setupSeconds.end()), "s");
    result.metric("instance_kb", median(instanceKb), "KB");
  }

  detail.set("peak_rss_kb", JsonValue::makeNumber(static_cast<double>(peakRssKb())));
  JsonValue record = JsonValue::makeObject();
  record.set("provenance", prov);
  record.set("detail", detail);
  record.set("metrics", result.metrics());
  record.set("error", JsonValue::makeString(result.error()));
  writeFile(pscp::strfmt("%s/%s-seed%llu-trace%d.json", args.out.c_str(), spec.name.c_str(),
                         static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0),
            record.dump(1) + "\n");
  if (!result.ok()) std::printf("error %s\n", result.error().c_str());
  std::printf("%s\n", result.line().c_str());
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--scale F]\n");
    return 2;
  }
  // A fault on a pool worker ends the process through std::terminate; say
  // what it was before aborting so the wrapper can report it.
  std::set_terminate([] {
    try {
      if (std::exception_ptr e = std::current_exception()) std::rethrow_exception(e);
      std::fputs("fleetbench: fault: terminate without an exception\n", stderr);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleetbench: fault: %s\n", e.what());
    } catch (...) {
      std::fputs("fleetbench: fault: unknown exception\n", stderr);
    }
    std::abort();
  });
  try {
    return run(args);
  } catch (const std::exception& e) {
    // An instance fault inside an inline step lands here.
    std::printf("error %s\n", e.what());
    std::printf("{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
    return 1;
  }
}
