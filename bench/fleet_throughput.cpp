// Fleet throughput bench: aggregate configuration-cycles/sec for N SMD
// pickup-head instances stepped by a worker pool, swept over instance
// count x thread count. Every instance is driven into its Moving
// AND-state (both X and Y axes running a long trapezoidal move) with
// hardware timers firing the Table-2 pulse streams, so steady state mixes
// real TEP work (DeltaT on two TEPs per cycle) with quiescent decode
// cycles — the reactive-system duty cycle the fleet exists to scale.
//
// Flags:
//   --quick          shrink the sweep for CI smoke runs
//   --journal        arm the record/replay journal for every sweep (its
//                    cost is gated separately by bench/telemetry_overhead;
//                    here it marks the run's numbers as journal-inclusive)
//   --seed N         workload seed, recorded verbatim for provenance
//
// Prints a markdown table (cycles/sec, speedup vs 1 thread, scaling
// efficiency) and writes BENCH_fleet_throughput.json; the host block
// records the native-tier capability plus the seed and journal arming, so
// any BENCH json can be tied back to a reproducible configuration. The JIT
// arm steps a one-TEP SMD image (each routine runs natively on its own)
// and the paper's two-TEP image (busy pairs run ahead and the lockstep
// loop replays them); each row carries its TEP count. A row steps an
// interpreter fleet and a native fleet epoch by epoch in turn, over
// several rounds of fresh fleets, and times each arm as the sum of its
// fastest reading of each epoch (telemetry_overhead's estimator), so one
// noisy stretch of host time cannot decide the ratio. In any mode, the
// run fails when a JIT-arm row runs less than its image's floor faster
// than the interpreter: 9.2x on the one-TEP image and 7.8x on the two-TEP
// one, about 0.7x the medians of 20 quick runs on a 4-vCPU Xeon (13.2x and
// 11.3x), so a native tier 3x slower (5.1-5.4x and 4.6-4.8x) fails both.
// In full mode on a machine with >= 4 hardware
// threads, it also fails unless the >= 256-instance sweep reaches >= 3x
// aggregate throughput at 4 threads.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"
#include "support/hostinfo.hpp"
#include "support/text.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;

namespace {

/// Lowest JIT-vs-interpreter speedup a JIT-arm row may show, in any mode,
/// by the image's TEP count (see the header comment).
double jitSpeedupFloor(int teps) { return teps == 1 ? 9.2 : 7.8; }

struct BenchOptions {
  bool quick = false;
  /// Run every sweep with the record/replay journal armed, so the sweep's
  /// numbers include the recording cost.
  bool journal = false;
  /// Run provenance: recorded in the BENCH json host block so a journal
  /// captured alongside a bench run can be correlated with its numbers.
  /// The SMD duty cycle itself is deterministic; the seed tags the run, it
  /// does not vary it.
  int64_t seed = 0;
  /// Run the native-tier A/B arm (interpreter vs JIT over the one- and
  /// two-TEP SMD images). Defaults on; forced off when the backend is unavailable or
  /// PSCP_JIT=off, so interpreter-only hosts still produce a valid json.
  bool jit = true;
};

struct SweepResult {
  size_t instances = 0;
  int threads = 0;
  int64_t configCycles = 0;
  int64_t machineCycles = 0;
  int64_t firedTransitions = 0;
  double seconds = 0.0;
  double configCyclesPerSec = 0.0;
  double machineCyclesPerSec = 0.0;
  double speedup = 1.0;     ///< vs the 1-thread run at the same instance count
  double efficiency = 1.0;  ///< speedup / threads
};

/// Native-tier A/B at one instance count: the same routine-dense duty
/// cycle stepped with the interpreter and with the JIT forced on. Rates
/// are machine (simulated) cycles per wall second over each arm's fastest
/// epochs — both arms simulate the identical cycle stream (bit-identity is
/// enforced by the tier tests), so the ratio isolates the execution-tier
/// win.
struct JitReference {
  int teps = 0;
  size_t instances = 0;
  double interpMachRate = 0.0;
  double jitMachRate = 0.0;
  double jitSpeedup = 0.0;  ///< jit rate / interp rate
  int64_t compiledRoutines = 0;
  double compileMs = 0.0;
};

SweepResult runSweep(const fleet::Fleet::ChartImagePtr& image, size_t instances,
                     int threads, int epochs, int cyclesPerEpoch,
                     const BenchOptions& opts, bool* ok) {
  fleet::FleetConfig config;
  config.workerThreads = threads;
  config.journal = opts.journal;
  fleet::Fleet fleet(image, config);
  // Per epoch every instance receives one X and one Y step pulse through
  // its SPSC queue (delivered at the epoch's first cycle: both DeltaT
  // routines run in parallel on the two TEPs, the remaining cycles are
  // quiescent decode — the reactive duty cycle). 4080 commanded steps per
  // axis outlast any bench window, so the move never completes.
  const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, instances, pulses)) {
    std::fprintf(stderr, "FAIL: sweep i=%zu t=%d instance(s) did not reach Moving\n",
                 instances, threads);
    *ok = false;
  }
  fleet.step(cyclesPerEpoch);  // one untimed epoch settles worker wake-up

  const auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    workloads::injectSmdPulses(fleet, pulses);
    fleet.step(cyclesPerEpoch);
  }
  const auto end = std::chrono::steady_clock::now();

  const obs::MetricsRegistry metrics = fleet.mergedMetrics();
  SweepResult r;
  r.instances = instances;
  r.threads = threads;
  // Subtract nothing for the settle epoch: counters cover it too, so scale
  // by the timed share of epochs instead.
  const double timedShare =
      static_cast<double>(epochs) / static_cast<double>(epochs + 1);
  r.configCycles = static_cast<int64_t>(
      static_cast<double>(metrics.value("fleet.config_cycles")) * timedShare);
  r.machineCycles = static_cast<int64_t>(
      static_cast<double>(metrics.value("fleet.machine_cycles")) * timedShare);
  r.firedTransitions = metrics.value("fleet.fired_transitions");
  r.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start).count();
  if (r.seconds > 0.0) {
    r.configCyclesPerSec = static_cast<double>(r.configCycles) / r.seconds;
    r.machineCyclesPerSec = static_cast<double>(r.machineCycles) / r.seconds;
  }
  if (r.firedTransitions <= 0) {
    std::fprintf(stderr, "FAIL: sweep i=%zu t=%d fired no transitions\n",
                 instances, threads);
    *ok = false;
  }
  return r;
}

/// The JIT A/B's two arms, in stepping order.
constexpr std::array<tep::jit::JitMode, 2> kJitArms = {tep::jit::JitMode::kOff,
                                                        tep::jit::JitMode::kAlways};

/// One arm's part of a JIT A/B round.
struct JitArmRound {
  std::vector<int64_t> epochNs;  ///< wall time of each timed epoch
  int64_t machineCycles = 0;     ///< simulated over the timed epochs
};

/// One round of the JIT A/B over an SMD image (on two TEPs its DeltaT
/// pairs are hazard-free, so kAlways runs both routines natively and the
/// lockstep loop replays them): a fresh fleet per arm, warmed alike, then
/// `epochs` timed epochs stepped arm after arm, so epoch e of both arms
/// runs back to back and host speed drift within the round hits them
/// alike. Two simulated cycles per epoch with a pulse pair injected every
/// epoch keeps the duty cycle routine-dense — the tier being measured, not
/// quiescent decode.
std::array<JitArmRound, 2> runJitRound(const fleet::Fleet::ChartImagePtr& image,
                                       size_t instances, int epochs, bool* ok,
                                       JitReference* residencyOut) {
  std::array<std::unique_ptr<fleet::Fleet>, 2> fleets;
  std::array<workloads::SmdPulseIds, 2> pulses;
  std::array<JitArmRound, 2> results;
  for (size_t a = 0; a < kJitArms.size(); ++a) {
    fleet::FleetConfig config;
    config.workerThreads = 1;
    config.jitMode = kJitArms[a];
    fleets[a] = std::make_unique<fleet::Fleet>(image, config);
    pulses[a] = workloads::resolveSmdPulseIds(*fleets[a]);
    if (!workloads::warmUpSmdFleet(*fleets[a], instances, pulses[a])) {
      std::fprintf(stderr, "FAIL: jit arm i=%zu instance(s) did not reach Moving\n",
                   instances);
      *ok = false;
    }
    fleets[a]->step(2);  // settle + compile warm-up outside the timed window
    results[a].epochNs.reserve(static_cast<size_t>(epochs));
    results[a].machineCycles = -fleets[a]->mergedMetrics().value("fleet.machine_cycles");
  }
  for (int e = 0; e < epochs; ++e) {
    for (size_t a = 0; a < kJitArms.size(); ++a) {
      const auto start = std::chrono::steady_clock::now();
      workloads::injectSmdPulses(*fleets[a], pulses[a]);
      fleets[a]->step(2);
      results[a].epochNs.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - start)
                                       .count());
    }
  }
  for (size_t a = 0; a < kJitArms.size(); ++a)
    results[a].machineCycles += fleets[a]->mergedMetrics().value("fleet.machine_cycles");

  const fleet::Fleet& native = *fleets[1];
  const tep::jit::TierResidency tier = native.tierResidency();
  residencyOut->compiledRoutines = tier.nativeRoutines;
  residencyOut->compileMs = static_cast<double>(tier.compileMicros) / 1000.0;
  if (tep::jit::jitBackendAvailable() &&
      native.mergedMetrics().value("fleet.jit_native_routines") <= 0) {
    std::fprintf(stderr, "FAIL: jit arm i=%zu executed no native routines\n", instances);
    *ok = false;
  }
  return results;
}

/// Machine cycles per second over an arm's rounds: each epoch's fastest
/// reading over the rounds, summed. Every round simulates the same cycles,
/// so any round's count serves.
double fastestEpochsRate(const std::vector<JitArmRound>& rounds) {
  std::vector<int64_t> fastest = rounds.front().epochNs;
  for (const JitArmRound& r : rounds)
    for (size_t i = 0; i < fastest.size() && i < r.epochNs.size(); ++i)
      fastest[i] = std::min(fastest[i], r.epochNs[i]);
  int64_t ns = 0;
  for (const int64_t t : fastest) ns += t;
  return ns <= 0 ? 0.0
                 : static_cast<double>(rounds.front().machineCycles) * 1e9 /
                       static_cast<double>(ns);
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      opts.quick = true;
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      opts.journal = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      opts.seed = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--jit") == 0) {
      opts.jit = true;
    } else if (std::strcmp(argv[i], "--no-jit") == 0) {
      opts.jit = false;
    } else {
      std::fprintf(stderr,
                   "usage: fleet_throughput [--quick] [--journal] [--seed N] "
                   "[--jit | --no-jit]\n");
      return 2;
    }
  }
  // The JIT A/B needs the native tier: skip it (emitting no jit metrics
  // and checking no JIT floor) when the backend is unavailable or
  // PSCP_JIT=off.
  if (!tep::jit::jitBackendAvailable() ||
      tep::jit::jitModeFromEnv() == tep::jit::JitMode::kOff)
    opts.jit = false;

  const std::vector<size_t> instanceCounts =
      opts.quick ? std::vector<size_t>{32, 128} : std::vector<size_t>{64, 256, 1024};
  const std::vector<int> threadCounts =
      opts.quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  // Quick mode still needs a timed window of tens of milliseconds per
  // sweep: a 4-epoch window is single-digit ms and its derived ratios
  // (speedup) swing 2x run to run, which no gate tolerance survives.
  const int epochs = opts.quick ? 16 : 12;
  const int cyclesPerEpoch = opts.quick ? 8 : 16;
  const unsigned hwThreads = std::thread::hardware_concurrency();

  std::printf("=== Fleet throughput: SMD instances x worker threads ===\n");
  std::printf("(%s mode, %d epochs x %d cycles, %u hardware threads)\n\n",
              opts.quick ? "quick" : "full", epochs, cyclesPerEpoch, hwThreads);

  const auto image = workloads::makeSmdFleetImage();

  bool ok = true;
  std::vector<SweepResult> results;
  for (size_t instances : instanceCounts) {
    double oneThreadRate = 0.0;
    for (int threads : threadCounts) {
      SweepResult r =
          runSweep(image, instances, threads, epochs, cyclesPerEpoch, opts, &ok);
      if (threads == 1) oneThreadRate = r.configCyclesPerSec;
      if (oneThreadRate > 0.0 && r.configCyclesPerSec > 0.0) {
        r.speedup = r.configCyclesPerSec / oneThreadRate;
        r.efficiency = r.speedup / threads;
      }
      results.push_back(r);
    }
  }

  // Native-tier A/B: a separate sweep over a fresh one-TEP and a fresh
  // two-TEP image (each compile cost is its arm's alone). Rounds and
  // epochs are their own knobs — the arm's cost is per-routine wall time,
  // not the main sweep's pool scaling; more rounds give each epoch more
  // readings to take the fastest of.
  std::vector<JitReference> jitRefs;
  if (opts.jit) {
    const std::vector<size_t> jitInstances =
        opts.quick ? std::vector<size_t>{32} : std::vector<size_t>{64, 256};
    const int jitRounds = opts.quick ? 20 : 8;
    const int jitEpochs = opts.quick ? 50 : 100;
    for (const int teps : {1, 2}) {
      const auto jitImage = workloads::makeSmdFleetImage(teps);
      for (size_t instances : jitInstances) {
        JitReference ref;
        ref.teps = teps;
        ref.instances = instances;
        std::array<std::vector<JitArmRound>, 2> arms;
        for (int r = 0; r < jitRounds; ++r) {
          std::array<JitArmRound, 2> round =
              runJitRound(jitImage, instances, jitEpochs, &ok, &ref);
          for (size_t a = 0; a < arms.size(); ++a) arms[a].push_back(std::move(round[a]));
        }
        ref.interpMachRate = fastestEpochsRate(arms[0]);
        ref.jitMachRate = fastestEpochsRate(arms[1]);
        if (ref.interpMachRate > 0.0 && ref.jitMachRate > 0.0)
          ref.jitSpeedup = ref.jitMachRate / ref.interpMachRate;
        jitRefs.push_back(ref);
      }
    }
  }

  std::printf("| instances | threads | cfg cycles/s | mach cycles/s | speedup | efficiency |\n");
  std::printf("|-----------|---------|--------------|---------------|---------|------------|\n");
  for (const SweepResult& r : results)
    std::printf("| %9zu | %7d | %12.0f | %13.0f | %6.2fx | %9.2f%% |\n",
                r.instances, r.threads, r.configCyclesPerSec, r.machineCyclesPerSec,
                r.speedup, 100.0 * r.efficiency);
  if (!jitRefs.empty()) {
    std::printf("\n| teps | instances | interp mach/s | jit mach/s | jit speedup | compiled | compile ms |\n");
    std::printf("|------|-----------|---------------|------------|-------------|----------|------------|\n");
    for (const JitReference& ref : jitRefs)
      std::printf("| %4d | %9zu | %13.0f | %10.0f | %10.2fx | %8lld | %10.2f |\n",
                  ref.teps, ref.instances, ref.interpMachRate, ref.jitMachRate,
                  ref.jitSpeedup, static_cast<long long>(ref.compiledRoutines),
                  ref.compileMs);
  }

  std::string json = "{\n  \"benchmark\": \"fleet_throughput\",\n";
  json += strfmt("  \"mode\": \"%s\",\n  \"hardware_threads\": %u,\n",
                 opts.quick ? "quick" : "full", hwThreads);
  // Provenance rides in the host block, next to the machine shape.
  JsonValue host = hostInfoJson();
  host.set("seed", JsonValue::makeNumber(static_cast<double>(opts.seed)));
  host.set("journal", JsonValue::makeBool(opts.journal));
  json += "  \"host\": " + host.dump() + ",\n  \"sweeps\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    json += strfmt(
        "    {\"instances\": %zu, \"threads\": %d, "
        "\"config_cycles_per_sec\": %.0f, \"machine_cycles_per_sec\": %.0f, "
        "\"speedup_vs_1t\": %.3f, \"efficiency\": %.3f}%s\n",
        r.instances, r.threads, r.configCyclesPerSec, r.machineCyclesPerSec,
        r.speedup, r.efficiency, i + 1 < results.size() ? "," : "");
  }
  json += "  ],\n  \"jit_reference\": [\n";
  for (size_t i = 0; i < jitRefs.size(); ++i) {
    const JitReference& ref = jitRefs[i];
    json += strfmt(
        "    {\"teps\": %d, \"instances\": %zu, \"threads\": 1, "
        "\"interp_machine_cycles_per_sec\": %.0f, "
        "\"jit_machine_cycles_per_sec\": %.0f, "
        "\"jit_speedup_vs_interp\": %.3f, \"jit_compiled_routines\": %lld, "
        "\"jit_compile_ms\": %.3f}%s\n",
        ref.teps, ref.instances, ref.interpMachRate, ref.jitMachRate,
        ref.jitSpeedup, static_cast<long long>(ref.compiledRoutines), ref.compileMs,
        i + 1 < jitRefs.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen("BENCH_fleet_throughput.json", "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote BENCH_fleet_throughput.json\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_fleet_throughput.json\n");
    ok = false;
  }
  for (const JitReference& ref : jitRefs) {
    const double floor = jitSpeedupFloor(ref.teps);
    std::printf("jit speedup (teps=%d i=%zu): %.2fx (floor %.1fx)\n", ref.teps,
                ref.instances, ref.jitSpeedup, floor);
    if (ref.jitSpeedup < floor) {
      std::fprintf(stderr, "FAIL: jit speedup %.2fx < floor %.1fx (teps=%d i=%zu)\n",
                   ref.jitSpeedup, floor, ref.teps, ref.instances);
      ok = false;
    }
  }
  if (!ok) return 1;

  // Acceptance (full runs on parallel hardware only): >= 3x aggregate
  // throughput at 4 threads for a >= 256-instance fleet.
  if (!opts.quick && hwThreads >= 4) {
    double best = 0.0;
    for (const SweepResult& r : results)
      if (r.instances >= 256 && r.threads == 4) best = std::max(best, r.speedup);
    if (best < 3.0) {
      std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < 3x (>=256 instances)\n",
                   best);
      return 1;
    }
    std::printf("4-thread speedup (>=256 instances): %.2fx (target >= 3x)\n", best);
  } else if (!opts.quick) {
    std::printf("note: %u hardware thread(s) — 4-thread acceptance check skipped\n",
                hwThreads);
  }
  return 0;
}
