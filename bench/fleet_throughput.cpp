// Fleet throughput bench: aggregate configuration-cycles/sec for N SMD
// pickup-head instances stepped by 1, 2, 4 (and 8) workers, swept over
// instance count. Every instance is driven into its Moving AND-state
// (both X and Y axes running a long trapezoidal move). On the busy rows
// each instance takes an X and a Y step pulse every epoch, so steady
// state mixes real TEP work (DeltaT on two TEPs per cycle) with quiescent
// decode cycles — the reactive-system duty cycle the fleet exists to
// scale. The idle row pulses nothing: its 1024 instances all sleep, and
// the epoch is the fleet's fixed cost, barrier included.
//
// A row steps one fleet per worker count epoch by epoch in turn, over
// several rounds of fresh fleets, and times each as the sum of its
// fastest reading of each epoch (the JIT rows' estimator, below), so one
// noisy stretch of host time cannot decide a ratio.
//
// Flags:
//   --quick          shrink the sweep for CI smoke runs
//   --journal        arm the record/replay journal for every sweep (its
//                    cost is gated separately by bench/telemetry_overhead;
//                    here it marks the run's numbers as journal-inclusive)
//   --seed N         workload seed, recorded verbatim for provenance
//
// Prints a markdown table (cycles/sec, speedup vs 1 worker, scaling
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
// than the interpreter: 12.0x on the one-TEP image and 9.8x on the two-TEP
// one, about 0.7x the medians of 20 quick runs on a 4-vCPU Xeon (17.3x and
// 14.0x), so a native tier 3x slower (6.9-7.2x and 5.7-6.3x) fails both.
// In full mode on a machine with >= 4 hardware
// threads, it also fails unless a >= 256-instance busy row reaches >= 3x
// aggregate throughput at 4 workers.
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
double jitSpeedupFloor(int teps) { return teps == 1 ? 12.0 : 9.8; }

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
  bool idle = false;  ///< no pulses: every instance sleeps
  int threads = 0;
  double configCyclesPerSec = 0.0;
  double machineCyclesPerSec = 0.0;
  double speedup = 1.0;     ///< vs the 1-worker fleet of the same row
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

/// One arm's part of a round: the wall time of each timed epoch, and the
/// cycles those epochs simulated.
struct ArmRound {
  std::vector<int64_t> epochNs;
  int64_t configCycles = 0;
  int64_t machineCycles = 0;
};

/// Time `epochs` epochs of every fleet, arm after arm within each epoch,
/// so epoch e of all arms runs back to back and host speed drift within
/// the round hits them alike. `drive` (the pulse injection) runs inside
/// each arm's timed epoch, before its step.
template <typename Drive>
std::vector<ArmRound> stepArmsInTurn(const std::vector<std::unique_ptr<fleet::Fleet>>& fleets,
                                     int epochs, int cyclesPerEpoch, Drive drive) {
  std::vector<ArmRound> arms(fleets.size());
  const auto addCycles = [&](int sign) {
    for (size_t a = 0; a < fleets.size(); ++a) {
      const obs::MetricsRegistry metrics = fleets[a]->mergedMetrics();
      arms[a].configCycles += sign * metrics.value("fleet.config_cycles");
      arms[a].machineCycles += sign * metrics.value("fleet.machine_cycles");
    }
  };
  addCycles(-1);
  for (ArmRound& arm : arms) arm.epochNs.reserve(static_cast<size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    for (size_t a = 0; a < fleets.size(); ++a) {
      const auto start = std::chrono::steady_clock::now();
      drive(a);
      fleets[a]->step(cyclesPerEpoch);
      arms[a].epochNs.push_back(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - start)
                                    .count());
    }
  }
  addCycles(1);
  return arms;
}

/// Sum over the epochs of each epoch's fastest reading across rounds.
/// Every round simulates the same cycles, so any round's count goes with it.
int64_t fastestEpochsNanos(const std::vector<ArmRound>& rounds) {
  std::vector<int64_t> fastest = rounds.front().epochNs;
  for (const ArmRound& r : rounds)
    for (size_t i = 0; i < fastest.size() && i < r.epochNs.size(); ++i)
      fastest[i] = std::min(fastest[i], r.epochNs[i]);
  int64_t ns = 0;
  for (const int64_t t : fastest) ns += t;
  return ns;
}

double perSecond(int64_t count, int64_t ns) {
  return ns <= 0 ? 0.0 : static_cast<double>(count) * 1e9 / static_cast<double>(ns);
}

/// One sweep row: `instances` SMD heads at every worker count, stepped in
/// turn over `rounds` rounds of fresh fleets. A busy row pulses every
/// instance every epoch; an idle row lets the first pulse pair drain and
/// then steps sleepers only.
std::vector<SweepResult> runSweepRow(const fleet::Fleet::ChartImagePtr& image,
                                     size_t instances, bool idle,
                                     const std::vector<int>& threadCounts, int rounds,
                                     int epochs, int cyclesPerEpoch,
                                     const BenchOptions& opts, bool* ok) {
  std::vector<std::vector<ArmRound>> arms(threadCounts.size());
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::unique_ptr<fleet::Fleet>> fleets;
    std::vector<workloads::SmdPulseIds> pulses;
    for (const int threads : threadCounts) {
      fleet::FleetConfig config;
      config.workerThreads = threads;
      config.journal = opts.journal;
      fleets.push_back(std::make_unique<fleet::Fleet>(image, config));
      fleet::Fleet& fleet = *fleets.back();
      pulses.push_back(workloads::resolveSmdPulseIds(fleet));
      if (!workloads::warmUpSmdFleet(fleet, instances, pulses.back())) {
        std::fprintf(stderr, "FAIL: sweep i=%zu t=%d instance(s) did not reach Moving\n",
                     instances, threads);
        *ok = false;
      }
      // Settle outside the timed window: deliver the warm-up's pulses
      // and, on the idle row, let every instance fall asleep.
      for (int e = 0; e < (idle ? 3 : 1); ++e) fleet.step(cyclesPerEpoch);
    }
    std::vector<ArmRound> round =
        stepArmsInTurn(fleets, epochs, cyclesPerEpoch, [&](size_t a) {
          if (!idle) workloads::injectSmdPulses(*fleets[a], pulses[a]);
        });
    for (size_t a = 0; a < fleets.size(); ++a) {
      const obs::MetricsRegistry metrics = fleets[a]->mergedMetrics();
      const bool shaped =
          idle ? metrics.value("fleet.sleeping_instances") == static_cast<int64_t>(instances)
               : metrics.value("fleet.fired_transitions") > 0;
      if (!shaped) {
        std::fprintf(stderr, "FAIL: sweep i=%zu t=%d %s\n", instances, threadCounts[a],
                     idle ? "has instances awake" : "fired no transitions");
        *ok = false;
      }
      arms[a].push_back(std::move(round[a]));
    }
  }
  std::vector<SweepResult> results;
  for (size_t a = 0; a < threadCounts.size(); ++a) {
    const int64_t ns = fastestEpochsNanos(arms[a]);
    SweepResult r;
    r.instances = instances;
    r.idle = idle;
    r.threads = threadCounts[a];
    r.configCyclesPerSec = perSecond(arms[a].front().configCycles, ns);
    r.machineCyclesPerSec = perSecond(arms[a].front().machineCycles, ns);
    if (!results.empty() && results.front().configCyclesPerSec > 0.0) {
      r.speedup = r.configCyclesPerSec / results.front().configCyclesPerSec;
      r.efficiency = r.speedup / r.threads;
    }
    results.push_back(r);
  }
  return results;
}

/// The JIT A/B's two arms, in stepping order.
constexpr std::array<tep::jit::JitMode, 2> kJitArms = {tep::jit::JitMode::kOff,
                                                        tep::jit::JitMode::kAlways};

/// One round of the JIT A/B over an SMD image (on two TEPs its DeltaT
/// pairs are hazard-free, so kAlways runs both routines natively and the
/// lockstep loop replays them): a fresh fleet per arm, warmed alike, then
/// `epochs` timed epochs stepped in turn. Two simulated cycles per epoch
/// with a pulse pair injected every epoch keeps the duty cycle
/// routine-dense — the tier being measured, not quiescent decode.
std::vector<ArmRound> runJitRound(const fleet::Fleet::ChartImagePtr& image,
                                  size_t instances, int epochs, bool* ok,
                                  JitReference* residencyOut) {
  std::vector<std::unique_ptr<fleet::Fleet>> fleets;
  std::vector<workloads::SmdPulseIds> pulses;
  for (const tep::jit::JitMode mode : kJitArms) {
    fleet::FleetConfig config;
    config.workerThreads = 1;
    config.jitMode = mode;
    fleets.push_back(std::make_unique<fleet::Fleet>(image, config));
    pulses.push_back(workloads::resolveSmdPulseIds(*fleets.back()));
    if (!workloads::warmUpSmdFleet(*fleets.back(), instances, pulses.back())) {
      std::fprintf(stderr, "FAIL: jit arm i=%zu instance(s) did not reach Moving\n",
                   instances);
      *ok = false;
    }
    fleets.back()->step(2);  // settle + compile warm-up outside the timed window
  }
  std::vector<ArmRound> results = stepArmsInTurn(
      fleets, epochs, 2, [&](size_t a) { workloads::injectSmdPulses(*fleets[a], pulses[a]); });

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

/// Machine cycles per second over an arm's rounds, by their fastest epochs.
double fastestEpochsRate(const std::vector<ArmRound>& rounds) {
  return perSecond(rounds.front().machineCycles, fastestEpochsNanos(rounds));
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

  const std::vector<size_t> busyInstanceCounts =
      opts.quick ? std::vector<size_t>{32, 128} : std::vector<size_t>{64, 256, 1024};
  constexpr size_t kIdleInstances = 1024;
  const std::vector<int> threadCounts =
      opts.quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int rounds = opts.quick ? 3 : 5;
  const int epochs = opts.quick ? 16 : 24;
  const int cyclesPerEpoch = opts.quick ? 8 : 16;
  const unsigned hwThreads = std::thread::hardware_concurrency();

  std::printf("=== Fleet throughput: SMD instances x worker threads ===\n");
  std::printf("(%s mode, %d rounds of %d epochs x %d cycles, %u hardware threads)\n\n",
              opts.quick ? "quick" : "full", rounds, epochs, cyclesPerEpoch, hwThreads);

  const auto image = workloads::makeSmdFleetImage();

  bool ok = true;
  std::vector<SweepResult> results;
  const auto addRow = [&](size_t instances, bool idle) {
    const std::vector<SweepResult> row = runSweepRow(
        image, instances, idle, threadCounts, rounds, epochs, cyclesPerEpoch, opts, &ok);
    results.insert(results.end(), row.begin(), row.end());
  };
  for (const size_t instances : busyInstanceCounts) addRow(instances, false);
  addRow(kIdleInstances, true);

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
        std::array<std::vector<ArmRound>, 2> arms;
        for (int r = 0; r < jitRounds; ++r) {
          std::vector<ArmRound> round = runJitRound(jitImage, instances, jitEpochs, &ok, &ref);
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

  std::printf("| load | instances | threads | cfg cycles/s | mach cycles/s | speedup | efficiency |\n");
  std::printf("|------|-----------|---------|--------------|---------------|---------|------------|\n");
  for (const SweepResult& r : results)
    std::printf("| %4s | %9zu | %7d | %12.0f | %13.0f | %6.2fx | %9.2f%% |\n",
                r.idle ? "idle" : "busy", r.instances, r.threads, r.configCyclesPerSec,
                r.machineCyclesPerSec, r.speedup, 100.0 * r.efficiency);
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
        "    {\"load\": \"%s\", \"instances\": %zu, \"threads\": %d, "
        "\"config_cycles_per_sec\": %.0f, \"machine_cycles_per_sec\": %.0f, "
        "\"speedup_vs_1t\": %.3f, \"efficiency\": %.3f}%s\n",
        r.idle ? "idle" : "busy", r.instances, r.threads, r.configCyclesPerSec,
        r.machineCyclesPerSec,
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
  // throughput at 4 workers for a >= 256-instance busy fleet.
  if (!opts.quick && hwThreads >= 4) {
    double best = 0.0;
    for (const SweepResult& r : results)
      if (!r.idle && r.instances >= 256 && r.threads == 4) best = std::max(best, r.speedup);
    if (best < 3.0) {
      std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < 3x (>=256 busy instances)\n",
                   best);
      return 1;
    }
    std::printf("4-thread speedup (>=256 busy instances): %.2fx (target >= 3x)\n", best);
  } else if (!opts.quick) {
    std::printf("note: %u hardware thread(s) — 4-thread acceptance check skipped\n",
                hwThreads);
  }
  return 0;
}
