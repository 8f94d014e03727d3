// Observability-overhead microbench: prove the armed telemetry plane
// (flight recorder rings + health atomics) AND the armed record/replay
// journal each cost < 3% of fleet stepping throughput. Runs the same SMD
// steady-state duty cycle as bench/fleet_throughput on three fleets
// (disarmed, telemetry, journal) that step the same epochs in turn, so
// slow drift — thermal, frequency, noisy neighbours — hits every arm
// alike. Rounds of fresh fleets repeat the run, and each arm is estimated
// the way fleetbench estimates a workload: the fastest time of each
// epoch over the rounds, summed. A throughput ratio is the disarmed sum
// over the armed one, so an interference burst moves an arm only when it
// hits the same epoch in every round.
//
// Emits BENCH_telemetry_overhead.json with `telemetry_throughput_ratio`
// and `journal_throughput_ratio` (armed / disarmed; ~1.0 when the plane
// is cheap). Either mode exits 1 unless both ratios are >= 0.97 and the
// armed runs actually recorded data (no vacuous pass by a dead recorder
// or an empty journal).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "support/hostinfo.hpp"
#include "support/text.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;

namespace {

enum class Arm { kDisarmed, kTelemetry, kJournal };
constexpr Arm kArms[] = {Arm::kDisarmed, Arm::kTelemetry, Arm::kJournal};
constexpr size_t kArmCount = std::size(kArms);

struct RoundResult {
  std::vector<int64_t> epochNs;  ///< wall time of each timed epoch
  int64_t machineCycles = 0;     ///< simulated over the timed epochs
  int64_t flightRecords = 0;
  int64_t journalOps = 0;
};

/// One timed round: a fresh fleet per arm, warm-up, then `epochs` timed
/// epochs stepped arm after arm, so epoch e of every arm runs back to
/// back and host speed drift within the round hits the arms alike.
std::array<RoundResult, kArmCount> runRound(
    const fleet::Fleet::ChartImagePtr& image, size_t instances, int threads,
    int epochs, int cyclesPerEpoch, bool* ok) {
  std::array<std::unique_ptr<fleet::Fleet>, kArmCount> fleets;
  std::array<workloads::SmdPulseIds, kArmCount> pulses;
  std::array<RoundResult, kArmCount> results;
  for (size_t a = 0; a < kArmCount; ++a) {
    fleet::FleetConfig config;
    config.workerThreads = threads;
    config.telemetry = kArms[a] == Arm::kTelemetry;
    config.journal = kArms[a] == Arm::kJournal;
    fleets[a] = std::make_unique<fleet::Fleet>(image, config);
    pulses[a] = workloads::resolveSmdPulseIds(*fleets[a]);
    if (!workloads::warmUpSmdFleet(*fleets[a], instances, pulses[a])) {
      std::fprintf(stderr, "FAIL: instance(s) did not reach Moving\n");
      *ok = false;
    }
    fleets[a]->step(cyclesPerEpoch);  // settle worker wake-up, untimed
    results[a].epochNs.reserve(static_cast<size_t>(epochs));
    results[a].machineCycles =
        -fleets[a]->mergedMetrics().value("fleet.machine_cycles");
  }
  for (int e = 0; e < epochs; ++e) {
    for (size_t a = 0; a < kArmCount; ++a) {
      const auto start = std::chrono::steady_clock::now();
      workloads::injectSmdPulses(*fleets[a], pulses[a]);
      fleets[a]->step(cyclesPerEpoch);
      results[a].epochNs.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    }
  }
  for (size_t a = 0; a < kArmCount; ++a) {
    const fleet::Fleet& fleet = *fleets[a];
    RoundResult& r = results[a];
    r.machineCycles += fleet.mergedMetrics().value("fleet.machine_cycles");
    if (fleet.flightRecorder() != nullptr)
      r.flightRecords =
          static_cast<int64_t>(fleet.flightRecorder()->snapshot().size());
    if (fleet.journal() != nullptr)
      r.journalOps = static_cast<int64_t>(fleet.journal()->ops().size());
  }
  return results;
}

/// An arm's time for the epochs every round replays: each epoch's fastest
/// reading over the arm's rounds, summed (fleetbench's estimator).
int64_t fastestEpochsNs(const std::vector<RoundResult>& rounds) {
  std::vector<int64_t> fastest;
  for (const RoundResult& r : rounds) {
    if (fastest.empty()) fastest = r.epochNs;
    for (size_t i = 0; i < fastest.size() && i < r.epochNs.size(); ++i)
      fastest[i] = std::min(fastest[i], r.epochNs[i]);
  }
  int64_t total = 0;
  for (const int64_t ns : fastest) total += ns;
  return total;
}

/// Machine cycles per second over an arm's fastest epochs. Every round
/// simulates the same cycles, so any round's count serves.
double machineCyclesPerSec(const std::vector<RoundResult>& rounds) {
  const int64_t ns = fastestEpochsNs(rounds);
  return rounds.empty() || ns <= 0
             ? 0.0
             : static_cast<double>(rounds.front().machineCycles) * 1e9 /
                   static_cast<double>(ns);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const size_t instances = quick ? 64 : 256;
  const int threads = 1;  // overhead is per-worker; 1 thread isolates it
  // Quick mode favours many short rounds: more rounds give each epoch
  // more chances at an undisturbed reading, at ~1s total.
  const int rounds = quick ? 15 : 9;
  const int epochs = quick ? 24 : 64;
  const int cyclesPerEpoch = 8;

  std::printf("=== Telemetry overhead: armed vs disarmed fleet stepping ===\n");
  std::printf("(%s mode, %zu instances, %d rounds x %d epochs x %d cycles)\n\n",
              quick ? "quick" : "full", instances, rounds, epochs,
              cyclesPerEpoch);

  const auto image = workloads::makeSmdFleetImage();
  bool ok = true;
  std::array<std::vector<RoundResult>, kArmCount> arms;
  // One extra untimed leading round warms caches and the allocator.
  (void)runRound(image, instances, threads, 4, cyclesPerEpoch, &ok);
  for (int r = 0; r < rounds; ++r) {
    std::array<RoundResult, kArmCount> round =
        runRound(image, instances, threads, epochs, cyclesPerEpoch, &ok);
    for (size_t a = 0; a < kArmCount; ++a) arms[a].push_back(std::move(round[a]));
  }
  const std::vector<RoundResult>& off = arms[0];
  const std::vector<RoundResult>& tele = arms[1];
  const std::vector<RoundResult>& jour = arms[2];
  int64_t flightRecords = 0;
  int64_t journalOps = 0;
  for (const RoundResult& r : tele) flightRecords = std::max(flightRecords, r.flightRecords);
  for (const RoundResult& r : jour) journalOps = std::max(journalOps, r.journalOps);

  const double offRate = machineCyclesPerSec(off);
  const double onRate = machineCyclesPerSec(tele);
  const double journalRate = machineCyclesPerSec(jour);
  const double ratio = offRate > 0.0 ? onRate / offRate : 0.0;
  const double overheadPct = 100.0 * (1.0 - ratio);
  const double journalRatio = offRate > 0.0 ? journalRate / offRate : 0.0;
  const double journalOverheadPct = 100.0 * (1.0 - journalRatio);

  std::printf("| arm       | fastest-epoch mach cycles/s |\n");
  std::printf("|-----------|-----------------------------|\n");
  std::printf("| disarmed  | %27.0f |\n", offRate);
  std::printf("| telemetry | %27.0f |\n", onRate);
  std::printf("| journal   | %27.0f |\n", journalRate);
  std::printf("\ntelemetry_throughput_ratio: %.4f (overhead %.2f%%, floor 0.97)\n",
              ratio, overheadPct);
  std::printf("journal_throughput_ratio: %.4f (overhead %.2f%%, floor 0.97)\n",
              journalRatio, journalOverheadPct);
  std::printf("flight records resident after armed run: %lld\n",
              static_cast<long long>(flightRecords));
  std::printf("journal ops recorded in armed run: %lld\n",
              static_cast<long long>(journalOps));

  std::string json = "{\n  \"benchmark\": \"telemetry_overhead\",\n";
  json += strfmt("  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  json += "  \"host\": " + hostInfoJson().dump() + ",\n";
  json += strfmt(
      "  \"instances\": %zu,\n  \"rounds\": %d,\n"
      "  \"disarmed_machine_cycles_per_sec\": %.0f,\n"
      "  \"armed_machine_cycles_per_sec\": %.0f,\n"
      "  \"journal_machine_cycles_per_sec\": %.0f,\n"
      "  \"telemetry_throughput_ratio\": %.4f,\n"
      "  \"journal_throughput_ratio\": %.4f,\n"
      "  \"overhead_pct\": %.2f,\n"
      "  \"journal_overhead_pct\": %.2f,\n"
      "  \"flight_records\": %lld,\n  \"journal_ops\": %lld\n}\n",
      instances, rounds, offRate, onRate, journalRate, ratio,
      journalRatio, overheadPct, journalOverheadPct,
      static_cast<long long>(flightRecords),
      static_cast<long long>(journalOps));
  std::FILE* f = std::fopen("BENCH_telemetry_overhead.json", "wb");
  if (f != nullptr) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_telemetry_overhead.json\n");
  } else {
    std::fprintf(stderr, "cannot write BENCH_telemetry_overhead.json\n");
    ok = false;
  }

  if (flightRecords <= 0) {
    std::fprintf(stderr, "FAIL: armed run recorded no flight data\n");
    ok = false;
  }
  if (journalOps <= 0) {
    std::fprintf(stderr, "FAIL: journal-armed run recorded no ops\n");
    ok = false;
  }
  if (ratio < 0.97) {
    std::fprintf(stderr, "FAIL: telemetry overhead %.2f%% exceeds 3%% budget\n",
                 overheadPct);
    ok = false;
  }
  if (journalRatio < 0.97) {
    std::fprintf(stderr, "FAIL: journal overhead %.2f%% exceeds 3%% budget\n",
                 journalOverheadPct);
    ok = false;
  }
  return ok ? 0 : 1;
}
