// Observability-overhead microbench: prove the armed telemetry plane
// (flight recorder rings + health atomics) AND the armed record/replay
// journal each cost < 3% of fleet stepping throughput. Runs the same SMD
// steady-state duty cycle as bench/fleet_throughput in *interleaved*
// rounds (disarmed, telemetry, journal, disarmed, ...) so slow drift —
// thermal, frequency, noisy neighbours — hits every arm equally, then
// reports ratios of median machine-cycles/sec.
//
// Emits BENCH_telemetry_overhead.json with `telemetry_throughput_ratio`
// and `journal_throughput_ratio` (armed / disarmed; ~1.0 when the plane
// is cheap). Either mode exits 1 unless both ratios are >= 0.97 and the
// armed runs actually recorded data (no vacuous pass by a dead recorder
// or an empty journal).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "support/hostinfo.hpp"
#include "support/text.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;

namespace {

enum class Arm { kDisarmed, kTelemetry, kJournal };

struct RoundResult {
  double machineCyclesPerSec = 0.0;
  int64_t flightRecords = 0;
  int64_t journalOps = 0;
};

/// One timed round: fresh fleet, warm-up, `epochs` timed epochs.
RoundResult runRound(const fleet::Fleet::ChartImagePtr& image, Arm arm,
                     size_t instances, int threads, int epochs,
                     int cyclesPerEpoch, bool* ok) {
  fleet::FleetConfig config;
  config.workerThreads = threads;
  config.telemetry = arm == Arm::kTelemetry;
  config.journal = arm == Arm::kJournal;
  fleet::Fleet fleet(image, config);
  const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, instances, pulses)) {
    std::fprintf(stderr, "FAIL: instance(s) did not reach Moving\n");
    *ok = false;
  }
  fleet.step(cyclesPerEpoch);  // settle worker wake-up, untimed

  const int64_t before = fleet.mergedMetrics().value("fleet.machine_cycles");
  const auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < epochs; ++e) {
    workloads::injectSmdPulses(fleet, pulses);
    fleet.step(cyclesPerEpoch);
  }
  const auto end = std::chrono::steady_clock::now();
  const int64_t after = fleet.mergedMetrics().value("fleet.machine_cycles");

  RoundResult r;
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  if (seconds > 0.0)
    r.machineCyclesPerSec = static_cast<double>(after - before) / seconds;
  if (arm == Arm::kTelemetry && fleet.flightRecorder() != nullptr)
    r.flightRecords =
        static_cast<int64_t>(fleet.flightRecorder()->snapshot().size());
  if (arm == Arm::kJournal && fleet.journal() != nullptr)
    r.journalOps = static_cast<int64_t>(fleet.journal()->ops().size());
  return r;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? values[n / 2]
                              : 0.5 * (values[n / 2 - 1] + values[n / 2]));
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;

  const size_t instances = quick ? 64 : 256;
  const int threads = 1;  // overhead is per-worker; 1 thread isolates it
  // Quick mode favours many short rounds: the median over 15 pairs is far
  // more stable against scheduler interference on small/shared runners
  // than 5 longer ones, at ~1s total.
  const int rounds = quick ? 15 : 9;
  const int epochs = quick ? 24 : 64;
  const int cyclesPerEpoch = 8;

  std::printf("=== Telemetry overhead: armed vs disarmed fleet stepping ===\n");
  std::printf("(%s mode, %zu instances, %d rounds x %d epochs x %d cycles)\n\n",
              quick ? "quick" : "full", instances, rounds, epochs,
              cyclesPerEpoch);

  const auto image = workloads::makeSmdFleetImage();
  bool ok = true;
  std::vector<double> off, tele, jour;
  int64_t flightRecords = 0;
  int64_t journalOps = 0;
  // Interleaved arms: drift hits all three symmetrically. One extra
  // untimed leading set warms caches and the allocator.
  (void)runRound(image, Arm::kDisarmed, instances, threads, 4, cyclesPerEpoch, &ok);
  (void)runRound(image, Arm::kTelemetry, instances, threads, 4, cyclesPerEpoch, &ok);
  (void)runRound(image, Arm::kJournal, instances, threads, 4, cyclesPerEpoch, &ok);
  for (int r = 0; r < rounds; ++r) {
    off.push_back(runRound(image, Arm::kDisarmed, instances, threads, epochs,
                           cyclesPerEpoch, &ok)
                      .machineCyclesPerSec);
    const RoundResult armed = runRound(image, Arm::kTelemetry, instances,
                                       threads, epochs, cyclesPerEpoch, &ok);
    tele.push_back(armed.machineCyclesPerSec);
    flightRecords = std::max(flightRecords, armed.flightRecords);
    const RoundResult journaled = runRound(image, Arm::kJournal, instances,
                                           threads, epochs, cyclesPerEpoch, &ok);
    jour.push_back(journaled.machineCyclesPerSec);
    journalOps = std::max(journalOps, journaled.journalOps);
  }

  const double offMedian = median(off);
  const double onMedian = median(tele);
  const double journalMedian = median(jour);
  const double ratio = offMedian > 0.0 ? onMedian / offMedian : 0.0;
  const double overheadPct = 100.0 * (1.0 - ratio);
  const double journalRatio = offMedian > 0.0 ? journalMedian / offMedian : 0.0;
  const double journalOverheadPct = 100.0 * (1.0 - journalRatio);

  std::printf("| arm       | median mach cycles/s |\n");
  std::printf("|-----------|----------------------|\n");
  std::printf("| disarmed  | %20.0f |\n", offMedian);
  std::printf("| telemetry | %20.0f |\n", onMedian);
  std::printf("| journal   | %20.0f |\n", journalMedian);
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
      instances, rounds, offMedian, onMedian, journalMedian, ratio,
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
