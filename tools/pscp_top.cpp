// pscp_top: live health dashboard for a running fleet — `top` for
// statechart populations. Spins up a telemetry-armed SMD fleet (the same
// steady-state duty cycle the benches run), steps it on a driver thread,
// and renders per-shard health from lock-free snapshots on the main
// thread: epoch latency (last/EWMA/max + p50/p99 from the per-shard
// histogram), machine cycles, queue high-water, steals, drops, the
// awake/sleeping split of the last epoch, the decode and schedule memos'
// hit shares, and any anomalies the stall/imbalance detector raises.
//
//   pscp_top                         # live dashboard until Ctrl-C / duration
//   pscp_top --json                  # one pscp-telemetry-v1 snapshot, stdout
//   pscp_top --induce-stall 1        # fault-inject shard 1 and watch the
//                                    # detector fire (auto flight dump)
//   pscp_top --flight-dump F.json    # dump the flight recorder on exit
//   pscp_top --export-trace T.json   # lower the dump to a Chrome trace
//
// The dashboard reads only Fleet::healthSnapshot() and the flight rings —
// both safe mid-epoch — so it observes a stalled epoch *while* it stalls,
// which is the whole point of a live plane over post-mortem metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "support/diag.hpp"
#include "support/text.hpp"
#include "workloads/smd_fleet.hpp"

using namespace pscp;

namespace {

struct Options {
  size_t instances = 256;
  int threads = 2;
  int cyclesPerEpoch = 8;
  int refreshMs = 500;
  double durationSec = 0.0;  ///< 0 = run until --epochs (or forever)
  int64_t epochs = 0;        ///< 0 = unlimited
  bool json = false;
  std::string flightDumpPath;
  std::string exportTracePath;
  int induceStallShard = -1;
  int64_t stallMicros = 20'000;
};

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--instances N] [--threads N] [--cycles N] [--refresh-ms N]\n"
      "          [--duration SEC] [--epochs N] [--json]\n"
      "          [--flight-dump PATH] [--export-trace PATH]\n"
      "          [--induce-stall SHARD [--stall-micros N]]\n",
      argv0);
  return 2;
}

bool parseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--json") {
      opt->json = true;
    } else if (arg == "--instances" && (v = next())) {
      opt->instances = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--threads" && (v = next())) {
      opt->threads = std::atoi(v);
      if (opt->threads > fleet::kMaxWorkerThreads) {
        std::fprintf(stderr, "--threads %d exceeds the maximum of %d\n", opt->threads,
                     fleet::kMaxWorkerThreads);
        return false;
      }
    } else if (arg == "--cycles" && (v = next())) {
      opt->cyclesPerEpoch = std::atoi(v);
    } else if (arg == "--refresh-ms" && (v = next())) {
      opt->refreshMs = std::atoi(v);
    } else if (arg == "--duration" && (v = next())) {
      opt->durationSec = std::atof(v);
    } else if (arg == "--epochs" && (v = next())) {
      opt->epochs = std::atoll(v);
    } else if (arg == "--flight-dump" && (v = next())) {
      opt->flightDumpPath = v;
    } else if (arg == "--export-trace" && (v = next())) {
      opt->exportTracePath = v;
    } else if (arg == "--induce-stall" && (v = next())) {
      opt->induceStallShard = std::atoi(v);
    } else if (arg == "--stall-micros" && (v = next())) {
      opt->stallMicros = std::atoll(v);
    } else {
      return false;
    }
  }
  return opt->instances > 0 && opt->threads > 0 && opt->cyclesPerEpoch > 0;
}

std::string nanosText(int64_t ns) {
  if (ns >= 1'000'000'000) return strfmt("%.2fs", static_cast<double>(ns) / 1e9);
  if (ns >= 1'000'000) return strfmt("%.1fms", static_cast<double>(ns) / 1e6);
  if (ns >= 1'000) return strfmt("%.1fus", static_cast<double>(ns) / 1e3);
  return strfmt("%lldns", static_cast<long long>(ns));
}

/// Quantile over a shard's epoch-latency histogram via Histogram::fromCounts.
double shardQuantile(const obs::ShardHealth& s, double q) {
  if (s.epochs == 0 || s.epochNanosCounts.empty()) return 0.0;
  const obs::Histogram h = obs::Histogram::fromCounts(
      obs::epochNanosBounds(), s.epochNanosCounts, s.sumEpochNanos,
      s.minEpochNanos, s.maxEpochNanos);
  return h.quantile(q);
}

std::string renderDashboard(const obs::FleetHealth& health,
                            const std::vector<obs::HealthAnomaly>& anomalies,
                            double elapsedSec, pscp::tep::jit::JitMode jitMode,
                            const pscp::tep::jit::TierResidency& tier) {
  std::string out;
  out += strfmt(
      "pscp_top — %lld instances, %d workers, epoch %lld, %.1fs elapsed\n",
      static_cast<long long>(health.liveInstances), health.workerThreads,
      static_cast<long long>(health.epochs), elapsedSec);
  out += strfmt(
      "fleet: %lld machine cycles, %lld drops, %lld steal chunks\n",
      static_cast<long long>(health.total(&obs::ShardHealth::machineCycles)),
      static_cast<long long>(health.total(&obs::ShardHealth::eventsDropped)),
      static_cast<long long>(health.total(&obs::ShardHealth::stealChunks)));
  const int64_t sleeping = health.total(&obs::ShardHealth::sleepingInstances);
  out += strfmt("sleep: %lld awake, %lld sleeping instances (last epoch)\n",
                static_cast<long long>(std::max<int64_t>(health.liveInstances - sleeping, 0)),
                static_cast<long long>(sleeping));
  const auto share = [](int64_t part, int64_t whole) {
    return whole > 0 ? 100.0 * static_cast<double>(part) / static_cast<double>(whole) : 0.0;
  };
  const int64_t decodes = health.total(&obs::ShardHealth::decodes);
  const int64_t lockstepRuns = health.total(&obs::ShardHealth::lockstepRuns);
  out += strfmt(
      "memo:  %.1f%% of %lld decodes from the decode memo, %.1f%% of %lld TATs "
      "replayed from the schedule memo\n",
      share(health.total(&obs::ShardHealth::decodeMemoHits), decodes),
      static_cast<long long>(decodes),
      share(health.total(&obs::ShardHealth::scheduleReplays), lockstepRuns),
      static_cast<long long>(lockstepRuns));
  out += strfmt(
      "tier:  jit=%s — %d native / %d rejected routines, compile %s\n\n",
      pscp::tep::jit::jitModeName(jitMode), tier.nativeRoutines,
      tier.rejectedRoutines,
      nanosText(tier.compileMicros * 1000).c_str());

  std::vector<std::vector<std::string>> rows;
  for (const obs::ShardHealth& s : health.shards) {
    rows.push_back(
        {strfmt("%d", s.shard), strfmt("%lld", static_cast<long long>(s.epochs)),
         nanosText(s.lastEpochNanos), nanosText(s.ewmaEpochNanos),
         nanosText(static_cast<int64_t>(shardQuantile(s, 0.5))),
         nanosText(static_cast<int64_t>(shardQuantile(s, 0.99))),
         nanosText(s.maxEpochNanos),
         s.inFlightNanos > 0 ? nanosText(s.inFlightNanos) : "-",
         strfmt("%lld", static_cast<long long>(s.machineCycles)),
         strfmt("%lld", static_cast<long long>(s.queueDepthHwm)),
         strfmt("%lld", static_cast<long long>(s.stealChunks)),
         strfmt("%lld", static_cast<long long>(s.eventsDropped))});
  }
  out += renderTable({"shard", "epochs", "last", "ewma", "p50", "p99", "max",
                      "inflight", "mcycles", "q_hwm", "steals", "drops"},
                     rows);
  out += "\n";
  if (anomalies.empty()) {
    out += "health: OK\n";
  } else {
    for (const obs::HealthAnomaly& a : anomalies)
      out += strfmt("ANOMALY [%s] %s\n", obs::anomalyKindName(a.kind),
                    a.detail.c_str());
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parseOptions(argc, argv, &opt)) return usage(argv[0]);
  // One-shot JSON wants a bounded run; default it when the user gave no
  // other stop condition.
  if (opt.json && opt.epochs == 0 && opt.durationSec == 0.0) opt.epochs = 30;

  fleet::FleetConfig config;
  config.workerThreads = opt.threads;
  config.telemetry = true;
  config.debugStallShard = opt.induceStallShard;
  if (opt.induceStallShard >= 0) config.debugStallMicros = opt.stallMicros;
  fleet::Fleet fleet(workloads::makeSmdFleetImage(), config);
  const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet);
  if (!workloads::warmUpSmdFleet(fleet, opt.instances, pulses)) {
    std::fprintf(stderr, "error: SMD instance(s) did not reach Moving\n");
    return 1;
  }

  // Driver thread owns the fleet control surface; the main thread only
  // takes lock-free snapshots.
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    int64_t done = 0;
    while (!stop.load(std::memory_order_relaxed) &&
           (opt.epochs == 0 || done < opt.epochs)) {
      workloads::injectSmdPulses(fleet, pulses);
      fleet.step(opt.cyclesPerEpoch);
      ++done;
    }
    stop.store(true, std::memory_order_relaxed);
  });

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  int exitCode = 0;
  bool stallSeen = false;
  if (opt.json) {
    // Let the run finish (or the duration lapse), then emit one snapshot.
    while (!stop.load(std::memory_order_relaxed) &&
           (opt.durationSec == 0.0 || elapsed() < opt.durationSec))
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stop.store(true, std::memory_order_relaxed);
    driver.join();
    const obs::FleetHealth health = fleet.healthSnapshot();
    const std::vector<obs::HealthAnomaly> anomalies =
        obs::detectAnomalies(health);
    const JsonValue doc = obs::telemetrySnapshotJson(health, anomalies);
    std::string error;
    if (!obs::validateTelemetryV1(doc, &error)) {
      std::fprintf(stderr, "error: emitted snapshot failed validation: %s\n",
                   error.c_str());
      exitCode = 1;
    } else {
      std::printf("%s\n", doc.dump(1).c_str());
    }
    for (const obs::HealthAnomaly& a : anomalies)
      stallSeen = stallSeen || a.kind == obs::HealthAnomaly::Kind::kStall;
  } else {
    for (;;) {
      const bool done = stop.load(std::memory_order_relaxed) ||
                        (opt.durationSec > 0.0 && elapsed() >= opt.durationSec);
      const obs::FleetHealth health = fleet.healthSnapshot();
      const std::vector<obs::HealthAnomaly> anomalies =
          obs::detectAnomalies(health);
      for (const obs::HealthAnomaly& a : anomalies)
        stallSeen = stallSeen || a.kind == obs::HealthAnomaly::Kind::kStall;
      // ANSI home+clear keeps the table in place; fall through cleanly when
      // stdout is a pipe.
      std::printf("\x1b[H\x1b[2J%s",
                  renderDashboard(health, anomalies, elapsed(), config.jitMode,
                                  fleet.tierResidency())
                      .c_str());
      std::fflush(stdout);
      if (done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(opt.refreshMs));
    }
    stop.store(true, std::memory_order_relaxed);
    driver.join();
  }

  // A detected stall always leaves a post-mortem behind, even without an
  // explicit --flight-dump.
  std::string dumpPath = opt.flightDumpPath;
  if (dumpPath.empty() && stallSeen) dumpPath = "FLIGHT_pscp_top_stall.json";
  if (!dumpPath.empty()) {
    std::string error;
    if (fleet.writeFlightDump(dumpPath, &error)) {
      std::fprintf(stderr, "flight dump written to %s\n", dumpPath.c_str());
    } else {
      std::fprintf(stderr, "error: flight dump failed: %s\n", error.c_str());
      exitCode = 1;
    }
  }
  if (!opt.exportTracePath.empty()) {
    const std::string trace = obs::FlightRecorder::chromeTraceJson(
        fleet.flightRecorder()->snapshot());
    std::FILE* f = std::fopen(opt.exportTracePath.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(trace.data(), 1, trace.size(), f);
      std::fclose(f);
      std::fprintf(stderr, "chrome trace written to %s\n",
                   opt.exportTracePath.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.exportTracePath.c_str());
      exitCode = 1;
    }
  }
  return exitCode;
}
