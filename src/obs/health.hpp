// Continuous fleet health: plain snapshot structs filled from the fleet's
// per-worker atomic counter blocks, a stall/imbalance detector over them,
// and the versioned `pscp-telemetry-v1` JSON surface that tools/pscp_top
// serves.
//
// The design splits responsibilities:
//   - src/fleet owns the *hot* side: one cacheline-aligned block of
//     atomics per worker, bumped by the owning worker at epoch boundaries
//     (never per cycle). The same block feeds Fleet::mergedMetrics().
//   - this header owns the *cold* side: FleetHealth, a value-type snapshot
//     any thread can take at any time with relaxed loads (no locks, no
//     stop-the-world merge), plus everything computed over it.
//
// detectAnomalies() is a pure function over a snapshot so it can be unit
// tested without threads and reused by any consumer (pscp_top polls it
// every refresh; a server front end would do the same per scrape).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "support/json.hpp"

namespace pscp::obs {

/// Monotonic wall clock in nanoseconds (steady_clock; comparable only
/// within a process).
[[nodiscard]] int64_t nowMonotonicNanos();

/// Shared bucket bounds (ns) for per-shard epoch-latency histograms:
/// 1µs .. 10s, roughly 1-2-5 per decade. Fixed so the fleet's atomic
/// bucket arrays have a static size and shards' counts can be summed.
[[nodiscard]] const std::vector<int64_t>& epochNanosBounds();
/// epochNanosBounds().size() + 1 (the overflow bucket), as a compile-time
/// size for the fleet's per-shard atomic count arrays.
inline constexpr size_t kEpochNanosBucketCount = 23;

/// Point-in-time view of one shard's health counters.
struct ShardHealth {
  int shard = 0;
  int64_t epochs = 0;           ///< epochs completed by this shard's worker
  int64_t lastEpochNanos = 0;   ///< wall time of the most recent epoch
  int64_t ewmaEpochNanos = 0;   ///< exponential moving average (alpha = 1/8)
  int64_t minEpochNanos = 0;
  int64_t maxEpochNanos = 0;
  int64_t sumEpochNanos = 0;
  int64_t inFlightNanos = 0;    ///< >0: the epoch running at capture time
                                ///< has been running this long (stall signal)
  int64_t machineCycles = 0;
  int64_t configCycles = 0;
  int64_t firedTransitions = 0;
  int64_t eventsDelivered = 0;
  int64_t eventsDropped = 0;    ///< drop deltas observed at drain time
  int64_t stealChunks = 0;
  int64_t queueDepthHwm = 0;    ///< deepest SPSC queue seen at drain
  int64_t instancesStepped = 0;   ///< instances stepped (awake), summed over epochs
  int64_t sleepingInstances = 0;  ///< sleepers the last epoch credited unstepped
  int64_t decodes = 0;            ///< configuration cycles that decoded
  int64_t decodeMemoHits = 0;     ///< of which the decode memo answered
  int64_t lockstepRuns = 0;       ///< configuration cycles that ran a TAT
  int64_t scheduleReplays = 0;    ///< of which the schedule memo replayed
  int64_t portWrites = 0;
  std::vector<int64_t> epochNanosCounts;  ///< epochNanosBounds().size() + 1
};

/// Whole-fleet snapshot (lock-free to take; see Fleet::healthSnapshot).
struct FleetHealth {
  bool telemetryEnabled = false;
  int64_t capturedAtNanos = 0;
  int64_t epochs = 0;         ///< fleet epochs started
  int64_t liveInstances = 0;
  int workerThreads = 0;
  std::vector<ShardHealth> shards;  ///< empty when telemetry is off

  /// The shards' sum of any counter, e.g. total(&ShardHealth::decodes).
  [[nodiscard]] int64_t total(int64_t ShardHealth::*field) const;
};

struct HealthAnomaly {
  enum class Kind {
    kStall,  ///< one shard's in-flight epoch is way past its typical time
    kSkew,   ///< per-shard mean epoch times diverge (imbalance)
    kDrops,  ///< injections were dropped on full queues
  };
  Kind kind = Kind::kStall;
  int shard = -1;        ///< -1 for fleet-wide findings (kSkew)
  double severity = 0.0; ///< ratio past the threshold (>= 1 means firing)
  std::string detail;    ///< one human-readable line
};

[[nodiscard]] const char* anomalyKindName(HealthAnomaly::Kind kind);

struct AnomalyThresholds {
  /// A shard stalls when its in-flight epoch exceeds
  /// stallFactor * max(ewmaEpochNanos, stallFloorNanos).
  double stallFactor = 8.0;
  int64_t stallFloorNanos = 2'000'000;  // 2 ms: ignore scheduler jitter
  /// Fleet is skewed when max/min per-shard EWMA exceeds skewFactor
  /// (only once every shard has >= minEpochsForSkew completed epochs).
  double skewFactor = 4.0;
  int64_t minEpochsForSkew = 8;
  /// Any eventsDropped >= dropAlert raises kDrops for that shard.
  int64_t dropAlert = 1;
};

/// Pure: evaluate a snapshot against thresholds. Empty result = healthy.
[[nodiscard]] std::vector<HealthAnomaly> detectAnomalies(
    const FleetHealth& health, const AnomalyThresholds& thresholds = {});

/// Publish a snapshot's armed-only data into a MetricsRegistry: the
/// per-epoch latency histogram "fleet.epoch_nanos" (the shards' bucket
/// counts summed, rebuilt once via Histogram::fromCounts), plus counters
/// fleet.queue_depth_hwm and fleet.telemetry_port_writes. Fleet::
/// mergedMetrics() calls it on an armed fleet, so the health plane and the
/// fleet counters share one reporting surface.
void healthToMetrics(const FleetHealth& health, MetricsRegistry* out);

// ------------------------------------------------------ pscp-telemetry-v1
// {
//   "schema": "pscp-telemetry-v1",
//   "captured_at_ns": t, "fleet": { epochs, live_instances, worker_threads,
//     machine_cycles, events_dropped, steal_chunks },
//   "shards": [ { shard, epochs, last_epoch_ns, ewma_epoch_ns, min_epoch_ns,
//     max_epoch_ns, in_flight_ns, machine_cycles, config_cycles,
//     fired_transitions, events_delivered, events_dropped, steal_chunks,
//     queue_depth_hwm, instances_stepped, sleeping_instances, decodes,
//     decode_memo_hits, lockstep_runs, schedule_replays, port_writes,
//     epoch_ns_hist: { bounds: [...], counts: [...] } } ],
//   "anomalies": [ { kind, shard, severity, detail } ]
// }
[[nodiscard]] JsonValue telemetrySnapshotJson(
    const FleetHealth& health, const std::vector<HealthAnomaly>& anomalies);

/// Structural validation of a pscp-telemetry-v1 document (schema tag,
/// required members, types, histogram counts/bounds arity). Used by
/// pscp_top --json to self-check its output and by the tests.
[[nodiscard]] bool validateTelemetryV1(const JsonValue& doc, std::string* error);

}  // namespace pscp::obs
