#include "obs/health.hpp"

#include <algorithm>
#include <chrono>

#include "support/diag.hpp"

namespace pscp::obs {

int64_t nowMonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<int64_t>& epochNanosBounds() {
  // 1µs .. 10s in a 1-2-5 ladder; one overflow bucket above.
  static const std::vector<int64_t> kBounds = {
      1'000,         2'000,         5'000,         10'000,        20'000,
      50'000,        100'000,       200'000,       500'000,       1'000'000,
      2'000'000,     5'000'000,     10'000'000,    20'000'000,    50'000'000,
      100'000'000,   200'000'000,   500'000'000,   1'000'000'000, 2'000'000'000,
      5'000'000'000, 10'000'000'000};
  static_assert(kEpochNanosBucketCount == 22 + 1,
                "kEpochNanosBucketCount must equal bounds + overflow bucket");
  PSCP_ASSERT(kBounds.size() + 1 == kEpochNanosBucketCount);
  return kBounds;
}

int64_t FleetHealth::total(int64_t ShardHealth::*field) const {
  int64_t sum = 0;
  for (const ShardHealth& s : shards) sum += s.*field;
  return sum;
}

const char* anomalyKindName(HealthAnomaly::Kind kind) {
  switch (kind) {
    case HealthAnomaly::Kind::kStall:
      return "stall";
    case HealthAnomaly::Kind::kSkew:
      return "skew";
    case HealthAnomaly::Kind::kDrops:
      return "drops";
  }
  return "unknown";
}

std::vector<HealthAnomaly> detectAnomalies(const FleetHealth& health,
                                           const AnomalyThresholds& thresholds) {
  std::vector<HealthAnomaly> out;
  if (!health.telemetryEnabled) return out;

  // Stall: a shard's in-flight epoch is far past its typical epoch time.
  for (const ShardHealth& s : health.shards) {
    if (s.inFlightNanos <= 0) continue;
    const int64_t typical = std::max(s.ewmaEpochNanos, thresholds.stallFloorNanos);
    const double ratio =
        static_cast<double>(s.inFlightNanos) / static_cast<double>(typical);
    if (ratio >= thresholds.stallFactor) {
      HealthAnomaly a;
      a.kind = HealthAnomaly::Kind::kStall;
      a.shard = s.shard;
      a.severity = ratio / thresholds.stallFactor;
      a.detail = strfmt(
          "shard %d epoch in flight for %lld us (typical %lld us, %.1fx)",
          s.shard, static_cast<long long>(s.inFlightNanos / 1000),
          static_cast<long long>(typical / 1000), ratio);
      out.push_back(std::move(a));
    }
  }

  // Skew: per-shard mean epoch wall times diverge across the fleet.
  if (health.shards.size() >= 2) {
    int64_t minEwma = 0;
    int64_t maxEwma = 0;
    int maxShard = -1;
    bool allWarm = true;
    for (const ShardHealth& s : health.shards) {
      if (s.epochs < thresholds.minEpochsForSkew || s.ewmaEpochNanos <= 0) {
        allWarm = false;
        break;
      }
      if (minEwma == 0 || s.ewmaEpochNanos < minEwma) minEwma = s.ewmaEpochNanos;
      if (s.ewmaEpochNanos > maxEwma) {
        maxEwma = s.ewmaEpochNanos;
        maxShard = s.shard;
      }
    }
    if (allWarm && minEwma > 0) {
      const double ratio =
          static_cast<double>(maxEwma) / static_cast<double>(minEwma);
      if (ratio >= thresholds.skewFactor) {
        HealthAnomaly a;
        a.kind = HealthAnomaly::Kind::kSkew;
        a.shard = maxShard;
        a.severity = ratio / thresholds.skewFactor;
        a.detail = strfmt(
            "shard epoch-time skew %.1fx (slowest shard %d at %lld us ewma, "
            "fastest %lld us)",
            ratio, maxShard, static_cast<long long>(maxEwma / 1000),
            static_cast<long long>(minEwma / 1000));
        out.push_back(std::move(a));
      }
    }
  }

  // Drops: any shard observed rejected injections.
  for (const ShardHealth& s : health.shards) {
    if (s.eventsDropped < thresholds.dropAlert) continue;
    HealthAnomaly a;
    a.kind = HealthAnomaly::Kind::kDrops;
    a.shard = s.shard;
    a.severity = static_cast<double>(s.eventsDropped);
    a.detail = strfmt("shard %d observed %lld dropped injections", s.shard,
                      static_cast<long long>(s.eventsDropped));
    out.push_back(std::move(a));
  }
  return out;
}

void healthToMetrics(const FleetHealth& health, MetricsRegistry* out) {
  if (!health.telemetryEnabled) return;
  std::vector<int64_t> counts(kEpochNanosBucketCount, 0);
  int64_t epochs = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  int64_t queueHwm = 0;
  int64_t portWrites = 0;
  for (const ShardHealth& s : health.shards) {
    if (s.epochs > 0) {
      for (size_t b = 0; b < counts.size(); ++b) counts[b] += s.epochNanosCounts[b];
      min = epochs == 0 ? s.minEpochNanos : std::min(min, s.minEpochNanos);
      max = std::max(max, s.maxEpochNanos);
      sum += s.sumEpochNanos;
      epochs += s.epochs;
    }
    queueHwm = std::max(queueHwm, s.queueDepthHwm);
    portWrites += s.portWrites;
  }
  if (epochs > 0)
    out->histogram("fleet.epoch_nanos", epochNanosBounds()) =
        Histogram::fromCounts(epochNanosBounds(), counts, sum, min, max);
  out->counter("fleet.queue_depth_hwm") = queueHwm;
  out->counter("fleet.telemetry_port_writes") = portWrites;
}

// ------------------------------------------------------- pscp-telemetry-v1

namespace {

JsonValue shardToJson(const ShardHealth& s) {
  JsonValue obj = JsonValue::makeObject();
  const auto num = [](int64_t v) {
    return JsonValue::makeNumber(static_cast<double>(v));
  };
  obj.set("shard", num(s.shard));
  obj.set("epochs", num(s.epochs));
  obj.set("last_epoch_ns", num(s.lastEpochNanos));
  obj.set("ewma_epoch_ns", num(s.ewmaEpochNanos));
  obj.set("min_epoch_ns", num(s.minEpochNanos));
  obj.set("max_epoch_ns", num(s.maxEpochNanos));
  obj.set("in_flight_ns", num(s.inFlightNanos));
  obj.set("machine_cycles", num(s.machineCycles));
  obj.set("config_cycles", num(s.configCycles));
  obj.set("fired_transitions", num(s.firedTransitions));
  obj.set("events_delivered", num(s.eventsDelivered));
  obj.set("events_dropped", num(s.eventsDropped));
  obj.set("steal_chunks", num(s.stealChunks));
  obj.set("queue_depth_hwm", num(s.queueDepthHwm));
  obj.set("instances_stepped", num(s.instancesStepped));
  obj.set("sleeping_instances", num(s.sleepingInstances));
  obj.set("decodes", num(s.decodes));
  obj.set("decode_memo_hits", num(s.decodeMemoHits));
  obj.set("lockstep_runs", num(s.lockstepRuns));
  obj.set("schedule_replays", num(s.scheduleReplays));
  obj.set("port_writes", num(s.portWrites));
  JsonValue hist = JsonValue::makeObject();
  JsonValue bounds = JsonValue::makeArray();
  for (int64_t b : epochNanosBounds()) bounds.array.push_back(num(b));
  JsonValue counts = JsonValue::makeArray();
  for (int64_t c : s.epochNanosCounts) counts.array.push_back(num(c));
  hist.set("bounds", std::move(bounds));
  hist.set("counts", std::move(counts));
  obj.set("epoch_ns_hist", std::move(hist));
  return obj;
}

}  // namespace

JsonValue telemetrySnapshotJson(const FleetHealth& health,
                                const std::vector<HealthAnomaly>& anomalies) {
  const auto num = [](int64_t v) {
    return JsonValue::makeNumber(static_cast<double>(v));
  };
  JsonValue doc = JsonValue::makeObject();
  doc.set("schema", JsonValue::makeString("pscp-telemetry-v1"));
  doc.set("captured_at_ns", num(health.capturedAtNanos));

  JsonValue fleet = JsonValue::makeObject();
  fleet.set("epochs", num(health.epochs));
  fleet.set("live_instances", num(health.liveInstances));
  fleet.set("worker_threads", num(health.workerThreads));
  fleet.set("telemetry_enabled", JsonValue::makeBool(health.telemetryEnabled));
  fleet.set("machine_cycles", num(health.total(&ShardHealth::machineCycles)));
  fleet.set("events_dropped", num(health.total(&ShardHealth::eventsDropped)));
  fleet.set("steal_chunks", num(health.total(&ShardHealth::stealChunks)));
  doc.set("fleet", std::move(fleet));

  JsonValue shards = JsonValue::makeArray();
  for (const ShardHealth& s : health.shards)
    shards.array.push_back(shardToJson(s));
  doc.set("shards", std::move(shards));

  JsonValue anoms = JsonValue::makeArray();
  for (const HealthAnomaly& a : anomalies) {
    JsonValue obj = JsonValue::makeObject();
    obj.set("kind", JsonValue::makeString(anomalyKindName(a.kind)));
    obj.set("shard", num(a.shard));
    obj.set("severity", JsonValue::makeNumber(a.severity));
    obj.set("detail", JsonValue::makeString(a.detail));
    anoms.array.push_back(std::move(obj));
  }
  doc.set("anomalies", std::move(anoms));
  return doc;
}

bool validateTelemetryV1(const JsonValue& doc, std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = "pscp-telemetry-v1: " + message;
    return false;
  };
  if (!doc.isObject()) return fail("document is not an object");
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->string != "pscp-telemetry-v1")
    return fail("missing or unexpected \"schema\"");
  const JsonValue* captured = doc.find("captured_at_ns");
  if (captured == nullptr || !captured->isNumber())
    return fail("missing numeric \"captured_at_ns\"");

  const JsonValue* fleet = doc.find("fleet");
  if (fleet == nullptr || !fleet->isObject()) return fail("missing \"fleet\"");
  for (const char* key : {"epochs", "live_instances", "worker_threads",
                          "machine_cycles", "events_dropped", "steal_chunks"}) {
    const JsonValue* v = fleet->find(key);
    if (v == nullptr || !v->isNumber())
      return fail(std::string("fleet lacks numeric \"") + key + "\"");
  }

  const JsonValue* shards = doc.find("shards");
  if (shards == nullptr || !shards->isArray())
    return fail("missing \"shards\" array");
  for (size_t i = 0; i < shards->array.size(); ++i) {
    const JsonValue& s = shards->array[i];
    if (!s.isObject()) return fail(strfmt("shards[%zu] is not an object", i));
    for (const char* key :
         {"shard", "epochs", "last_epoch_ns", "ewma_epoch_ns", "min_epoch_ns",
          "max_epoch_ns", "in_flight_ns", "machine_cycles", "config_cycles",
          "fired_transitions", "events_delivered", "events_dropped",
          "steal_chunks", "queue_depth_hwm", "instances_stepped",
          "sleeping_instances", "decodes", "decode_memo_hits", "lockstep_runs",
          "schedule_replays", "port_writes"}) {
      const JsonValue* v = s.find(key);
      if (v == nullptr || !v->isNumber())
        return fail(strfmt("shards[%zu] lacks numeric \"%s\"", i, key));
    }
    const JsonValue* hist = s.find("epoch_ns_hist");
    if (hist == nullptr || !hist->isObject())
      return fail(strfmt("shards[%zu] lacks \"epoch_ns_hist\"", i));
    const JsonValue* bounds = hist->find("bounds");
    const JsonValue* counts = hist->find("counts");
    if (bounds == nullptr || !bounds->isArray() || counts == nullptr ||
        !counts->isArray())
      return fail(strfmt("shards[%zu] histogram lacks bounds/counts", i));
    if (counts->array.size() != bounds->array.size() + 1)
      return fail(strfmt("shards[%zu] histogram arity: %zu counts for %zu bounds",
                         i, counts->array.size(), bounds->array.size()));
  }

  const JsonValue* anoms = doc.find("anomalies");
  if (anoms == nullptr || !anoms->isArray())
    return fail("missing \"anomalies\" array");
  for (size_t i = 0; i < anoms->array.size(); ++i) {
    const JsonValue& a = anoms->array[i];
    if (!a.isObject() || a.find("kind") == nullptr ||
        !a.find("kind")->isString() || a.find("detail") == nullptr ||
        !a.find("detail")->isString())
      return fail(strfmt("anomalies[%zu] malformed", i));
  }
  return true;
}

}  // namespace pscp::obs
