// Fleet health-telemetry tests: lock-free snapshots agree with the
// stop-the-world metrics fold, the stall/skew/drop detector fires on
// synthetic and fault-injected fleets, and the pscp-telemetry-v1 surface
// validates its own output (and rejects mutations).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/json.hpp"

namespace pscp::obs {
namespace {

const char* kChart = R"chart(
chart Counter;
event GO; event STOP; event TICK; event OVERFLOW;
condition ARMED;
port Sense data in width 8 address 0x20;
port Drive data out width 8 address 0x21;

orstate Top {
  contains IdleS, Active;
  default IdleS;
}
basicstate IdleS {
  transition { target Active; label "GO [ARMED]/Init()"; }
}
andstate Active {
  transition { target IdleS; label "STOP/Report()"; }
  transition { target IdleS; label "OVERFLOW"; }
  orstate CountPart { default Counting;
    basicstate Counting {
      transition { target Counting; label "TICK/Bump()"; }
    }
  }
  orstate WatchPart { default Watching;
    basicstate Watching {
      transition { target Watching; label "TICK/Watch()"; }
    }
  }
}
)chart";

const char* kActions = R"code(
int:16 count;
int:16 watchTicks;
uint:8 lastSense;

void Init() { count = 0; watchTicks = 0; }
void Bump() { lastSense = read_port(Sense); count = count + lastSense; }
void Watch() { watchTicks = watchTicks + 1; }
void Report() { write_port(Drive, count); }
)code";

class TelemetryFleetTest : public ::testing::Test {
 protected:
  TelemetryFleetTest()
      : chart_(statechart::parseChart(kChart)),
        actions_(actionlang::parseActionSource(kActions)) {
    hwlib::ArchConfig arch;
    arch.numTeps = 2;
    arch.dataWidth = 16;
    arch.hasMulDiv = true;
    arch.hasComparator = true;
    arch.registerFileSize = 12;
    image_ = std::make_shared<const machine::ChartImage>(chart_, actions_, arch);
  }

  std::unique_ptr<fleet::Fleet> makeFleet(fleet::FleetConfig config,
                                          size_t instances) {
    auto f = std::make_unique<fleet::Fleet>(image_, config);
    const int go = f->eventId("GO");
    for (fleet::InstanceId id : f->spawnMany(instances)) {
      f->machine(id).setCondition("ARMED", true);
      f->inject(id, go);
    }
    f->step(1);
    return f;
  }

  void tickAll(fleet::Fleet& f, int tick) {
    for (fleet::InstanceId id = 0; id < f.liveCount(); ++id) f.inject(id, tick);
  }

  statechart::Chart chart_;
  actionlang::Program actions_;
  fleet::Fleet::ChartImagePtr image_;
};

// ----------------------------------------------------- health snapshots

TEST_F(TelemetryFleetTest, SnapshotAgreesWithMergedMetrics) {
  fleet::FleetConfig config;
  config.telemetry = true;
  auto f = makeFleet(config, 8);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 6; ++e) {
    tickAll(*f, tick);
    f->step(2);
  }

  const FleetHealth health = f->healthSnapshot();
  ASSERT_TRUE(health.telemetryEnabled);
  EXPECT_EQ(health.epochs, 7);  // warm-up + 6
  EXPECT_EQ(health.liveInstances, 8);
  ASSERT_EQ(health.shards.size(), 1u);

  const MetricsRegistry merged = f->mergedMetrics();
  EXPECT_EQ(health.total(&ShardHealth::machineCycles), merged.value("fleet.machine_cycles"));
  EXPECT_EQ(health.shards[0].eventsDelivered,
            merged.value("fleet.events_delivered"));
  EXPECT_EQ(health.shards[0].configCycles, merged.value("fleet.config_cycles"));
  EXPECT_EQ(health.shards[0].firedTransitions,
            merged.value("fleet.fired_transitions"));

  // The shard's epoch-latency histogram covers every completed epoch and
  // feeds the registry surface under "fleet.epoch_nanos".
  int64_t bucketTotal = 0;
  for (int64_t c : health.shards[0].epochNanosCounts) bucketTotal += c;
  EXPECT_EQ(bucketTotal, health.shards[0].epochs);
  const Histogram* epochHist = merged.findHistogram("fleet.epoch_nanos");
  ASSERT_NE(epochHist, nullptr);
  EXPECT_EQ(epochHist->count(), health.shards[0].epochs);
  EXPECT_GT(health.shards[0].minEpochNanos, 0);
  EXPECT_GE(health.shards[0].maxEpochNanos, health.shards[0].minEpochNanos);
  EXPECT_GT(health.shards[0].ewmaEpochNanos, 0);
  EXPECT_EQ(health.shards[0].inFlightNanos, 0);  // between epochs
}

TEST_F(TelemetryFleetTest, DisarmedFleetReportsFleetLevelFieldsOnly) {
  fleet::FleetConfig config;  // telemetry off
  auto f = makeFleet(config, 4);
  const FleetHealth health = f->healthSnapshot();
  EXPECT_FALSE(health.telemetryEnabled);
  EXPECT_EQ(health.epochs, 1);
  EXPECT_EQ(health.liveInstances, 4);
  EXPECT_TRUE(health.shards.empty());
  EXPECT_TRUE(detectAnomalies(health).empty());
  // And the merged metrics carry no telemetry-plane entries.
  const MetricsRegistry merged = f->mergedMetrics();
  EXPECT_EQ(merged.findHistogram("fleet.epoch_nanos"), nullptr);
}

TEST_F(TelemetryFleetTest, QueueHighWaterAndDropsAreObserved) {
  fleet::FleetConfig config;
  config.telemetry = true;
  config.eventQueueCapacity = 4;
  auto f = makeFleet(config, 2);
  const int tick = f->eventId("TICK");
  // Overfill instance 0's queue: capacity 4, push 10 -> 6 drops.
  for (int i = 0; i < 10; ++i) f->inject(0, tick);
  f->step(1);
  const FleetHealth health = f->healthSnapshot();
  ASSERT_EQ(health.shards.size(), 1u);
  EXPECT_EQ(health.shards[0].queueDepthHwm, 4);
  EXPECT_EQ(health.shards[0].eventsDropped, 6);
  EXPECT_EQ(f->snapshot(0).eventsDropped, 6);

  const std::vector<HealthAnomaly> anomalies = detectAnomalies(health);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, HealthAnomaly::Kind::kDrops);
}

// ------------------------------------------------------ anomaly detector

FleetHealth syntheticHealth(int shards) {
  FleetHealth h;
  h.telemetryEnabled = true;
  h.epochs = 100;
  h.liveInstances = 64;
  h.workerThreads = shards;
  for (int s = 0; s < shards; ++s) {
    ShardHealth sh;
    sh.shard = s;
    sh.epochs = 100;
    sh.ewmaEpochNanos = 1'000'000;  // 1 ms typical
    sh.lastEpochNanos = 1'000'000;
    sh.minEpochNanos = 900'000;
    sh.maxEpochNanos = 1'200'000;
    h.shards.push_back(sh);
  }
  return h;
}

TEST(TelemetryAnomalies, StallFiresOnLongInFlightEpoch) {
  FleetHealth h = syntheticHealth(2);
  EXPECT_TRUE(detectAnomalies(h).empty());

  // In-flight 20 ms vs 2 ms floor/1 ms ewma: 10x the floor, past the 8x
  // stall factor.
  h.shards[1].inFlightNanos = 20'000'000;
  const std::vector<HealthAnomaly> anomalies = detectAnomalies(h);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, HealthAnomaly::Kind::kStall);
  EXPECT_EQ(anomalies[0].shard, 1);
  EXPECT_GE(anomalies[0].severity, 1.0);

  // Just under the threshold: quiet.
  h.shards[1].inFlightNanos = 15'000'000;
  EXPECT_TRUE(detectAnomalies(h).empty());
}

TEST(TelemetryAnomalies, SkewFiresOnlyWhenAllShardsAreWarm) {
  FleetHealth h = syntheticHealth(3);
  h.shards[2].ewmaEpochNanos = 5'000'000;  // 5x the others
  std::vector<HealthAnomaly> anomalies = detectAnomalies(h);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, HealthAnomaly::Kind::kSkew);
  EXPECT_EQ(anomalies[0].shard, 2);

  // A cold shard suppresses the skew verdict (not enough evidence).
  h.shards[0].epochs = 2;
  EXPECT_TRUE(detectAnomalies(h).empty());
}

TEST(TelemetryAnomalies, ThresholdsAreTunable) {
  FleetHealth h = syntheticHealth(2);
  h.shards[0].ewmaEpochNanos = 2'000'000;  // 2x shard 1: default quiet
  EXPECT_TRUE(detectAnomalies(h).empty());
  AnomalyThresholds tight;
  tight.skewFactor = 1.5;
  const std::vector<HealthAnomaly> anomalies = detectAnomalies(h, tight);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].kind, HealthAnomaly::Kind::kSkew);
}

TEST_F(TelemetryFleetTest, InducedStallShowsUpAsSkew) {
  fleet::FleetConfig config;
  config.workerThreads = 2;
  config.telemetry = true;
  config.debugStallShard = 1;
  config.debugStallMicros = 2000;  // shard 1 sleeps 2 ms per epoch
  auto f = makeFleet(config, 8);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 12; ++e) {
    tickAll(*f, tick);
    f->step(1);
  }
  const FleetHealth health = f->healthSnapshot();
  ASSERT_EQ(health.shards.size(), 2u);
  EXPECT_GT(health.shards[1].ewmaEpochNanos, 2'000'000);

  AnomalyThresholds thresholds;
  thresholds.skewFactor = 2.0;  // CI-friendly: the sleep dominates anyway
  const std::vector<HealthAnomaly> anomalies =
      detectAnomalies(health, thresholds);
  bool skewOnSlowShard = false;
  for (const HealthAnomaly& a : anomalies)
    skewOnSlowShard = skewOnSlowShard ||
                      (a.kind == HealthAnomaly::Kind::kSkew && a.shard == 1);
  EXPECT_TRUE(skewOnSlowShard)
      << "2 ms fault injection on shard 1 must dominate its epoch EWMA";
}

// --------------------------------------------------- pscp-telemetry-v1

TEST_F(TelemetryFleetTest, SnapshotJsonValidatesAndRejectsMutations) {
  fleet::FleetConfig config;
  config.telemetry = true;
  config.workerThreads = 2;
  auto f = makeFleet(config, 6);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 4; ++e) {
    tickAll(*f, tick);
    f->step(1);
  }
  const FleetHealth health = f->healthSnapshot();
  const JsonValue doc = telemetrySnapshotJson(health, detectAnomalies(health));

  std::string error;
  EXPECT_TRUE(validateTelemetryV1(doc, &error)) << error;

  // Round-trip through text keeps it valid.
  JsonValue reparsed;
  ASSERT_TRUE(parseJson(doc.dump(1), &reparsed, &error)) << error;
  EXPECT_TRUE(validateTelemetryV1(reparsed, &error)) << error;

  // Mutations are rejected with a pointed message.
  JsonValue wrongSchema = reparsed;
  wrongSchema.set("schema", JsonValue::makeString("pscp-telemetry-v2"));
  EXPECT_FALSE(validateTelemetryV1(wrongSchema, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  JsonValue stripped = JsonValue::makeObject();
  for (const auto& [key, value] : reparsed.object)
    if (key != "fleet") stripped.set(key, value);
  EXPECT_FALSE(validateTelemetryV1(stripped, &error));
  EXPECT_NE(error.find("fleet"), std::string::npos);

  // Histogram arity violation (drop one count bucket).
  JsonValue badHist = reparsed;
  ASSERT_EQ(badHist.object[3].first, "shards");
  JsonValue& shard0 = badHist.object[3].second.array[0];
  for (auto& [key, value] : shard0.object)
    if (key == "epoch_ns_hist") value.object[1].second.array.pop_back();
  EXPECT_FALSE(validateTelemetryV1(badHist, &error));
  EXPECT_NE(error.find("arity"), std::string::npos);
}

TEST(TelemetryValidator, RejectsNonObjectsAndMissingAnomalies) {
  std::string error;
  JsonValue doc;
  ASSERT_TRUE(parseJson("[1,2,3]", &doc, &error));
  EXPECT_FALSE(validateTelemetryV1(doc, &error));

  ASSERT_TRUE(parseJson(
      R"({"schema":"pscp-telemetry-v1","captured_at_ns":1,
          "fleet":{"epochs":1,"live_instances":1,"worker_threads":1,
                   "machine_cycles":1,"events_dropped":0,"steal_chunks":0},
          "shards":[]})",
      &doc, &error));
  EXPECT_FALSE(validateTelemetryV1(doc, &error));
  EXPECT_NE(error.find("anomalies"), std::string::npos);
}

}  // namespace
}  // namespace pscp::obs
