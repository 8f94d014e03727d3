// Flight recorder tests: ring wrap-around and seqlock publication,
// pscp-flight-v1 round-trip through support/json, Chrome trace lowering,
// and the headline concurrency guarantee — dumping while the fleet is
// stepping is safe (this TU runs under the ThreadSanitizer CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "obs/flight.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/json.hpp"

namespace pscp::obs {
namespace {

// ------------------------------------------------------------ FlightRing

TEST(FlightRecorder, RingKeepsOnlyTheNewestCapacityRecords) {
  FlightRing ring(8);
  ASSERT_EQ(ring.capacity(), 8u);
  // Push 3x capacity; only the last 8 survive, oldest first.
  for (int64_t i = 0; i < 24; ++i)
    ring.push(FlightKind::kInstance, /*epoch=*/i, /*a=*/i, 2 * i, 0, 0);
  EXPECT_EQ(ring.pushed(), 24u);

  std::vector<FlightRecord> records;
  ring.snapshot(/*shard=*/3, &records);
  ASSERT_EQ(records.size(), 8u);
  for (size_t i = 0; i < records.size(); ++i) {
    const int64_t expected = 16 + static_cast<int64_t>(i);
    EXPECT_EQ(records[i].kind, FlightKind::kInstance);
    EXPECT_EQ(records[i].shard, 3);
    EXPECT_EQ(records[i].epoch, expected);
    EXPECT_EQ(records[i].a, expected);
    EXPECT_EQ(records[i].b, 2 * expected);
  }
}

TEST(FlightRecorder, RingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRing(1).capacity(), 1u);
  EXPECT_EQ(FlightRing(3).capacity(), 4u);
  EXPECT_EQ(FlightRing(1000).capacity(), 1024u);
}

TEST(FlightRecorder, PartialRingSnapshotsEverythingPushed) {
  FlightRing ring(64);
  ring.push(FlightKind::kEpochBegin, 1, 4, 10, 0, 0);
  ring.push(FlightKind::kSteal, 1, 2, 8, 4, 0);
  ring.push(FlightKind::kEpochEnd, 1, 12345, 99, 10, 3);
  std::vector<FlightRecord> records;
  ring.snapshot(0, &records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, FlightKind::kEpochBegin);
  EXPECT_EQ(records[1].kind, FlightKind::kSteal);
  EXPECT_EQ(records[2].kind, FlightKind::kEpochEnd);
  EXPECT_EQ(records[2].a, 12345);
}

// --------------------------------------------------------- serialization

TEST(FlightRecorder, JsonRoundTripsThroughSupportJson) {
  FlightRecorder recorder(/*shardCount=*/2, /*recordsPerShard=*/16);
  recorder.ring(0).push(FlightKind::kEpochBegin, 1, 8, 100, 0, 0);
  recorder.ring(0).push(FlightKind::kInstance, 1, 7, 64, 3, 2);
  recorder.ring(0).push(FlightKind::kPortWrite, 1, 7, 0x21, 200, 5);
  recorder.ring(0).push(FlightKind::kDrops, 1, 7, 11, 0, 0);
  recorder.ring(0).push(FlightKind::kEpochEnd, 1, 52345, 64, 1, 2);
  recorder.ring(1).push(FlightKind::kSteal, 1, 0, 16, 8, 0);

  const std::vector<FlightRecord> original = recorder.snapshot();
  ASSERT_EQ(original.size(), 6u);

  // Dump -> parse text -> ingest: the decoded records must be identical.
  const std::string text = recorder.dumpJson();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(text, &doc, &error)) << error;
  std::vector<FlightRecord> decoded;
  ASSERT_TRUE(FlightRecorder::parseJson(doc, &decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(decoded[i], original[i]) << "record " << i;

  // recordsToJson is the inverse used by dump-editing tools.
  const JsonValue re = FlightRecorder::recordsToJson(decoded, 2, 16);
  std::vector<FlightRecord> twice;
  ASSERT_TRUE(FlightRecorder::parseJson(re, &twice, &error)) << error;
  EXPECT_EQ(twice, decoded);
}

TEST(FlightRecorder, ParseRejectsMalformedDocuments) {
  JsonValue doc;
  std::string error;
  std::vector<FlightRecord> out;

  ASSERT_TRUE(parseJson(R"({"schema":"other-v1","records":[]})", &doc, &error));
  EXPECT_FALSE(FlightRecorder::parseJson(doc, &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  ASSERT_TRUE(parseJson(
      R"({"schema":"pscp-flight-v1","records":[{"kind":"no_such","shard":0,"epoch":1}]})",
      &doc, &error));
  EXPECT_FALSE(FlightRecorder::parseJson(doc, &out, &error));

  // A known kind missing one of its payload fields.
  ASSERT_TRUE(parseJson(
      R"({"schema":"pscp-flight-v1","records":[{"kind":"steal","shard":0,"epoch":1,"victim":2,"begin":0}]})",
      &doc, &error));
  EXPECT_FALSE(FlightRecorder::parseJson(doc, &out, &error));
  EXPECT_NE(error.find("count"), std::string::npos);
}

TEST(FlightRecorder, ChromeTraceLowersEpochsToSlices) {
  std::vector<FlightRecord> records;
  records.push_back({FlightKind::kEpochEnd, 0, 1, 10'000, 64, 4, 2});
  records.push_back({FlightKind::kEpochEnd, 0, 2, 20'000, 64, 4, 2});
  records.push_back({FlightKind::kSteal, 0, 2, 1, 0, 8});
  records.push_back({FlightKind::kEpochEnd, 1, 1, 5'000, 32, 2, 1});

  const std::string trace = FlightRecorder::chromeTraceJson(records);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(trace, &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  // 3 epoch slices + 1 instant steal event.
  ASSERT_EQ(events->array.size(), 4u);
  // Shard 0's second epoch starts where the first ended (10µs).
  const JsonValue& second = events->array[1];
  EXPECT_DOUBLE_EQ(second.find("ts")->number, 10.0);
  EXPECT_DOUBLE_EQ(second.find("dur")->number, 20.0);
}

// ----------------------------------------------------- fleet integration

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

void Init() {
  count = 0;
  watchTicks = 0;
}

void Bump() {
  lastSense = read_port(Sense);
  count = count + lastSense;
}

void Watch() {
  watchTicks = watchTicks + 1;
}

void Report() {
  write_port(Drive, count);
}
)code";

class FlightFleetTest : public ::testing::Test {
 protected:
  FlightFleetTest()
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

  /// Armed fleet with `instances` Counter machines driven into Active.
  std::unique_ptr<fleet::Fleet> makeArmedFleet(size_t instances, int workers) {
    fleet::FleetConfig config;
    config.workerThreads = workers;
    config.telemetry = true;
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

TEST_F(FlightFleetTest, ArmedFleetRecordsEpochAndInstanceActivity) {
  auto f = makeArmedFleet(8, 1);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 5; ++e) {
    tickAll(*f, tick);
    f->step(2);
  }
  ASSERT_NE(f->flightRecorder(), nullptr);
  const std::vector<FlightRecord> records = f->flightRecorder()->snapshot();
  int epochBegins = 0;
  int epochEnds = 0;
  int instances = 0;
  for (const FlightRecord& r : records) {
    if (r.kind == FlightKind::kEpochBegin) ++epochBegins;
    if (r.kind == FlightKind::kEpochEnd) {
      ++epochEnds;
      EXPECT_GT(r.a, 0) << "epoch wall ns must be positive";
    }
    if (r.kind == FlightKind::kInstance) ++instances;
  }
  EXPECT_EQ(epochBegins, 6);  // warm-up epoch + 5 ticked epochs
  EXPECT_EQ(epochEnds, 6);
  EXPECT_EQ(instances, 6 * 8);
}

TEST_F(FlightFleetTest, IdleInstanceEpochsLeaveNoInstanceRecord) {
  // After the GO epoch only the even instances get a TICK each epoch; the
  // odd ones drain nothing and fire nothing. Their instance-epochs leave
  // no kInstance record, while the epoch-end records still count every
  // instance's machine cycles.
  auto f = makeArmedFleet(8, 1);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 4; ++e) {
    for (fleet::InstanceId id = 0; id < 8; id += 2) f->inject(id, tick);
    f->step(3);
  }
  std::vector<int> records(8, 0);
  int64_t epochEndCycles = 0;
  for (const FlightRecord& r : f->flightRecorder()->snapshot()) {
    if (r.kind == FlightKind::kInstance && r.epoch > 1)
      ++records[static_cast<size_t>(r.a)];
    if (r.kind == FlightKind::kEpochEnd) epochEndCycles += r.b;
  }
  for (size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i], i % 2 == 0 ? 4 : 0) << "instance " << i;
  EXPECT_EQ(epochEndCycles, f->mergedMetrics().value("fleet.machine_cycles"));
}

TEST_F(FlightFleetTest, DisarmedFleetHasNoRecorder) {
  fleet::FleetConfig config;
  fleet::Fleet f(image_, config);
  f.spawnMany(4);
  f.step(1);
  EXPECT_EQ(f.flightRecorder(), nullptr);
  std::string error;
  EXPECT_FALSE(f.writeFlightDump("/tmp/should_not_exist.json", &error));
  EXPECT_NE(error.find("not armed"), std::string::npos);
}

TEST_F(FlightFleetTest, DumpRoundTripsThroughFile) {
  auto f = makeArmedFleet(4, 2);
  const int tick = f->eventId("TICK");
  for (int e = 0; e < 3; ++e) {
    tickAll(*f, tick);
    f->step(1);
  }
  const std::string path = ::testing::TempDir() + "pscp_flight_dump.json";
  std::string error;
  ASSERT_TRUE(f->writeFlightDump(path, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(parseJsonFile(path, &doc, &error)) << error;
  std::vector<FlightRecord> decoded;
  ASSERT_TRUE(FlightRecorder::parseJson(doc, &decoded, &error)) << error;
  EXPECT_EQ(decoded.size(), f->flightRecorder()->snapshot().size());
  std::remove(path.c_str());
}

// The headline guarantee: concurrent snapshot/dump while workers are
// pushing records is data-race-free (verified under TSan in CI) and every
// record a reader does see is internally consistent.
TEST_F(FlightFleetTest, SnapshotWhileSteppingNeverTearsRecords) {
  auto f = makeArmedFleet(16, 2);
  const int tick = f->eventId("TICK");
  // Every shard pushes an epoch's begin and end at least, so each ring
  // laps within capacity/2 epochs and readers race slot reuse.
  const auto lapped = [&] {
    const FlightRecorder& recorder = *f->flightRecorder();
    for (size_t s = 0; s < recorder.shardCount(); ++s)
      if (recorder.ring(s).pushed() <= recorder.ring(s).capacity()) return false;
    return true;
  };

  std::atomic<bool> stop{false};
  std::atomic<int> snapshots{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FlightRecord> records = f->flightRecorder()->snapshot();
      for (const FlightRecord& r : records) {
        // kInstance payloads are internally consistent: a torn record
        // would pair a machine-cycle count with the wrong instance id.
        if (r.kind == FlightKind::kInstance) {
          EXPECT_GE(r.a, 0);
          EXPECT_LT(r.a, 16);
          EXPECT_GE(r.b, 0);
        }
        EXPECT_GE(r.epoch, 1);
      }
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Step until every ring lapped and the reader has taken a snapshot
  // mid-run: a fast fleet can finish 200 epochs before the reader thread
  // is first scheduled.
  for (int e = 0; e < 200 || !lapped() || snapshots.load(std::memory_order_relaxed) == 0;
       ++e) {
    tickAll(*f, tick);
    f->step(1);
  }
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots.load(), 0);

  if (HasFailure()) {  // leave a post-mortem for the CI artifact step
    std::string error;
    f->writeFlightDump("FLIGHT_SnapshotWhileStepping.json", &error);
  }
}

}  // namespace
}  // namespace pscp::obs
