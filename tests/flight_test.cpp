// Flight recorder tests: ring wrap-around and seqlock publication,
// pscp-flight-v1 round-trip through support/json, Chrome trace lowering,
// and the headline concurrency guarantee — dumping while the fleet is
// stepping is safe (this TU runs under the ThreadSanitizer CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
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

// An instance-with-writes slot reads back as its kInstance record and its
// two kPortWrite records, in order, exactly as the three records pushed one
// by one (the dump too), with the extreme ports, values and counts it
// takes; a lapped ring keeps each slot's records together.
TEST(FlightRecorder, InstanceWithWritesReadsBackAsThreeRecords) {
  struct Write {
    int32_t port;
    uint32_t value;
  };
  const Write writes[] = {{0x40, 7}, {0x42, 0xFFFFFFFFu}, {INT32_MAX, 0}, {-1, 0x80000000u}};
  const int64_t fired[] = {2, (int64_t{1} << 32) - 1};
  const int64_t drained[] = {(int64_t{1} << 24) - 1, 0};
  FlightRecorder packed(/*shardCount=*/1, /*recordsPerShard=*/8);
  FlightRecorder plain(/*shardCount=*/1, /*recordsPerShard=*/8);
  for (size_t p = 0; p < 2; ++p) {
    const int64_t id = 5 + static_cast<int64_t>(p);
    ASSERT_TRUE(FlightRing::fitsInstanceWithWrites(fired[p], drained[p]));
    const Write& w0 = writes[2 * p];
    const Write& w1 = writes[2 * p + 1];
    packed.ring(0).pushInstanceWithWrites(/*epoch=*/3, id, /*cycles=*/40, fired[p], drained[p],
                                          /*configCycle=*/9, w0.port, w0.value, w1.port,
                                          w1.value);
    plain.ring(0).push(FlightKind::kInstance, 3, id, 40, fired[p], drained[p]);
    for (const Write& w : {w0, w1})
      plain.ring(0).push(FlightKind::kPortWrite, 3, id, w.port, w.value, 9);
  }
  EXPECT_FALSE(FlightRing::fitsInstanceWithWrites(int64_t{1} << 32, 0));
  EXPECT_FALSE(FlightRing::fitsInstanceWithWrites(0, int64_t{1} << 24));
  EXPECT_FALSE(FlightRing::fitsInstanceWithWrites(-1, 0));
  EXPECT_EQ(packed.ring(0).pushed(), 2u);
  const std::vector<FlightRecord> records = packed.snapshot();
  ASSERT_EQ(records.size(), 6u);
  for (size_t p = 0; p < 2; ++p) {
    const FlightRecord& inst = records[3 * p];
    EXPECT_EQ(inst.kind, FlightKind::kInstance);
    EXPECT_EQ(inst.a, 5 + static_cast<int64_t>(p));
    EXPECT_EQ(inst.c, fired[p]);
    EXPECT_EQ(inst.d, drained[p]);
    for (size_t w = 0; w < 2; ++w) {
      const FlightRecord& r = records[3 * p + 1 + w];
      EXPECT_EQ(r.kind, FlightKind::kPortWrite);
      EXPECT_EQ(r.b, writes[2 * p + w].port);
      EXPECT_EQ(r.c, static_cast<int64_t>(writes[2 * p + w].value));
      EXPECT_EQ(r.d, 9);
    }
  }
  EXPECT_EQ(records, plain.snapshot());
  EXPECT_EQ(packed.dumpJson(), plain.dumpJson());

  FlightRing ring(4);
  for (int64_t id = 0; id < 6; ++id)
    ring.pushInstanceWithWrites(1, id, 40, 2, 1, 0, 0x40, 1, 0x42, 2);
  std::vector<FlightRecord> lapped;
  ring.snapshot(0, &lapped);
  ASSERT_EQ(lapped.size(), 12u);
  for (size_t i = 0; i < lapped.size(); ++i) {
    EXPECT_EQ(lapped[i].a, 2 + static_cast<int64_t>(i / 3));
    EXPECT_EQ(lapped[i].kind, i % 3 == 0 ? FlightKind::kInstance : FlightKind::kPortWrite);
  }
}

// A reader racing the writer sees each slot's three records whole or not
// at all: all carry the slot's epoch and instance, and each field the
// value it was pushed with (this TU runs under TSan).
TEST(FlightRecorder, InstanceWithWritesIsNeverTorn) {
  FlightRing ring(16);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int64_t n = 0; !stop.load(std::memory_order_relaxed); ++n) {
      ring.pushInstanceWithWrites(n, n, 2 * n, n & 0xFFFF, n & 0xFFF, n,
                                  static_cast<int32_t>(n & 0x7FFF), static_cast<uint32_t>(n),
                                  static_cast<int32_t>(~n & 0x7FFF), ~static_cast<uint32_t>(n));
      // Pause now and then, or a reader may find every slot mid-write.
      if (n % 64 == 0) std::this_thread::yield();
    }
  });
  int snapshots = 0;
  int64_t slots = 0;
  while (snapshots < 2000 || ring.pushed() <= 4 * ring.capacity() ||
         (slots == 0 && snapshots < 1000000)) {
    std::vector<FlightRecord> records;
    ring.snapshot(0, &records);
    EXPECT_EQ(records.size() % 3, 0u);
    for (size_t i = 0; i + 2 < records.size(); i += 3, ++slots) {
      const int64_t n = records[i].epoch;
      for (const FlightRecord& r : {records[i], records[i + 1], records[i + 2]}) {
        EXPECT_EQ(r.epoch, n);
        EXPECT_EQ(r.a, n);
      }
      EXPECT_EQ(records[i].kind, FlightKind::kInstance);
      EXPECT_EQ(records[i].b, 2 * n);
      EXPECT_EQ(records[i].c, n & 0xFFFF);
      EXPECT_EQ(records[i].d, n & 0xFFF);
      EXPECT_EQ(records[i + 1].b, n & 0x7FFF);
      EXPECT_EQ(records[i + 1].c, static_cast<uint32_t>(n));
      EXPECT_EQ(records[i + 2].b, ~n & 0x7FFF);
      EXPECT_EQ(records[i + 2].c, ~static_cast<uint32_t>(n));
      for (const FlightRecord& r : {records[i + 1], records[i + 2]}) {
        EXPECT_EQ(r.kind, FlightKind::kPortWrite);
        EXPECT_EQ(r.d, n);
      }
    }
    ++snapshots;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(slots, 0);
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

// One routine per cycle writes one, two or three ports, and Three's raise
// fires Next's single write in the following cycle: the armed fleet packs
// an instance-epoch's record with its first two writes only when both are
// of one configuration cycle.
const char* kWritesChart = R"chart(
chart Writes;
event ONE; event TWO; event THREE; event NEXT;
port P0 data out width 16 address 0x30;
port P1 data out width 16 address 0x32;
port P2 data out width 16 address 0x34;
orstate Top { contains S; default S; }
basicstate S {
  transition { target S; label "ONE/One()"; }
  transition { target S; label "TWO/Two()"; }
  transition { target S; label "THREE/Three()"; }
  transition { target S; label "NEXT/Next()"; }
}
)chart";

const char* kWritesActions = R"code(
int:16 n;
void One() { n = n + 1; write_port(P0, n); }
void Two() { n = n + 1; write_port(P0, n); write_port(P1, n + 1); }
void Three() {
  n = n + 1;
  write_port(P0, n);
  write_port(P1, n + 1);
  write_port(P2, n + 2);
  raise(NEXT);
}
void Next() { write_port(P2, n + 3); }
)code";

// Every port write the fleet captured in epochs the ring still holds is in
// the snapshot, in order, after the ring lapped, and so is each
// instance-epoch's record.
TEST(FlightFleet, EveryCapturedPortWriteInTheWindowIsInTheSnapshot) {
  const statechart::Chart chart = statechart::parseChart(kWritesChart);
  const actionlang::Program actions = actionlang::parseActionSource(kWritesActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  fleet::FleetConfig config;
  config.telemetry = true;
  config.capturePortWrites = true;
  fleet::Fleet f(std::make_shared<const machine::ChartImage>(chart, actions, arch), config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(8);
  const int events[3] = {f.eventId("ONE"), f.eventId("TWO"), f.eventId("THREE")};
  int epoch = 0;
  const auto step = [&] {
    for (fleet::InstanceId id : ids) f.inject(id, events[(id + epoch) % 3]);
    f.step(2);
    ++epoch;
  };
  const FlightRing& ring = f.flightRecorder()->ring(0);
  while (ring.pushed() <= ring.capacity()) step();
  for (fleet::InstanceId id : ids) f.clearPortWrites(id);
  const int64_t first = f.epochs() + 1;
  for (int e = 0; e < 12; ++e) step();

  using Write = std::tuple<int64_t, int64_t, int64_t>;  // port, value, cycle
  std::map<int64_t, std::vector<Write>> inRing;
  bool holdsFirst = false;
  int64_t instanceRecords = 0;
  for (const FlightRecord& r : f.flightRecorder()->snapshot()) {
    if (r.epoch < first) continue;
    holdsFirst = holdsFirst || (r.kind == FlightKind::kEpochBegin && r.epoch == first);
    if (r.kind == FlightKind::kPortWrite) inRing[r.a].emplace_back(r.b, r.c, r.d);
    if (r.kind == FlightKind::kInstance) {
      ++instanceRecords;
      EXPECT_EQ(r.d, 1) << "each instance-epoch drains one event";
      EXPECT_EQ(r.c, (r.a + r.epoch - 1) % 3 == 2 ? 2 : 1) << "Three's epochs fire Next too";
    }
  }
  EXPECT_EQ(instanceRecords, static_cast<int64_t>(ids.size()) * 12);
  ASSERT_TRUE(holdsFirst) << "the window must hold every epoch since the clear";
  size_t captured = 0;
  for (fleet::InstanceId id : ids) {
    std::vector<Write> writes;
    for (const machine::PortWrite& w : f.portWrites(id))
      writes.emplace_back(w.port, w.value, w.configCycle);
    EXPECT_EQ(inRing[static_cast<int64_t>(id)], writes) << "instance " << id;
    captured += writes.size();
  }
  // Four epochs of each routine per instance: 1 + 2 + (3 + 1) writes.
  EXPECT_EQ(captured, ids.size() * 4 * 7);
}

}  // namespace
}  // namespace pscp::obs
