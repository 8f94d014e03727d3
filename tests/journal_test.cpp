// Record/replay journal tests (src/obs/journal): JSON and binary
// round-trips of the pscp-journal-v1 format, digest determinism, the
// fleet's recording order (delivery order, stable span ids, the epoch-0
// checkpoint), image content hashing, and rejection of damaged inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/replay.hpp"
#include "pscp/machine.hpp"
#include "support/bits.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::obs::journal {
namespace {

// A journal exercising every op kind and both arenas, built by hand.
Journal makeSampleJournal() {
  JournalConfig config;
  config.checkpointInterval = 2;
  Journal j(config);
  j.setChartName("SampleChart");
  j.setImageHash(0x1234'5678'9abc'def0ull);
  j.setEventQueueCapacity(256);
  j.setRecordedWorkers(4);

  j.recordSpawn(0);
  j.recordSpawn(1);
  j.recordSetPort(0, 0x1C0, 255);
  j.recordSetCondition(1, 3, true);
  j.recordAddTimer(0, 2, 1500);
  j.recordWarmCycle(0, {1, 4});
  BitVec cr(70);
  cr.set(0);
  cr.set(65);
  j.beginCheckpoint(0);
  j.addCheckpointInstance(0, cr);
  j.addCheckpointInstance(1, cr);
  j.endCheckpoint();
  const int toFirst = 2;
  const int toSecond = 5;
  j.recordDeliveries(0, &toFirst, 1, 1);
  EXPECT_EQ(j.spanCount(), 1u);
  j.recordDeliveries(1, &toSecond, 1, 1);
  EXPECT_EQ(j.spanCount(), 2u);
  EXPECT_EQ(j.ops().back().c, 2);  // the span id
  j.recordStep(1, 4);
  j.recordRetire(1);
  return j;
}

void expectJournalsEqual(const Journal& a, const Journal& b) {
  EXPECT_EQ(a.chartName(), b.chartName());
  EXPECT_EQ(a.imageHash(), b.imageHash());
  EXPECT_EQ(a.eventQueueCapacity(), b.eventQueueCapacity());
  EXPECT_EQ(a.recordedWorkers(), b.recordedWorkers());
  EXPECT_EQ(a.spanCount(), b.spanCount());

  ASSERT_EQ(a.ops().size(), b.ops().size());
  for (size_t i = 0; i < a.ops().size(); ++i) {
    EXPECT_EQ(a.ops()[i].kind, b.ops()[i].kind) << "op " << i;
    EXPECT_EQ(a.ops()[i].instance, b.ops()[i].instance) << "op " << i;
    EXPECT_EQ(a.ops()[i].a, b.ops()[i].a) << "op " << i;
    EXPECT_EQ(a.ops()[i].b, b.ops()[i].b) << "op " << i;
    EXPECT_EQ(a.ops()[i].c, b.ops()[i].c) << "op " << i;
    if (a.ops()[i].kind == OpKind::kWarmCycle) {
      const int32_t* wa = a.warmEvents(a.ops()[i]);
      const int32_t* wb = b.warmEvents(b.ops()[i]);
      for (int64_t w = 0; w < a.ops()[i].b; ++w)
        EXPECT_EQ(wa[w], wb[w]) << "warm event " << w;
    }
  }

  ASSERT_EQ(a.checkpointCount(), b.checkpointCount());
  for (size_t c = 0; c < a.checkpointCount(); ++c) {
    const Journal::CheckpointView va = a.checkpoint(c);
    const Journal::CheckpointView vb = b.checkpoint(c);
    EXPECT_EQ(va.epoch, vb.epoch);
    EXPECT_EQ(va.digest, vb.digest);
    ASSERT_EQ(va.instanceCount, vb.instanceCount);
    for (size_t i = 0; i < va.instanceCount; ++i) {
      EXPECT_EQ(va.instances[i].instance, vb.instances[i].instance);
      EXPECT_EQ(va.instances[i].digest, vb.instances[i].digest);
      ASSERT_EQ(va.instances[i].crWords, vb.instances[i].crWords);
      const uint64_t* ca = a.checkpointCr(va.instances[i]);
      const uint64_t* cb = b.checkpointCr(vb.instances[i]);
      for (uint32_t w = 0; w < va.instances[i].crWords; ++w)
        EXPECT_EQ(ca[w], cb[w]);
    }
  }
}

TEST(Journal, JsonRoundTripPreservesEveryOpAndCheckpoint) {
  const Journal original = makeSampleJournal();
  Journal parsed;
  std::string error;
  ASSERT_TRUE(Journal::parse(original.dumpJson(), &parsed, &error)) << error;
  expectJournalsEqual(original, parsed);
}

TEST(Journal, BinaryRoundTripPreservesEveryOpAndCheckpoint) {
  const Journal original = makeSampleJournal();
  const std::string bytes = original.dumpBinary();
  EXPECT_LT(bytes.size(), original.dumpJson().size())
      << "the binary framing exists to be compact";
  Journal parsed;
  std::string error;
  ASSERT_TRUE(Journal::parseBinary(bytes, &parsed, &error)) << error;
  expectJournalsEqual(original, parsed);
}

TEST(Journal, V1JsonWithRetiredHeaderKeysParsesAndVerifies) {
  // A v1 header may carry "recorded_soa" and "simd" (earlier builds wrote
  // them). Such a document must parse and replay to its checkpoint. The
  // expected CR digest comes from a standalone machine fed the same
  // events: a warm POWER cycle, then DATA_VALID and two idle cycles.
  const auto image = workloads::makeSmdFleetImage();
  machine::PscpMachine mirror(image);
  const int power = mirror.eventId("POWER");
  const int dataValid = mirror.eventId("DATA_VALID");
  machine::CycleStats stats;
  mirror.configurationCycleIds({power}, &stats);
  mirror.configurationCycleIds({dataValid}, &stats);
  mirror.configurationCycleIds({}, &stats);
  mirror.configurationCycleIds({}, &stats);
  ASSERT_TRUE(mirror.isActive("Operation"));
  const uint64_t instanceDigest = crDigest(mirror.crBits());
  const uint64_t fleetDigest = foldInstanceDigest(kFleetDigestSeed, 0, instanceDigest);

  const std::string text = strfmt(
      R"({"schema": "pscp-journal-v1", "chart": "SmdPickupHead",
          "image_hash": "0x%016llx", "event_queue_capacity": 256,
          "checkpoint_interval": 1, "recorded_workers": 1,
          "recorded_soa": true, "simd": "avx2", "span_count": 1,
          "ops": [
            {"op": "spawn", "id": 0},
            {"op": "warm", "id": 0, "events": [%d]},
            {"op": "inject", "id": 0, "event": %d, "epoch": 1, "span": 1},
            {"op": "step", "epoch": 1, "cycles": 3},
            {"op": "checkpoint", "epoch": 1, "digest": "0x%016llx",
             "instances": [{"id": 0, "digest": "0x%016llx"}]}]})",
      static_cast<unsigned long long>(imageContentHash(*image)), power, dataValid,
      static_cast<unsigned long long>(fleetDigest),
      static_cast<unsigned long long>(instanceDigest));
  Journal journal;
  std::string error;
  ASSERT_TRUE(Journal::parse(text, &journal, &error)) << error;
  EXPECT_EQ(journal.recordedWorkers(), 1);
  EXPECT_EQ(journal.checkpointCount(), 1u);
  EXPECT_EQ(journal.toJson().find("recorded_soa"), nullptr);
  EXPECT_EQ(journal.toJson().find("simd"), nullptr);

  const Replayer replayer(&journal, image);
  for (const int workers : {1, 8}) {
    ReplayOptions options;
    options.workerThreads = workers;
    const ReplayResult result = replayer.run(options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.verified) << "workers=" << workers;
    EXPECT_EQ(result.checkpointsChecked, 1);
  }
}

TEST(Journal, ReadFileSniffsBinaryAgainstJson) {
  const Journal original = makeSampleJournal();
  for (const bool binary : {false, true}) {
    const std::string path =
        std::string("JOURNAL_roundtrip_tmp") + (binary ? ".bin" : ".json");
    std::string error;
    ASSERT_TRUE(original.writeFile(path, binary, &error)) << error;
    Journal parsed;
    ASSERT_TRUE(Journal::readFile(path, &parsed, &error)) << error;
    expectJournalsEqual(original, parsed);
    std::remove(path.c_str());
  }
}

TEST(Journal, TruncatedOrGarbageBinaryIsRejected) {
  const Journal original = makeSampleJournal();
  const std::string bytes = original.dumpBinary();
  Journal parsed;
  std::string error;
  for (const size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                           bytes.size() - 1}) {
    error.clear();
    EXPECT_FALSE(Journal::parseBinary(bytes.substr(0, cut), &parsed, &error))
        << "accepted a journal truncated to " << cut << " bytes";
    EXPECT_FALSE(error.empty());
  }
  // A corrupted op count must not drive a huge reserve or an OOB read.
  std::string mangled = bytes;
  mangled[12] = '\xff';
  mangled[13] = '\xff';
  mangled[14] = '\xff';
  mangled[15] = '\xff';
  EXPECT_FALSE(Journal::parseBinary(mangled, &parsed, &error));
}

TEST(Journal, NonIntegerNumbersAreParseErrors) {
  // Every integer field goes through a checked conversion: a number that
  // has a fraction or lies outside int64 is a parse error, not a cast
  // that truncates (2.5) or is undefined (1e300).
  JsonValue sample;
  std::string error;
  ASSERT_TRUE(parseJson(makeSampleJournal().dumpJson(), &sample, &error)) << error;
  struct Field {
    const char* op;   ///< first op of this kind, or nullptr for the header
    const char* key;
  };
  const std::vector<Field> fields = {
      {nullptr, "checkpoint_interval"}, {nullptr, "event_queue_capacity"},
      {nullptr, "recorded_workers"},    {"spawn", "id"},
      {"inject", "event"},              {"inject", "epoch"},
      {"step", "cycles"},               {"port", "value"},
      {"cond", "bit"},                  {"timer", "period"},
      {"warm", "events"}};
  for (const Field& field : fields) {
    for (const double bad : {1e300, -1e300, 2.5}) {
      JsonValue doc = sample;
      JsonValue value = JsonValue::makeNumber(bad);
      if (std::string(field.key) == "events") {
        value = JsonValue::makeArray();
        value.array.push_back(JsonValue::makeNumber(bad));
      }
      JsonValue* target = &doc;
      if (field.op != nullptr) {
        target = nullptr;
        for (auto& [key, ops] : doc.object)
          if (key == "ops")
            for (JsonValue& op : ops.array)
              if (target == nullptr && op.find("op")->string == field.op)
                target = &op;
        ASSERT_NE(target, nullptr) << "the sample has a " << field.op << " op";
      }
      target->set(field.key, value);
      Journal parsed;
      error.clear();
      EXPECT_FALSE(Journal::parse(doc.dump(), &parsed, &error))
          << field.key << " = " << bad;
      EXPECT_FALSE(error.empty()) << field.key << " = " << bad;
    }
  }
}

TEST(Journal, EventQueueCapacityOutsideItsRangeIsAParseError) {
  // A replay sizes its fleet's event queues from this field: a negative
  // value once wrapped to a huge size_t and hung the queue's power-of-two
  // rounding, a large one asked for gigabytes per instance.
  JsonValue sample;
  std::string error;
  ASSERT_TRUE(parseJson(makeSampleJournal().dumpJson(), &sample, &error)) << error;
  for (const int64_t capacity : {int64_t{-1}, int64_t{4097}, int64_t{1} << 40}) {
    const std::string expect =
        strfmt("event_queue_capacity %lld is outside [0, 4096]",
               static_cast<long long>(capacity));
    JsonValue doc = sample;
    doc.set("event_queue_capacity", JsonValue::makeNumber(static_cast<double>(capacity)));
    Journal parsed;
    error.clear();
    EXPECT_FALSE(Journal::parse(doc.dump(), &parsed, &error)) << capacity;
    EXPECT_EQ(error, expect);
    Journal hostile = makeSampleJournal();
    hostile.setEventQueueCapacity(capacity);
    error.clear();
    EXPECT_FALSE(Journal::parseBinary(hostile.dumpBinary(), &parsed, &error)) << capacity;
    EXPECT_EQ(error, expect);
  }
  for (const int64_t capacity : {int64_t{0}, int64_t{4096}}) {
    Journal edge = makeSampleJournal();
    edge.setEventQueueCapacity(capacity);
    Journal parsed;
    EXPECT_TRUE(Journal::parse(edge.dumpJson(), &parsed, &error)) << error;
    EXPECT_TRUE(Journal::parseBinary(edge.dumpBinary(), &parsed, &error)) << error;
    EXPECT_EQ(parsed.eventQueueCapacity(), capacity);
  }
}

TEST(Journal, CrDigestSeesEveryBitAndTheWidth) {
  BitVec a(130);
  a.set(0);
  a.set(129);
  BitVec b(130);
  b.set(0);
  b.set(129);
  EXPECT_EQ(crDigest(a), crDigest(b));
  b.set(64);
  EXPECT_NE(crDigest(a), crDigest(b));
  // Same words, different declared width: distinct digests.
  EXPECT_NE(crDigest(BitVec(64)), crDigest(BitVec(65)));
  // The fleet fold is order- and id-sensitive.
  const uint64_t d1 = foldInstanceDigest(
      foldInstanceDigest(kFleetDigestSeed, 0, crDigest(a)), 1, crDigest(b));
  const uint64_t d2 = foldInstanceDigest(
      foldInstanceDigest(kFleetDigestSeed, 1, crDigest(b)), 0, crDigest(a));
  EXPECT_NE(d1, d2);
}

TEST(Journal, ImageContentHashIsStableAcrossRebuilds) {
  const auto a = workloads::makeSmdFleetImage();
  const auto b = workloads::makeSmdFleetImage();
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(imageContentHash(*a), imageContentHash(*b));
  EXPECT_NE(imageContentHash(*a), 0u);
}

// ----------------------------------------------------- fleet integration

TEST(Journal, FleetRecordsDeliveryOrderWithMonotonicSpans) {
  const auto image = workloads::makeSmdFleetImage();
  fleet::FleetConfig config;
  config.journal = true;
  config.journalConfig.checkpointInterval = 4;
  fleet::Fleet fleet(image, config);

  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 8, ids));
  for (int e = 0; e < 9; ++e) {
    fleet.step(2);
    workloads::injectSmdPulses(fleet, ids);
  }

  const Journal* j = fleet.journal();
  ASSERT_NE(j, nullptr);
  EXPECT_EQ(j->chartName(), image->chart().name());
  EXPECT_EQ(j->imageHash(), imageContentHash(*image));

  // Epoch-0 checkpoint of the post-setup state is always present.
  ASSERT_GE(j->checkpointCount(), 1u);
  EXPECT_EQ(j->checkpoint(0).epoch, 0);
  EXPECT_EQ(j->checkpoint(0).instanceCount, 8u);

  // Span ids strictly increase in op order; injects of one epoch are
  // grouped by ascending instance (delivery order).
  uint64_t lastSpan = 0;
  int64_t lastInstance = -1;
  int64_t lastEpoch = -1;
  size_t injects = 0;
  for (const Op& op : j->ops()) {
    if (op.kind != OpKind::kInject) continue;
    ++injects;
    EXPECT_GT(static_cast<uint64_t>(op.c), lastSpan);
    lastSpan = static_cast<uint64_t>(op.c);
    if (op.b == lastEpoch)
      EXPECT_GE(op.instance, lastInstance)
          << "injects within an epoch must be in ascending instance order";
    else
      EXPECT_GT(op.b, lastEpoch) << "arrival epochs must not go backwards";
    lastEpoch = op.b;
    lastInstance = op.instance;
  }
  EXPECT_EQ(injects, static_cast<size_t>(j->spanCount()));
  EXPECT_GT(injects, 0u);

  // Checkpoint ops carry the right epochs: 0, then every interval-th.
  std::vector<int64_t> checkpointEpochs;
  for (const Op& op : j->ops())
    if (op.kind == OpKind::kCheckpoint) checkpointEpochs.push_back(op.a);
  ASSERT_GE(checkpointEpochs.size(), 3u);
  EXPECT_EQ(checkpointEpochs[0], 0);
  EXPECT_EQ(checkpointEpochs[1], 4);
  EXPECT_EQ(checkpointEpochs[2], 8);
}

TEST(Journal, DisarmedFleetRecordsNothing) {
  const auto image = workloads::makeSmdFleetImage();
  fleet::Fleet fleet(image, {});
  EXPECT_EQ(fleet.journal(), nullptr);
  std::string error;
  EXPECT_FALSE(fleet.writeJournal("JOURNAL_should_not_exist.json", false, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pscp::obs::journal
