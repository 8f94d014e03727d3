// Replay engine tests (src/obs/journal/replay): the acceptance matrix —
// bit-identical replay of a recorded SMD fleet across worker counts —
// plus retire-mid-interval, empty journals, wrong-image
// refusal, exact-epoch bisection of a corrupted journal, and the causal
// span tracker's Chrome-trace lowering.
//
// On unexpected divergence the failing journal is written to
// JOURNAL_repro_*.json next to the test binary so CI can upload it as an
// artifact for offline bisection.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <memory>
#include <string>
#include <vector>

#include "div_chart.hpp"
#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/replay.hpp"
#include "obs/journal/spans.hpp"
#include "obs/recorder.hpp"
#include "obs/tee.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::obs::journal {
namespace {

struct Recording {
  std::shared_ptr<const machine::ChartImage> image;
  std::unique_ptr<Journal> journal;
};

// Record the steady-state SMD duty cycle with the journal armed.
Recording recordSmdRun(size_t instances, int epochs, int64_t checkpointInterval,
                       int64_t retireAtEpoch = -1) {
  Recording rec;
  rec.image = workloads::makeSmdFleetImage();
  fleet::FleetConfig config;
  config.journal = true;
  config.journalConfig.checkpointInterval = checkpointInterval;
  fleet::Fleet fleet(rec.image, config);

  const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
  EXPECT_TRUE(workloads::warmUpSmdFleet(fleet, instances, ids));
  for (int e = 0; e < epochs; ++e) {
    fleet.step(2);
    if (fleet.epochs() == retireAtEpoch) fleet.retire(instances / 2);
    workloads::injectSmdPulses(fleet, ids);
  }
  fleet.step(2);

  // Round-trip through the wire format so every replay test also covers
  // serialization of a real fleet journal.
  rec.journal = std::make_unique<Journal>();
  std::string error;
  EXPECT_TRUE(Journal::parse(fleet.journal()->dumpJson(), rec.journal.get(),
                             &error))
      << error;
  return rec;
}

void saveRepro(const Journal& journal, const std::string& name) {
  std::string error;
  if (!journal.writeFile(name, /*binary=*/false, &error))
    ADD_FAILURE() << "could not write repro journal " << name << ": " << error;
}

TEST(Replay, BitIdenticalAcrossWorkersAndSteppingModes) {
  const Recording rec = recordSmdRun(64, 12, 4);
  const Replayer replayer(rec.journal.get(), rec.image);
  for (const int workers : {1, 2, 8}) {
    ReplayOptions options;
    options.workerThreads = workers;
    const ReplayResult result = replayer.run(options);
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_GT(result.checkpointsChecked, 0);
    if (!result.verified) {
      saveRepro(*rec.journal, "JOURNAL_repro_bitident.json");
      FAIL() << "replay diverged at workers=" << workers << " checkpoint epoch "
             << result.firstMismatch.epoch;
    }
  }
}

TEST(Replay, AllConfigurationsAgreeOnTheFinalDigest) {
  const Recording rec = recordSmdRun(16, 8, 100);  // no mid-run checkpoints
  const Replayer replayer(rec.journal.get(), rec.image);
  uint64_t expected = 0;
  bool first = true;
  for (const int workers : {1, 3, 8}) {
    ReplayOptions options;
    options.workerThreads = workers;
    const ReplayResult result = replayer.run(options);
    ASSERT_TRUE(result.ok) << result.error;
    if (first) expected = result.finalDigest;
    first = false;
    EXPECT_EQ(result.finalDigest, expected) << "workers=" << workers;
  }
  EXPECT_NE(expected, kFleetDigestSeed) << "16 live instances must fold in";
}

TEST(Replay, RetireMidCheckpointIntervalReplaysCleanly) {
  const Recording rec = recordSmdRun(8, 10, 4, /*retireAtEpoch=*/6);
  const Replayer replayer(rec.journal.get(), rec.image);
  ReplayOptions options;
  options.workerThreads = 2;
  const ReplayResult result = replayer.run(options);
  ASSERT_TRUE(result.ok) << result.error;
  if (!result.verified) {
    saveRepro(*rec.journal, "JOURNAL_repro_retire.json");
    FAIL() << "retire-mid-interval replay diverged at epoch "
           << result.firstMismatch.epoch;
  }
  // The checkpoint after the retire must cover one instance fewer.
  bool sawShrunk = false;
  for (size_t c = 0; c < rec.journal->checkpointCount(); ++c) {
    const Journal::CheckpointView view = rec.journal->checkpoint(c);
    if (view.epoch > 6) {
      EXPECT_EQ(view.instanceCount, 7u);
      sawShrunk = true;
    }
  }
  EXPECT_TRUE(sawShrunk);
}

TEST(Replay, EmptyJournalReplaysToAnEmptyFleet) {
  const auto image = workloads::makeSmdFleetImage();
  Journal journal;
  journal.setImageHash(imageContentHash(*image));
  journal.setEventQueueCapacity(256);
  const Replayer replayer(&journal, image);
  const ReplayResult result = replayer.run({});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(result.epochsReplayed, 0);
  EXPECT_EQ(result.checkpointsChecked, 0);
  EXPECT_EQ(result.finalDigest, kFleetDigestSeed);
}

TEST(Replay, MismatchedImageHashIsRefused) {
  const auto image = workloads::makeSmdFleetImage();
  Journal journal;
  journal.setImageHash(0xdeadbeefu);
  journal.setChartName("SomethingElse");
  const Replayer replayer(&journal, image);
  const ReplayResult result = replayer.run({});
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("image content hash mismatch"), std::string::npos)
      << result.error;
}

// Port ops carry raw bus addresses. One at an address the image declares
// no port at ends the replay with a diagnostic naming the address and the
// op, in either wire format: never an assertion, and never an allocation
// sized by the address.
TEST(Replay, PortOpAtUndeclaredAddressIsADiagnostic) {
  Recording rec = recordSmdRun(2, 2, 1);
  std::vector<Op>& ops = rec.journal->mutableOps();
  const auto first = std::find_if(ops.begin(), ops.end(), [](const Op& op) {
    return op.kind == OpKind::kSetPort;
  });
  ASSERT_NE(first, ops.end()) << "the SMD warm-up sets the Buffer port";
  const size_t index = static_cast<size_t>(first - ops.begin());
  for (const int64_t address : {int64_t{-5}, int64_t{0x4000000}, int64_t{2000000000}}) {
    first->a = address;
    for (const bool binary : {false, true}) {
      Journal damaged;
      std::string error;
      ASSERT_TRUE(Journal::parse(binary ? rec.journal->dumpBinary() : rec.journal->dumpJson(),
                                 &damaged, &error))
          << error;
      const ReplayResult result = Replayer(&damaged, rec.image).run({});
      EXPECT_FALSE(result.ok);
      EXPECT_NE(result.error.find(strfmt("port op %zu ", index)), std::string::npos)
          << result.error;
      EXPECT_NE(result.error.find(std::to_string(address)), std::string::npos)
          << result.error;
    }
  }
}

// A worker count no fleet runs ends the replay in the fleet's diagnostic,
// not an exception escaping run() or a thread per worker.
TEST(Replay, TooManyWorkersIsADiagnostic) {
  const Recording rec = recordSmdRun(2, 2, 1);
  const Replayer replayer(rec.journal.get(), rec.image);
  ReplayOptions options;
  options.workerThreads = INT_MAX;
  const ReplayResult result = replayer.run(options);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error, "fleet: " + std::to_string(INT_MAX) +
                              " worker threads exceeds the maximum of 1024");
}

// Hostile edits of a recorded journal, each applied to the first op of a
// kind (or inserted right after the first spawn): every one must end in a
// diagnostic naming the op, in both framings and at 1 and 4 workers —
// never in a fleet or machine precondition.
TEST(Replay, HostileOpsAreDiagnostics) {
  Recording rec = recordSmdRun(2, 2, 1);
  const sla::CrLayout& layout = rec.image->layout();
  const int eventCount = layout.eventCount();
  const int xPulse = layout.eventBit("X_PULSE");
  JsonValue recorded;
  std::string error;
  ASSERT_TRUE(parseJson(rec.journal->dumpJson(), &recorded, &error)) << error;
  ASSERT_EQ(recorded.find("ops")->array.front().find("op")->string, "spawn");

  const auto number = [](double v) { return JsonValue::makeNumber(v); };
  const auto events = [&](double bit) {
    JsonValue list = JsonValue::makeArray();
    list.array.push_back(number(bit));
    return list;
  };
  const auto newOp = [](const char* kind) {
    JsonValue op = JsonValue::makeObject();
    op.set("op", JsonValue::makeString(kind));
    return op;
  };
  // Where a case puts its op: over the first op of its kind, or new right
  // after the first spawn (machine time 0) or after the last warm op.
  enum Where { kEdit, kAfterSpawn, kAfterWarm };
  struct Case {
    std::string kind;      ///< op kind edited or inserted
    Where where;
    std::vector<std::pair<std::string, JsonValue>> fields;
    std::string expect;    ///< diagnostic text besides "<kind> op <index> "
  };
  const std::vector<Case> cases = {
      {"inject", kEdit, {{"event", number(100000)}}, "CR bit 100000,"},
      {"inject", kEdit, {{"id", number(7)}}, "instance 7,"},
      {"inject", kEdit, {{"event", number(eventCount)}},
       strfmt("CR bit %d, which is no event", eventCount)},
      {"warm", kEdit, {{"events", events(100000)}}, "CR bit 100000,"},
      {"warm", kEdit, {{"id", number(7)}}, "instance 7,"},
      {"port", kEdit, {{"id", number(7)}}, "instance 7,"},
      {"step", kEdit, {{"cycles", number(0)}}, "runs 0 cycles"},
      {"timer", kAfterSpawn,
       {{"id", number(0)}, {"event", number(xPulse)}, {"period", number(0)}},
       "period 0"},
      {"timer", kAfterSpawn,
       {{"id", number(7)}, {"event", number(xPulse)}, {"period", number(5)}},
       "instance 7,"},
      {"timer", kAfterSpawn,
       {{"id", number(0)}, {"event", number(eventCount)}, {"period", number(5)}},
       "which is no event"},
      {"cond", kAfterSpawn,
       {{"id", number(7)}, {"bit", number(0)}, {"value", JsonValue::makeBool(true)}},
       "instance 7,"},
      {"cond", kAfterSpawn,
       {{"id", number(0)}, {"bit", number(1000)}, {"value", JsonValue::makeBool(true)}},
       "condition bit 1000,"},
      {"retire", kAfterSpawn, {{"id", number(7)}}, "instance 7,"},
      // 2^63 - 1024: a double exactly, and past int64 once added to the
      // machine time the warm-up left.
      {"timer", kAfterWarm,
       {{"id", number(0)}, {"event", number(xPulse)},
        {"period", number(9223372036854774784.0)}},
       "period 9223372036854774784 overflows machine time"},
  };
  for (const Case& c : cases) {
    JsonValue doc = recorded;
    std::vector<JsonValue>* opsArray = nullptr;
    for (auto& [key, value] : doc.object)
      if (key == "ops") opsArray = &value.array;
    ASSERT_NE(opsArray, nullptr);
    std::vector<JsonValue>& ops = *opsArray;
    size_t index = 1;
    if (c.where == kEdit) {
      while (index < ops.size() && ops[index].find("op")->string != c.kind) ++index;
      ASSERT_LT(index, ops.size()) << "the recording has a " << c.kind << " op";
    } else {
      if (c.where == kAfterWarm)
        for (size_t i = 0; i < ops.size(); ++i)
          if (ops[i].find("op")->string == "warm") index = i + 1;
      ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(index),
                 newOp(c.kind.c_str()));
    }
    for (const auto& [key, value] : c.fields) ops[index].set(key, value);
    const std::string label = c.kind + " op " + std::to_string(index) + " ";
    Journal json;
    ASSERT_TRUE(Journal::parse(doc.dump(), &json, &error)) << error;
    Journal binary;
    ASSERT_TRUE(Journal::parse(json.dumpBinary(), &binary, &error)) << error;
    for (const Journal* hostile : {&json, &binary}) {
      for (const int workers : {1, 4}) {
        ReplayOptions options;
        options.workerThreads = workers;
        const ReplayResult result = Replayer(hostile, rec.image).run(options);
        EXPECT_FALSE(result.ok) << label << c.expect;
        EXPECT_NE(result.error.find(label), std::string::npos) << result.error;
        EXPECT_NE(result.error.find(c.expect), std::string::npos) << result.error;
      }
    }
  }

  // A hostile header: the event_queue_capacity that sizes the replay
  // fleet's queues. Both framings refuse it at parse time, and a journal
  // built in memory ends in the same diagnostic instead of a hang (-1) or
  // a multi-gigabyte allocation (2^40).
  for (const int64_t capacity : {int64_t{-1}, int64_t{4097}, int64_t{1} << 40}) {
    const std::string expect = strfmt("event_queue_capacity %lld is outside [0, 4096]",
                                      static_cast<long long>(capacity));
    JsonValue doc = recorded;
    doc.set("event_queue_capacity", number(static_cast<double>(capacity)));
    Journal hostile;
    error.clear();
    EXPECT_FALSE(Journal::parse(doc.dump(), &hostile, &error)) << capacity;
    EXPECT_EQ(error, expect);
    ASSERT_TRUE(Journal::parse(rec.journal->dumpJson(), &hostile, &error)) << error;
    hostile.setEventQueueCapacity(capacity);
    error.clear();
    Journal binary;
    EXPECT_FALSE(Journal::parse(hostile.dumpBinary(), &binary, &error)) << capacity;
    EXPECT_EQ(error, expect);
    for (const int workers : {1, 4}) {
      ReplayOptions options;
      options.workerThreads = workers;
      const ReplayResult result = Replayer(&hostile, rec.image).run(options);
      EXPECT_FALSE(result.ok) << capacity;
      EXPECT_EQ(result.error, expect);
    }
  }
}

// A journal whose replay faults a machine ends in a diagnostic naming the
// step op, at any worker count and on either tier: recorded with every
// Den = 5, then edited so instance 3 divides by zero in the first epoch.
TEST(Replay, FaultingStepIsADiagnostic) {
  Journal recorded;
  const auto image = testcharts::divImage();
  {
    fleet::FleetConfig config;
    config.journal = true;
    fleet::Fleet fleet(image, config);
    for (const fleet::InstanceId id : fleet.spawnMany(8)) fleet.setInputPort(id, "Den", 5);
    for (int epoch = 0; epoch < 3; ++epoch) {
      for (fleet::InstanceId id = 0; id < 8; ++id) fleet.injectByName(id, "GO");
      fleet.step(2);
    }
    std::string error;
    ASSERT_TRUE(Journal::parse(fleet.journal()->dumpJson(), &recorded, &error)) << error;
  }
  std::vector<Op>& ops = recorded.mutableOps();
  const auto port = std::find_if(ops.begin(), ops.end(), [](const Op& op) {
    return op.kind == OpKind::kSetPort && op.instance == 3;
  });
  ASSERT_NE(port, ops.end());
  port->b = 0;
  const auto step = std::find_if(ops.begin(), ops.end(),
                                 [](const Op& op) { return op.kind == OpKind::kStep; });
  ASSERT_NE(step, ops.end());
  const std::string expect =
      strfmt("step op %zu faulted: ", static_cast<size_t>(step - ops.begin()));
  for (const tep::jit::JitMode tier : {tep::jit::JitMode::kOff, tep::jit::JitMode::kAlways}) {
    for (const int workers : {1, 8}) {
      ReplayOptions options;
      options.workerThreads = workers;
      options.jitMode = tier;
      const ReplayResult result = Replayer(&recorded, image).run(options);
      EXPECT_FALSE(result.ok) << workers << " workers";
      EXPECT_EQ(result.error.rfind(expect, 0), 0u) << result.error;
      EXPECT_NE(result.error.find("division by zero"), std::string::npos) << result.error;
      EXPECT_EQ(result.epochsReplayed, 0);
    }
  }
}

// Replay enqueues an instance's whole epoch before stepping it, so the
// longest inject run sizes the queues: up to the largest queue a fleet
// builds it replays, one more is a diagnostic.
TEST(Replay, InjectBurstUpToTheLargestQueueReplays) {
  for (const size_t burst : {fleet::kMaxEventQueueCapacity, fleet::kMaxEventQueueCapacity + 1}) {
    Recording rec = recordSmdRun(2, 2, 1);
    std::vector<Op>& ops = rec.journal->mutableOps();
    const auto first = std::find_if(ops.begin(), ops.end(),
                                    [](const Op& op) { return op.kind == OpKind::kInject; });
    ASSERT_NE(first, ops.end());
    size_t run = 1;
    while (first + run != ops.end() && first[run].kind == OpKind::kInject &&
           first[run].instance == first->instance && first[run].b == first->b)
      ++run;
    // Copies of one event set the same CR bit, so the digests still match;
    // a queue too small for the burst would reject a re-injection.
    const Op copy = *first;
    ops.insert(first, burst - run, copy);
    for (const int workers : {1, 4}) {
      ReplayOptions options;
      options.workerThreads = workers;
      const ReplayResult result = Replayer(rec.journal.get(), rec.image).run(options);
      if (burst <= fleet::kMaxEventQueueCapacity) {
        EXPECT_TRUE(result.ok) << result.error;
      } else {
        EXPECT_FALSE(result.ok);
        EXPECT_EQ(result.error,
                  "an epoch injects 4097 events into one instance, more than an event "
                  "queue holds (4096)");
      }
    }
  }
}

TEST(Replay, BisectPinpointsTheExactCorruptedEpoch) {
  Recording rec = recordSmdRun(8, 20, 1);
  // Damage the journal: rewrite the first inject delivered at epoch 13
  // into X_STEPS, a CR-visible fault (RunX -> XEnd2 + XFINISH set).
  const int xSteps = rec.image->layout().eventBit("X_STEPS");
  bool corrupted = false;
  for (Op& op : rec.journal->mutableOps()) {
    if (op.kind != OpKind::kInject || op.b != 13) continue;
    op.a = xSteps;
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted) << "the recording must deliver events at epoch 13";

  ReplayOptions target;
  target.workerThreads = 2;
  const BisectResult result =
      bisectDivergence(*rec.journal, rec.image, target);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.diverged);
  EXPECT_EQ(result.kind, "recorded-vs-replay");
  EXPECT_EQ(result.epoch, 13);
  EXPECT_TRUE(result.epochExact);
  EXPECT_EQ(result.windowLo, 12);
  ASSERT_FALSE(result.divergingInstances.empty());
  ASSERT_FALSE(result.actual.empty());
  // The corrupted inject itself must be among the causal spans.
  bool causal = false;
  for (const Op& op : result.causalInjects)
    if (op.b == 13 && op.a == xSteps) causal = true;
  EXPECT_TRUE(causal);
  // The report decodes both CR states.
  const std::string report = formatBisectReport(result, *rec.image);
  EXPECT_NE(report.find("first divergent epoch: 13"), std::string::npos);
  EXPECT_NE(report.find("XEnd2"), std::string::npos) << report;
  EXPECT_NE(report.find("RunX"), std::string::npos) << report;
  EXPECT_NE(report.find("X_STEPS"), std::string::npos) << report;
}

TEST(Replay, BisectReportsCleanJournalsAsClean) {
  const Recording rec = recordSmdRun(4, 6, 2);
  const BisectResult result = bisectDivergence(*rec.journal, rec.image, {});
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_FALSE(result.diverged);
}

TEST(Replay, SpanTrackerLinksDeliveryToDispatches) {
  const Recording rec = recordSmdRun(4, 6, 4);
  const Replayer replayer(rec.journal.get(), rec.image);

  TraceRecorder recorder;
  SpanTracker tracker;
  TeeSink tee{&recorder, &tracker};
  ReplayOptions options;
  options.traceSink = &tee;
  options.spanTracker = &tracker;
  options.traceInstance = 0;
  const ReplayResult result = replayer.run(options);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.verified);

  ASSERT_FALSE(tracker.spans().empty());
  size_t linked = 0;
  uint64_t lastSpan = 0;
  for (const SpanTracker::Span& span : tracker.spans()) {
    EXPECT_GT(span.id, lastSpan) << "span ids stay monotonic in replay order";
    lastSpan = span.id;
    if (span.drainTime < 0) continue;
    ++linked;
    EXPECT_GE(span.selectTime, span.drainTime);
    for (const SpanTracker::Dispatch& d : span.dispatches) {
      EXPECT_GE(d.dispatchTime, span.drainTime);
      EXPECT_GE(d.retireTime, d.dispatchTime);
    }
  }
  EXPECT_GT(linked, 0u) << "the SMD pulses must drain into visible spans";

  // The Chrome lowering is well-formed JSON with flow arrows of both
  // categories: per-span ("span") and the journal-free causal sweep.
  const std::string json = chromeTraceJsonWithSpans(recorder, tracker);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parseJson(json, &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int spanStarts = 0, spanFinishes = 0, causalFlows = 0;
  for (const JsonValue& event : events->array) {
    const JsonValue* catValue = event.find("cat");
    const JsonValue* phValue = event.find("ph");
    const std::string cat = catValue != nullptr ? catValue->string : "";
    const std::string ph = phValue != nullptr ? phValue->string : "";
    if (cat == "span" && ph == "s") ++spanStarts;
    if (cat == "span" && ph == "f") ++spanFinishes;
    if (cat == "causal") ++causalFlows;
  }
  EXPECT_GT(spanStarts, 0);
  EXPECT_EQ(spanStarts, spanFinishes) << "every span flow must terminate";
  EXPECT_GT(causalFlows, 0);
}

}  // namespace
}  // namespace pscp::obs::journal
