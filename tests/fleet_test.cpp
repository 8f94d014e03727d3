// Fleet engine tests: SPSC queue semantics, instance lifecycle, event
// injection, metrics merging, and — the core guarantee — determinism:
// per-instance port-write logs must be bit-identical no matter how many
// worker threads step the fleet, and identical to standalone machines that
// decode every cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "fleet/spsc.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"

namespace pscp::fleet {
namespace {

// The Counter chart from the machine tests: an AND-state whose two
// regions both react to TICK (parallel TEP work), a guarded GO entry and
// a STOP exit that reports through a port — enough structure that a
// scheduling bug in the fleet would scramble the port-write logs. The
// watch region also pauses and resumes on ARMED alone: event-free
// transitions that only a CR condition write can enable, so stepping
// must notice every such write (Init's write-back, setCondition).
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
      transition { target Paused; label "[not ARMED]"; }
    }
    basicstate Paused {
      transition { target Watching; label "[ARMED]"; }
    }
  }
}
)chart";

const char* kActions = R"code(
int:16 count;
int:16 watchTicks;
int:16 highWater;
uint:8 lastSense;

void Init() {
  count = 0;
  watchTicks = 0;
  highWater = 0;
  set_cond(ARMED, 0);
}

void Bump() {
  lastSense = read_port(Sense);
  count = count + lastSense;
  if (count > 200) { raise(OVERFLOW); }
}

void Watch() {
  watchTicks = watchTicks + 1;
  if (watchTicks * 3 > highWater) { highWater = watchTicks * 3; }
}

void Report() {
  write_port(Drive, count);
}
)code";

class FleetTest : public ::testing::Test {
 protected:
  FleetTest()
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

  statechart::Chart chart_;
  actionlang::Program actions_;
  Fleet::ChartImagePtr image_;
};

// ------------------------------------------------------------------ SPSC

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(100).capacity(), 128u);
}

TEST(SpscQueue, FifoOrderAndFullEmpty) {
  SpscQueue<int> q(4);
  int out = 0;
  EXPECT_FALSE(q.tryPop(&out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.tryPush(i));
  EXPECT_FALSE(q.tryPush(99)) << "push into a full queue must fail";
  EXPECT_EQ(q.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.tryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<int> q(8);
  int out = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.tryPush(round * 5 + i));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(q.tryPop(&out));
      ASSERT_EQ(out, round * 5 + i);
    }
  }
}

// ------------------------------------------------------------- lifecycle

TEST_F(FleetTest, SpawnRetireAndIdsAreNeverReused) {
  Fleet fleet(image_);
  const std::vector<InstanceId> ids = fleet.spawnMany(4);
  EXPECT_EQ(fleet.liveCount(), 4u);
  EXPECT_EQ(ids, (std::vector<InstanceId>{0, 1, 2, 3}));

  fleet.retire(ids[1]);
  EXPECT_FALSE(fleet.isLive(ids[1]));
  EXPECT_EQ(fleet.liveCount(), 3u);

  const InstanceId fresh = fleet.spawn();
  EXPECT_EQ(fresh, 4u) << "retired ids must not be recycled";
  EXPECT_TRUE(fleet.isLive(fresh));

  fleet.step(2);  // stepping with a retired member must be fine
  EXPECT_EQ(fleet.snapshot(fresh).configCycles, 2);
}

TEST_F(FleetTest, SpawnedInstancesStartInDefaultConfiguration) {
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  EXPECT_TRUE(fleet.machine(id).isActive("IdleS"));
  const InstanceSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.configCycles, 0);
  EXPECT_NE(std::find(snap.activeStates.begin(), snap.activeStates.end(), "IdleS"),
            snap.activeStates.end());
}

// ------------------------------------------------------------- injection

TEST_F(FleetTest, InjectedEventsAreDeliveredAtTheNextEpoch) {
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  fleet.machine(id).setCondition("ARMED", true);
  const int go = fleet.eventId("GO");
  EXPECT_TRUE(fleet.inject(id, go));

  fleet.step();
  EXPECT_TRUE(fleet.machine(id).isActive("Counting"));
  const InstanceSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.eventsDelivered, 1);
  EXPECT_EQ(snap.firedTransitions, 1);
}

TEST_F(FleetTest, FullQueueRejectsAndCountsDrops) {
  FleetConfig config;
  config.eventQueueCapacity = 2;
  Fleet fleet(image_, config);
  const InstanceId id = fleet.spawn();
  const int tick = fleet.eventId("TICK");
  EXPECT_TRUE(fleet.inject(id, tick));
  EXPECT_TRUE(fleet.inject(id, tick));
  EXPECT_FALSE(fleet.inject(id, tick));
  EXPECT_FALSE(fleet.inject(id, tick));
  EXPECT_EQ(fleet.snapshot(id).eventsDropped, 2);
  EXPECT_FALSE(fleet.inject(12345, tick)) << "unknown id is a soft failure";
}

TEST_F(FleetTest, RetiredInstancesKeepTheirDropCounts) {
  for (const bool telemetry : {false, true}) {
    FleetConfig config;
    config.eventQueueCapacity = 2;
    config.telemetry = telemetry;
    Fleet fleet(image_, config);
    const InstanceId id = fleet.spawn();
    fleet.spawn();
    const int tick = fleet.eventId("TICK");
    for (int i = 0; i < 5; ++i) fleet.inject(id, tick);
    fleet.step(1);
    EXPECT_EQ(fleet.mergedMetrics().value("fleet.events_dropped"), 3);
    fleet.retire(id);
    fleet.step(1);
    const obs::MetricsRegistry merged = fleet.mergedMetrics();
    EXPECT_EQ(merged.value("fleet.events_dropped"), 3) << "telemetry " << telemetry;
    EXPECT_EQ(merged.value("fleet.events_delivered"), 2);
    if (telemetry) {
      EXPECT_EQ(fleet.healthSnapshot().totalEventsDropped(), 3);
    }
  }
}

// --------------------------------------------------------------- metrics

TEST_F(FleetTest, MergedMetricsAgreeWithPerInstanceSnapshots) {
  FleetConfig config;
  config.workerThreads = 2;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(10);
  for (InstanceId id : ids) {
    fleet.machine(id).setCondition("ARMED", true);
    fleet.injectByName(id, "GO");
  }
  for (int epoch = 0; epoch < 5; ++epoch) {
    for (InstanceId id : ids) fleet.injectByName(id, "TICK");
    fleet.step(2);
  }
  const obs::MetricsRegistry merged = fleet.mergedMetrics();
  int64_t configCycles = 0;
  int64_t fired = 0;
  int64_t delivered = 0;
  for (InstanceId id : ids) {
    const InstanceSnapshot snap = fleet.snapshot(id);
    configCycles += snap.configCycles;
    fired += snap.firedTransitions;
    delivered += snap.eventsDelivered;
  }
  EXPECT_EQ(merged.value("fleet.config_cycles"), configCycles);
  EXPECT_EQ(merged.value("fleet.fired_transitions"), fired);
  EXPECT_EQ(merged.value("fleet.events_delivered"), delivered);
  EXPECT_GT(fired, 0);
}

// ----------------------------------------------------------- determinism

/// Deterministic per-instance event script driven by a seeded LCG. All
/// control-thread actions (arming, input ports, injections) depend only
/// on the instance id and epoch, never on scheduling.
struct ScriptedRun {
  std::vector<std::vector<machine::PortWrite>> portLogs;
  std::vector<InstanceSnapshot> snapshots;
};

/// Observes nothing. Attaching it to a machine only takes the quiescence
/// memo away, so that machine runs the full SLA decode every cycle.
class NullObserver final : public obs::ObsSink {};

/// `sink`, when set, is attached to every instance, so the fleet decodes
/// every cycle. At `retireEpoch` every third instance is retired, which
/// rebuilds the shards and leaves them of unequal size.
ScriptedRun runScriptedFleet(const Fleet::ChartImagePtr& image, int workers,
                             size_t instances, int epochs,
                             obs::ObsSink* sink = nullptr, int retireEpoch = -1) {
  FleetConfig config;
  config.workerThreads = workers;
  config.capturePortWrites = true;
  Fleet fleet(image, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(instances);
  if (sink != nullptr)
    for (InstanceId id : ids) fleet.machine(id).setObsOptions({sink});
  const int go = fleet.eventId("GO");
  const int stop = fleet.eventId("STOP");
  const int tick = fleet.eventId("TICK");

  std::vector<uint64_t> rng(instances);
  for (size_t i = 0; i < instances; ++i) rng[i] = 0x9E3779B97F4A7C15ull * (i + 1);

  ScriptedRun run;
  run.portLogs.resize(instances);
  run.snapshots.resize(instances);
  const auto capture = [&](size_t i) {
    run.portLogs[i] = fleet.portWrites(ids[i]);
    run.snapshots[i] = fleet.snapshot(ids[i]);
  };
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (size_t i = 0; i < instances; ++i) {
      if (!fleet.isLive(ids[i])) continue;
      if (epoch == retireEpoch && i % 3 == 0) {
        capture(i);
        fleet.retire(ids[i]);
        continue;
      }
      uint64_t& s = rng[i];
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t roll = static_cast<uint32_t>(s >> 33) % 100;
      // Mostly armed; a disarm pauses the watch region and a later re-arm
      // must wake it, often on an epoch that injects nothing.
      fleet.machine(ids[i]).setCondition("ARMED", (s >> 24) % 4 != 0);
      fleet.machine(ids[i]).setInputPort("Sense",
                                         static_cast<uint32_t>((s >> 16) & 3));
      if (roll < 25) {
        fleet.inject(ids[i], go);
      } else if (roll < 75) {
        fleet.inject(ids[i], tick);
        if (roll % 2 == 0) fleet.inject(ids[i], tick);  // queued duplicate
      } else if (roll < 90) {
        fleet.inject(ids[i], stop);
      }
    }
    fleet.step(2);
  }
  for (size_t i = 0; i < instances; ++i)
    if (fleet.isLive(ids[i])) capture(i);
  return run;
}

/// Every counter of a snapshot, compared (and printed) in one assertion.
auto counters(const InstanceSnapshot& s) {
  return std::make_tuple(s.machineCycles, s.configCycles, s.quiescentCycles,
                         s.firedTransitions, s.busStallCycles,
                         s.eventsDelivered, s.eventsDropped);
}

/// Every instance's port log, counters and configuration must agree.
void expectSameRun(const ScriptedRun& got, const ScriptedRun& want,
                   const std::string& what) {
  ASSERT_EQ(got.portLogs.size(), want.portLogs.size()) << what;
  size_t writes = 0;
  for (size_t i = 0; i < want.portLogs.size(); ++i) {
    ASSERT_EQ(got.portLogs[i], want.portLogs[i]) << what << ", instance " << i;
    ASSERT_EQ(counters(got.snapshots[i]), counters(want.snapshots[i]))
        << what << ", instance " << i;
    ASSERT_EQ(got.snapshots[i].activeStates, want.snapshots[i].activeStates)
        << what << ", instance " << i;
    writes += want.portLogs[i].size();
  }
  EXPECT_GT(writes, 0u) << what << ": the script must exercise port writes";
}

TEST_F(FleetTest, PortWriteLogsAreBitIdenticalAcrossWorkerCounts) {
  constexpr size_t kInstances = 64;
  constexpr int kEpochs = 30;
  const ScriptedRun base = runScriptedFleet(image_, 1, kInstances, kEpochs);

  int64_t totalWrites = 0;
  int64_t totalFired = 0;
  for (size_t i = 0; i < kInstances; ++i) {
    totalWrites += static_cast<int64_t>(base.portLogs[i].size());
    totalFired += base.snapshots[i].firedTransitions;
  }
  ASSERT_GT(totalWrites, 0) << "script must actually exercise port writes";
  ASSERT_GT(totalFired, static_cast<int64_t>(kInstances))
      << "script must actually fire transitions";

  for (int workers : {2, 8})
    expectSameRun(runScriptedFleet(image_, workers, kInstances, kEpochs), base,
                  std::to_string(workers) + " workers");
}

// A bare fleet collapses idle stretches through the quiescence memo; the
// same script on a fleet whose instances carry a sink decodes every cycle.
TEST_F(FleetTest, BareFleetMatchesObservedFleet) {
  NullObserver observer;
  for (const int workers : {1, 3})  // 37 instances leave partial steal chunks
    expectSameRun(runScriptedFleet(image_, workers, 37, 20),
                  runScriptedFleet(image_, workers, 37, 20, &observer),
                  std::to_string(workers) + " workers");
}

TEST_F(FleetTest, BareFleetMatchesObservedFleetAcrossRetirementHoles) {
  NullObserver observer;
  expectSameRun(runScriptedFleet(image_, 2, 24, 12, nullptr, 4),
                runScriptedFleet(image_, 2, 24, 12, &observer, 4),
                "retirement holes");
}

TEST_F(FleetTest, SteppingMatchesFullDecodeMirrors) {
  // The fleet steps each instance one epoch per configurationCycleIds
  // call, which credits idle stretches from the quiescence memo at once.
  // Each instance has a standalone mirror with a sink attached, stepped
  // one cycle per call, which decodes every cycle. Port logs, every
  // snapshot counter and the active states must agree — across worker
  // counts, epoch lengths from 1 to 17 cycles, TICK timers on every third
  // instance (a timer maturing inside an epoch cuts its collapse short),
  // retirement holes (shard rebuilds) and direct machine(id).setCondition
  // writes between epochs. 37 instances leave partial steal chunks.
  constexpr size_t kInstances = 37;
  constexpr int kEpochs = 24;
  struct Mirror {
    std::unique_ptr<machine::PscpMachine> machine;
    InstanceSnapshot counts;
  };
  NullObserver observer;

  for (const int workers : {1, 3}) {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(kInstances);
    const int go = fleet.eventId("GO");
    const int stop = fleet.eventId("STOP");
    const int tick = fleet.eventId("TICK");
    std::vector<Mirror> mirrors(kInstances);
    std::vector<uint64_t> rng(kInstances);
    for (size_t i = 0; i < kInstances; ++i) {
      mirrors[i].machine = std::make_unique<machine::PscpMachine>(image_);
      mirrors[i].machine->setObsOptions({&observer});
      rng[i] = 0xD1B54A32D192ED03ull * (i + 1);
      if (i % 3 == 0) {
        const int64_t period = 20 + 7 * static_cast<int64_t>(i);
        fleet.addTimer(ids[i], "TICK", period);
        mirrors[i].machine->addTimer("TICK", period);
      }
    }

    const auto expectSame = [&](size_t i) {
      const InstanceSnapshot got = fleet.snapshot(ids[i]);
      const InstanceSnapshot& want = mirrors[i].counts;
      const machine::PscpMachine& m = *mirrors[i].machine;
      EXPECT_EQ(fleet.portWrites(ids[i]), m.portWrites())
          << "instance " << i << " at " << workers << " workers";
      EXPECT_EQ(counters(got), counters(want)) << "instance " << i;  // 0 dropped
      EXPECT_EQ(got.activeStates, m.activeNames()) << "instance " << i;
    };

    int64_t eventFreeFirings = 0;
    int64_t quiescent = 0;
    std::vector<int> events;
    machine::CycleStats stats;
    uint64_t epochRng = 0x2545F4914F6CDD1Dull;
    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      epochRng = epochRng * 6364136223846793005ull + 1442695040888963407ull;
      const int cycles = 1 + static_cast<int>((epochRng >> 33) % 17);
      if (epoch == 8) {
        for (size_t i = 1; i < kInstances; i += 4) {
          expectSame(i);
          fleet.retire(ids[i]);
          mirrors[i].machine.reset();
        }
      }
      for (size_t i = 0; i < kInstances; ++i) {
        if (mirrors[i].machine == nullptr) continue;
        machine::PscpMachine& m = *mirrors[i].machine;
        uint64_t& s = rng[i];
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t roll = static_cast<uint32_t>(s >> 33) % 100;
        if (roll % 3 == 0) {  // a direct CR write, between epochs
          const bool armed = (s >> 20) % 2 == 0;
          fleet.machine(ids[i]).setCondition("ARMED", armed);
          m.setCondition("ARMED", armed);
        }
        const uint32_t sense = static_cast<uint32_t>((s >> 16) & 3);
        fleet.machine(ids[i]).setInputPort("Sense", sense);
        m.setInputPort("Sense", sense);
        events.clear();
        if (roll < 20) {
          events.push_back(go);
        } else if (roll < 45) {
          events.push_back(tick);
          if (roll % 2 == 0) events.push_back(tick);  // queued duplicate
        } else if (roll < 55) {
          events.push_back(stop);
        }
        for (const int e : events) ASSERT_TRUE(fleet.inject(ids[i], e));
        mirrors[i].counts.eventsDelivered += static_cast<int64_t>(events.size());
        for (int c = 0; c < cycles; ++c) {
          m.configurationCycleIds(c == 0 ? events : std::vector<int>{}, &stats);
          InstanceSnapshot& counts = mirrors[i].counts;
          counts.machineCycles += stats.cycles;
          counts.configCycles += 1;
          counts.quiescentCycles += stats.quiescent ? 1 : 0;
          counts.firedTransitions += static_cast<int64_t>(stats.fired.size());
          counts.busStallCycles += stats.busStallCycles;
          quiescent += stats.quiescent ? 1 : 0;
          if ((c > 0 || events.empty()) && !stats.fired.empty()) ++eventFreeFirings;
        }
      }
      fleet.step(cycles);
    }
    for (size_t i = 0; i < kInstances; ++i)
      if (mirrors[i].machine != nullptr) expectSame(i);
    EXPECT_EQ(fleet.liveCount(), kInstances - 9);
    // The script must reach both sides of the memo: idle cycles it
    // answers, and event-free firings a CR write or a timer made possible.
    EXPECT_GT(quiescent, static_cast<int64_t>(kInstances * kEpochs));
    EXPECT_GT(eventFreeFirings, static_cast<int64_t>(kInstances));
  }
}

TEST_F(FleetTest, StealingFleetMatchesSingleThreadWithSkewedShards) {
  // Shards are balanced contiguous blocks (retirement only shrinks them
  // evenly at the next rebuild), so chunks are stolen only from a worker
  // that starts its epoch late. Skew the schedule for certain: shard 0's
  // worker sleeps at the start of every epoch (armed telemetry), so the
  // others steal its chunks. Results must still match the single-threaded
  // run exactly.
  auto runSkewed = [&](int workers, int64_t* stealChunks) {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    config.telemetry = true;
    config.debugStallShard = workers > 1 ? 0 : -1;
    config.debugStallMicros = 5000;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(48);
    for (size_t i = 0; i < ids.size(); ++i)
      if (i % 4 != 0 && i > 8) fleet.retire(ids[i]);
    std::vector<InstanceId> live;
    for (InstanceId id : ids)
      if (fleet.isLive(id)) live.push_back(id);
    for (int epoch = 0; epoch < 10; ++epoch) {
      for (InstanceId id : live) {
        fleet.machine(id).setCondition("ARMED", true);
        fleet.injectByName(id, epoch % 3 == 0 ? "GO" : "STOP");
        fleet.injectByName(id, "TICK");
      }
      fleet.step(3);
    }
    std::vector<std::vector<machine::PortWrite>> logs;
    for (InstanceId id : live) logs.push_back(fleet.portWrites(id));
    *stealChunks = fleet.mergedMetrics().value("fleet.steal_chunks");
    return logs;
  };
  int64_t baseSteals = 0;
  int64_t threadedSteals = 0;
  const auto base = runSkewed(1, &baseSteals);
  const auto threaded = runSkewed(4, &threadedSteals);
  ASSERT_EQ(base, threaded);
  EXPECT_EQ(baseSteals, 0);
  EXPECT_GT(threadedSteals, 0) << "no chunk was stolen: the test is vacuous";
}

TEST_F(FleetTest, EventQueueCapacityAboveTheMaximumIsAnError) {
  FleetConfig config;
  config.eventQueueCapacity = kMaxEventQueueCapacity;
  Fleet largest(image_, config);
  EXPECT_EQ(largest.machine(largest.spawn()).configurationCycles(), 0);
  config.eventQueueCapacity = kMaxEventQueueCapacity + 1;
  try {
    Fleet fleet(image_, config);
    ADD_FAILURE() << "capacity 4097 was accepted";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "fleet: event queue capacity 4097 exceeds the maximum of 4096");
  }
}

TEST_F(FleetTest, InjectRejectsBitsThatAreNotEvents) {
  // CR bits past the events hold conditions, then state fields. A bit
  // injected as an event must be one of the events: anything else is
  // refused before it reaches the queue (no drop counted), and the
  // machine's interned API rejects it with a diagnostic naming the id.
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  const sla::CrLayout& layout = image_->layout();
  const int armed = layout.conditionBase() + layout.conditionBit("ARMED");
  fleet.setCondition(id, "ARMED", true);
  for (const int bit : {-1, armed, layout.totalBits(), 100000})
    EXPECT_FALSE(fleet.inject(id, bit)) << "bit " << bit;
  fleet.step(1);
  const InstanceSnapshot snap = fleet.snapshot(id);
  EXPECT_EQ(snap.eventsDelivered, 0);
  EXPECT_EQ(snap.eventsDropped, 0);
  machine::PscpMachine& m = fleet.machine(id);
  EXPECT_TRUE(m.conditionValue("ARMED"));
  EXPECT_TRUE(m.crBits().test(armed)) << "the CR must agree with the condition";

  const int64_t cyclesBefore = m.configurationCycles();
  for (const int bit : {-1, armed, 100000}) {
    try {
      (void)m.configurationCycleIds(std::vector<int>{bit});
      ADD_FAILURE() << "bit " << bit << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(strfmt("id %d ", bit)), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(m.configurationCycles(), cyclesBefore);
  EXPECT_TRUE(fleet.inject(id, fleet.eventId("GO")));
}

}  // namespace
}  // namespace pscp::fleet
