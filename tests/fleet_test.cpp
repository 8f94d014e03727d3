// Fleet engine tests: SPSC queue semantics, instance lifecycle, event
// injection, metrics merging, and — the core guarantee — determinism:
// per-instance port-write logs must be bit-identical no matter how many
// worker threads step the fleet, and identical to standalone machines that
// decode every cycle.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <ctime>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "actionlang/parser.hpp"
#include "div_chart.hpp"
#include "fleet/fleet.hpp"
#include "fleet/spsc.hpp"
#include "obs/journal/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"
#include "workloads/smd_fleet.hpp"

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
      EXPECT_EQ(fleet.healthSnapshot().total(&obs::ShardHealth::eventsDropped), 3);
    }
  }
}

// --------------------------------------------------------------- metrics

// Sleepers are credited to worker 0's counters alone: the merged counters
// equal the instances' own at every worker count, after every epoch, over
// epochs where some instances sleep and the rest are stepped.
TEST_F(FleetTest, MergedMetricsAgreeWithPerInstanceSnapshots) {
  for (const int workers : {1, 2, 4}) {
    FleetConfig config;
    config.workerThreads = workers;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(40);
    int64_t mostAsleep = 0;
    for (int epoch = 0; epoch < 12; ++epoch) {
      // A rotating third are armed and driven; the rest have nothing to do.
      for (InstanceId id : ids) {
        if ((id + static_cast<InstanceId>(epoch)) % 3 != 0) continue;
        fleet.setCondition(id, "ARMED", true);
        fleet.injectByName(id, epoch % 4 == 0 ? "GO" : "TICK");
      }
      fleet.step(1 + epoch % 3);
      const obs::MetricsRegistry merged = fleet.mergedMetrics();
      mostAsleep = std::max(mostAsleep, merged.value("fleet.sleeping_instances"));
      InstanceSnapshot sum;
      for (InstanceId id : ids) {
        const InstanceSnapshot snap = fleet.snapshot(id);
        sum.configCycles += snap.configCycles;
        sum.quiescentCycles += snap.quiescentCycles;
        sum.machineCycles += snap.machineCycles;
        sum.firedTransitions += snap.firedTransitions;
        sum.eventsDelivered += snap.eventsDelivered;
      }
      const std::string where =
          std::to_string(workers) + " workers, epoch " + std::to_string(epoch);
      ASSERT_EQ(merged.value("fleet.config_cycles"), sum.configCycles) << where;
      ASSERT_EQ(merged.value("fleet.quiescent_cycles"), sum.quiescentCycles) << where;
      ASSERT_EQ(merged.value("fleet.machine_cycles"), sum.machineCycles) << where;
      ASSERT_EQ(merged.value("fleet.fired_transitions"), sum.firedTransitions) << where;
      ASSERT_EQ(merged.value("fleet.events_delivered"), sum.eventsDelivered) << where;
    }
    EXPECT_GT(fleet.mergedMetrics().value("fleet.fired_transitions"), 0) << workers;
    EXPECT_GT(mostAsleep, 0) << workers << " workers: no instance slept";
  }
}

// ----------------------------------------------------------- determinism

/// Deterministic per-instance event script driven by a seeded LCG. All
/// control-thread actions (arming, input ports, injections) depend only
/// on the instance id and epoch, never on scheduling.
struct ScriptedRun {
  std::vector<std::vector<machine::PortWrite>> portLogs;
  std::vector<InstanceSnapshot> snapshots;
};

/// Observes nothing. Attaching it to a machine only takes the decode memo
/// away, so that machine runs the full SLA decode every cycle.
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

// A bare fleet collapses idle stretches through the decode memo; the
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
  // The fleet steps each awake instance one epoch per configurationCycleIds
  // call, which credits idle stretches from the decode memo at once,
  // and credits each sleeper in closed form when it wakes or is read. Each
  // instance has a standalone mirror with a sink attached, stepped one
  // cycle per call, which decodes every cycle. Port logs, every snapshot
  // counter and the active states must agree — across worker counts,
  // epoch lengths from 1 to 17 cycles, TICK timers on every third instance
  // (a timer maturing inside an epoch cuts its collapse short), retirement
  // holes (shard rebuilds) and direct machine(id).setCondition writes
  // between epochs. Every fourth instance rests for stretches of four
  // epochs, in which nothing touches its machine, so it sleeps. A sleeper
  // wakes by an injection, its own timer, Fleet::addTimer, warmCycle, or a
  // machine(id).setCondition when its stretch ends; one is retired asleep;
  // and reads through snapshot and the const machine(id) are checked
  // against the mirrors while they sleep. 37 instances leave partial
  // steal chunks.
  constexpr size_t kInstances = 37;
  constexpr int kEpochs = 24;
  constexpr size_t kRetiredAsleep = 35;  // rests in epochs 20-23
  struct Mirror {
    std::unique_ptr<machine::PscpMachine> machine;
    InstanceSnapshot counts;
  };
  NullObserver observer;
  const auto resting = [](size_t i, int epoch) {
    return i % 4 == 3 && (epoch / 4) % 2 == 1;
  };

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
    int64_t mostAsleep = 0;
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
      if (epoch == 22) {  // a sleeper since epoch 20, retired asleep
        expectSame(kRetiredAsleep);
        fleet.retire(ids[kRetiredAsleep]);
        mirrors[kRetiredAsleep].machine.reset();
      }
      for (size_t i = 0; i < kInstances; ++i) {
        if (mirrors[i].machine == nullptr) continue;
        machine::PscpMachine& m = *mirrors[i].machine;
        uint64_t& s = rng[i];
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t roll = static_cast<uint32_t>(s >> 33) % 100;
        const bool rests = resting(i, epoch);
        if (rests && epoch % 8 == 6 && i % 8 == 7) {
          // A timer added to a sleeper matures from its credited clock.
          fleet.addTimer(ids[i], "TICK", 30 + static_cast<int64_t>(i));
          m.addTimer("TICK", 30 + static_cast<int64_t>(i));
        }
        if (rests && epoch == 14 && i % 8 == 3) {
          const std::vector<int> warm{tick};
          fleet.warmCycle(ids[i], warm);
          m.configurationCycleIds(warm, &stats);
        }
        if (!rests && roll % 3 == 0) {  // a direct CR write, between epochs
          const bool armed = (s >> 20) % 2 == 0;
          fleet.machine(ids[i]).setCondition("ARMED", armed);
          m.setCondition("ARMED", armed);
        }
        if (!rests) {
          const uint32_t sense = static_cast<uint32_t>((s >> 16) & 3);
          fleet.machine(ids[i]).setInputPort("Sense", sense);
          m.setInputPort("Sense", sense);
        }
        events.clear();
        if (rests && roll >= 15) {
          // Nothing arrives: the instance sleeps through the epoch.
        } else if (roll < 20) {
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
      mostAsleep = std::max(mostAsleep,
                            fleet.mergedMetrics().value("fleet.sleeping_instances"));
      // Reads of resting instances at a stretch's end credit them without
      // waking them.
      for (size_t i = 3; i < kInstances && epoch % 4 == 3; i += 4) {
        if (mirrors[i].machine == nullptr || !resting(i, epoch)) continue;
        expectSame(i);
        const machine::PscpMachine& got = std::as_const(fleet).machine(ids[i]);
        EXPECT_EQ(got.configurationCycles(), mirrors[i].machine->configurationCycles())
            << "instance " << i;
        EXPECT_EQ(got.totalCycles(), mirrors[i].machine->totalCycles()) << "instance " << i;
      }
    }
    for (size_t i = 0; i < kInstances; ++i)
      if (mirrors[i].machine != nullptr) expectSame(i);
    EXPECT_EQ(fleet.liveCount(), kInstances - 10);
    // The script must reach both sides of the memo: idle cycles it
    // answers, and event-free firings a CR write or a timer made possible;
    // and instances must have slept.
    EXPECT_GT(quiescent, static_cast<int64_t>(kInstances * kEpochs));
    EXPECT_GT(eventFreeFirings, static_cast<int64_t>(kInstances));
    EXPECT_GT(mostAsleep, 0) << "no instance slept: the test is vacuous";
  }
}

TEST_F(FleetTest, SleepersCrossInt32MaxSteps) {
  // A sleep can outlast INT32_MAX cycles, so the credit is int64 end to
  // end. Two armed instances go idle in Active with TICK timers and are
  // asleep before the first of three step(INT32_MAX) calls. One timer
  // matures inside the second step (1.5 steps of two-cycle quiescent
  // cycles), waking its sleeper there after INT32_MAX cycles asleep; the
  // other lies past all three steps, so its instance sleeps through them
  // and is credited three steps' cycles on the final read. Mirrors stepped
  // by the same calls must agree on every counter, the states and the
  // globals.
  constexpr int kMax = std::numeric_limits<int>::max();
  const int64_t periods[] = {3 * int64_t{kMax}, 16 * int64_t{kMax}};
  Fleet fleet(image_);
  const std::vector<int> go{fleet.eventId("GO")};
  const std::vector<int> none;
  machine::CycleStats stats;
  for (const int64_t period : periods) {
    const InstanceId id = fleet.spawn();
    fleet.setCondition(id, "ARMED", true);
    fleet.warmCycle(id, go);
    fleet.addTimer(id, "TICK", period);
  }
  std::vector<std::unique_ptr<machine::PscpMachine>> mirrors;
  std::vector<InstanceSnapshot> counts(2);
  for (const int64_t period : periods) {
    mirrors.push_back(std::make_unique<machine::PscpMachine>(image_));
    mirrors.back()->setCondition("ARMED", true);
    mirrors.back()->configurationCycleIds(go, &stats);
    mirrors.back()->addTimer("TICK", period);
  }
  int64_t mostAsleep = 0;
  // Two short epochs settle them (the first fires Init's pause), then
  // three long ones.
  for (const int cycles : {4, 4, kMax, kMax, kMax}) {
    fleet.step(cycles);
    mostAsleep = std::max(mostAsleep, fleet.mergedMetrics().value("fleet.sleeping_instances"));
    for (size_t i = 0; i < mirrors.size(); ++i) {
      mirrors[i]->configurationCycleIds(none, &stats, cycles);
      counts[i].machineCycles += stats.cycles;
      counts[i].configCycles += cycles;
      counts[i].quiescentCycles += stats.quiescentCycles;
      counts[i].firedTransitions += static_cast<int64_t>(stats.fired.size());
      counts[i].busStallCycles += stats.busStallCycles;
    }
  }
  EXPECT_EQ(mostAsleep, 2);
  int64_t configCycles = 0;
  for (size_t i = 0; i < mirrors.size(); ++i) {
    const InstanceSnapshot got = fleet.snapshot(i);
    EXPECT_EQ(counters(got), counters(counts[i])) << "instance " << i;
    EXPECT_EQ(got.activeStates, mirrors[i]->activeNames()) << "instance " << i;
    const machine::PscpMachine& m = std::as_const(fleet).machine(i);
    EXPECT_EQ(m.totalCycles(), mirrors[i]->totalCycles()) << "instance " << i;
    EXPECT_EQ(m.globalValue("count"), mirrors[i]->globalValue("count")) << "instance " << i;
    configCycles += got.configCycles;
  }
  EXPECT_GT(counts[0].firedTransitions, counts[1].firedTransitions)
      << "the near timer must fire";
  EXPECT_EQ(fleet.mergedMetrics().value("fleet.config_cycles"), configCycles);
}

TEST_F(FleetTest, AddTimerOnASleeperCountsFromItsCreditedClock) {
  // A timer's first maturity is read off the machine clock, so the fleet
  // credits a sleeper before adding one. An instance idle in Active sleeps
  // through a 100-cycle epoch; a 100-machine-cycle TICK timer added then
  // matures 50 cycles later, not at once, exactly as on a mirror.
  Fleet fleet(image_);
  const InstanceId id = fleet.spawn();
  machine::PscpMachine mirror(image_);
  const std::vector<int> go{fleet.eventId("GO")};
  const std::vector<int> none;
  machine::CycleStats stats;
  fleet.setCondition(id, "ARMED", true);
  fleet.warmCycle(id, go);
  mirror.setCondition("ARMED", true);
  mirror.configurationCycleIds(go, &stats);
  int64_t mirrorFired = 0;
  const auto stepBoth = [&](int cycles) {
    fleet.step(cycles);
    mirror.configurationCycleIds(none, &stats, cycles);
    mirrorFired += static_cast<int64_t>(stats.fired.size());
  };
  stepBoth(4);    // fires Init's pause
  stepBoth(100);  // fires nothing: the instance falls asleep after it
  stepBoth(100);  // asleep throughout, its 100 cycles not yet credited
  ASSERT_EQ(fleet.mergedMetrics().value("fleet.sleeping_instances"), 1);
  fleet.addTimer(id, "TICK", 100);
  mirror.addTimer("TICK", 100);
  for (const int cycles : {10, 30, 9, 1, 20}) {
    stepBoth(cycles);
    EXPECT_EQ(fleet.snapshot(id).firedTransitions, mirrorFired) << "after " << cycles;
  }
  EXPECT_EQ(std::as_const(fleet).machine(id).globalValue("count"),
            mirror.globalValue("count"));
  EXPECT_GT(mirrorFired, 1) << "the timer must have fired";
}

/// Counts the decodes it is shown.
class CountingObserver final : public obs::ObsSink {
 public:
  void onCycleBegin(int64_t, int64_t) override { ++decodes; }
  int64_t decodes = 0;
};

TEST_F(FleetTest, OnlyACreditableMachineSleeps) {
  // A machine can credit coming cycles only while its decode memo
  // answers the CR with nothing, no raised event is pending and no sink is attached; without a
  // timer the credit is unbounded, with one it ends at the maturity. A
  // fleet instance sleeps only after an epoch that fired nothing.
  machine::PscpMachine m(image_);
  const std::vector<int> none;
  machine::CycleStats stats;
  EXPECT_EQ(m.quiescentCredit(), 0) << "no decode has set the memo yet";
  m.configurationCycleIds(none, &stats);
  EXPECT_EQ(m.quiescentCredit(), std::numeric_limits<int64_t>::max());
  m.raiseEvent(m.eventId("STOP"));
  EXPECT_EQ(m.quiescentCredit(), 0) << "a pending event must be sampled";
  m.configurationCycleIds(none, &stats);
  m.addTimer("TICK", 9);
  EXPECT_EQ(m.quiescentCredit(), 5) << "quiescent cycles start 2 machine cycles apart";
  CountingObserver sink;
  m.setObsOptions({&sink});
  EXPECT_EQ(m.quiescentCredit(), 0) << "a sink is promised every decode";

  // In a fleet, an instance with a sink never sleeps: the sink sees every
  // cycle. Its idle neighbour sleeps; a raise through machine(id) wakes it.
  Fleet fleet(image_);
  const InstanceId watched = fleet.spawn();
  const InstanceId idle = fleet.spawn();
  CountingObserver observer;
  fleet.machine(watched).setObsOptions({&observer});
  for (int epoch = 0; epoch < 4; ++epoch) fleet.step(3);
  EXPECT_EQ(observer.decodes, 12);
  EXPECT_EQ(fleet.mergedMetrics().value("fleet.sleeping_instances"), 1);
  fleet.setCondition(idle, "ARMED", true);
  fleet.machine(idle).raiseEvent(fleet.eventId("GO"));
  fleet.step(2);
  EXPECT_TRUE(std::as_const(fleet).machine(idle).isActive("Counting"));
  // GO runs Init, which clears ARMED, so the watch region pauses next cycle.
  EXPECT_EQ(fleet.snapshot(idle).firedTransitions, 2);
}

TEST_F(FleetTest, JournalRecordsEachDeliveryOnce) {
  // A sleeper's drained scratch still holds the events of the last epoch
  // it was stepped in; the journal must log them for that epoch only.
  FleetConfig config;
  config.journal = true;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(3);
  fleet.inject(ids[1], fleet.eventId("TICK"));
  fleet.step(2);
  fleet.step(3);
  fleet.inject(ids[2], fleet.eventId("GO"));
  fleet.step(1);
  fleet.step(4);
  EXPECT_GT(fleet.mergedMetrics().value("fleet.sleeping_instances"), 0);
  std::vector<std::pair<int64_t, int64_t>> delivered;  // instance, epoch
  for (const obs::journal::Op& op : fleet.journal()->ops())
    if (op.kind == obs::journal::OpKind::kInject) delivered.emplace_back(op.instance, op.b);
  EXPECT_EQ(delivered, (std::vector<std::pair<int64_t, int64_t>>{{1, 1}, {2, 3}}));
}

/// Spin for `micros` in a signal handler: only clock_gettime, which is
/// async-signal-safe.
void spinFor(int64_t micros) {
  timespec start{};
  timespec now{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  do {
    clock_gettime(CLOCK_MONOTONIC, &now);
  } while ((now.tv_sec - start.tv_sec) * 1000000 + (now.tv_nsec - start.tv_nsec) / 1000 <
           micros);
}

TEST_F(FleetTest, InjectingIntoSleepersWhilePooledFleetStepsLosesNoEvent) {
  // A producer thread injects into sleeping instances while a 4-worker
  // fleet steps one-cycle epochs. A helper stalls the producer for 100 us
  // every 50 us at whatever instruction it is on (a signal whose handler
  // spins), the way preemption would, inside inject() too. Every event
  // must be delivered exactly once, and within two epochs of the one that
  // was running when its inject returned (the journal records arrival
  // epochs; the step's relaxed look at a wake word may pass its store of
  // the epoch number, hence two): a wake bit raised before the push would
  // let a stalled push land after its instance was stepped and went back
  // to sleep, and the event would wait for the producer's next pass over
  // that instance, or for ever after its last.
  // GO selects nothing while ARMED is clear, so each delivery puts its
  // instance straight back to sleep.
  constexpr size_t kInstances = 128;
  constexpr int kPasses = 24;
  FleetConfig config;
  config.workerThreads = 4;
  config.journal = true;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(kInstances);
  fleet.step(1);
  fleet.step(1);
  ASSERT_EQ(fleet.mergedMetrics().value("fleet.sleeping_instances"),
            static_cast<int64_t>(kInstances));
  const int go = fleet.eventId("GO");

  struct sigaction stall{};
  struct sigaction previous{};
  stall.sa_handler = [](int) { spinFor(100); };
  sigemptyset(&stall.sa_mask);
  ASSERT_EQ(sigaction(SIGUSR1, &stall, &previous), 0);

  // Written by the producer only, read after it joins.
  std::vector<std::vector<int64_t>> returnedIn(kInstances);
  int64_t injected = 0;
  int64_t refused = 0;
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (size_t k = 0; k < kInstances; ++k) {
        const size_t i = (k * 37 + static_cast<size_t>(pass)) % kInstances;
        ++injected;
        if (fleet.inject(ids[i], go))
          returnedIn[i].push_back(fleet.epochs());
        else
          ++refused;
        spinFor(1);  // a pass spans many epochs
      }
    }
    done.store(true, std::memory_order_release);
  });
  const pthread_t target = producer.native_handle();
  std::thread staller([&] {
    while (!done.load(std::memory_order_acquire)) {
      pthread_kill(target, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  while (!done.load(std::memory_order_acquire)) fleet.step(1);
  staller.join();
  producer.join();
  sigaction(SIGUSR1, &previous, nullptr);
  fleet.step(1);
  fleet.step(1);

  const obs::MetricsRegistry merged = fleet.mergedMetrics();
  EXPECT_EQ(merged.value("fleet.events_delivered") + merged.value("fleet.events_dropped"),
            injected);
  EXPECT_EQ(merged.value("fleet.events_dropped"), refused);
  EXPECT_EQ(merged.value("fleet.sleeping_instances"), static_cast<int64_t>(kInstances));
  std::vector<size_t> next(kInstances, 0);
  int64_t late = 0;
  for (const obs::journal::Op& op : fleet.journal()->ops()) {
    if (op.kind != obs::journal::OpKind::kInject) continue;
    const size_t i = static_cast<size_t>(op.instance);
    ASSERT_LT(next[i], returnedIn[i].size()) << "instance " << i << " got an extra event";
    if (op.b > returnedIn[i][next[i]] + 2) ++late;
    ++next[i];
  }
  for (size_t i = 0; i < kInstances; ++i)
    EXPECT_EQ(next[i], returnedIn[i].size()) << "instance " << i << " lost an event";
  EXPECT_EQ(late, 0) << "events waited in a sleeper's queue";
}

// Eight workers and three awake instances leave most ranges empty; the
// run must match one worker's, through epochs where every instance sleeps.
TEST_F(FleetTest, MoreWorkersThanAwakeInstancesMatchesOneWorker) {
  constexpr size_t kInstances = 24;
  const auto run = [&](int workers) {
    FleetConfig config;
    config.workerThreads = workers;
    config.capturePortWrites = true;
    Fleet fleet(image_, config);
    const std::vector<InstanceId> ids = fleet.spawnMany(kInstances);
    fleet.step(1);  // steps every instance, then puts it to sleep
    fleet.step(1);
    EXPECT_EQ(fleet.mergedMetrics().value("fleet.sleeping_instances"),
              static_cast<int64_t>(kInstances));
    for (int epoch = 0; epoch < 16; ++epoch) {
      if (epoch < 10) {
        // Three instances, spread over the id space, take GO and TICKs and
        // leave through STOP, which writes their count to the Drive port.
        for (size_t k = 0; k < 3; ++k) {
          const InstanceId id = ids[(k * 9 + static_cast<size_t>(epoch) * 5) % kInstances];
          fleet.setCondition(id, "ARMED", true);
          fleet.setInputPort(id, "Sense", static_cast<uint32_t>(1 + k));
          fleet.injectByName(id, "GO");
          fleet.injectByName(id, "TICK");
          fleet.injectByName(id, "STOP");
        }
      }
      fleet.step(2);
      // Awake: this epoch's three and the last epoch's, which fired.
      const int64_t sleeping = fleet.mergedMetrics().value("fleet.sleeping_instances");
      if (epoch < 10) {
        EXPECT_GE(sleeping, static_cast<int64_t>(kInstances - 6));
      } else if (epoch >= 12) {
        EXPECT_EQ(sleeping, static_cast<int64_t>(kInstances));
      }
    }
    ScriptedRun result;
    for (InstanceId id : ids) {
      result.portLogs.push_back(fleet.portWrites(id));
      result.snapshots.push_back(fleet.snapshot(id));
    }
    return result;
  };
  expectSameRun(run(8), run(1), "8 workers");
}

TEST_F(FleetTest, StepWithoutCyclesIsAnError) {
  Fleet fleet(image_);
  fleet.spawn();
  fleet.step(1);
  for (const int cycles : {0, -3}) {
    try {
      fleet.step(cycles);
      ADD_FAILURE() << "step(" << cycles << ") was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(strfmt("step(%d)", cycles)), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(fleet.epochs(), 1);
  }
  fleet.step(1);
  EXPECT_EQ(fleet.snapshot(0).configCycles, 2);
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

// Rejected before the fleet allocates a counter block or starts a thread;
// no accepted count above the tests' usual few is ever tried.
TEST_F(FleetTest, WorkerThreadsAboveTheMaximumIsAnError) {
  for (const int workers : {kMaxWorkerThreads + 1, INT_MAX}) {
    FleetConfig config;
    config.workerThreads = workers;
    try {
      Fleet fleet(image_, config);
      ADD_FAILURE() << workers << " worker threads were accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), "fleet: " + std::to_string(workers) +
                                           " worker threads exceeds the maximum of 1024");
    }
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
  // The check throws before the cycle touches any state, so the machine
  // is not latched: it keeps stepping.
  EXPECT_FALSE(m.faulted());
  EXPECT_TRUE(fleet.inject(id, fleet.eventId("GO")));
  fleet.step(1);
  EXPECT_EQ(fleet.snapshot(id).eventsDelivered, 1);
  EXPECT_EQ(fleet.snapshot(id).configCycles, cyclesBefore + 1);
}

// ----------------------------------------------------------------- memos

/// An SMD fleet warmed into Moving and driven by a per-instance LCG: each
/// epoch an instance gets an X/Y pulse pair, one of them, all three axes'
/// pulses, or nothing, so its TATs vary in routines and in timing (the
/// velocity profile changes DeltaT's path).
class SmdScriptFleet {
 public:
  SmdScriptFleet(const Fleet::ChartImagePtr& image, int workers, size_t instances)
      : fleet_(image, config(workers)) {
    const workloads::SmdPulseIds pulses = workloads::resolveSmdPulseIds(fleet_);
    EXPECT_TRUE(workloads::warmUpSmdFleet(fleet_, instances, pulses));
    events_ = {pulses.xPulse, pulses.yPulse, fleet_.eventId("PHI_PULSE")};
    rng_.resize(instances);
    for (size_t i = 0; i < instances; ++i) rng_[i] = 0x2545F4914F6CDD1Dull * (i + 1);
  }

  void step() {
    for (size_t i = 0; i < rng_.size(); ++i) {
      uint64_t& s = rng_[i];
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      const uint32_t roll = static_cast<uint32_t>(s >> 33) % 100;
      const InstanceId id = i;
      if (roll < 65 || roll >= 90) fleet_.inject(id, events_[0]);
      if (roll < 50 || roll >= 80) fleet_.inject(id, events_[1]);
      if (roll >= 90) fleet_.inject(id, events_[2]);
    }
    fleet_.step(4);
  }

  [[nodiscard]] ScriptedRun capture() const {
    ScriptedRun run;
    for (InstanceId id = 0; id < rng_.size(); ++id) {
      run.portLogs.push_back(fleet_.portWrites(id));
      run.snapshots.push_back(fleet_.snapshot(id));
    }
    return run;
  }

  [[nodiscard]] int64_t metric(const char* name) const {
    return fleet_.mergedMetrics().value(name);
  }

 private:
  static FleetConfig config(int workers) {
    FleetConfig c;
    c.workerThreads = workers;
    c.capturePortWrites = true;
    return c;
  }

  Fleet fleet_;
  std::vector<int> events_;
  std::vector<uint64_t> rng_;
};

/// Both memos must have answered: no memo test passes without hits.
void expectMemoHits(const SmdScriptFleet& fleet) {
  EXPECT_GT(fleet.metric("fleet.decode_memo_hits"), 0);
  EXPECT_LE(fleet.metric("fleet.decode_memo_hits"), fleet.metric("fleet.decodes"));
  EXPECT_LE(fleet.metric("fleet.schedule_replays"), fleet.metric("fleet.lockstep_runs"));
  if (tep::jit::jitBackendAvailable() && fleet.metric("fleet.jit_native_routines") > 0) {
    EXPECT_GT(fleet.metric("fleet.schedule_replays"), 0);
  }
}

// The schedule memo lives per thread and is keyed on timing alone, so one
// thread stepping fleets over two images (SMD at 2 and at 3 TEPs) in turn
// shares it between them. Each fleet must step exactly as it does alone.
TEST(FleetMemo, TwoImagesSteppedInTurnMatchEachSteppedAlone) {
  const Fleet::ChartImagePtr images[2] = {workloads::makeSmdFleetImage(2),
                                          workloads::makeSmdFleetImage(3)};
  constexpr size_t kInstances = 12;
  constexpr int kEpochs = 60;
  ScriptedRun alone[2];
  for (int f = 0; f < 2; ++f) {
    SmdScriptFleet fleet(images[f], 1, kInstances);
    for (int e = 0; e < kEpochs; ++e) fleet.step();
    alone[f] = fleet.capture();
  }
  SmdScriptFleet a(images[0], 1, kInstances);
  SmdScriptFleet b(images[1], 1, kInstances);
  for (int e = 0; e < kEpochs; ++e) {
    a.step();
    b.step();
  }
  expectSameRun(a.capture(), alone[0], "2 TEPs, in turn");
  expectSameRun(b.capture(), alone[1], "3 TEPs, in turn");
  expectMemoHits(a);
  expectMemoHits(b);
}

// Pooled workers each keep their own schedule memo; a busy fleet at 4
// workers must match the same fleet at 1.
TEST(FleetMemo, BusyPooledFleetMatchesOneWorker) {
  const Fleet::ChartImagePtr image = workloads::makeSmdFleetImage(2);
  constexpr size_t kInstances = 40;
  SmdScriptFleet inline1(image, 1, kInstances);
  SmdScriptFleet pooled(image, 4, kInstances);
  for (int e = 0; e < 40; ++e) {
    inline1.step();
    pooled.step();
  }
  expectSameRun(pooled.capture(), inline1.capture(), "4 workers");
  expectMemoHits(pooled);
}

// ----------------------------------------------------------------- faults

/// A Div fleet of `instances`, each with GO queued, the ones in `zeros`
/// dividing by zero.
std::unique_ptr<Fleet> divFleet(FleetConfig config, size_t instances,
                                const std::vector<InstanceId>& zeros) {
  auto fleet = std::make_unique<Fleet>(testcharts::divImage(), config);
  for (InstanceId id : fleet->spawnMany(instances)) {
    const bool zero = std::find(zeros.begin(), zeros.end(), id) != zeros.end();
    fleet->setInputPort(id, "Den", zero ? 0u : 5u);
    fleet->injectByName(id, "GO");
  }
  return fleet;
}

/// The text step() throws, or "" when it returns.
std::string stepError(Fleet& fleet, int cycles) {
  try {
    fleet.step(cycles);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

// A runtime fault escapes the inline epoch that hit it; the faulted
// machine is latched, so the next epoch fails at once with the latch
// diagnostic naming the cycle that faulted.
TEST(FleetFault, StepAfterAFaultFailsWithTheLatchDiagnostic) {
  const std::unique_ptr<Fleet> fleet = divFleet({}, 4, {2});
  try {
    fleet->step(2);
    ADD_FAILURE() << "the division by zero did not escape the epoch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("division by zero"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(std::as_const(*fleet).machine(2).faulted());
  for (InstanceId id = 0; id < 4; ++id) fleet->injectByName(id, "GO");
  try {
    fleet->step(2);
    ADD_FAILURE() << "the faulted instance stepped again";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "PSCP: the machine faulted in configuration cycle 0 and steps no further");
  }
}

// Whichever worker steps the faulting instance, its error reaches the
// caller of step(), and the fleet stays usable for the latch and for its
// own destruction.
TEST(FleetFault, PooledStepThrowsTheInstanceError) {
  for (const int workers : {1, 2, 8}) {
    FleetConfig config;
    config.workerThreads = workers;
    const std::unique_ptr<Fleet> fleet = divFleet(config, 8, {3});
    const std::string what = stepError(*fleet, 2);
    EXPECT_NE(what.find("TEP0: division by zero at PC 8"), std::string::npos)
        << workers << " workers: " << what;
    EXPECT_EQ(fleet->epochs(), 1);
    EXPECT_TRUE(std::as_const(*fleet).machine(3).faulted());
    EXPECT_EQ(stepError(*fleet, 2),
              "PSCP: the machine faulted in configuration cycle 0 and steps no further")
        << workers << " workers";
  }
}

// step() rethrows only after every worker has finished the epoch. The
// ranges of 8 instances on 2 workers are [0, 4) and [4, 8), each claimed
// as one chunk; the fault sits in one range and the other range's worker
// starts late. With the fault in worker 0's range, the stalled helper's
// range is stepped by the time the error arrives; with it in the helper's
// range and worker 0 stalled, the helper's error is the one step() throws.
TEST(FleetFault, EveryWorkerFinishesBeforeTheErrorIsRethrown) {
  for (const int stalled : {1, 0}) {
    FleetConfig config;
    config.workerThreads = 2;
    config.telemetry = true;
    config.debugStallShard = stalled;
    config.debugStallMicros = 20000;
    const std::unique_ptr<Fleet> fleet = divFleet(config, 8, {stalled == 1 ? 0u : 5u});
    EXPECT_NE(stepError(*fleet, 2).find("division by zero"), std::string::npos)
        << "stalled worker " << stalled;
    const InstanceId rangeBegin = 4 * static_cast<InstanceId>(stalled);
    for (InstanceId id = rangeBegin; id < rangeBegin + 4; ++id)
      EXPECT_EQ(fleet->snapshot(id).configCycles, 2)
          << "instance " << id << ", stalled worker " << stalled;
  }
}

// ---------------------------------------------------------------- barrier

// A helper checks in only after its epoch: step() returns with every
// worker's counters flushed and no epoch in flight, even when one helper
// starts each epoch late.
TEST_F(FleetTest, StepReturnsAfterEveryWorkerFinishedItsEpoch) {
  constexpr int kWorkers = 4;
  FleetConfig config;
  config.workerThreads = kWorkers;
  config.telemetry = true;
  config.debugStallShard = kWorkers - 1;
  config.debugStallMicros = 2000;
  Fleet fleet(image_, config);
  const std::vector<InstanceId> ids = fleet.spawnMany(16);
  for (InstanceId id : ids) fleet.setCondition(id, "ARMED", true);
  for (int epoch = 1; epoch <= 6; ++epoch) {
    for (InstanceId id : ids) fleet.injectByName(id, epoch == 1 ? "GO" : "TICK");
    fleet.step(2);
    EXPECT_EQ(fleet.mergedMetrics().value("fleet.epoch_tasks"), kWorkers * epoch);
    const obs::FleetHealth health = fleet.healthSnapshot();
    for (const obs::ShardHealth& shard : health.shards) {
      EXPECT_EQ(shard.epochs, epoch) << "worker " << shard.shard;
      EXPECT_EQ(shard.inFlightNanos, 0) << "worker " << shard.shard;
    }
  }
}

// Helpers start at construction and stop at destruction, with or without
// an epoch in between, and after an epoch that threw.
TEST(FleetBarrier, EightWorkerFleetsShutDown) {
  FleetConfig config;
  config.workerThreads = 8;
  { Fleet idle(testcharts::divImage(), config); }
  const std::unique_ptr<Fleet> faulted = divFleet(config, 8, {6});
  EXPECT_NE(stepError(*faulted, 1), "");
}

}  // namespace
}  // namespace pscp::fleet
