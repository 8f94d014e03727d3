// Steady-state allocation audit: after warm-up, stepping a PscpMachine
// through configurationCycleIds(events, &stats) must never touch the heap
// — that is what lets a fleet worker pool step thousands of instances
// without serializing on the allocator.
//
// This TU replaces the global operator new/delete with counting versions
// (forwarding to malloc/free, so behaviour is unchanged for the whole
// test binary) and asserts a delta of zero across 1000 hot cycles. The
// byte counter bounds what spawning a machine costs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd_fleet.hpp"

namespace {
std::atomic<uint64_t> gAllocations{0};
std::atomic<uint64_t> gAllocatedBytes{0};

void count(std::size_t size) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  gAllocatedBytes.fetch_add(size, std::memory_order_relaxed);
}

void* countedAlloc(std::size_t size) {
  count(size);
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* countedAlignedAlloc(std::size_t size, std::size_t alignment) {
  count(size);
  if (size == 0) size = alignment;
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  count(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pscp::machine {
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

TEST(SteadyStateAllocations, HotCycleLoopIsAllocationFree) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;

  PscpMachine machine(chart, actions, arch);
  machine.setCondition("ARMED", true);
  machine.setInputPort("Sense", 0);  // keep count at 0 so OVERFLOW never fires

  const std::vector<int> goEvent{machine.eventId("GO")};
  const std::vector<int> tickEvent{machine.eventId("TICK")};
  CycleStats stats;

  // Warm-up: enter the AND-state and run the TICK hot path until every
  // lazily-grown buffer (scratch vectors, microcode caches, condition
  // caches, fired lists) has reached steady-state capacity.
  machine.configurationCycleIds(goEvent, &stats);
  for (int i = 0; i < 64; ++i) {
    machine.configurationCycleIds(tickEvent, &stats);
    machine.clearPortWrites();
  }
  ASSERT_TRUE(machine.isActive("Counting")) << "warm-up must stay in Active";
  ASSERT_EQ(stats.fired.size(), 2u) << "both TICK self-loops must fire";

  const int64_t nativeBefore = machine.jitNativeRuns();
  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    machine.configurationCycleIds(tickEvent, &stats);
    machine.clearPortWrites();
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "steady-state configuration cycles must not allocate";
  EXPECT_GT(machine.globalValue("watchTicks"), 1000);
  // The TICK pair is hazard-free, so under the native tier both routines
  // run ahead and the lockstep loop replays them: the window above covers
  // the replay, not just the interpreter.
  if (tep::jit::jitBackendAvailable() && machine.jitMode() != tep::jit::JitMode::kOff) {
    EXPECT_EQ(machine.jitNativeRuns() - nativeBefore, 2000);
  }

  // The k-cycle form: idle epochs of 16 cycles, collapsed by the
  // decode memo's empty case until a TICK timer matures mid-stretch and cuts the
  // collapse short with a decode that fires both self-loops.
  const std::vector<int> noEvents;
  const int64_t tickCycles = stats.cycles;  // one TICK cycle, both routines
  machine.addTimer("TICK", 4 * tickCycles);
  for (int i = 0; i < 64; ++i) {
    machine.configurationCycleIds(noEvents, &stats, 16);
    machine.clearPortWrites();
  }
  const int64_t watchTicksBefore = machine.globalValue("watchTicks");
  int64_t quiescentCycles = 0;
  const uint64_t epochsBefore = gAllocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    machine.configurationCycleIds(noEvents, &stats, 16);
    machine.clearPortWrites();
    quiescentCycles += stats.quiescentCycles;
  }
  const uint64_t epochsAfter = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(epochsAfter - epochsBefore, 0u)
      << "steady-state k-cycle calls must not allocate";
  EXPECT_GT(machine.globalValue("watchTicks") - watchTicksBefore, 100)
      << "the timer must cut collapses short";
  EXPECT_GT(quiescentCycles, 1000 * 8) << "most cycles must be collapsed";
}

// The fleet epoch loop holds the same bar — including with the telemetry
// plane armed: metric flushes go through cached registry pointers (no
// string-keyed lookups), flight-ring pushes are fixed-slot stores, and
// health updates are plain atomics. One worker, stepped inline, so every
// allocation in the loop is attributable to the fleet hot path.
TEST(SteadyStateAllocations, FleetEpochLoopIsAllocationFreeWhenArmed) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;
  const auto image = std::make_shared<const ChartImage>(chart, actions, arch);

  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.telemetry = true;
  fleet::Fleet f(image, config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(16);
  const int go = f.eventId("GO");
  const int tick = f.eventId("TICK");
  for (fleet::InstanceId id : ids) {
    f.machine(id).setCondition("ARMED", true);
    f.machine(id).setInputPort("Sense", 0);
    f.inject(id, go);
  }
  // Warm-up epochs grow every lazily-sized buffer to steady state.
  f.step(1);
  for (int e = 0; e < 32; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }

  const auto& ring = f.flightRecorder()->ring(0);
  const uint64_t pushedBefore = ring.pushed();
  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 0; e < 200; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "armed fleet epochs must not allocate in steady state";
  EXPECT_GT(ring.pushed(), 200u);
  EXPECT_GT(ring.pushed() - pushedBefore, ring.capacity())
      << "the measured epochs must lap the flight ring";
}

// Both memos hold the bar across images: the cycle scratch and the schedule
// memo are per thread, so one thread stepping SMD fleets at 2 and at 3 TEPs
// in turn resizes them between images, within the capacity warm-up grew.
TEST(SteadyStateAllocations, TwoImagesSteppedInTurnAreAllocationFree) {
  fleet::Fleet fleets[2] = {fleet::Fleet(workloads::makeSmdFleetImage(2)),
                            fleet::Fleet(workloads::makeSmdFleetImage(3))};
  workloads::SmdPulseIds pulses[2];
  int phi[2] = {0, 0};
  for (int f = 0; f < 2; ++f) {
    pulses[f] = workloads::resolveSmdPulseIds(fleets[f]);
    phi[f] = fleets[f].eventId("PHI_PULSE");
    ASSERT_TRUE(workloads::warmUpSmdFleet(fleets[f], 8, pulses[f]));
  }
  // Every third instance-epoch adds a PHI pulse: three routines, which the
  // 2-TEP image runs in two rounds and the 3-TEP image in one.
  const auto epoch = [&](int e) {
    for (int f = 0; f < 2; ++f) {
      for (fleet::InstanceId id = 0; id < 8; ++id) {
        fleets[f].inject(id, pulses[f].xPulse);
        fleets[f].inject(id, pulses[f].yPulse);
        if ((static_cast<int>(id) + e) % 3 == 0) fleets[f].inject(id, phi[f]);
      }
      fleets[f].step(4);
    }
  };
  for (int e = 0; e < 100; ++e) epoch(e);

  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 100; e < 400; ++e) epoch(e);
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "fleets over two images stepped in turn must not allocate";
  for (const fleet::Fleet& f : fleets) {
    const obs::MetricsRegistry merged = f.mergedMetrics();
    EXPECT_GT(merged.value("fleet.decode_memo_hits"), 0);
    if (merged.value("fleet.jit_native_routines") > 0) {
      EXPECT_GT(merged.value("fleet.schedule_replays"), 0);
    }
  }
}

// The record/replay journal holds the bar too: armed appends are plain
// pushes into vectors reserved at construction, checkpoints write into
// the flat CR-word arena, and all of it happens on the control thread
// after the epoch barrier — zero allocations across the measured loop,
// checkpoints included.
TEST(SteadyStateAllocations, FleetEpochLoopIsAllocationFreeWithJournalArmed) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;
  const auto image = std::make_shared<const ChartImage>(chart, actions, arch);

  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.journal = true;
  config.journalConfig.checkpointInterval = 4;  // checkpoints inside the loop
  fleet::Fleet f(image, config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(16);
  const int go = f.eventId("GO");
  const int tick = f.eventId("TICK");
  for (fleet::InstanceId id : ids) {
    f.setCondition(id, "ARMED", true);
    f.setInputPort(id, "Sense", 0u);
    f.inject(id, go);
  }
  f.step(1);
  for (int e = 0; e < 32; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }

  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 0; e < 200; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(2);
  }
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u)
      << "journal-armed fleet epochs must not allocate in steady state";
  // The loop actually recorded: injects, steps, and periodic checkpoints.
  ASSERT_NE(f.journal(), nullptr);
  EXPECT_GT(f.journal()->ops().size(), 200u * 17u);
  EXPECT_GE(f.journal()->checkpointCount(), 50u);
}

// Sleeping holds the bar too: a telemetry- and journal-armed fleet whose
// instances sleep, wake by their timers and wake by sparse injections
// steps 1000 epochs without allocating. The step lists and the calendar
// are sized when the shards are built. Instance 0 has a far timer and a
// TICK every other epoch, so it fires, sleeps after the next epoch and is
// woken again, and each sleep supersedes its calendar entry: the calendar
// drops superseded entries in place instead of growing.
TEST(SteadyStateAllocations, SleepingFleetEpochsAreAllocationFreeWhenArmed) {
  const statechart::Chart chart = statechart::parseChart(kChart);
  const actionlang::Program actions = actionlang::parseActionSource(kActions);
  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.hasComparator = true;
  arch.registerFileSize = 12;
  const auto image = std::make_shared<const ChartImage>(chart, actions, arch);

  fleet::FleetConfig config;
  config.workerThreads = 1;
  config.telemetry = true;
  config.journal = true;
  fleet::Fleet f(image, config);
  const std::vector<fleet::InstanceId> ids = f.spawnMany(16);
  const int go = f.eventId("GO");
  const int tick = f.eventId("TICK");
  for (fleet::InstanceId id : ids) {
    f.setCondition(id, "ARMED", true);
    f.setInputPort(id, "Sense", 0u);
    f.inject(id, go);
    if (id % 4 == 0)
      f.addTimer(id, "TICK", id == 0 ? int64_t{1} << 40 : 37 + 8 * static_cast<int64_t>(id));
  }
  // Sparse: one instance in three epochs gets a TICK, round robin.
  int64_t epoch = 0;
  const auto stepSparse = [&] {
    if (epoch % 2 == 0) f.inject(ids[0], tick);
    if (epoch % 3 == 0) f.inject(ids[static_cast<size_t>(epoch / 3) % ids.size()], tick);
    f.step(1 + static_cast<int>(epoch % 7));
    ++epoch;
  };
  // Warm-up grows every buffer to steady state: first TICKs into every
  // instance in every epoch, so timers also mature in cycles that sample
  // an injection, then one period of the sparse pattern.
  for (int e = 0; e < 336; ++e) {
    for (fleet::InstanceId id : ids) f.inject(id, tick);
    f.step(1 + e % 7);
  }
  for (int e = 0; e < 336; ++e) stepSparse();
  const int64_t timedTicks = f.machine(ids[4]).globalValue("watchTicks");

  const int64_t steppedBefore = f.healthSnapshot().shards[0].instancesStepped;
  const uint64_t before = gAllocations.load(std::memory_order_relaxed);
  for (int e = 0; e < 1000; ++e) stepSparse();
  const uint64_t after = gAllocations.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u) << "sleeping fleet epochs must not allocate";
  EXPECT_LT(f.healthSnapshot().shards[0].instancesStepped - steppedBefore, 16 * 1000 / 3)
      << "the idle instances must sleep";
  // Instance 4 is injected every 48 epochs; its timer fires far more often.
  EXPECT_GT(f.machine(ids[4]).globalValue("watchTicks") - timedTicks, 100)
      << "timers must wake their sleepers";
}

const char* kFarPortChart = R"chart(
chart FarPort;
event GO;
port Far data out width 16 address 0x4000000;

orstate Top { contains Idle, Sent; default Idle; }
basicstate Idle { transition { target Sent; label "GO/Emit()"; } }
basicstate Sent { transition { target Idle; label "GO"; } }
)chart";

// Ports take one slot per declared address, so a port at a far bus
// address costs four bytes, not an array reaching up to the address:
// spawning a machine over the image and running the routine that writes
// the port stays under a megabyte.
TEST(SteadyStateAllocations, FarPortAddressCostsOnePortSlot) {
  const statechart::Chart chart = statechart::parseChart(kFarPortChart);
  const actionlang::Program actions =
      actionlang::parseActionSource("void Emit() { write_port(Far, 0x1234); }");
  const auto image = std::make_shared<const ChartImage>(chart, actions, hwlib::ArchConfig{});

  const uint64_t before = gAllocatedBytes.load(std::memory_order_relaxed);
  {
    PscpMachine machine(image);
    machine.configurationCycleIds({machine.eventId("GO")});
    EXPECT_EQ(machine.outputPort("Far"), 0x1234u);
  }
  const uint64_t bytes = gAllocatedBytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(bytes, uint64_t{1} << 20) << bytes << " bytes";
}

// An instance's data memory is sized from the compiled layout (SMD uses
// 688 B of internal RAM per TEP and 113 B of external RAM), so spawning a
// machine over a built image stays far below the three 16 KB banks a
// fixed-size memory would take.
TEST(SteadyStateAllocations, SmdMachineSpawnIsSizedFromTheLayout) {
  const auto image = workloads::makeSmdFleetImage();
  const uint64_t before = gAllocatedBytes.load(std::memory_order_relaxed);
  { const PscpMachine machine(image); }
  const uint64_t bytes = gAllocatedBytes.load(std::memory_order_relaxed) - before;
  EXPECT_LT(bytes, uint64_t{8} << 10) << bytes << " bytes";
}

// A bank's tail past the layout is allocated once, by the first write
// there; reads of unwritten tail bytes see 0 and allocate nothing.
TEST(SteadyStateAllocations, TailIsAllocatedOnItsFirstWrite) {
  tep::DataMemory memory(2, 0x100, 0x10);
  for (const int32_t tail : {0x100, tep::kExternalBase + 0x10}) {
    SCOPED_TRACE(tail);
    const uint64_t reads = gAllocations.load(std::memory_order_relaxed);
    EXPECT_EQ(memory.read(1, tail + 5), 0);
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed) - reads, 0u);

    const uint64_t first = gAllocations.load(std::memory_order_relaxed);
    memory.write(1, tail, 0xAB);
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed) - first, 1u);

    const uint64_t later = gAllocations.load(std::memory_order_relaxed);
    memory.write(1, tail + 1, 0xCD);
    memory.write(1, tail + 0x80, 0xEF);
    EXPECT_EQ(memory.read(1, tail), 0xAB);
    EXPECT_EQ(memory.read(1, tail + 0x80), 0xEF);
    EXPECT_EQ(gAllocations.load(std::memory_order_relaxed) - later, 0u);
  }
  // TEP 1's internal tail is its own; the external one is shared.
  EXPECT_EQ(memory.read(0, 0x100), 0);
  EXPECT_EQ(memory.read(0, tep::kExternalBase + 0x10), 0xAB);
}

}  // namespace
}  // namespace pscp::machine
