// Whole-machine tests: the cycle-accurate PSCP must agree with the
// specification-level ReferenceSystem on every observable, across event
// traces, TEP counts, and optimization levels.
#include <gtest/gtest.h>

#include "actionlang/parser.hpp"
#include "core/system.hpp"
#include "pscp/machine.hpp"
#include "pscp/sched_cost.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::machine {
namespace {

using compiler::CompileOptions;

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

// Bump() and Watch() run on different TEPs in the same configuration
// cycle, so they deliberately touch disjoint globals (the designer rule
// the paper's mutual-exclusion decode logic exists to enforce).
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

struct Harness {
  statechart::Chart chart;
  actionlang::Program actions;
  core::ReferenceSystem ref;
  PscpMachine machine;

  explicit Harness(const hwlib::ArchConfig& arch, CompileOptions options = {})
      : chart(statechart::parseChart(kChart)),
        actions(actionlang::parseActionSource(kActions)),
        ref(chart, actions),
        machine(chart, actions, arch, options) {}

  void syncPorts(uint32_t sense) {
    ref.setInputPort("Sense", sense);
    machine.setInputPort("Sense", sense);
  }

  void arm() {
    ref.forceCondition("ARMED", true);
    machine.setCondition("ARMED", true);
  }

  /// Step both and assert all observables agree.
  void stepBoth(const std::set<std::string>& events) {
    const auto refResult = ref.step(events);
    const auto machResult = machine.configurationCycle(events);
    ASSERT_EQ(ref.activeNames(), machine.activeNames()) << trace_;
    // Fired transitions as sets (dispatch order may differ).
    std::set<int> refFired(refResult.fired.begin(), refResult.fired.end());
    std::set<int> machFired(machResult.fired.begin(), machResult.fired.end());
    ASSERT_EQ(refFired, machFired) << trace_;
    for (const auto& [name, decl] : chart.conditions())
      ASSERT_EQ(ref.conditionValue(name), machine.conditionValue(name))
          << name << " " << trace_;
    for (const char* g : {"count", "watchTicks", "highWater"})
      ASSERT_EQ(ref.globalValue(g), machine.globalValue(g)) << g << " " << trace_;
    ASSERT_EQ(ref.outputPort("Drive"), machine.outputPort("Drive")) << trace_;
    trace_ += "|";
    for (const auto& e : events) trace_ += e + ",";
  }

  std::string trace_ = "";
};

hwlib::ArchConfig archOf(int width, bool md, int teps) {
  hwlib::ArchConfig c;
  c.dataWidth = width;
  c.hasMulDiv = md;
  c.numTeps = teps;
  return c;
}

TEST(PscpMachineBasics, InitialConfigurationMatchesChartDefaults) {
  Harness h(archOf(16, true, 1));
  EXPECT_TRUE(h.machine.isActive("IdleS"));
  EXPECT_FALSE(h.machine.isActive("Active"));
}

TEST(PscpMachineBasics, GuardBlocksUntilArmed) {
  Harness h(archOf(16, true, 1));
  auto r = h.machine.configurationCycle({"GO"});
  EXPECT_TRUE(r.quiescent);
  h.arm();
  r = h.machine.configurationCycle({"GO"});
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_TRUE(h.machine.isActive("Counting"));
  EXPECT_TRUE(h.machine.isActive("Watching"));
  // Init() ran on a TEP: count reset and ARMED cleared via condition cache.
  EXPECT_EQ(h.machine.globalValue("count"), 0);
  EXPECT_FALSE(h.machine.conditionValue("ARMED"));
}

TEST(PscpMachineBasics, CycleCostsAreAccounted) {
  Harness h(archOf(16, true, 1));
  h.arm();
  const auto quiet = h.machine.configurationCycle({});
  EXPECT_TRUE(quiet.quiescent);
  EXPECT_EQ(quiet.cycles, kSlaEvaluateCycles);
  const auto busy = h.machine.configurationCycle({"GO"});
  EXPECT_GT(busy.cycles, cycleOverhead(h.machine.arch(), 1));
}

TEST(PscpMachineBasics, EventsRaisedByTepsFireNextCycle) {
  Harness h(archOf(16, true, 1));
  h.arm();
  h.machine.configurationCycle({"GO"});
  h.machine.setInputPort("Sense", 150);
  h.machine.configurationCycle({"TICK"});  // count = 150
  EXPECT_TRUE(h.machine.isActive("Counting"));
  h.machine.configurationCycle({"TICK"});  // count = 300 -> raises OVERFLOW
  EXPECT_EQ(h.machine.globalValue("count"), 300);
  const auto r = h.machine.configurationCycle({});  // OVERFLOW latched in CR
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_TRUE(h.machine.isActive("IdleS"));
}

TEST(PscpMachineBasics, PortWritesReachTheBus) {
  Harness h(archOf(16, true, 1));
  h.arm();
  h.machine.configurationCycle({"GO"});
  h.machine.setInputPort("Sense", 42);
  h.machine.configurationCycle({"TICK"});
  h.machine.configurationCycle({"STOP"});  // Report(): Drive <- count
  EXPECT_EQ(h.machine.outputPort("Drive"), 42u);
}

const char* kInStateChart = R"chart(
chart InState;
event GO;
port Seen data out width 8 address 0x30;

andstate Top {
  orstate Left { contains Holding, Released; default Holding; }
  orstate Right { contains Waiting, Probed; default Waiting; }
}
basicstate Holding { transition { target Released; label "GO/Leave()"; } }
basicstate Released {}
basicstate Waiting { transition { target Probed; label "GO/Probe()"; } }
basicstate Probed {}
)chart";

const char* kInStateActions = R"code(
uint:8 left;
int:16 spin;

void Leave() { left = 1; }

// Spins first, so Leave() has retired on any TEP count before this asks
// whether Holding, the state Leave's transition exits, is active.
void Probe() {
  int:16 i = 0;
  while (i < 4) bound 4 { spin = spin + i; i = i + 1; }
  if (in_state(Holding)) { write_port(Seen, 1); } else { write_port(Seen, 2); }
}
)code";

// In one cycle transition A exits Holding while B's routine tests
// in_state(Holding): STST reads the configuration the cycle started with,
// so B sees Holding active on every TEP count and tier.
TEST(PscpMachineBasics, InStateSeesCycleStartConfiguration) {
  const statechart::Chart chart = statechart::parseChart(kInStateChart);
  const actionlang::Program actions = actionlang::parseActionSource(kInStateActions);
  using tep::jit::JitMode;
  for (const int teps : {1, 2})
    for (const JitMode mode : {JitMode::kOff, JitMode::kAlways}) {
      SCOPED_TRACE(::testing::Message()
                   << "teps=" << teps << " jit=" << tep::jit::jitModeName(mode));
      core::ReferenceSystem ref(chart, actions);
      PscpMachine m(chart, actions, archOf(16, true, teps));
      m.setJitMode(mode);
      EXPECT_EQ(m.configurationCycle({"GO"}).fired.size(), 2u);
      (void)ref.step({"GO"});
      EXPECT_TRUE(m.isActive("Released"));
      EXPECT_EQ(m.outputPort("Seen"), 1u);
      EXPECT_EQ(m.outputPort("Seen"), ref.outputPort("Seen"));
    }
}

// ------------------------------------------------------- equivalence sweep

struct EquivParam {
  int width;
  bool mulDiv;
  int teps;
  bool optimized;
};

class PscpEquivalence : public ::testing::TestWithParam<EquivParam> {};

TEST_P(PscpEquivalence, MachineMatchesReferenceOnScriptedTrace) {
  const EquivParam p = GetParam();
  Harness h(archOf(p.width, p.mulDiv, p.teps),
            p.optimized ? CompileOptions{} : CompileOptions::unoptimized());
  h.arm();
  h.syncPorts(30);
  h.stepBoth({"GO"});
  h.stepBoth({"TICK"});
  h.stepBoth({"TICK"});
  h.syncPorts(90);
  h.stepBoth({"TICK"});
  h.stepBoth({});
  h.stepBoth({"STOP"});
  h.arm();
  h.stepBoth({"GO", "TICK"});  // outer transition priority exercised
  h.stepBoth({"TICK"});
  h.stepBoth({"STOP", "TICK"});
}

TEST_P(PscpEquivalence, MachineMatchesReferenceOnPseudoRandomTrace) {
  const EquivParam p = GetParam();
  Harness h(archOf(p.width, p.mulDiv, p.teps),
            p.optimized ? CompileOptions{} : CompileOptions::unoptimized());
  // Deterministic LCG so failures reproduce.
  uint32_t rng = 12345;
  auto next = [&rng]() {
    rng = rng * 1664525u + 1013904223u;
    return rng >> 16;
  };
  const std::vector<std::string> evs = {"GO", "STOP", "TICK", "OVERFLOW"};
  for (int i = 0; i < 40; ++i) {
    if (next() % 4 == 0) h.arm();
    if (next() % 3 == 0) h.syncPorts(next() % 50);
    std::set<std::string> events;
    for (const auto& e : evs)
      if (next() % 3 == 0) events.insert(e);
    h.stepBoth(events);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, PscpEquivalence,
    ::testing::Values(EquivParam{8, false, 1, false}, EquivParam{8, false, 1, true},
                      EquivParam{16, true, 1, true}, EquivParam{16, true, 2, true},
                      EquivParam{16, true, 4, true}, EquivParam{8, true, 2, false}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      return strfmt("w%d_%s_t%d_%s", info.param.width,
                    info.param.mulDiv ? "md" : "plain", info.param.teps,
                    info.param.optimized ? "opt" : "unopt");
    });

// ----------------------------------------------------------- parallelism

TEST(PscpParallelism, TwoTepsFinishParallelWorkFaster) {
  // Both parallel components fire on TICK; with two TEPs the routines run
  // concurrently and the configuration cycle shortens.
  Harness h1(archOf(16, true, 1));
  Harness h2(archOf(16, true, 2));
  for (Harness* h : {&h1, &h2}) {
    h->arm();
    h->machine.setInputPort("Sense", 10);
    h->machine.configurationCycle({"GO"});
  }
  const auto c1 = h1.machine.configurationCycle({"TICK"});
  const auto c2 = h2.machine.configurationCycle({"TICK"});
  EXPECT_EQ(c1.fired.size(), 2u);
  EXPECT_EQ(c2.fired.size(), 2u);
  EXPECT_LT(c2.cycles, c1.cycles);
}

TEST(PscpParallelism, SharedBusCausesStallsWithManyTeps) {
  Harness h(archOf(8, false, 4));
  h.arm();
  h.machine.setInputPort("Sense", 5);
  h.machine.configurationCycle({"GO"});
  h.machine.configurationCycle({"TICK"});
  // Bump() and Watch() both touch external globals: with 4 TEPs (2 active)
  // at least some arbitration conflicts are expected over a few cycles.
  h.machine.configurationCycle({"TICK"});
  EXPECT_GT(h.machine.totalBusStalls(), 0);
}

TEST(PscpParallelism, ExclusionGroupsSerialize) {
  // Same chart, but mark both TICK transitions mutually exclusive; the
  // machine must never run them concurrently — total cycles approach the
  // single-TEP case.
  statechart::Chart chart = statechart::parseChart(kChart);
  for (statechart::Transition& t :
       const_cast<std::vector<statechart::Transition>&>(chart.transitions())) {
    if (t.label.raw.rfind("TICK/", 0) == 0) t.exclusionGroup = "tick";
  }
  actionlang::Program actions = actionlang::parseActionSource(kActions);
  PscpMachine serial(chart, actions, archOf(16, true, 2));
  serial.setCondition("ARMED", true);
  serial.setInputPort("Sense", 10);
  serial.configurationCycle({"GO"});
  const auto cSerial = serial.configurationCycle({"TICK"});

  Harness parallel(archOf(16, true, 2));
  parallel.arm();
  parallel.machine.setInputPort("Sense", 10);
  parallel.machine.configurationCycle({"GO"});
  const auto cParallel = parallel.machine.configurationCycle({"TICK"});

  EXPECT_EQ(cSerial.fired.size(), 2u);
  EXPECT_GT(cSerial.cycles, cParallel.cycles);
}

TEST(PscpRun, RunToQuiescenceChasesInternalEvents) {
  Harness h(archOf(16, true, 1));
  h.arm();
  h.machine.setInputPort("Sense", 201);
  h.machine.configurationCycle({"GO"});
  // One TICK pushes count over 200 -> OVERFLOW -> back to IdleS, then quiet.
  const auto cycles = h.machine.runToQuiescence({"TICK"});
  EXPECT_GE(cycles.size(), 2u);
  EXPECT_TRUE(h.machine.isActive("IdleS"));
  EXPECT_TRUE(cycles.back().quiescent);
}

// --------------------------------------------------------- image tables

// The image decodes the chart's microprograms once and every TEP reads
// that table; each entry is exactly what the static cost model
// (cyclesFor) measures, so simulator and timing analysis share one source.
TEST(PscpImage, MicroTableHoldsEachInstructionsMicroprogram) {
  for (const int teps : {1, 2}) {
    const auto image = workloads::makeSmdFleetImage(teps);
    const tep::AsmProgram& program = image->app().program;
    const tep::MicroTable& table = image->microTable();
    ASSERT_EQ(table.size(), program.code.size());
    for (size_t pc = 0; pc < program.code.size(); ++pc) {
      const tep::Instr& in = program.code[pc];
      const std::span<const tep::MicroInstr> entry = table.at(static_cast<int>(pc));
      EXPECT_EQ(std::vector<tep::MicroInstr>(entry.begin(), entry.end()),
                tep::microcodeFor(in, image->arch()))
          << "teps=" << teps << " pc=" << pc;
      EXPECT_EQ(static_cast<int>(entry.size()), tep::cyclesFor(in, image->arch()))
          << "teps=" << teps << " pc=" << pc;
    }
  }
}

const char* kFarPortChart = R"chart(
chart FarPort;
event GO;
port Far data out width 16 address 0x4000000;

orstate Top { contains Idle, Sent; default Idle; }
basicstate Idle { transition { target Sent; label "GO/Emit()"; } }
basicstate Sent { transition { target Idle; label "GO"; } }
)chart";

const char* kFarPortActions = R"code(
void Emit() { write_port(Far, 0x1234); }
)code";

// Ports live in one slot per declared address, so a far address is as
// cheap as a near one; an address no port is declared at is an error that
// names it (reads of it return 0).
TEST(PscpPorts, FarDeclaredAddressRoundTripsThroughThePortMap) {
  const statechart::Chart chart = statechart::parseChart(kFarPortChart);
  const actionlang::Program actions = actionlang::parseActionSource(kFarPortActions);
  PscpMachine m(chart, actions, hwlib::ArchConfig{});
  EXPECT_EQ(m.image().portAddresses(), std::vector<int>{0x4000000});

  m.configurationCycle({"GO"});
  EXPECT_EQ(m.outputPort("Far"), 0x1234u);
  EXPECT_EQ(m.outputPort(0x4000000), 0x1234u);
  EXPECT_EQ(m.outputPort(0x20), 0u);
  m.setInputPort(0x4000000, 7);
  EXPECT_EQ(m.outputPort("Far"), 7u);

  for (const int address : {-5, 0, 0x3FFFFFF, 0x4000001}) {
    try {
      m.setInputPort(address, 1);
      ADD_FAILURE() << "setInputPort(" << address << ") must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(address)), std::string::npos)
          << e.what();
    }
  }
  // A TEP access off the map is a runtime diagnostic on either tier.
  EXPECT_THROW((void)m.readPort(0x20), Error);
  EXPECT_THROW(m.writePort(-5, 1), Error);
  EXPECT_EQ(m.outputPort("Far"), 7u);
}

// ------------------------------------------------ arithmetic and port edges

const char* kDivMinChart = R"chart(
chart DivMin;
event GO;
port A data in width 32 address 0x20;
port B data in width 32 address 0x21;
orstate Top { contains S; default S; }
basicstate S { transition { target S; label "GO/Divide()"; } }
)chart";

const char* kDivMinActions = R"code(
int:32 q;
int:32 r;
void Divide() {
  int:32 a = read_port(A);
  int:32 b = read_port(B);
  q = a / b;
  r = a % b;
}
)code";

// INT32_MIN / -1 overflows int32: both tiers divide in 64 bits and wrap
// like the reference (quotient INT32_MIN, remainder 0) instead of trapping.
TEST(PscpArithmetic, Int32MinOverMinusOneWrapsOnEveryTier) {
  const statechart::Chart chart = statechart::parseChart(kDivMinChart);
  const actionlang::Program actions = actionlang::parseActionSource(kDivMinActions);
  using tep::jit::JitMode;
  for (const int teps : {1, 2})
    for (const JitMode mode : {JitMode::kOff, JitMode::kAlways}) {
      SCOPED_TRACE(::testing::Message()
                   << "teps=" << teps << " jit=" << tep::jit::jitModeName(mode));
      core::ReferenceSystem ref(chart, actions);
      hwlib::ArchConfig arch = archOf(32, true, teps);
      PscpMachine m(chart, actions, arch);
      m.setJitMode(mode);
      struct Case {
        uint32_t a, b;
        int64_t q, r;
      };
      const Case cases[] = {{0x80000000u, 0xFFFFFFFFu, INT32_MIN, 0},
                            {0x80000000u, 1u, INT32_MIN, 0},
                            {7u, 0xFFFFFFFFu, -7, 0},
                            {0xFFFFFFF9u, 2u, -3, -1}};
      for (const Case& c : cases) {
        ref.setInputPort("A", c.a);
        ref.setInputPort("B", c.b);
        m.setInputPort("A", c.a);
        m.setInputPort("B", c.b);
        (void)ref.step({"GO"});
        EXPECT_EQ(m.configurationCycle({"GO"}).fired.size(), 1u);
        EXPECT_EQ(ref.globalValue("q"), c.q) << c.a << " / " << c.b;
        EXPECT_EQ(ref.globalValue("r"), c.r) << c.a << " % " << c.b;
        EXPECT_EQ(m.globalValue("q"), ref.globalValue("q")) << c.a << " / " << c.b;
        EXPECT_EQ(m.globalValue("r"), ref.globalValue("r")) << c.a << " % " << c.b;
      }
      if (mode == JitMode::kAlways && tep::jit::jitBackendAvailable()) {
        EXPECT_GT(m.jitNativeRuns(), 0);
      }
    }
}

const char* kPortWrapChart = R"chart(
chart PortWrap;
event NEG; event BIG;
port Out data out width 16 address 0x22;
orstate Top { contains S; default S; }
basicstate S {
  transition { target S; label "NEG/Negative()"; }
  transition { target S; label "BIG/Big()"; }
}
)chart";

const char* kPortWrapActions = R"code(
void Negative() { int:16 x = -14; write_port(Out, x); }
void Big() { int:32 y = 70000; write_port(Out, y); }
)code";

// write_port takes a uint:16: the machine's 16-bit Outp and the reference
// write the same low 16 bits of a negative or wider value.
TEST(PscpPorts, WritePortWritesTheSameValueOnEveryTier) {
  const statechart::Chart chart = statechart::parseChart(kPortWrapChart);
  const actionlang::Program actions = actionlang::parseActionSource(kPortWrapActions);
  using tep::jit::JitMode;
  for (const int teps : {1, 2})
    for (const JitMode mode : {JitMode::kOff, JitMode::kAlways}) {
      SCOPED_TRACE(::testing::Message()
                   << "teps=" << teps << " jit=" << tep::jit::jitModeName(mode));
      core::ReferenceSystem ref(chart, actions);
      PscpMachine m(chart, actions, archOf(16, true, teps));
      m.setJitMode(mode);
      const std::pair<const char*, uint32_t> cases[] = {{"NEG", 0xFFF2u},
                                                        {"BIG", 70000u & 0xFFFFu}};
      for (const auto& [event, expected] : cases) {
        (void)ref.step({event});
        EXPECT_EQ(m.configurationCycle({event}).fired.size(), 1u);
        EXPECT_EQ(ref.outputPort("Out"), expected) << event;
        EXPECT_EQ(m.outputPort("Out"), ref.outputPort("Out")) << event;
      }
    }
}

}  // namespace
}  // namespace pscp::machine
