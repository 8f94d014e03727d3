#include <gtest/gtest.h>

#include "actionlang/parser.hpp"
#include "compiler/codegen.hpp"
#include "pscp/sched_cost.hpp"
#include "statechart/parser.hpp"
#include "tep/assembler.hpp"
#include "tep/machine.hpp"
#include "timing/event_cycles.hpp"
#include "timing/wcet.hpp"

namespace pscp::timing {
namespace {

hwlib::ArchConfig arch16md() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  return c;
}

// ------------------------------------------------------------------ WCET

TEST(Wcet, StraightLineSumsMicrocycles) {
  tep::AsmProgram p = tep::assemble(R"asm(
    .routine r
      LDAI.16 #1
      LDOI.16 #2
      ADD.16
      TRET
  )asm");
  const auto cfg = arch16md();
  WcetAnalyzer wcet(p, cfg);
  int64_t expected = 0;
  for (const auto& in : p.code) expected += tep::cyclesFor(in, cfg);
  EXPECT_EQ(wcet.wcetOfRoutine("r"), expected);
}

TEST(Wcet, BranchesTakeTheLongerSide) {
  tep::AsmProgram p = tep::assemble(R"asm(
    .routine r
      CTST 0
      JZ short
      MUL.16         ; long side
      MUL.16
      TRET
    short:
      TRET
  )asm");
  const auto cfg = arch16md();
  WcetAnalyzer wcet(p, cfg);
  const int64_t mul = tep::cyclesFor({tep::Opcode::Mul, 16, 0}, cfg);
  EXPECT_GE(wcet.wcetOfRoutine("r"), 2 * mul);
}

TEST(Wcet, ExternalOperandsAddWaitStates) {
  tep::AsmProgram internal = tep::assemble(".routine r\nLDA.16 [0x40]\nTRET");
  tep::AsmProgram external = tep::assemble(".routine r\nLDA.16 [0x4040]\nTRET");
  const auto cfg = arch16md();
  EXPECT_GT(WcetAnalyzer(external, cfg).wcetOfRoutine("r"),
            WcetAnalyzer(internal, cfg).wcetOfRoutine("r"));
}

TEST(Wcet, CallsAddCalleeCost) {
  tep::AsmProgram p = tep::assemble(R"asm(
    .routine r
      CALL helper
      TRET
    helper:
      MUL.16
      RET
  )asm");
  const auto cfg = arch16md();
  WcetAnalyzer wcet(p, cfg);
  EXPECT_GT(wcet.wcetOfRoutine("r"),
            tep::cyclesFor({tep::Opcode::Mul, 16, 0}, cfg));
}

TEST(Wcet, LoopBoundsMultiplyBodyCost) {
  // Compile through the real pipeline so the LoopRegion annotation exists.
  auto program = actionlang::parseActionSource(R"code(
    int:16 out;
    void ten() {
      int:16 i = 0;
      while (i < 10) bound 10 { out = out + i; i = i + 1; }
    }
    void fifty() {
      int:16 i = 0;
      while (i < 50) bound 50 { out = out + i; i = i + 1; }
    }
  )code");
  compiler::HardwareBinding binding;
  const auto cfg = arch16md();
  compiler::Compiler comp(program, binding, cfg);
  auto app = comp.compileCalls({{"r10", {{"ten", {}}}}, {"r50", {{"fifty", {}}}}});
  WcetAnalyzer wcet(app.program, cfg);
  const int64_t w10 = wcet.wcetOfRoutine("r10");
  const int64_t w50 = wcet.wcetOfRoutine("r50");
  EXPECT_GT(w50, 3 * w10);  // bound-driven scaling
  EXPECT_LT(w50, 10 * w10); // shared fixed overhead
}

TEST(Wcet, BoundsActualExecution) {
  // Property: the static WCET is an upper bound on simulated cycles for
  // every input we try.
  auto program = actionlang::parseActionSource(R"code(
    int:16 x;
    int:16 out;
    void go() {
      int:16 i = 0;
      int:16 acc = 0;
      while (i < x) bound 20 { acc = acc + i * i; i = i + 1; }
      if (acc > 100) { out = acc / 3; } else { out = acc; }
    }
  )code");
  compiler::HardwareBinding binding;
  const auto cfg = arch16md();
  compiler::Compiler comp(program, binding, cfg);
  auto app = comp.compileCalls({{"r", {{"go", {}}}}});
  WcetAnalyzer wcet(app.program, cfg);
  const int64_t bound = wcet.wcetOfRoutine("r");
  for (int64_t x : {0, 1, 5, 13, 20}) {
    tep::SimpleHost host;
    app.loadImage(host);
    const auto& p = app.globalPlacement.at("x");
    host.writeWord(p.address, static_cast<uint32_t>(x), 2);
    const tep::MicroTable micro(app.program, cfg);
    tep::Tep tep(cfg, host);
    tep.setProgram(&app.program, &micro);
    const auto r = tep.run("r");
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.cycles, bound) << "x=" << x;
  }
}

// ----------------------------------------------------------- event cycles

const char* kChart = R"chart(
chart Timed;
event TICK period 500;
event SLOW period 5000;
event STOP;
condition GO;

orstate Top {
  contains IdleS, Run;
  default IdleS;
}
basicstate IdleS {
  transition { target Run; label "TICK [GO]"; bound 40; }
}
andstate Run {
  transition { target IdleS; label "STOP"; bound 30; }
  orstate A { default A1;
    basicstate A1 { transition { target A1; label "TICK"; bound 100; } }
  }
  orstate B { default B1;
    basicstate B1 { transition { target B1; label "SLOW"; bound 250; } }
  }
}
)chart";

TransitionLengths explicitLengths(const statechart::Chart& c) {
  TransitionLengths lengths;
  for (const auto& t : c.transitions()) lengths[t.id] = t.explicitBound.value_or(10);
  return lengths;
}

TEST(EventCycles, FindsConsumersByPositiveTriggerOnly) {
  auto c = statechart::parseChart(R"chart(
    event E;
    basicstate S1 { transition { target S2; label "E"; } }
    basicstate S2 { transition { target S1; label "not E"; } }
  )chart");
  EventCycleAnalyzer an(c, explicitLengths(c));
  const auto consumers = an.consumers("E");
  ASSERT_EQ(consumers.size(), 1u);
  EXPECT_EQ(c.state(consumers[0]).name, "S1");
}

TEST(EventCycles, SubtreeBoundsFollowOrMaxAndSum) {
  auto c = statechart::parseChart(kChart);
  EventCycleAnalyzer an(c, explicitLengths(c));
  // A: max transition = 100; B: 250; Run (AND): own transition 30 vs
  // children sum 350 -> 350.
  EXPECT_EQ(an.subtreeBound(c.stateByName("A")), 100);
  EXPECT_EQ(an.subtreeBound(c.stateByName("B")), 250);
  EXPECT_EQ(an.subtreeBound(c.stateByName("Run")), 350);
}

TEST(EventCycles, ParallelBurdenChargesInnermostSiblings) {
  auto c = statechart::parseChart(kChart);
  EventCycleAnalyzer one(c, explicitLengths(c), 1);
  EventCycleAnalyzer two(c, explicitLengths(c), 2);
  // Stepping inside A: sibling B contributes its bound (250), halved by a
  // second TEP.
  EXPECT_EQ(one.parallelBurden(c.stateByName("A1")), 250);
  EXPECT_EQ(two.parallelBurden(c.stateByName("A1")), 125);
  // Top-level states have no parallel siblings.
  EXPECT_EQ(one.parallelBurden(c.stateByName("IdleS")), 0);
}

TEST(EventCycles, SelfCycleLengthIsTransitionPlusBurden) {
  auto c = statechart::parseChart(kChart);
  EventCycleAnalyzer an(c, explicitLengths(c), 1);
  const auto cycles = an.analyze("TICK");
  // {A1, A1} must be reported with length 100 (own) + 250 (sibling B).
  bool found = false;
  for (const auto& cyc : cycles) {
    if (cyc.states.size() == 2 && cyc.states[0] == c.stateByName("A1") &&
        cyc.states[1] == c.stateByName("A1")) {
      EXPECT_EQ(cyc.length, 100 + 250);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EventCycles, ViolationsDetectedAgainstPeriods) {
  auto c = statechart::parseChart(kChart);
  EventCycleAnalyzer an(c, explicitLengths(c), 1);
  const auto all = an.analyzeConstrained();
  ASSERT_FALSE(all.empty());
  // TICK has period 500; the {A1,A1} cycle costs 350 -> ok. Raise B's
  // burden via a slower bound and the same cycle must violate.
  for (const auto& cyc : all)
    if (cyc.event == "TICK" && cyc.states.size() == 2 &&
        cyc.states[0] == c.stateByName("A1")) {
      EXPECT_FALSE(cyc.violates());
    }

  auto c2 = statechart::parseChart(kChart);
  TransitionLengths lengths = explicitLengths(c2);
  for (const auto& t : c2.transitions())
    if (t.label.raw == "SLOW") lengths[t.id] = 900;  // B1 self loop slower
  EventCycleAnalyzer an2(c2, lengths, 1);
  bool violated = false;
  for (const auto& cyc : an2.analyze("TICK"))
    if (cyc.violates()) violated = true;
  EXPECT_TRUE(violated);
}

TEST(EventCycles, AncestorTransitionsExtendPaths) {
  auto c = statechart::parseChart(kChart);
  EventCycleAnalyzer an(c, explicitLengths(c), 1);
  // From A1, the Run-level STOP transition leads to IdleS (a TICK
  // consumer): path {A1, IdleS} must exist.
  bool found = false;
  for (const auto& cyc : an.analyze("TICK"))
    if (cyc.states.size() == 2 && cyc.states[0] == c.stateByName("A1") &&
        cyc.states[1] == c.stateByName("IdleS"))
      found = true;
  EXPECT_TRUE(found);
}

TEST(EventCycles, ExplicitBoundsOverrideCompiledWcet) {
  auto chart = statechart::parseChart(R"chart(
    event E period 100;
    basicstate S { transition { target S2; label "E/Heavy()"; bound 7; } }
    basicstate S2 { }
  )chart");
  auto program = actionlang::parseActionSource(R"code(
    int:16 x;
    void Heavy() {
      int:16 i = 0;
      while (i < 50) bound 50 { x = x + i; i = i + 1; }
    }
  )code");
  compiler::HardwareBinding binding;
  const auto cfg = arch16md();
  compiler::Compiler comp(program, binding, cfg);
  auto app = comp.compile(chart);
  const auto lengths =
      transitionLengths(chart, app.program, app.transitionRoutine, cfg, 0);
  EXPECT_EQ(lengths.at(0), 7);  // designer bound wins over the heavy loop
}

TEST(EventCycles, TableRendererMarksViolations) {
  auto c = statechart::parseChart(kChart);
  TransitionLengths lengths = explicitLengths(c);
  for (auto& [id, len] : lengths) len = 10'000;
  EventCycleAnalyzer an(c, lengths, 1);
  const std::string table = renderEventCycleTable(c, an.analyzeConstrained());
  EXPECT_NE(table.find("VIOLATION"), std::string::npos);
  EXPECT_NE(table.find("TICK"), std::string::npos);
}

}  // namespace
}  // namespace pscp::timing
