// Tests for the paper's Sec. 6 "future work" features implemented here:
// the pipelined TEP variant (prefetch overlapped with execution, flushed
// by control transfers) and hardware timers raising periodic events.
#include <gtest/gtest.h>

#include "actionlang/parser.hpp"
#include "core/system.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "tep/assembler.hpp"
#include "tep/machine.hpp"
#include "tep/microcode.hpp"

namespace pscp {
namespace {

// ------------------------------------------------------------- pipelining

TEST(PipelinedTep, StraightLineInstructionsSaveTheFetchState) {
  hwlib::ArchConfig plain;
  plain.dataWidth = 16;
  hwlib::ArchConfig piped = plain;
  piped.pipelinedFetch = true;
  EXPECT_EQ(tep::cyclesFor({tep::Opcode::Add, 16, 0}, piped) + 1,
            tep::cyclesFor({tep::Opcode::Add, 16, 0}, plain));
  // Control transfers flush the prefetch: no saving.
  EXPECT_EQ(tep::cyclesFor({tep::Opcode::Jmp, 8, 0}, piped),
            tep::cyclesFor({tep::Opcode::Jmp, 8, 0}, plain));
  EXPECT_EQ(tep::cyclesFor({tep::Opcode::Ret, 8, 0}, piped),
            tep::cyclesFor({tep::Opcode::Ret, 8, 0}, plain));
}

TEST(PipelinedTep, SameResultsFewerCycles) {
  const char* src = R"asm(
    .routine main
      LDAI.16 #0
      STAR.16 R0
      LDAI.16 #1
      STAR.16 R1
    loop:
      LDAR.16 R0
      LDOR.16 R1
      ADD.16
      STAR.16 R0
      LDAR.16 R1
      LDOI.16 #1
      ADD.16
      STAR.16 R1
      LDOI.16 #25
      CMP.16
      JN loop
      JZ loop
      LDAR.16 R0
      TRET
  )asm";
  hwlib::ArchConfig plain;
  plain.dataWidth = 16;
  plain.registerFileSize = 4;
  hwlib::ArchConfig piped = plain;
  piped.pipelinedFetch = true;

  tep::AsmProgram program = tep::assemble(src);
  tep::SimpleHost h1;
  const tep::MicroTable micro1(program, plain);
  tep::Tep t1(plain, h1);
  t1.setProgram(&program, &micro1);
  const auto r1 = t1.run("main");
  tep::SimpleHost h2;
  const tep::MicroTable micro2(program, piped);
  tep::Tep t2(piped, h2);
  t2.setProgram(&program, &micro2);
  const auto r2 = t2.run("main");

  ASSERT_TRUE(r1.completed && r2.completed);
  EXPECT_EQ(t1.acc(), t2.acc());                 // identical semantics
  EXPECT_EQ(t1.acc(), 25u * 26u / 2u);           // sum 1..25
  EXPECT_LT(r2.cycles, r1.cycles);               // measurably faster
  EXPECT_GT(r2.cycles, r1.cycles / 2);           // but not magic
}

TEST(PipelinedTep, CostsAreaAndDescribesItself) {
  hwlib::ArchConfig plain;
  plain.dataWidth = 16;
  hwlib::ArchConfig piped = plain;
  piped.pipelinedFetch = true;
  EXPECT_GT(hwlib::tepArea(piped, 100), hwlib::tepArea(plain, 100));
  EXPECT_NE(piped.describe().find("pipelined"), std::string::npos);
}

TEST(PipelinedTep, MachineEquivalenceHolds) {
  // Full-machine check: the pipelined PSCP must match the reference system
  // exactly like the plain one does.
  const char* chartText = R"chart(
    event GO; event TICK;
    condition ARMED;
    orstate T {
      default S1;
      basicstate S1 { transition { target S2; label "GO [ARMED]/Begin()"; } }
      basicstate S2 { transition { target S2; label "TICK/Bump()"; }
                      transition { target S1; label "GO/Stop()"; } }
    }
  )chart";
  const char* actionText = R"code(
    int:16 n;
    void Begin() { n = 1; }
    void Bump() { n = n * 3 + 1; }
    void Stop() { set_cond(ARMED, 0); }
  )code";
  auto chart = statechart::parseChart(chartText);
  auto actions = actionlang::parseActionSource(actionText);
  core::ReferenceSystem ref(chart, actions);
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.pipelinedFetch = true;
  machine::PscpMachine mach(chart, actions, arch);
  ref.forceCondition("ARMED", true);
  mach.setCondition("ARMED", true);
  for (const auto& events : std::vector<std::set<std::string>>{
           {"GO"}, {"TICK"}, {"TICK"}, {"TICK"}, {"GO"}, {"GO"}}) {
    ref.step(events);
    mach.configurationCycle(events);
    ASSERT_EQ(ref.activeNames(), mach.activeNames());
    ASSERT_EQ(ref.globalValue("n"), mach.globalValue("n"));
  }
}

// ----------------------------------------------------------------- timers

TEST(Timers, PeriodicEventFiresOnSchedule) {
  const char* chartText = R"chart(
    event HEARTBEAT period 500;
    orstate T {
      default S;
      basicstate S { transition { target S; label "HEARTBEAT/Count()"; } }
    }
  )chart";
  const char* actionText = "int:16 beats;\nvoid Count() { beats = beats + 1; }\n";
  auto chart = statechart::parseChart(chartText);
  auto actions = actionlang::parseActionSource(actionText);
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  machine::PscpMachine m(chart, actions, arch);
  m.addTimer("HEARTBEAT", 500);

  // Idle cycles cost kSlaEvaluateCycles each; step until well past several
  // timer periods and verify the beat count tracks elapsed machine time.
  int64_t fired = 0;
  while (m.totalCycles() < 5000) {
    const auto c = m.configurationCycle({});
    fired += static_cast<int64_t>(c.fired.size());
  }
  const int64_t beats = m.globalValue("beats");
  EXPECT_EQ(beats, fired);
  EXPECT_GE(beats, 5);   // ~ 5000 / 500 minus sampling granularity
  EXPECT_LE(beats, 10);
}

TEST(Timers, MultipleTimersInterleave) {
  const char* chartText = R"chart(
    event FAST; event SLOW;
    orstate T {
      default S;
      basicstate S {
        transition { target S; label "FAST/CountFast()"; }
        transition { target S; label "SLOW/CountSlow()"; }
      }
    }
  )chart";
  const char* actionText =
      "int:16 fast;\nint:16 slow;\n"
      "void CountFast() { fast = fast + 1; }\n"
      "void CountSlow() { slow = slow + 1; }\n";
  auto chart = statechart::parseChart(chartText);
  auto actions = actionlang::parseActionSource(actionText);
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  machine::PscpMachine m(chart, actions, arch);
  m.addTimer("FAST", 300);
  m.addTimer("SLOW", 1700);
  while (m.totalCycles() < 12000) m.configurationCycle({});
  EXPECT_GT(m.globalValue("fast"), 3 * m.globalValue("slow"));
  EXPECT_GE(m.globalValue("slow"), 3);
}

TEST(Timers, RejectBadConfiguration) {
  auto chart = statechart::parseChart(
      "event E;\nbasicstate S { transition { target S2; label \"E\"; } }\n"
      "basicstate S2 { }");
  auto actions = actionlang::parseActionSource("int:16 x;");
  hwlib::ArchConfig arch;
  machine::PscpMachine m(chart, actions, arch);
  EXPECT_THROW(m.addTimer("E", 0), Error);
  EXPECT_THROW(m.addTimer("NOPE", 100), Error);
}

}  // namespace
}  // namespace pscp
