// Compiler tests: the compiled TEP code is checked *differentially*
// against the action-language reference interpreter — same program, same
// inputs, observable state must agree. This is the central correctness
// property of the flow: the specification-level semantics and the machine-
// level execution are two implementations of one contract.
#include <gtest/gtest.h>

#include "actionlang/interp.hpp"
#include "actionlang/parser.hpp"
#include "compiler/codegen.hpp"
#include "tep/assembler.hpp"
#include "compiler/optimize.hpp"
#include "compiler/patterns.hpp"
#include "support/bits.hpp"
#include "tep/machine.hpp"

namespace pscp::compiler {
namespace {

using actionlang::Program;
using statechart::ActionCall;

hwlib::ArchConfig arch16md() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  return c;
}

hwlib::ArchConfig arch8min() {
  hwlib::ArchConfig c;
  c.dataWidth = 8;
  return c;
}

HardwareBinding demoBinding() {
  HardwareBinding b;
  b.eventIndex = {{"END_MOVE", 0}, {"PING", 1}, {"DONE", 2}};
  b.conditionIndex = {{"XFINISH", 0}, {"MOVEMENT", 1}, {"READY", 2}};
  b.stateIndex = {{"RunX", 0}, {"Idle1", 1}};
  b.portAddress = {{"Buffer", 0x17}, {"Out", 0x12}};
  return b;
}

/// Harness: compile `source`, run routine "r" (calling `call`) on a TEP,
/// and also run the interpreter; returns (tep value, interp value) of
/// global `probe`.
struct DiffResult {
  int64_t tep = 0;
  int64_t interp = 0;
  int64_t cycles = 0;
};

DiffResult runDiff(const std::string& source, const ActionCall& call,
                   const std::string& probe, const hwlib::ArchConfig& arch,
                   CompileOptions options = {},
                   const std::map<std::string, int64_t>& inputs = {}) {
  Program program = actionlang::parseActionSource(source);
  const HardwareBinding binding = demoBinding();

  // --- reference interpreter
  actionlang::RecordingEnv env;
  actionlang::Interp interp(program, env);
  for (const auto& [name, value] : inputs) interp.setGlobalValue(name, value);
  interp.callFromLabel(call.function, call.args);

  // --- compiled TEP
  Compiler compiler(program, binding, arch, options);
  CompiledApp app = compiler.compileCalls({{"r", {call}}});
  tep::SimpleHost host;
  app.loadImage(host);
  for (const auto& [name, value] : inputs) {
    const VarPlacement& p = app.globalPlacement.at(name);
    const actionlang::GlobalVar* g = program.findGlobal(name);
    PSCP_ASSERT(p.storageClass != kStorageRegister);
    host.writeWord(p.address, static_cast<uint32_t>(value), g->type->byteSize());
  }
  const tep::MicroTable micro(app.program, arch);
  tep::Tep tep(arch, host, 0);
  tep.setProgram(&app.program, &micro);
  const tep::RunResult r = tep.run("r");
  PSCP_ASSERT(r.completed);

  DiffResult out;
  out.cycles = r.cycles;
  out.interp = interp.globalValue(probe);
  const VarPlacement& pp = app.globalPlacement.at(probe);
  const actionlang::GlobalVar* pg = program.findGlobal(probe);
  uint32_t raw = 0;
  if (pp.storageClass == kStorageRegister)
    raw = host.readReg(pp.address);
  else
    raw = host.readWord(pp.address, pg->type->byteSize());
  out.tep = pg->type->isSigned()
                ? signExtend(truncBits(raw, pg->type->width()), pg->type->width())
                : static_cast<int64_t>(truncBits(raw, pg->type->width()));
  return out;
}

// --------------------------------------------------------------- basics

TEST(Codegen, GlobalInitializersLand) {
  Program program = actionlang::parseActionSource(R"code(
    int:16 a = 1234;
    int:8 b = -5;
    int:16 t[3] = { 7, 8, 9 };
  )code");
  const HardwareBinding binding = demoBinding();
  const hwlib::ArchConfig arch = arch16md();
  Compiler compiler(program, binding, arch);
  CompiledApp app = compiler.compileCalls({});
  tep::SimpleHost host;
  app.loadImage(host);
  EXPECT_EQ(host.readWord(app.globalPlacement.at("a").address, 2), 1234u);
  EXPECT_EQ(host.readWord(app.globalPlacement.at("b").address, 1), 0xFBu);
  EXPECT_EQ(host.readWord(app.globalPlacement.at("t").address + 4, 2), 9u);
}

TEST(Codegen, SimpleArithmeticMatchesInterp) {
  const char* src = R"code(
    int:16 x;
    int:16 y;
    int:16 out;
    void go() { out = (x + y) * 3 - (x / 2); }
  )code";
  for (const auto& arch : {arch16md(), arch8min()}) {
    DiffResult r = runDiff(src, {"go", {}}, "out", arch, {},
                           {{"x", 100}, {"y", -7}});
    EXPECT_EQ(r.tep, r.interp) << arch.describe();
  }
}

struct WidthCase {
  int64_t x;
  int64_t y;
};

class CodegenWidthSweep : public ::testing::TestWithParam<WidthCase> {};

TEST_P(CodegenWidthSweep, OddWidthsWrapIdentically) {
  // int:12 arithmetic — wraps at 12 bits in both worlds.
  const char* src = R"code(
    int:12 x;
    int:12 y;
    int:12 out;
    void go() { out = x * y + 17 - (y << 2); }
  )code";
  const WidthCase c = GetParam();
  DiffResult r = runDiff(src, {"go", {}}, "out", arch16md(), {},
                         {{"x", c.x}, {"y", c.y}});
  EXPECT_EQ(r.tep, r.interp) << "x=" << c.x << " y=" << c.y;
}

INSTANTIATE_TEST_SUITE_P(Wraps, CodegenWidthSweep,
                         ::testing::Values(WidthCase{0, 0}, WidthCase{1, 1},
                                           WidthCase{2047, 2}, WidthCase{-2048, 3},
                                           WidthCase{-1, -1}, WidthCase{123, -456},
                                           WidthCase{2000, 2000}));

TEST(Codegen, UnsignedArithmeticMatches) {
  const char* src = R"code(
    uint:8 x;
    uint:8 y;
    uint:16 out;
    void go() { out = x * y + (x >> 1); }
  )code";
  for (int64_t x : {0, 1, 127, 200, 255}) {
    DiffResult r = runDiff(src, {"go", {}}, "out", arch8min(), {},
                           {{"x", x}, {"y", 201}});
    EXPECT_EQ(r.tep, r.interp) << "x=" << x;
  }
}

TEST(Codegen, MixedSignednessComparison) {
  const char* src = R"code(
    int:16 x;
    uint:16 y;
    int:8 out;
    void go() { if (x < y) { out = 1; } else { out = 2; } }
  )code";
  // -1 < 65535 must hold mathematically (not bit-pattern-wise).
  DiffResult r = runDiff(src, {"go", {}}, "out", arch16md(), {},
                         {{"x", -1}, {"y", 65535}});
  EXPECT_EQ(r.interp, 1);
  EXPECT_EQ(r.tep, r.interp);
}

TEST(Codegen, DivisionFollowsInterp) {
  const char* src = R"code(
    int:16 x;
    int:16 y;
    int:16 q;
    int:16 m;
    void go() { q = x / y; m = x % y; }
  )code";
  for (const auto& [x, y] :
       std::vector<std::pair<int64_t, int64_t>>{{100, 7}, {-100, 7}, {100, -7},
                                                {-100, -7}, {32767, 3}}) {
    DiffResult rq = runDiff(src, {"go", {}}, "q", arch16md(), {}, {{"x", x}, {"y", y}});
    EXPECT_EQ(rq.tep, rq.interp) << x << "/" << y;
    DiffResult rm = runDiff(src, {"go", {}}, "m", arch16md(), {}, {{"x", x}, {"y", y}});
    EXPECT_EQ(rm.tep, rm.interp) << x << "%" << y;
  }
}

TEST(Codegen, ControlFlowLoops) {
  const char* src = R"code(
    int:16 n;
    int:16 out;
    void go() {
      int:16 acc = 0;
      int:16 i = 1;
      while (i <= n) bound 50 { acc = acc + i * i; i = i + 1; }
      out = acc;
    }
  )code";
  for (int64_t n : {0, 1, 5, 20}) {
    for (const auto& opt : {CompileOptions{}, CompileOptions::unoptimized()}) {
      DiffResult r = runDiff(src, {"go", {}}, "out", arch16md(), opt, {{"n", n}});
      EXPECT_EQ(r.tep, r.interp) << "n=" << n;
    }
  }
}

TEST(Codegen, ShortCircuitMatches) {
  const char* src = R"code(
    int:16 hits;
    int:16 gate;
    int:1 mark() { hits = hits + 1; return 1; }
    void go() { if (gate > 0 && mark()) { hits = hits + 10; } }
  )code";
  for (int64_t gate : {0, 1}) {
    for (const auto& opt : {CompileOptions{}, CompileOptions::unoptimized()}) {
      DiffResult r = runDiff(src, {"go", {}}, "hits", arch16md(), opt, {{"gate", gate}});
      EXPECT_EQ(r.tep, r.interp) << "gate=" << gate;
    }
  }
}

TEST(Codegen, StructAndArrayAccess) {
  const char* src = R"code(
    typedef struct { int:16 pos; int:16 vel; int:16 ramp[4]; } Motor;
    Motor m = { 100, 5, { 1, 2, 3, 4 } };
    int:16 sel;
    int:16 out;
    void go() { m.pos = m.pos + m.vel; out = m.pos + m.ramp[sel]; }
  )code";
  for (int64_t sel : {0, 3}) {
    DiffResult r = runDiff(src, {"go", {}}, "out", arch8min(), {}, {{"sel", sel}});
    EXPECT_EQ(r.tep, r.interp) << "sel=" << sel;
  }
}

TEST(Codegen, DynamicIndexedStore) {
  const char* src = R"code(
    int:16 t[5];
    int:16 i;
    int:16 out;
    void go() {
      t[i] = 42 + i;
      t[i + 1] = 7;
      out = t[i] + t[i + 1];
    }
  )code";
  DiffResult r = runDiff(src, {"go", {}}, "out", arch16md(), {}, {{"i", 2}});
  EXPECT_EQ(r.tep, r.interp);
}

TEST(Codegen, FunctionCallsWithScalarArgs) {
  const char* src = R"code(
    int:16 out;
    int:16 scale(int:16 v, int:16 k) { return v * k; }
    int:16 combine(int:16 a, int:16 b) { return scale(a, 3) + scale(b, 5); }
    void go() { out = combine(7, 9); }
  )code";
  DiffResult r = runDiff(src, {"go", {}}, "out", arch16md());
  EXPECT_EQ(r.interp, 7 * 3 + 9 * 5);
  EXPECT_EQ(r.tep, r.interp);
}

TEST(Codegen, StructByReferenceSpecialization) {
  const char* src = R"code(
    typedef struct { int:16 v; } Box;
    Box a = { 10 };
    Box b = { 200 };
    int:16 out;
    void bump(Box box, int:16 k) { box.v = box.v + k; }
    void go() { bump(a, 1); bump(b, 2); out = a.v + b.v; }
  )code";
  DiffResult r = runDiff(src, {"go", {}}, "out", arch16md());
  EXPECT_EQ(r.interp, 11 + 202);
  EXPECT_EQ(r.tep, r.interp);
}

TEST(Codegen, LabelArgumentsBindEnumsGlobalsNumbers) {
  const char* src = R"code(
    enum Motors { MX, MY };
    typedef struct { int:16 v; } Params;
    Params xp = { 50 };
    int:16 speed = 9;
    int:16 out;
    void StartMotor(int:16 which, Params p, int:16 s) {
      out = which * 1000 + p.v + s;
    }
  )code";
  DiffResult r = runDiff(src, ActionCall{"StartMotor", {"MY", "xp", "speed"}}, "out",
                         arch16md());
  EXPECT_EQ(r.interp, 1000 + 50 + 9);
  EXPECT_EQ(r.tep, r.interp);
}

TEST(Codegen, IntrinsicsReachHost) {
  Program program = actionlang::parseActionSource(R"code(
    uint:8 last;
    void SetTrue(cond c) { set_cond(c, 1); }
    void go() {
      last = read_port(Buffer);
      write_port(Out, last + 1);
      raise(END_MOVE);
      SetTrue(XFINISH);
    }
  )code");
  const HardwareBinding binding = demoBinding();
  const hwlib::ArchConfig arch = arch16md();
  Compiler compiler(program, binding, arch);
  CompiledApp app = compiler.compileCalls({{"r", {{"go", {}}}}});
  tep::SimpleHost host;
  app.loadImage(host);
  host.ports[0x17] = 0x42;
  const tep::MicroTable micro(app.program, arch);
  tep::Tep tep(arch, host);
  tep.setProgram(&app.program, &micro);
  EXPECT_TRUE(tep.run("r").completed);
  EXPECT_EQ(host.ports[0x12], 0x43u);
  ASSERT_EQ(host.raisedEvents.size(), 1u);
  EXPECT_EQ(host.raisedEvents[0], 0);    // END_MOVE
  EXPECT_TRUE(host.conditions[0]);       // XFINISH
}

TEST(Codegen, TestCondAndInState) {
  Program program = actionlang::parseActionSource(R"code(
    int:16 out;
    void go() {
      if (test_cond(MOVEMENT)) { out = out + 1; }
      if (in_state(RunX)) { out = out + 10; }
    }
  )code");
  const HardwareBinding binding = demoBinding();
  const hwlib::ArchConfig arch = arch16md();
  Compiler compiler(program, binding, arch);
  CompiledApp app = compiler.compileCalls({{"r", {{"go", {}}}}});
  tep::SimpleHost host;
  app.loadImage(host);
  host.conditions[1] = true;  // MOVEMENT
  host.states[0] = true;      // RunX
  const tep::MicroTable micro(app.program, arch);
  tep::Tep tep(arch, host);
  tep.setProgram(&app.program, &micro);
  EXPECT_TRUE(tep.run("r").completed);
  const auto& p = app.globalPlacement.at("out");
  EXPECT_EQ(host.readWord(p.address, 2), 11u);
}

// ---------------------------------------------------- storage promotion

TEST(Codegen, StoragePromotionPreservesSemanticsAndSavesCycles) {
  const char* src = R"code(
    int:16 hot;
    int:16 out;
    void go() {
      int:16 i = 0;
      while (i < 10) bound 10 { hot = hot + 3; i = i + 1; }
      out = hot;
    }
  )code";
  Program external = actionlang::parseActionSource(src);
  Program internalized = actionlang::parseActionSource(src);
  internalized.findGlobal("hot")->storageClass = kStorageInternal;
  Program registered = actionlang::parseActionSource(src);
  registered.findGlobal("hot")->storageClass = kStorageRegister;

  const HardwareBinding binding = demoBinding();
  hwlib::ArchConfig arch = arch16md();
  arch.registerFileSize = 4;

  int64_t cycles[3] = {0, 0, 0};
  int64_t values[3] = {0, 0, 0};
  int idx = 0;
  for (Program* p : {&external, &internalized, &registered}) {
    Compiler compiler(*p, binding, arch);
    CompiledApp app = compiler.compileCalls({{"r", {{"go", {}}}}});
    tep::SimpleHost host;
    app.loadImage(host);
    const tep::MicroTable micro(app.program, arch);
    tep::Tep tep(arch, host);
    tep.setProgram(&app.program, &micro);
    const auto r = tep.run("r");
    PSCP_ASSERT(r.completed);
    cycles[idx] = r.cycles;
    const auto& pl = app.globalPlacement.at("out");
    values[idx] = host.readWord(pl.address, 2);
    ++idx;
  }
  EXPECT_EQ(values[0], 30);
  EXPECT_EQ(values[1], 30);
  EXPECT_EQ(values[2], 30);
  // External slower than internal, internal slower than register.
  EXPECT_GT(cycles[0], cycles[1]);
  EXPECT_GT(cycles[1], cycles[2]);
}

// -------------------------------------------------------------- peephole

TEST(Peephole, RemovesRedundantJumpsAndPreservesBehaviour) {
  const char* src = R"code(
    int:16 x;
    int:16 out;
    void go() {
      if (x > 0) { out = 1; } else { if (x > -10) { out = 2; } else { out = 3; } }
    }
  )code";
  for (int64_t x : {5, -5, -50}) {
    CompileOptions unopt = CompileOptions::unoptimized();
    DiffResult plain = runDiff(src, {"go", {}}, "out", arch16md(), unopt, {{"x", x}});
    CompileOptions opt;  // fused + peephole
    DiffResult tuned = runDiff(src, {"go", {}}, "out", arch16md(), opt, {{"x", x}});
    EXPECT_EQ(plain.tep, plain.interp);
    EXPECT_EQ(tuned.tep, tuned.interp);
    EXPECT_LT(tuned.cycles, plain.cycles);  // optimization must pay off
  }
}

TEST(Peephole, StatsReportWork) {
  tep::AsmProgram p = tep::assemble("");
  // Hand-build: routine with a jump chain and dead code.
  p.code = {
      {tep::Opcode::Jmp, 8, 1},   // 0: jump-to-next (removable)
      {tep::Opcode::Jmp, 8, 4},   // 1: threads through 4 -> 5
      {tep::Opcode::Nop, 8, 0},   // 2: dead
      {tep::Opcode::Nop, 8, 0},   // 3: dead
      {tep::Opcode::Jmp, 8, 5},   // 4: chain link
      {tep::Opcode::Tret, 8, 0},  // 5
  };
  p.routines["r"] = 0;
  const PeepholeStats stats = peepholeOptimize(p);
  EXPECT_GT(stats.jumpsThreaded + stats.jumpsRemoved, 0);
  EXPECT_GT(stats.deadInstructionsRemoved, 0);
  // Program must still terminate at TRET when simulated.
  hwlib::ArchConfig arch;
  tep::SimpleHost host;
  const tep::MicroTable micro(p, arch);
  tep::Tep tep(arch, host);
  tep.setProgram(&p, &micro);
  EXPECT_TRUE(tep.run("r").completed);
}

// ------------------------------------------------------------- patterns

TEST(Patterns, CountsReflectSource) {
  Program p = actionlang::parseActionSource(R"code(
    int:16 a; int:16 b; int:16 out;
    void go() {
      if (a == b) { out = -out; }
      if (a != 0) { out = out * 2; }
      out = out << 3;
    }
  )code");
  const PatternCounts counts = countPatterns(p);
  EXPECT_EQ(counts.equalityCompares, 2);
  EXPECT_EQ(counts.negations, 1);
  EXPECT_GE(counts.shifts, 1);
  EXPECT_EQ(counts.mulDiv, 1);
}

TEST(Patterns, ExtractChainFindsLinearShapes) {
  Program p = actionlang::parseActionSource(R"code(
    int:16 a; int:16 b; int:16 out;
    void go() { out = ((a + b) << 2) - b; }
  )code");
  // Find the assignment's rhs.
  const actionlang::Stmt& assign = *p.function("go").body[0];
  auto chain = extractChain(*assign.expr);
  ASSERT_TRUE(chain.has_value());
  EXPECT_EQ(chain->fusedOps, 3);
  EXPECT_EQ(chain->signature, "(((a+b)<<#2)-b)");
  EXPECT_EQ(chain->opLeaf->name, "b");
}

TEST(Patterns, RejectsNonLinearOrMixedVarShapes) {
  Program p = actionlang::parseActionSource(R"code(
    int:16 a; int:16 b; int:16 c; int:16 out;
    void f1() { out = (a + b) * c; }       // mul not fusible
    void f2() { out = (a + b) - c; }       // two distinct rhs vars
    void f3() { out = a + (b - c); }       // rhs not a leaf
  )code");
  EXPECT_FALSE(extractChain(*p.function("f1").body[0]->expr).has_value());
  EXPECT_FALSE(extractChain(*p.function("f2").body[0]->expr).has_value());
  EXPECT_FALSE(extractChain(*p.function("f3").body[0]->expr).has_value());
}

TEST(Patterns, CandidatesRespectClockPeriod) {
  Program p = actionlang::parseActionSource(R"code(
    int:16 a; int:16 b; int:16 out;
    void go() { out = ((((a + b) << 1) - b) ^ b) + 7; }  // deep chain
  )code");
  hwlib::ArchConfig arch = arch16md();
  const auto candidates = findCustomCandidates(p, arch);
  for (const auto& ci : candidates)
    EXPECT_LE(ci.delayNs, arch.clockPeriodNs()) << ci.signature;
}

TEST(Patterns, CustomInstructionSpeedsUpAndMatchesInterp) {
  const char* src = R"code(
    int:16 a;
    int:16 b;
    int:16 out;
    void go() { out = (a + b) << 2; }
  )code";
  Program probe = actionlang::parseActionSource(src);
  hwlib::ArchConfig plain = arch16md();
  hwlib::ArchConfig fused = arch16md();
  fused.customInstructions = findCustomCandidates(probe, fused);
  ASSERT_FALSE(fused.customInstructions.empty());

  DiffResult slow = runDiff(src, {"go", {}}, "out", plain, {}, {{"a", 5}, {"b", 9}});
  DiffResult fast = runDiff(src, {"go", {}}, "out", fused, {}, {{"a", 5}, {"b", 9}});
  EXPECT_EQ(slow.tep, slow.interp);
  EXPECT_EQ(fast.tep, fast.interp);
  EXPECT_EQ(fast.tep, (5 + 9) << 2);
  EXPECT_LT(fast.cycles, slow.cycles);
}

}  // namespace
}  // namespace pscp::compiler
