// Property-based tests.
//
// The heaviest hammer in the suite: a seeded random-program generator
// produces small action-language functions (arithmetic, comparisons,
// branches, bounded loops over int:8/12/16 signed/unsigned variables),
// which are executed by the reference interpreter and compiled+run on the
// TEP across architectures — results must agree bit-for-bit. This
// exercises the width/signedness conversion lattice, the accumulator
// codegen, strength reduction, register windows, and the microcoded
// datapath in combinations no hand-written test would reach.
#include <gtest/gtest.h>

#include "actionlang/interp.hpp"
#include "actionlang/parser.hpp"
#include "compiler/codegen.hpp"
#include "obs/recorder.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/bits.hpp"
#include "tep/machine.hpp"

namespace pscp {
namespace {

class Rng {
 public:
  explicit Rng(uint32_t seed) : state_(seed) {}
  uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }
  uint32_t below(uint32_t n) { return next() % n; }
  int64_t literal() {
    switch (below(5)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return static_cast<int64_t>(below(16)) - 8;
      case 3: return static_cast<int64_t>(below(256)) - 128;
      default: return static_cast<int64_t>(below(65536)) - 32768;
    }
  }

 private:
  uint32_t state_;
};

struct Var {
  std::string name;
  int width;
  bool isSigned;
};

/// Random scalar expression over the variable set, depth-bounded.
std::string genExpr(Rng& rng, const std::vector<Var>& vars, int depth) {
  if (depth <= 0 || rng.below(3) == 0) {
    if (rng.below(2) == 0) return std::to_string(rng.literal());
    return vars[rng.below(static_cast<uint32_t>(vars.size()))].name;
  }
  static const char* kOps[] = {"+", "-", "*", "&", "|", "^"};
  switch (rng.below(8)) {
    case 0:  // guarded division (avoid /0 faults)
      return "(" + genExpr(rng, vars, depth - 1) + " / (" +
             genExpr(rng, vars, depth - 1) + " | 1))";
    case 1:
      return "(" + genExpr(rng, vars, depth - 1) + " % (" +
             genExpr(rng, vars, depth - 1) + " | 1))";
    case 2:
      return "(" + genExpr(rng, vars, depth - 1) + " << " +
             std::to_string(rng.below(4)) + ")";
    case 3:
      return "(" + genExpr(rng, vars, depth - 1) + " >> " +
             std::to_string(rng.below(4)) + ")";
    case 4:
      return "(-" + genExpr(rng, vars, depth - 1) + ")";
    default: {
      const char* op = kOps[rng.below(6)];
      return "(" + genExpr(rng, vars, depth - 1) + " " + op + " " +
             genExpr(rng, vars, depth - 1) + ")";
    }
  }
}

std::string genCondition(Rng& rng, const std::vector<Var>& vars, int depth) {
  static const char* kCmps[] = {"==", "!=", "<", "<=", ">", ">="};
  return "(" + genExpr(rng, vars, depth) + " " + kCmps[rng.below(6)] + " " +
         genExpr(rng, vars, depth) + ")";
}

std::string genStmts(Rng& rng, const std::vector<Var>& vars, int depth, int indent);

int gLoopCounter = 0;  // unique loop-variable names per generated program

std::string genStmt(Rng& rng, const std::vector<Var>& vars, int depth, int indent) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  const Var& target = vars[rng.below(static_cast<uint32_t>(vars.size()))];
  switch (depth > 0 ? rng.below(4) : 0) {
    case 1:
      return pad + "if " + genCondition(rng, vars, 1) + " {\n" +
             genStmts(rng, vars, depth - 1, indent + 1) + pad + "}\n";
    case 2:
      return pad + "if " + genCondition(rng, vars, 1) + " {\n" +
             genStmts(rng, vars, depth - 1, indent + 1) + pad + "} else {\n" +
             genStmts(rng, vars, depth - 1, indent + 1) + pad + "}\n";
    case 3: {
      // Bounded countdown over a dedicated local the body cannot touch.
      const std::string li = strfmt("li%d", gLoopCounter++);
      std::string body = genStmts(rng, vars, depth - 1, indent + 1);
      return pad + "int:16 " + li + " = g0 & 7;\n" + pad + "while (" + li +
             " > 0) bound 8 {\n" + body + pad + "  " + li + " = " + li +
             " - 1;\n" + pad + "}\n";
    }
    default:
      return pad + target.name + " = " + genExpr(rng, vars, 2) + ";\n";
  }
}

std::string genStmts(Rng& rng, const std::vector<Var>& vars, int depth, int indent) {
  std::string out;
  const uint32_t n = 1 + rng.below(3);
  for (uint32_t i = 0; i < n; ++i) out += genStmt(rng, vars, depth, indent);
  return out;
}

struct GeneratedProgram {
  std::string source;
  std::vector<Var> vars;
};

GeneratedProgram generate(uint32_t seed) {
  Rng rng(seed);
  gLoopCounter = 0;
  GeneratedProgram gp;
  const int widths[] = {8, 12, 16};
  for (int i = 0; i < 5; ++i) {
    Var v;
    v.name = strfmt("g%d", i);
    v.width = widths[rng.below(3)];
    v.isSigned = rng.below(2) == 0;
    gp.vars.push_back(v);
  }
  std::string src;
  for (const Var& v : gp.vars)
    src += strfmt("%s:%d %s;\n", v.isSigned ? "int" : "uint", v.width, v.name.c_str());
  src += "void go() {\n" + genStmts(rng, gp.vars, 2, 1) + "}\n";
  gp.source = std::move(src);
  return gp;
}

class RandomProgramEquivalence : public ::testing::TestWithParam<uint32_t> {};

TEST_P(RandomProgramEquivalence, InterpreterAndTepAgree) {
  const GeneratedProgram gp = generate(GetParam());
  SCOPED_TRACE(gp.source);
  actionlang::Program program = actionlang::parseActionSource(gp.source);

  // Reference run.
  actionlang::RecordingEnv env;
  actionlang::Interp interp(program, env);
  Rng init(GetParam() ^ 0xABCDEF);
  std::vector<int64_t> inputs;
  for (const Var& v : gp.vars) {
    const int64_t raw = init.literal();
    const uint32_t wrapped = truncBits(static_cast<uint32_t>(raw), v.width);
    const int64_t value =
        v.isSigned ? signExtend(wrapped, v.width) : static_cast<int64_t>(wrapped);
    inputs.push_back(value);
    interp.setGlobalValue(v.name, value);
  }
  interp.callFromLabel("go", {});

  // Compiled runs across three architectures.
  compiler::HardwareBinding binding;
  for (const auto& [width, md, regs] :
       std::vector<std::tuple<int, bool, int>>{{8, false, 0}, {16, true, 0},
                                               {16, true, 12}}) {
    hwlib::ArchConfig arch;
    arch.dataWidth = width;
    arch.hasMulDiv = md;
    arch.registerFileSize = regs;
    for (const bool optimized : {false, true}) {
      compiler::Compiler comp(program, binding, arch,
                              optimized ? compiler::CompileOptions{}
                                        : compiler::CompileOptions::unoptimized());
      const auto app = comp.compileCalls({{"r", {{"go", {}}}}});
      tep::SimpleHost host;
      app.loadImage(host);
      for (size_t i = 0; i < gp.vars.size(); ++i) {
        const auto& p = app.globalPlacement.at(gp.vars[i].name);
        ASSERT_NE(p.storageClass, compiler::kStorageRegister);
        host.writeWord(p.address, static_cast<uint32_t>(inputs[i]),
                       (gp.vars[i].width <= 8) ? 1 : 2);
      }
      const tep::MicroTable micro(app.program, arch);
      tep::Tep tep(arch, host);
      tep.setProgram(&app.program, &micro);
      const auto run = tep.run("r", 4'000'000);
      ASSERT_TRUE(run.completed) << "arch " << arch.describe();
      for (const Var& v : gp.vars) {
        const auto& p = app.globalPlacement.at(v.name);
        const uint32_t raw = host.readWord(p.address, (v.width <= 8) ? 1 : 2);
        const int64_t got = v.isSigned
                                ? signExtend(truncBits(raw, v.width), v.width)
                                : static_cast<int64_t>(truncBits(raw, v.width));
        ASSERT_EQ(got, interp.globalValue(v.name))
            << v.name << " on " << arch.describe()
            << (optimized ? " optimized" : " unoptimized");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEquivalence,
                         ::testing::Range(1u, 101u));

// ------------------------------------------------- encode/decode property

TEST(ProgramEncoding, CompiledProgramsRoundTripThroughBinary) {
  // Every instruction the compiler can emit must survive binary
  // encode/decode (the program memory is 16-bit words).
  for (uint32_t seed : {3u, 7u, 21u}) {
    const GeneratedProgram gp = generate(seed);
    actionlang::Program program = actionlang::parseActionSource(gp.source);
    compiler::HardwareBinding binding;
    hwlib::ArchConfig arch;
    arch.dataWidth = 16;
    arch.hasMulDiv = true;
    compiler::Compiler comp(program, binding, arch);
    const auto app = comp.compileCalls({{"r", {{"go", {}}}}});
    const std::vector<uint16_t> words = tep::encodeProgram(app.program);
    size_t at = 0;
    size_t index = 0;
    while (at < words.size()) {
      const tep::Instr decoded = tep::decodeInstr(words, at);
      ASSERT_LT(index, app.program.code.size());
      const tep::Instr& original = app.program.code[index++];
      EXPECT_EQ(decoded.op, original.op);
      EXPECT_EQ(decoded.operand, original.operand) << original.str();
      if (tep::isWidthSensitive(original.op)) {
        EXPECT_EQ(decoded.width, original.width) << original.str();
      }
    }
    EXPECT_EQ(index, app.program.code.size());
  }
}

// ------------------------------------------- cycle-accounting property

// Wrap a generated action program in a chart with three parallel regions
// that all run go() on the same event, so the scheduler has real work to
// distribute (and, with fewer TEPs than regions, real queueing).
std::string accountingChart() {
  return R"chart(
chart Accounting;
event KICK;
orstate Root {
  contains Par;
  default Par;
}
andstate Par {
  orstate R0 { default A0;
    basicstate A0 { transition { target A0; label "KICK/go()"; } }
  }
  orstate R1 { default A1;
    basicstate A1 { transition { target A1; label "KICK/go()"; } }
  }
  orstate R2 { default A2;
    basicstate A2 { transition { target A2; label "KICK/go()"; } }
  }
}
)chart";
}

TEST(CycleAccounting, BusyStallIdleSumToTotalCyclesAcrossRandomCharts) {
  // Invariant of the observability layer: for every TEP, the busy, stall
  // and idle cycle counters partition the machine's total cycle count —
  // no cycle is lost or double-counted, for any program and TEP count.
  const auto chart = statechart::parseChart(accountingChart());
  for (uint32_t seed : {11u, 42u, 77u, 123u, 2024u}) {
    const GeneratedProgram gp = generate(seed);
    SCOPED_TRACE(gp.source);
    actionlang::Program program = actionlang::parseActionSource(gp.source);
    for (int teps : {1, 2, 3}) {
      hwlib::ArchConfig arch;
      arch.dataWidth = 16;
      arch.hasMulDiv = true;
      arch.numTeps = teps;
      arch.registerFileSize = 12;
      machine::PscpMachine m(chart, program, arch);
      obs::TraceRecorder recorder;
      m.setObsOptions({&recorder});
      for (int i = 0; i < 4; ++i) m.configurationCycle({"KICK"});
      for (int i = 0; i < teps; ++i) {
        EXPECT_EQ(recorder.tepBusyCycles(i) + recorder.tepStallCycles(i) +
                      recorder.tepIdleCycles(i),
                  m.totalCycles())
            << "seed " << seed << " TEP " << i << " of " << teps;
        EXPECT_GE(recorder.tepBusyCycles(i), 0);
        EXPECT_GE(recorder.tepStallCycles(i), 0);
        EXPECT_GE(recorder.tepIdleCycles(i), 0);
      }
      EXPECT_EQ(recorder.metrics().value("machine.cycles"), m.totalCycles());
    }
  }
}

}  // namespace
}  // namespace pscp
