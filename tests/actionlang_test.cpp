#include <gtest/gtest.h>

#include "actionlang/interp.hpp"
#include "actionlang/parser.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"

namespace pscp::actionlang {
namespace {

// --------------------------------------------------------------- parsing

TEST(ActionParser, PaperPreambleParses) {
  // Mirrors the generated preamble of Fig. 2b (Port structs are modelled by
  // the chart; here we exercise the type syntax).
  Program p = parseActionSource(R"code(
    enum ECD { Event, Condition, Data };
    enum Encoding { Onehot, Binary };
    typedef struct {
      int:8  Width;
      int:8  Address;
    } PortInfo;
    typedef struct {
      int:4   Size;
      int:8   Representation;
      int:4   PositionInPort;
      int:32  TimeConstraint;
    } EventCondition;
    EventCondition X_PULSE_INFO = { 1, B:1, 0, 400 };
  )code");
  EXPECT_EQ(p.enumConstants.at("Condition"), 1);
  EXPECT_EQ(p.structs.at("EventCondition")->byteSize(), 1 + 1 + 1 + 4);
  const GlobalVar* g = p.findGlobal("X_PULSE_INFO");
  ASSERT_NE(g, nullptr);
  ASSERT_EQ(g->init.size(), 4u);
  EXPECT_EQ(g->init[3], 400);
}

TEST(ActionParser, BitWidthTypes) {
  Program p = parseActionSource("int:3 x = 5; uint:12 y = 0xFFF;");
  EXPECT_EQ(p.findGlobal("x")->type->width(), 3);
  EXPECT_FALSE(p.findGlobal("y")->type->isSigned());
}

TEST(ActionParser, BinaryLiterals) {
  Program p = parseActionSource("int v = B:001011;");
  EXPECT_EQ(p.findGlobal("v")->init[0], 11);
}

TEST(ActionParser, OctalAndHex) {
  Program p = parseActionSource("int a = 0717; int b = 0x2B;");
  EXPECT_EQ(p.findGlobal("a")->init[0], 0717);
  EXPECT_EQ(p.findGlobal("b")->init[0], 0x2B);
}

TEST(ActionParser, DefaultIntWidthIs16) {
  Program p = parseActionSource("int x;");
  EXPECT_EQ(p.findGlobal("x")->type->width(), 16);
}

TEST(ActionParser, ArraysAndNestedInit) {
  Program p = parseActionSource("int:16 ramp[4] = { 1, 2, 3, 4 };");
  const GlobalVar* g = p.findGlobal("ramp");
  EXPECT_EQ(g->type->kind(), TypeKind::Array);
  EXPECT_EQ(g->type->byteSize(), 8);
  EXPECT_EQ(g->init[2], 3);
}

TEST(ActionParser, Errors) {
  EXPECT_THROW(parseActionSource("int:0 x;"), Error);
  EXPECT_THROW(parseActionSource("int:33 x;"), Error);
  EXPECT_THROW(parseActionSource("int x = y;"), Error);        // y not a constant
  EXPECT_THROW(parseActionSource("void f() { x = 1; }"), Error);  // undeclared
  EXPECT_THROW(parseActionSource("void f() { while (1) { } }"), Error);  // no bound
  EXPECT_THROW(parseActionSource("void f() { return 1; }"), Error);
  EXPECT_THROW(parseActionSource("int f() { return; }"), Error);
  EXPECT_THROW(parseActionSource("void f() { 1 + 2; }"), Error);  // not a call
}

TEST(ActionParser, RecursionRejected) {
  EXPECT_THROW(parseActionSource("void f() { g(); } void g() { f(); }"), Error);
  EXPECT_THROW(parseActionSource("void f() { f(); }"), Error);
}

TEST(ActionParser, NonRecursiveCallChainAccepted) {
  EXPECT_NO_THROW(parseActionSource(
      "int h() { return 1; } int g() { return h(); } int f() { return g(); }"));
}

TEST(ActionTypes, PromotionRules) {
  Program p = parseActionSource(R"code(
    int:8 a; int:16 b;
    int f() { return a + b; }
    int g() { return a < b; }
  )code");
  // Type of a+b inside f: widest operand wins.
  const Function& f = p.function("f");
  EXPECT_EQ(f.body[0]->expr->type->width(), 16);
  const Function& g = p.function("g");
  EXPECT_EQ(g.body[0]->expr->type->width(), 1);
}

TEST(ActionTypes, BoundaryWidths) {
  // The full [1, 32] width range is valid, signed and unsigned.
  Program p = parseActionSource(R"code(
    int:1 s1; uint:1 u1; int:32 s32; uint:32 u32;
  )code");
  EXPECT_EQ(p.findGlobal("s1")->type->width(), 1);
  EXPECT_TRUE(p.findGlobal("s1")->type->isSigned());
  EXPECT_EQ(p.findGlobal("u32")->type->width(), 32);
  EXPECT_FALSE(p.findGlobal("u32")->type->isSigned());
  // Just past either edge is rejected, for unsigned too.
  EXPECT_THROW(parseActionSource("uint:0 x;"), Error);
  EXPECT_THROW(parseActionSource("uint:33 x;"), Error);
}

TEST(ActionTypes, OneBitArithmetic) {
  // int:1 holds {-1, 0}: incrementing 0 wraps 1 to -1. uint:1 holds {0, 1}.
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:1 s; uint:1 u;
    void bump() { s = s + 1; u = u + 1; }
    int:8 gets() { return s; }
    int:8 getu() { return u; }
  )code");
  Interp interp(p, env);
  interp.call("bump");
  EXPECT_EQ(interp.call("gets"), -1);
  EXPECT_EQ(interp.call("getu"), 1);
  interp.call("bump");
  EXPECT_EQ(interp.call("gets"), 0);
  EXPECT_EQ(interp.call("getu"), 0);
}

TEST(ActionTypes, BinaryConstantOverflowWraps) {
  // B:10011 (19) does not fit uint:4 storage: reads see it wrapped to 3,
  // matching the datapath's truncating stores.
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    uint:4 x;
    void put() { x = B:10011; }
    int:8 get() { return x; }
  )code");
  Interp interp(p, env);
  interp.call("put");
  EXPECT_EQ(interp.call("get"), 3);
}

TEST(ActionTypes, MixedWidthArithmetic) {
  // Widest operand wins; signed wins when either side is signed. The
  // comparison result is always width 1.
  Program p = parseActionSource(R"code(
    int:8 s8; uint:16 u16; uint:8 u8;
    int f() { return s8 + u16; }
    int g() { return u8 + u16; }
    int h() { return s8 * u8; }
  )code");
  const TypePtr& tf = p.function("f").body[0]->expr->type;
  EXPECT_EQ(tf->width(), 16);
  EXPECT_TRUE(tf->isSigned());
  const TypePtr& tg = p.function("g").body[0]->expr->type;
  EXPECT_EQ(tg->width(), 16);
  EXPECT_FALSE(tg->isSigned());
  const TypePtr& th = p.function("h").body[0]->expr->type;
  EXPECT_EQ(th->width(), 8);
  EXPECT_TRUE(th->isSigned());
}

// Arithmetic on constants alone is exact: the operator takes the smallest
// signed width holding its value, as a literal does, instead of wrapping
// at its operands' width before any context widens it. The same folds
// reach both backends (the compiled routine below, on both tiers).
std::string sumOfOnes(int terms) {
  std::string sum = "1";
  for (int i = 1; i < terms; ++i) sum += " + 1";
  return sum;
}

const std::string kConstantFolds = R"code(
  int:16 y = 3;
  int:16 two; int:16 x; int:16 ypair; int:16 yquad; int:16 shifted; int:16 many;
  int:16 unneg;
  int:16 fTwo() { return 1 + 1; }
  void fStore() { x = 100 + 100; }
  int:16 fPair() { return y + (1 + 1); }
  int:16 fQuad() { return y * (2 * 2); }
  int:16 fShift() { return 1 << 4; }
  int:16 fMany() { return )code" + sumOfOnes(200) + R"code(; }
  int:16 fUnneg() { return -(0 - 2); }
  void Fold() {
    two = 1 + 1;
    x = 100 + 100;
    ypair = y + (1 + 1);
    yquad = y * (2 * 2);
    shifted = 1 << 4;
    many = )code" + sumOfOnes(200) + R"code(;
    unneg = -(0 - 2);
  }
)code";

TEST(ActionTypes, ConstantExpressionsFoldExactly) {
  RecordingEnv env;
  Program p = parseActionSource(kConstantFolds);
  EXPECT_EQ(p.function("fTwo").body[0]->expr->type->width(), 3);
  EXPECT_EQ(p.function("fShift").body[0]->expr->type->width(), 6);
  Interp interp(p, env);
  EXPECT_EQ(interp.call("fTwo"), 2);
  interp.call("fStore");
  EXPECT_EQ(interp.globalValue("x"), 200);
  EXPECT_EQ(interp.call("fPair"), 5);
  EXPECT_EQ(interp.call("fQuad"), 12);
  EXPECT_EQ(interp.call("fShift"), 16);
  EXPECT_EQ(interp.call("fMany"), 200);
  EXPECT_EQ(interp.call("fUnneg"), 2);
}

TEST(ActionTypes, ConstantExpressionsFoldExactlyOnBothTiers) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
    chart Folds;
    event GO;
    orstate Top { contains Idle, Done; default Idle; }
    basicstate Idle { transition { target Done; label "GO/Fold()"; } }
    basicstate Done { }
  )chart");
  const Program actions = parseActionSource(kConstantFolds);
  for (const tep::jit::JitMode mode : {tep::jit::JitMode::kOff, tep::jit::JitMode::kAlways}) {
    SCOPED_TRACE(tep::jit::jitModeName(mode));
    hwlib::ArchConfig arch;
    arch.dataWidth = 16;
    arch.hasMulDiv = true;
    machine::PscpMachine m(chart, actions, arch);
    m.setJitMode(mode);
    m.configurationCycle({"GO"});
    ASSERT_TRUE(m.isActive("Done"));
    EXPECT_EQ(m.globalValue("two"), 2);
    EXPECT_EQ(m.globalValue("x"), 200);
    EXPECT_EQ(m.globalValue("ypair"), 5);
    EXPECT_EQ(m.globalValue("yquad"), 12);
    EXPECT_EQ(m.globalValue("shifted"), 16);
    EXPECT_EQ(m.globalValue("many"), 200);
    EXPECT_EQ(m.globalValue("unneg"), 2);
    if (mode == tep::jit::JitMode::kAlways && tep::jit::jitBackendAvailable()) {
      EXPECT_EQ(m.jitNativeRuns(), 1);
    }
  }
}

TEST(ActionTypes, MixedWidthRuntimeValues) {
  // A signed int:8 at -1 added to an unsigned uint:16 computes in the
  // promoted signed 16-bit type.
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:8 a; uint:16 b;
    void setup() { a = 0 - 1; b = 100; }
    int:16 sum() { return a + b; }
  )code");
  Interp interp(p, env);
  interp.call("setup");
  EXPECT_EQ(interp.call("sum"), 99);
}

// ----------------------------------------------------------- interpreter

// signed-wrap helper for readability
int64_t wrapToHelper(int64_t v, int w) {
  return signExtend(truncBits(static_cast<uint32_t>(v), w), w);
}

TEST(ActionInterp, ArithmeticAndWidthWrap) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:8 counter;
    void bump() { counter = counter + 200; }
    int:8 get() { return counter; }
  )code");
  Interp interp(p, env);
  interp.call("bump");
  // 0 + 200 wraps in signed 8-bit to -56.
  EXPECT_EQ(interp.call("get"), -56);
  interp.call("bump");
  EXPECT_EQ(interp.call("get"), wrapToHelper(-56 + 200, 8));
}

TEST(ActionInterp, UnsignedStaysUnsigned) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    uint:8 c;
    void bump() { c = c + 200; }
    int:16 get() { return c; }
  )code");
  Interp interp(p, env);
  interp.call("bump");
  EXPECT_EQ(interp.call("get"), 200);
  interp.call("bump");
  EXPECT_EQ(interp.call("get"), (200 + 200) & 0xFF);
}

TEST(ActionInterp, StructsAndArrays) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    typedef struct { int:16 pos; int:16 vel; } Motor;
    Motor mx = { 10, 2 };
    int:16 table[3] = { 5, 6, 7 };
    void step(Motor m) { m.pos = m.pos + m.vel; }
    int:16 readPos() { return mx.pos; }
    int:16 readTable(int:8 i) { return table[i]; }
  )code");
  Interp interp(p, env);
  interp.call("readPos");
  interp.callFromLabel("step", {"mx"});
  EXPECT_EQ(interp.call("readPos"), 12);
  EXPECT_EQ(interp.call("readTable", {2}), 7);
}

TEST(ActionInterp, ByReferenceStructParam) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    typedef struct { int:16 v; } Box;
    Box a = { 1 };
    Box b = { 100 };
    void add(Box dst, Box src) { dst.v = dst.v + src.v; }
    int:16 getA() { return a.v; }
  )code");
  Interp interp(p, env);
  interp.callFromLabel("add", {"a", "b"});
  EXPECT_EQ(interp.call("getA"), 101);
}

TEST(ActionInterp, ControlFlow) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:16 abs16(int:16 x) { if (x < 0) { return -x; } else { return x; } }
    int:16 sumTo(int:16 n) {
      int:16 acc = 0;
      int:16 i = 1;
      while (i <= n) bound 100 { acc = acc + i; i = i + 1; }
      return acc;
    }
  )code");
  Interp interp(p, env);
  EXPECT_EQ(interp.call("abs16", {-42}), 42);
  EXPECT_EQ(interp.call("abs16", {42}), 42);
  EXPECT_EQ(interp.call("sumTo", {10}), 55);
  EXPECT_EQ(interp.call("sumTo", {0}), 0);
}

TEST(ActionInterp, LoopBoundViolationThrows) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    void spin(int:16 n) {
      int:16 i = 0;
      while (i < n) bound 5 { i = i + 1; }
    }
  )code");
  Interp interp(p, env);
  EXPECT_NO_THROW(interp.call("spin", {5}));
  EXPECT_THROW(interp.call("spin", {6}), Error);
}

TEST(ActionInterp, IntrinsicsReachHardware) {
  RecordingEnv env;
  env.ports["Buffer"] = 0x42;
  Program p = parseActionSource(R"code(
    uint:8 last;
    void GetByte() { last = read_port(Buffer); }
    void SetTrue(cond c) { set_cond(c, 1); }
    void Announce() { raise(END_MOVE); }
    int:1 Check() { return test_cond(MOVEMENT); }
    void Echo() { write_port(Out, last + 1); }
  )code");
  Interp interp(p, env);
  interp.call("GetByte");
  EXPECT_EQ(interp.globalValue("last"), 0x42);
  interp.callFromLabel("SetTrue", {"XFINISH"});
  EXPECT_TRUE(env.conditions["XFINISH"]);
  interp.call("Announce");
  ASSERT_EQ(env.raised.size(), 1u);
  EXPECT_EQ(env.raised[0], "END_MOVE");
  env.conditions["MOVEMENT"] = true;
  EXPECT_EQ(interp.call("Check"), 1);
  interp.call("Echo");
  EXPECT_EQ(env.ports["Out"], 0x43u);
}

TEST(ActionInterp, EventParamPassThrough) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    void inner(event e) { raise(e); }
    void outer(event e) { inner(e); }
  )code");
  Interp interp(p, env);
  interp.callFromLabel("outer", {"PING"});
  ASSERT_EQ(env.raised.size(), 1u);
  EXPECT_EQ(env.raised[0], "PING");
}

TEST(ActionInterp, ShortCircuitEvaluation) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:16 hits;
    int:1 mark() { hits = hits + 1; return 1; }
    void f(int:1 gate) { if (gate && mark()) { } }
    int:16 count() { return hits; }
  )code");
  Interp interp(p, env);
  interp.call("f", {0});
  EXPECT_EQ(interp.call("count"), 0);  // rhs never evaluated
  interp.call("f", {1});
  EXPECT_EQ(interp.call("count"), 1);
}

TEST(ActionInterp, DivisionByZeroThrows) {
  RecordingEnv env;
  Program p = parseActionSource("int:16 f(int:16 a, int:16 b) { return a / b; }");
  Interp interp(p, env);
  EXPECT_EQ(interp.call("f", {10, 3}), 3);
  EXPECT_THROW(interp.call("f", {10, 0}), Error);
}

TEST(ActionInterp, EnumConstantsFold) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    enum Motors { MX, MY, MZ = 5, MPHI };
    int:16 pick(int:16 which) {
      if (which == MPHI) { return 100; }
      return MZ;
    }
  )code");
  Interp interp(p, env);
  EXPECT_EQ(interp.call("pick", {6}), 100);
  EXPECT_EQ(interp.call("pick", {0}), 5);
}

TEST(ActionInterp, NegativeArrayIndexThrows) {
  RecordingEnv env;
  Program p = parseActionSource(R"code(
    int:16 t[4] = { 1, 2, 3, 4 };
    int:16 get(int:16 i) { return t[i]; }
  )code");
  Interp interp(p, env);
  EXPECT_THROW(interp.call("get", {-1}), Error);
  EXPECT_THROW(interp.call("get", {4}), Error);
}

// --------------------------------------------------------------- nesting

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `count` copies of `term` joined by `op`.
std::string chain(const std::string& term, const std::string& op, int count) {
  return term + repeat(op + term, count - 1);
}

/// The message of the Error parsing `src` throws, or "" when it parses.
std::string parseError(const std::string& src) {
  try {
    (void)parseActionSource(src);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ActionParser, NestingPastTheBoundIsALocatedError) {
  constexpr int kHostile = 20000;
  const std::string expr = "expression nested deeper than 256 levels";
  for (const std::string& rhs : {chain("1", " + ", kHostile),
                                 repeat("- ", kHostile) + "1",
                                 repeat("(", kHostile) + "1" + repeat(")", kHostile),
                                 "a" + repeat("[0]", kHostile),
                                 chain("1", " + ", kMaxNesting + 1),
                                 repeat("(", kMaxNesting - 1) + "x + x" +
                                     repeat(")", kMaxNesting - 1)}) {
    const std::string msg = parseError("int:16 a[1]; int:16 x; void f() { x = " + rhs + "; }");
    EXPECT_NE(msg.find(expr), std::string::npos) << msg.substr(0, 200);
    EXPECT_NE(msg.find("<actions>:1:"), std::string::npos) << msg.substr(0, 200);
  }
  const std::string stmt = "statement nested deeper than 256 levels";
  for (const std::string& body :
       {repeat("if (x) ", kHostile) + "x = 1;",
        repeat("{ ", kHostile) + repeat("} ", kHostile),
        repeat("while (x) bound 1 ", kHostile) + "x = 1;"}) {
    const std::string msg = parseError("int:16 x; void f() { " + body + " }");
    EXPECT_NE(msg.find(stmt), std::string::npos) << msg.substr(0, 200);
  }
  EXPECT_NE(parseError("int:16 g" + repeat("[1]", kHostile) + ";")
                .find("array type nested deeper than 256 levels"),
            std::string::npos);
  EXPECT_NE(parseError("int:16 g[1] = " + repeat("{", kHostile) + "1" +
                       repeat("}", kHostile) + ";")
                .find("initializer nested deeper than 256 levels"),
            std::string::npos);
}

TEST(ActionParser, NestingAtTheBoundIsAccepted) {
  // Each of these is exactly kMaxNesting levels deep, and the later passes
  // (checker, interpreter) recurse over it.
  RecordingEnv env;
  const int inner = kMaxNesting - 1;
  Program p = parseActionSource(
      "int:16 x;\n"
      "int:16 sum() { x = 1; return " + chain("x", " + ", kMaxNesting) + "; }\n"
      "int:16 neg() { return " + repeat("- ", inner) + "1; }\n"
      "int:16 par() { return " + repeat("(", inner) + "7" + repeat(")", inner) + "; }\n"
      "int:16 sum2() { x = 2; return " + repeat("(", inner - 1) + "x + x" +
      repeat(")", inner - 1) + "; }\n"
      "int:16 ifs() { x = 0; " + repeat("if (1) ", inner) + "x = 3; return x; }\n"
      "int:16 blocks() { " + repeat("{ ", inner) + "x = 4;" + repeat(" }", inner) +
      " return x; }\n");
  Interp interp(p, env);
  EXPECT_EQ(interp.call("sum"), kMaxNesting);
  EXPECT_EQ(interp.call("neg"), -1);
  EXPECT_EQ(interp.call("par"), 7);
  EXPECT_EQ(interp.call("sum2"), 4);
  EXPECT_EQ(interp.call("ifs"), 3);
  EXPECT_EQ(interp.call("blocks"), 4);
}

}  // namespace
}  // namespace pscp::actionlang
