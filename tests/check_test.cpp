// Tests for the bounded model checker (src/analysis/check): the spec
// language round-trips, each property class detects its seeded violation,
// truncated searches demote Pass to Unknown (MC000/MC005), spurious
// abstract candidates are refuted by the concrete machine (MC004), and —
// the acceptance bar — every seeded-violation counterexample lowers to a
// journal that the replay engine verifies on the interpreter AND the JIT
// tier.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "analysis/check/checker.hpp"
#include "analysis/check/spec.hpp"
#include "hwlib/arch_config.hpp"
#include "obs/journal/replay.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"
#include "tep/jit/tier.hpp"

namespace pscp::analysis::check {
namespace {

struct Scenario {
  const char* name;
  const char* chart;
  const char* act;
  const char* spec;
};

/// Parse + bind + compile + check in one go. The returned pair keeps the
/// image alive so tests can re-verify journals through the Replayer.
struct Checked {
  std::shared_ptr<statechart::Chart> chart;
  std::shared_ptr<actionlang::Program> actions;
  std::shared_ptr<const machine::ChartImage> image;
  CheckResult result;
};

Checked runOn(const Scenario& s, CheckOptions options = {}) {
  Checked c;
  c.chart = std::make_shared<statechart::Chart>(
      statechart::parseChart(s.chart, std::string(s.name) + ".chart"));
  c.actions = std::make_shared<actionlang::Program>(
      actionlang::parseActionSource(s.act, std::string(s.name) + ".act"));
  auto image = std::make_shared<machine::ChartImage>(*c.chart, *c.actions,
                                                     hwlib::analysisArch());
  c.image = image;
  SpecFile spec = parseSpec(s.spec, std::string(s.name) + ".spec");
  bindSpec(&spec, *c.chart);
  c.result = runBoundedCheck(*c.chart, *c.actions, spec, c.image, options);
  return c;
}

int countCode(const CheckResult& r, const char* code) {
  int n = 0;
  for (const Finding& f : r.findings)
    if (f.code == code) ++n;
  return n;
}

// ------------------------------------------------------------------- spec

TEST(CheckSpec, ParsesEveryDeclKind) {
  const SpecFile s = parseSpec(R"spec(
# full-surface smoke
spec Machine;
env events GO, STOP;
bound states 99;
bound depth 7;
expect violations;
invariant inv1: state A -> (cond C || event GO);
always inv2: !(state A && state B);
never nev1: cond C && !cond D;
leadsto l1: event GO => state B within 3;
pulse p1: port Out max 2 within 5;
)spec",
                               "t.spec");
  EXPECT_EQ(s.chartName, "Machine");
  EXPECT_EQ(s.envEvents, (std::vector<std::string>{"GO", "STOP"}));
  ASSERT_TRUE(s.boundStates.has_value());
  EXPECT_EQ(*s.boundStates, 99);
  ASSERT_TRUE(s.boundDepth.has_value());
  EXPECT_EQ(*s.boundDepth, 7);
  EXPECT_TRUE(s.expectViolations);
  ASSERT_EQ(s.properties.size(), 5u);
  EXPECT_EQ(s.properties[0].kind, PropKind::Invariant);
  EXPECT_EQ(s.properties[1].kind, PropKind::Invariant);
  EXPECT_EQ(s.properties[2].kind, PropKind::Never);
  EXPECT_EQ(s.properties[3].kind, PropKind::LeadsTo);
  EXPECT_EQ(s.properties[3].within, 3);
  EXPECT_EQ(s.properties[4].kind, PropKind::Pulse);
  EXPECT_EQ(s.properties[4].port, "Out");
  EXPECT_EQ(s.properties[4].maxPulses, 2);
  EXPECT_EQ(s.properties[4].within, 5);
}

TEST(CheckSpec, ExprPrecedenceAndRendering) {
  const SpecFile s = parseSpec(
      "invariant p: state A || state B && !state C -> cond D;", "t.spec");
  ASSERT_EQ(s.properties.size(), 1u);
  // `->` binds loosest, `&&` tighter than `||`, `!` tightest.
  const PropExpr& e = s.properties[0].expr;
  ASSERT_EQ(e.kind, PropExpr::Kind::Implies);
  EXPECT_EQ(e.kids[0].kind, PropExpr::Kind::Or);
  EXPECT_EQ(e.kids[1].kind, PropExpr::Kind::Cond);
  // str() renders back something that reparses to the same shape.
  const SpecFile again =
      parseSpec("invariant p: " + e.str() + ";", "t2.spec");
  EXPECT_EQ(again.properties[0].expr.str(), e.str());
}

TEST(CheckSpec, SyntaxAndBindErrorsThrow) {
  EXPECT_THROW((void)parseSpec("invariant broken: state ;", "t.spec"), Error);
  EXPECT_THROW((void)parseSpec("pulse p: port X max 1;", "t.spec"), Error);

  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Bind;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart");
  SpecFile unknownState = parseSpec("never n: state Missing;", "t.spec");
  EXPECT_THROW(bindSpec(&unknownState, chart), Error);
  SpecFile wrongChart = parseSpec("spec Other;\nnever n: state A;", "t.spec");
  EXPECT_THROW(bindSpec(&wrongChart, chart), Error);
  SpecFile badWindow =
      parseSpec("pulse p: port Missing max 1 within 99;", "t.spec");
  EXPECT_THROW(bindSpec(&badWindow, chart), Error);
  SpecFile ok = parseSpec("spec Bind;\nnever n: state A && event GO;", "t.spec");
  bindSpec(&ok, chart);
  EXPECT_NE(ok.properties[0].expr.kids[0].stateId, statechart::kNoState);
}

// ---------------------------------------------------- seeded-violation set
//
// Six scenarios, each with one deliberately broken property. This is the
// acceptance matrix: every counterexample must be machine-confirmed and
// its journal replay-verified on both tiers.

const Scenario kSeeded[] = {
    // 1. AND-parallel mutual exclusion broken by a missing busy check.
    {"mutex",
     R"chart(
chart Handshake;
event CLK external; event REQ external; event RELEASE external;
condition LOCKED;
port Grant data out width 8 address 0x10;
andstate Sys {
  orstate Client { contains CIdle, CWait, CCrit; default CIdle; }
  orstate Server { contains SIdle, SCrit; default SIdle; }
}
basicstate CIdle { transition { target CWait; label "REQ/Lock()"; } }
basicstate CWait { transition { target CCrit; label "CLK/Enter()"; } }
basicstate CCrit { transition { target CIdle; label "CLK/Leave()"; } }
basicstate SIdle { transition { target SCrit; label "CLK [not LOCKED]"; } }
basicstate SCrit { transition { target SIdle; label "RELEASE"; } }
)chart",
     R"act(
void Lock() { set_cond(LOCKED, 1); }
void Enter() { write_port(Grant, 1); }
void Leave() { write_port(Grant, 0); set_cond(LOCKED, 0); }
)act",
     "spec Handshake;\nenv events CLK, REQ, RELEASE;\nexpect violations;\n"
     "never mutex_breach: state CCrit && state SCrit;\n"},

    // 2. Armed-condition safety: disarm path forgets to clear the flag.
    {"armed",
     R"chart(
chart Armed;
event ARM external; event FIRE external;
condition ARMED;
orstate Top { contains Safe, Hot; default Safe; }
basicstate Safe { transition { target Hot; label "ARM/DoArm()"; } }
basicstate Hot  { transition { target Safe; label "FIRE/DoFire()"; } }
)chart",
     R"act(
void DoArm() { set_cond(ARMED, 1); }
void DoFire() { }
)act",
     "spec Armed;\nenv events ARM, FIRE;\nexpect violations;\n"
     "never armed_in_safe: cond ARMED && state Safe;\n"},

    // 3. Bounded response: service takes three cooperative cycles but the
    // deadline allows two (and the environment may also just stall).
    {"leadsto",
     R"chart(
chart Service;
event REQ external; event CLK external;
orstate Top { contains Idle, S1, S2, Served; default Idle; }
basicstate Idle   { transition { target S1; label "REQ"; } }
basicstate S1     { transition { target S2; label "CLK"; } }
basicstate S2     { transition { target Served; label "CLK"; } }
basicstate Served { transition { target Idle; label "CLK"; } }
)chart",
     "",
     "spec Service;\nenv events REQ, CLK;\nexpect violations;\n"
     "leadsto served: event REQ => state Served within 2;\n"},

    // 4. Pulse-rate overrun: unthrottled self-loop kicks the port.
    {"pulse",
     R"chart(
chart PulseGen;
event TICK external; event STOP external;
port Motor data out width 8 address 0x30;
orstate Gen { contains Run, Halt; default Run; }
basicstate Run  { transition { target Run; label "TICK/Kick()"; }
                  transition { target Halt; label "STOP"; } }
basicstate Halt { transition { target Run; label "TICK"; } }
)chart",
     R"act(
void Kick() { write_port(Motor, 1); }
)act",
     "spec PulseGen;\nenv events TICK, STOP;\nexpect violations;\n"
     "pulse motor_rate: port Motor max 2 within 4;\n"},

    // 5. Forbidden state reached through an internal raise cascade only —
    // no single environment event leads there directly.
    {"cascade",
     R"chart(
chart Cascade;
event GO external; event HOP; event SKIP;
orstate Top { contains A, B, C, Trap; default A; }
basicstate A { transition { target B; label "GO/RaiseHop()"; } }
basicstate B { transition { target C; label "HOP/RaiseSkip()"; } }
basicstate C { transition { target Trap; label "SKIP"; } }
basicstate Trap { }
)chart",
     R"act(
void RaiseHop() { raise(HOP); }
void RaiseSkip() { raise(SKIP); }
)act",
     "spec Cascade;\nenv events GO;\nexpect violations;\n"
     "never trapped: state Trap;\n"},

    // 6. Condition/state coupling broken: release path drops the state
    // but keeps the flag.
    {"lockstate",
     R"chart(
chart Lock;
event TAKE external; event DROP external;
condition LOCKED;
orstate Top { contains Free, Held; default Free; }
basicstate Free { transition { target Held; label "TAKE/DoLock()"; } }
basicstate Held { transition { target Free; label "DROP"; } }
)chart",
     R"act(
void DoLock() { set_cond(LOCKED, 1); }
)act",
     "spec Lock;\nenv events TAKE, DROP;\nexpect violations;\n"
     "invariant locked_means_held: cond LOCKED -> state Held;\n"},
};

// The acceptance bar: every seeded violation is found, machine-confirmed,
// and its journal replays to the same violation on interpreter and JIT.
TEST(CheckAcceptance, SeededViolationsReplayVerifyOnBothTiers) {
  for (const Scenario& s : kSeeded) {
    SCOPED_TRACE(s.name);
    const Checked c = runOn(s);
    ASSERT_EQ(c.result.failCount(), 1) << c.result.renderText();
    const PropertyReport& p = c.result.properties[0];
    EXPECT_EQ(p.status, PropStatus::Fail);
    EXPECT_TRUE(p.cex.confirmed);
    EXPECT_FALSE(p.spurious);
    ASSERT_TRUE(p.cex.journalBuilt);
    EXPECT_TRUE(p.cex.interpVerified);
    if (tep::jit::jitBackendAvailable()) {
      EXPECT_TRUE(p.cex.jitChecked);
      EXPECT_TRUE(p.cex.jitConfirmed);
      EXPECT_TRUE(p.cex.jitVerified);
    }

    // Independent re-verification: hand the journal straight to the
    // replay engine, exactly as `pscp_replay verify` would.
    for (const tep::jit::JitMode mode :
         {tep::jit::JitMode::kOff, tep::jit::JitMode::kAlways}) {
      if (mode == tep::jit::JitMode::kAlways &&
          !tep::jit::jitBackendAvailable())
        continue;
      obs::journal::Replayer replayer(&p.cex.journal, c.image);
      obs::journal::ReplayOptions options;
      options.workerThreads = 1;
      options.jitMode = mode;
      options.verifyCheckpoints = true;
      const obs::journal::ReplayResult rr = replayer.run(options);
      EXPECT_TRUE(rr.ok) << rr.error;
      EXPECT_TRUE(rr.verified);
    }

    // The journal self-describes as a counterexample.
    EXPECT_NE(p.cex.journal.note().find("counterexample"), std::string::npos);
  }
}

// ------------------------------------------------------------- soundness

TEST(CheckSoundness, StateCapDemotesPassToUnknown) {
  const Scenario clean{"capped",
                       R"chart(
chart Capped;
event GO external;
orstate Top { contains A, B, C; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target C; label "GO"; } }
basicstate C { transition { target A; label "GO"; } }
)chart",
                       "",
                       "spec Capped;\nenv events GO;\n"
                       "never unreached: state C && state A;\n"};
  CheckOptions options;
  options.maxStates = 1;
  const Checked c = runOn(clean, options);
  EXPECT_FALSE(c.result.complete);
  EXPECT_FALSE(c.result.passIsSound());
  EXPECT_GE(countCode(c.result, kCodeCheckTruncated), 1);
  ASSERT_EQ(c.result.properties.size(), 1u);
  EXPECT_EQ(c.result.properties[0].status, PropStatus::Unknown);
  EXPECT_GE(countCode(c.result, kCodeCheckUnknown), 1);
}

TEST(CheckSoundness, CompleteSearchProvesPass) {
  const Scenario clean{"complete",
                       R"chart(
chart Complete;
event GO external;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                       "",
                       "spec Complete;\nenv events GO;\n"
                       "never both: state A && state B;\n"
                       "invariant one: state A || state B;\n"};
  const Checked c = runOn(clean);
  EXPECT_TRUE(c.result.complete);
  EXPECT_TRUE(c.result.passIsSound());
  for (const PropertyReport& p : c.result.properties)
    EXPECT_EQ(p.status, PropStatus::Pass) << p.name;
  EXPECT_EQ(countCode(c.result, kCodeCheckTruncated), 0);
}

// A candidate that only exists in an uncertainty branch (data-dependent
// condition write whose guard is concretely never true) is refuted by the
// confirmation run and reported spurious, not Fail.
TEST(CheckSoundness, SpuriousCandidateIsRefutedAndFlagged) {
  const Scenario spurious{"spurious",
                          R"chart(
chart Spurious;
event GO external;
condition TRAP;
port In data in width 8 address 0x50;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Maybe()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                          R"act(
void Maybe() {
  uint:8 v = read_port(In);
  if (v > 200) { set_cond(TRAP, 1); }
}
)act",
                          "spec Spurious;\nenv events GO;\n"
                          "never trapped: cond TRAP;\n"};
  const Checked c = runOn(spurious);
  ASSERT_EQ(c.result.properties.size(), 1u);
  const PropertyReport& p = c.result.properties[0];
  EXPECT_TRUE(p.spurious);
  EXPECT_EQ(p.status, PropStatus::Unknown);
  EXPECT_FALSE(p.cex.confirmed);
  EXPECT_GE(countCode(c.result, kCodeCheckSpurious), 1);
  EXPECT_EQ(c.result.failCount(), 0);
  EXPECT_FALSE(c.result.modelExact);
}

// ------------------------------------------------------------------ report

TEST(CheckReport, JsonCarriesSchemaHashAndEmbeddedJournal) {
  const Checked c = runOn(kSeeded[0]);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parseJson(c.result.renderJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.findPath("schema")->string, "pscp-check-v1");
  EXPECT_EQ(parsed.findPath("chart")->string, "Handshake");
  ASSERT_NE(parsed.findPath("image_hash"), nullptr);
  EXPECT_EQ(parsed.findPath("image_hash")->string,
            strfmt("0x%016llx",
                   static_cast<unsigned long long>(c.result.imageHash)));
  ASSERT_NE(parsed.findPath("properties"), nullptr);
  ASSERT_FALSE(parsed.findPath("properties")->array.empty());
  const JsonValue& prop = parsed.findPath("properties")->array[0];
  EXPECT_EQ(prop.find("status")->string, "fail");
  ASSERT_NE(prop.find("counterexample"), nullptr);
  const JsonValue* journal = prop.find("counterexample")->find("journal");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->find("schema")->string, "pscp-journal-v1");
  // The embedded journal's image hash matches the checker's.
  EXPECT_EQ(journal->find("image_hash")->string,
            parsed.findPath("image_hash")->string);
}

TEST(CheckReport, TextNamesEveryPropertyAndStatus) {
  const Checked c = runOn(kSeeded[1]);
  const std::string text = c.result.renderText();
  EXPECT_NE(text.find("armed_in_safe"), std::string::npos);
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("PSCP-MC001"), std::string::npos);
}

// ---------------------------------------------------------------- nesting

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// `count` copies of `term` joined by `op`.
std::string chain(const std::string& term, const std::string& op, int count) {
  return term + repeat(op + term, count - 1);
}

TEST(CheckSpec, NestingPastTheBoundIsALocatedError) {
  constexpr int kHostile = 20000;
  for (const std::string& expr :
       {repeat("(", kHostile) + "state A" + repeat(")", kHostile),
        repeat("!", kHostile) + "state A", chain("state A", " || ", kHostile),
        chain("state A", " && ", kHostile), chain("state A", " -> ", kHostile),
        chain("state A", " || ", kMaxNesting + 1),
        repeat("(", kMaxNesting - 1) + "state A || state A" +
            repeat(")", kMaxNesting - 1)}) {
    std::string msg;
    try {
      (void)parseSpec("invariant deep: " + expr + ";", "deep.spec");
    } catch (const Error& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("deep.spec:1:"), std::string::npos) << msg.substr(0, 200);
    EXPECT_NE(msg.find("spec expression nested deeper than 256 levels"),
              std::string::npos)
        << msg.substr(0, 200);
  }
}

TEST(CheckSpec, NestingAtTheBoundIsAccepted) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Bind;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart");
  SpecFile spec = parseSpec(
      "spec Bind;\n"
      "invariant parens: " + repeat("(", kMaxNesting - 2) + "state A || state B" +
          repeat(")", kMaxNesting - 2) + ";\n"
      "invariant nots: " + repeat("!", kMaxNesting - 1) + "state A;\n"
      "invariant ors: " + chain("state A", " || ", kMaxNesting - 1) + " || state B;\n"
      "invariant implies: " + chain("state A", " -> ", kMaxNesting) + ";\n",
      "deep.spec");
  bindSpec(&spec, chart);
  ASSERT_EQ(spec.properties.size(), 4u);
  // The rendering recurses over every level and reparses to the same tree.
  const SpecFile again =
      parseSpec("invariant p: " + spec.properties[2].expr.str() + ";", "t.spec");
  EXPECT_EQ(again.properties[0].expr.str(), spec.properties[2].expr.str());
}

}  // namespace
}  // namespace pscp::analysis::check
