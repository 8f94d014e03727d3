// Tests for the chart-level static analyzer (src/analysis): each crafted
// defect chart must produce its expected diagnostic code, clean charts and
// the SMD workload must produce zero error-severity findings, and the
// JSON report must round-trip through the repo's own parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "actionlang/parser.hpp"
#include "analysis/analyzer.hpp"
#include "hwlib/arch_config.hpp"
#include "analysis/effects.hpp"
#include "obs/journal/journal.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/json.hpp"
#include "workloads/smd.hpp"

namespace pscp::analysis {
namespace {

hwlib::ArchConfig testArch() {
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.hasMulDiv = true;
  arch.registerFileSize = 8;
  arch.internalRamBytes = 1024;
  arch.numTeps = 2;
  return arch;
}

/// Parse, check, compile, analyze. Compilation is skipped (AST-only
/// analysis) when `compile` is false.
AnalysisResult analyze(const char* chartText, const char* actionText,
                       bool compile = true, AnalyzerOptions options = {}) {
  const statechart::Chart chart = statechart::parseChart(chartText, "test.chart");
  actionlang::Program program = actionlang::parseActionSource(actionText, "test.act");
  Analyzer analyzer(chart, program, options);
  std::unique_ptr<machine::ChartImage> image;
  if (compile) {
    image = std::make_unique<machine::ChartImage>(chart, program, testArch());
    analyzer.attachCompiled(image->app());
  }
  return analyzer.run();
}

int countCode(const AnalysisResult& r, const char* code) {
  return static_cast<int>(
      std::count_if(r.findings.begin(), r.findings.end(),
                    [&](const Finding& f) { return f.code == code; }));
}

// ---------------------------------------------------------------- conflicts

// Defect 1: two transitions from one state, overlapping triggers, equal
// scope depth — the runtime resolves by declaration order, silently.
TEST(AnalysisConflicts, NondeterministicPairIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart Conflicted;
event GO; event STOP;
orstate Top { contains A, B, C; default A; }
basicstate A {
  transition { target B; label "GO/Act1()"; }
  transition { target C; label "GO or STOP/Act2()"; }
}
basicstate B { transition { target A; label "STOP"; } }
basicstate C { transition { target A; label "STOP"; } }
)chart",
                                   R"act(
void Act1() {}
void Act2() {}
)act");
  EXPECT_GE(countCode(r, kCodeConflict), 1);
  const Finding* f = r.findCode(kCodeConflict);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_TRUE(f->loc.known());
  EXPECT_EQ(f->loc.file, "test.chart");
}

// Structural priority (outer transition beats inner) is a Note, not a
// Warning — the resolution is defined, just worth reviewing.
TEST(AnalysisConflicts, PriorityResolvedPairIsNote) {
  const AnalysisResult r = analyze(R"chart(
chart Prioritized;
event GO; event RESET;
orstate Top { contains Outer, Done; default Outer; }
orstate Outer {
  contains In1, In2;
  default In1;
  transition { target Done; label "RESET"; }
}
basicstate In1 { transition { target In2; label "RESET or GO"; } }
basicstate In2 { transition { target In1; label "GO"; } }
basicstate Done { transition { target Outer; label "GO"; } }
)chart",
                                   "");
  EXPECT_GE(countCode(r, kCodeMaskedConflict), 1);
  EXPECT_EQ(r.findCode(kCodeMaskedConflict)->severity, Severity::Note);
}

// Mutually exclusive sources (same OR region) must NOT be reported even
// when their triggers overlap: the SLA can never select both.
TEST(AnalysisConflicts, ExclusiveSourcesAreNotConflicts) {
  const AnalysisResult r = analyze(R"chart(
chart Exclusive;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   "");
  EXPECT_EQ(countCode(r, kCodeConflict), 0);
  EXPECT_EQ(countCode(r, kCodeMaskedConflict), 0);
}

// ---------------------------------------------------------------- races

// Defect 2: orthogonal components writing different constants to the same
// output port — write-write race, Error.
TEST(AnalysisRaces, PortWriteWriteIsError) {
  const AnalysisResult r = analyze(R"chart(
chart PortRace;
event GO;
port Out data out width 8 address 0x10;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA { transition { target LB; label "GO/WriteLeft()"; } }
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA { transition { target RB; label "GO/WriteRight()"; } }
basicstate RB { transition { target RA; label "GO"; } }
)chart",
                                   R"act(
void WriteLeft()  { write_port(Out, 1); }
void WriteRight() { write_port(Out, 2); }
)act");
  ASSERT_GE(countCode(r, kCodeWriteWrite), 1);
  const Finding* f = r.findCode(kCodeWriteWrite);
  EXPECT_EQ(f->severity, Severity::Error);
  EXPECT_EQ(f->resource, "Out");
  EXPECT_GT(r.errorCount(), 0);
}

// Both sides writing the SAME constant is not observable — no race.
TEST(AnalysisRaces, EqualConstantWritesAreBenign) {
  const AnalysisResult r = analyze(R"chart(
chart BenignRace;
event GO;
port Out data out width 8 address 0x10;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA { transition { target LB; label "GO/WriteOne()"; } }
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA { transition { target RB; label "GO/WriteOneToo()"; } }
basicstate RB { transition { target RA; label "GO"; } }
)chart",
                                   R"act(
void WriteOne()    { write_port(Out, 7); }
void WriteOneToo() { write_port(Out, 7); }
)act");
  EXPECT_EQ(countCode(r, kCodeWriteWrite), 0);
}

// Defect 3: one component writes a global the other reads — read-write
// hazard (the reader's value depends on dispatch order).
TEST(AnalysisRaces, GlobalReadWriteIsWarning) {
  const AnalysisResult r = analyze(R"chart(
chart SharedVar;
event GO;
port Out data out width 8 address 0x10;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA { transition { target LB; label "GO/Produce()"; } }
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA { transition { target RB; label "GO/Consume()"; } }
basicstate RB { transition { target RA; label "GO"; } }
)chart",
                                   R"act(
int:16 shared;
void Produce() { shared = shared + 1; }
void Consume() { write_port(Out, shared); }
)act");
  ASSERT_GE(countCode(r, kCodeReadWrite), 1);
  const Finding* f = r.findCode(kCodeReadWrite);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->resource, "shared");
}

// Distinct elements of one array, selected by statically bound parameters,
// are distinct resources — the SMD motor pattern must stay clean.
TEST(AnalysisRaces, ElementGranularGlobalsDoNotCollide) {
  const AnalysisResult r = analyze(R"chart(
chart Elements;
event GO;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA { transition { target LB; label "GO/Bump(0)"; } }
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA { transition { target RB; label "GO/Bump(1)"; } }
basicstate RB { transition { target RA; label "GO"; } }
)chart",
                                   R"act(
int:16 slots[4];
void Bump(int:16 i) { slots[i] = slots[i] + 1; }
)act");
  EXPECT_EQ(countCode(r, kCodeWriteWrite), 0);
  EXPECT_EQ(countCode(r, kCodeReadWrite), 0);
}

// Transitions sharing an exclusion group are serialized by the scheduler:
// no concurrency, no race.
TEST(AnalysisRaces, ExclusionGroupSuppressesRace) {
  const AnalysisResult r = analyze(R"chart(
chart Grouped;
event GO;
port Out data out width 8 address 0x10;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA {
  transition { target LB; label "GO/WriteLeft()"; exclusion g1; }
}
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA {
  transition { target RB; label "GO/WriteRight()"; exclusion g1; }
}
basicstate RB { transition { target RA; label "GO"; } }
)chart",
                                   R"act(
void WriteLeft()  { write_port(Out, 1); }
void WriteRight() { write_port(Out, 2); }
)act");
  EXPECT_EQ(countCode(r, kCodeWriteWrite), 0);
}

// ---------------------------------------------------------------- reach

// Defect 4: a state no transition ever targets.
TEST(AnalysisReach, UnreachableStateIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart Orphan;
event GO;
orstate Top { contains A, B, Island; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
basicstate Island { }
)chart",
                                   "");
  ASSERT_GE(countCode(r, kCodeUnreachableState), 1);
  const Finding* f = r.findCode(kCodeUnreachableState);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_NE(f->message.find("Island"), std::string::npos);
  EXPECT_TRUE(r.reachabilityComplete);
}

// Defect 5: a transition whose source is unreachable can never fire.
TEST(AnalysisReach, DeadTransitionIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart DeadT;
event GO; event NEVER;
orstate Top { contains A, B, Island; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
basicstate Island { transition { target A; label "NEVER"; } }
)chart",
                                   "");
  EXPECT_GE(countCode(r, kCodeDeadTransition), 1);
}

// Defect 6b: constant-false trigger ("GO and not GO").
TEST(AnalysisReach, ConstantFalseTriggerIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart FalseTrig;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO and not GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   "");
  EXPECT_GE(countCode(r, kCodeConstFalseGuard), 1);
}

// RE000 boundary semantics: `Tiny` has exactly 2 reachable
// configurations (A, B). A bound one below truncates; a bound exactly at
// the reachable-set size completes (the cap gates *admission of a new
// config*, not re-visits); anything above completes trivially.
TEST(AnalysisReach, TruncationBoundaryIsExact) {
  const char* tiny = R"chart(
chart Tiny;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart";
  const auto withBound = [&](int bound) {
    AnalyzerOptions options;
    options.maxConfigurations = bound;
    return analyze(tiny, "", /*compile=*/true, options);
  };

  const AnalysisResult below = withBound(1);  // one below reachable size
  EXPECT_FALSE(below.reachabilityComplete);
  EXPECT_GE(countCode(below, kCodeReachTruncated), 1);
  EXPECT_EQ(countCode(below, kCodeUnreachableState), 0);

  const AnalysisResult at = withBound(2);  // exactly the reachable size
  EXPECT_TRUE(at.reachabilityComplete) << at.renderText();
  EXPECT_EQ(countCode(at, kCodeReachTruncated), 0);
  EXPECT_EQ(at.configurationsExplored, 2);

  const AnalysisResult above = withBound(3);  // one above
  EXPECT_TRUE(above.reachabilityComplete);
  EXPECT_EQ(countCode(above, kCodeReachTruncated), 0);
  EXPECT_EQ(above.configurationsExplored, 2);
}

// The exploration cap reports RE000 and withholds unreachable findings.
TEST(AnalysisReach, TruncationIsReportedNotMisreported) {
  AnalyzerOptions options;
  options.maxConfigurations = 1;
  const AnalysisResult r = analyze(R"chart(
chart Tiny;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   "", /*compile=*/true, options);
  EXPECT_GE(countCode(r, kCodeReachTruncated), 1);
  EXPECT_EQ(countCode(r, kCodeUnreachableState), 0);
  EXPECT_FALSE(r.reachabilityComplete);
}

// ---------------------------------------------------------------- lints

// Defect 6: int:16 value assigned into an int:8 destination.
TEST(AnalysisLints, TruncatingAssignmentIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart Trunc;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Squeeze()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   R"act(
int:16 wide;
int:8 narrow;
void Squeeze() { narrow = wide; }
)act");
  ASSERT_GE(countCode(r, kCodeTruncatingAssign), 1);
  EXPECT_EQ(r.findCode(kCodeTruncatingAssign)->severity, Severity::Warning);
}

// A constant that provably fits the destination is not a truncation.
TEST(AnalysisLints, FittingConstantIsNotTruncation) {
  const AnalysisResult r = analyze(R"chart(
chart NoTrunc;
event GO;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Store()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   R"act(
int:8 narrow;
void Store() { narrow = 100; }
)act");
  EXPECT_EQ(countCode(r, kCodeTruncatingAssign), 0);
}

TEST(AnalysisLints, UninitializedReadIsFlagged) {
  const AnalysisResult r = analyze(R"chart(
chart Uninit;
event GO;
port Out data out width 8 address 0x10;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Leak()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   R"act(
void Leak() {
  int:8 x;
  write_port(Out, x);
}
)act");
  EXPECT_GE(countCode(r, kCodeUninitializedRead), 1);
}

// Assignment on both branches of an if IS definite assignment; assignment
// inside a while is not (zero iterations).
TEST(AnalysisLints, DefiniteAssignmentJoins) {
  const AnalysisResult r = analyze(R"chart(
chart DefAssign;
event GO;
port Out data out width 8 address 0x10;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Ok()"; } }
basicstate B { transition { target A; label "GO/Bad()"; } }
)chart",
                                   R"act(
int:8 sel;
void Ok() {
  int:8 x;
  if (sel > 0) { x = 1; } else { x = 2; }
  write_port(Out, x);
}
void Bad() {
  int:8 y;
  while (sel > 0) bound 4 { y = 1; }
  write_port(Out, y);
}
)act");
  const int hits = countCode(r, kCodeUninitializedRead);
  EXPECT_EQ(hits, 1);
  EXPECT_NE(r.findCode(kCodeUninitializedRead)->message.find("'y'"),
            std::string::npos);
}

TEST(AnalysisLints, UnreferencedPortIsNoted) {
  const AnalysisResult r = analyze(R"chart(
chart DeadPort;
event GO;
port Unused data out width 8 address 0x20;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
)chart",
                                   "");
  ASSERT_GE(countCode(r, kCodeUnreferencedPort), 1);
  EXPECT_EQ(r.findCode(kCodeUnreferencedPort)->severity, Severity::Note);
}

// ---------------------------------------------------------------- effects

TEST(AnalysisEffects, PathSensitiveDispatcher) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Fx;
event GO;
port P0 data out width 8 address 0x10;
port P1 data out width 8 address 0x12;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Route(0)"; } }
basicstate B { transition { target A; label "GO/Route(1)"; } }
)chart");
  actionlang::Program program = actionlang::parseActionSource(R"act(
void Route(int:8 which) {
  if (which == 0) { write_port(P0, 1); } else { write_port(P1, 1); }
}
)act");
  const EffectSet e0 = transitionEffects(chart.transitions()[0], program);
  const EffectSet e1 = transitionEffects(chart.transitions()[1], program);
  EXPECT_EQ(e0.portWrites.count("P0"), 1u);
  EXPECT_EQ(e0.portWrites.count("P1"), 0u);
  EXPECT_EQ(e1.portWrites.count("P1"), 1u);
  EXPECT_EQ(e1.portWrites.count("P0"), 0u);
}

TEST(AnalysisEffects, CondWritesCarryConstants) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Fx2;
event GO;
condition C;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/SetIt()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart");
  actionlang::Program program = actionlang::parseActionSource(R"act(
void SetIt() { set_cond(C, 1); }
)act");
  const EffectSet e = transitionEffects(chart.transitions()[0], program);
  ASSERT_EQ(e.condWrites.count("C"), 1u);
  ASSERT_TRUE(e.condWrites.at("C").has_value());
  EXPECT_EQ(*e.condWrites.at("C"), 1);
}

// The native tier's hazard matrix treats a routine whose subscripts do
// not all fold to in-range constants as touching all of external RAM:
// compiled code does not bounds-check.
TEST(AnalysisEffects, SubscriptsOutsideAConstantRangeTouchAllExternalRam) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Subscripts;
event GO;
andstate Top {
  orstate R0 { contains S0; default S0; }
  orstate R1 { contains S1; default S1; }
  orstate R2 { contains S2; default S2; }
  orstate R3 { contains S3; default S3; }
  orstate R4 { contains S4; default S4; }
}
basicstate S0 { transition { target S0; label "GO/Bump(1)"; } }
basicstate S1 { transition { target S1; label "GO/Bump(2)"; } }
basicstate S2 { transition { target S2; label "GO/Clear()"; } }
basicstate S3 { transition { target S3; label "GO/Poke(7)"; } }
basicstate S4 { transition { target S4; label "GO/Quiet()"; } }
)chart");
  const actionlang::Program program = actionlang::parseActionSource(R"act(
int:16 table[4];
void Bump(int:16 k) { table[k] = table[k] + 1; }
void Clear() {
  int:16 scratch[2];
  int:16 i = 0;
  while (i < 2) bound 2 { scratch[i] = 0; i = i + 1; }
}
void Poke(int:16 k) { int:16 scratch[2]; scratch[k] = 1; }
void Quiet() { int:16 x = 1; }
)act");
  std::map<std::string, int> id;
  for (const statechart::Transition& t : chart.transitions())
    id[t.label.raw] = static_cast<int>(t.id);
  const auto effects = [&](const char* label) {
    return transitionEffects(chart.transition(id.at(label)), program);
  };
  EXPECT_TRUE(effects("GO/Bump(1)").subscriptsInRange);    // table[1]
  EXPECT_FALSE(effects("GO/Clear()").subscriptsInRange);   // scratch[i]
  EXPECT_FALSE(effects("GO/Poke(7)").subscriptsInRange);   // scratch[7] of 2
  EXPECT_TRUE(effects("GO/Quiet()").subscriptsInRange);

  hwlib::ArchConfig arch;
  arch.numTeps = 2;
  const machine::ChartImage image(chart, program, arch);
  const auto hazard = [&](const char* a, const char* b) {
    return image.hazardPair(id.at(a), id.at(b));
  };
  EXPECT_FALSE(hazard("GO/Bump(1)", "GO/Bump(2)"));  // different elements
  EXPECT_TRUE(hazard("GO/Bump(1)", "GO/Clear()"));
  EXPECT_TRUE(hazard("GO/Poke(7)", "GO/Bump(2)"));
  EXPECT_TRUE(hazard("GO/Clear()", "GO/Poke(7)"));
  EXPECT_FALSE(hazard("GO/Clear()", "GO/Quiet()"));  // Quiet touches no external RAM
}

// ---------------------------------------------------------------- reports

TEST(AnalysisReport, JsonRoundTripsThroughParser) {
  const AnalysisResult r = analyze(R"chart(
chart JsonChart;
event GO;
orstate Top { contains A, B, Island; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
basicstate Island { }
)chart",
                                   "");
  const std::string doc = r.renderJson();
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parseJson(doc, &parsed, &error)) << error;
  EXPECT_EQ(parsed.findPath("schema")->string, "pscp-lint-v1");
  EXPECT_EQ(parsed.findPath("chart")->string, "JsonChart");
  ASSERT_NE(parsed.findPath("findings"), nullptr);
  EXPECT_FALSE(parsed.findPath("findings")->array.empty());
  EXPECT_GE(parsed.findPath("summary.warnings")->number, 1.0);
  // Compact form parses too.
  ASSERT_TRUE(parseJson(r.renderJson(0), &parsed, &error)) << error;
}

// The lint report carries the compiled image's content hash in the same
// "0x%016llx" shape as the journal header, so a finding and a journal can
// be cross-referenced to the exact bits they were produced from.
TEST(AnalysisReport, ImageHashMatchesJournalHashFormat) {
  const statechart::Chart chart = statechart::parseChart(R"chart(
chart Hashed;
event GO;
port Out data out width 8 address 0x10;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Ping()"; } }
basicstate B { transition { target A; label "GO"; } }
)chart");
  actionlang::Program program = actionlang::parseActionSource(R"act(
void Ping() { write_port(Out, 1); }
)act");
  Analyzer analyzer(chart, program, {});
  machine::ChartImage image(chart, program, testArch());
  analyzer.attachCompiled(image.app());
  AnalysisResult r = analyzer.run();
  r.imageHash = obs::journal::imageContentHash(image);  // as pscp_lint does
  ASSERT_NE(r.imageHash, 0u);

  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(parseJson(r.renderJson(), &parsed, &error)) << error;
  const JsonValue* hash = parsed.findPath("image_hash");
  ASSERT_NE(hash, nullptr);
  EXPECT_EQ(hash->string,
            strfmt("0x%016llx", static_cast<unsigned long long>(r.imageHash)));
  // Without a compiled image the key is absent, not zero.
  AnalysisResult bare = analyzer.run();
  ASSERT_TRUE(parseJson(bare.renderJson(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.findPath("image_hash"), nullptr);
}

TEST(AnalysisReport, TextReportNamesCodesAndLocations) {
  const AnalysisResult r = analyze(R"chart(
chart TextChart;
event GO;
orstate Top { contains A, B, Island; default A; }
basicstate A { transition { target B; label "GO"; } }
basicstate B { transition { target A; label "GO"; } }
basicstate Island { }
)chart",
                                   "");
  const std::string text = r.renderText();
  EXPECT_NE(text.find("[PSCP-RE001]"), std::string::npos);
  EXPECT_NE(text.find("test.chart:"), std::string::npos);
  EXPECT_NE(text.find("warning:"), std::string::npos);
}

// ---------------------------------------------------------------- corpus

// The paper's own workload must be clean at error severity — this is the
// same bar the CI lint gate enforces.
TEST(AnalysisCorpus, SmdWorkloadHasNoErrors) {
  const AnalysisResult r =
      analyze(workloads::smdChartText(), workloads::smdActionText());
  EXPECT_EQ(r.errorCount(), 0) << r.renderText();
  // The known nondeterministic INIT/ERROR pairs surface as warnings.
  EXPECT_GE(countCode(r, kCodeConflict), 1);
}

// A fully clean chart yields nothing at all.
TEST(AnalysisCorpus, CleanChartIsClean) {
  const AnalysisResult r = analyze(R"chart(
chart Clean;
event GO; event BACK;
port Out data out width 8 address 0x10;
orstate Top { contains A, B; default A; }
basicstate A { transition { target B; label "GO/Ping()"; } }
basicstate B { transition { target A; label "BACK"; } }
)chart",
                                   R"act(
void Ping() { write_port(Out, 1); }
)act");
  EXPECT_EQ(r.errorCount(), 0) << r.renderText();
  EXPECT_EQ(r.warningCount(), 0) << r.renderText();
}

// -------------------------------------------------------- runtime evidence

// The seeded port race is both flagged statically AND observable on the
// machine: two transitions write different values to one port in the same
// configuration cycle, attributed via the port-write log's new
// tep/transition fields.
TEST(AnalysisRuntime, SeededRaceIsObservedAndFlagged) {
  const char* chartText = R"chart(
chart Seeded;
event GO;
port Out data out width 8 address 0x10;
andstate Top {
  orstate L { contains LA, LB; default LA; }
  orstate R { contains RA, RB; default RA; }
}
basicstate LA { transition { target LB; label "GO/WriteLeft()"; } }
basicstate LB { transition { target LA; label "GO"; } }
basicstate RA { transition { target RB; label "GO/WriteRight()"; } }
basicstate RB { transition { target RA; label "GO"; } }
)chart";
  const char* actText = R"act(
void WriteLeft()  { write_port(Out, 1); }
void WriteRight() { write_port(Out, 2); }
)act";

  // Static verdict.
  const AnalysisResult r = analyze(chartText, actText);
  ASSERT_GE(countCode(r, kCodeWriteWrite), 1);

  // Runtime observation.
  const statechart::Chart chart = statechart::parseChart(chartText);
  actionlang::Program program = actionlang::parseActionSource(actText);
  machine::PscpMachine m(chart, program, testArch());
  m.configurationCycle({"GO"});

  const auto& writes = m.portWrites();
  ASSERT_GE(writes.size(), 2u);
  // Both writes hit the same port in the same cycle from different
  // transitions with different values: the observed collision.
  bool collision = false;
  for (size_t i = 0; i < writes.size() && !collision; ++i)
    for (size_t j = i + 1; j < writes.size() && !collision; ++j)
      collision = writes[i].port == writes[j].port &&
                  writes[i].configCycle == writes[j].configCycle &&
                  writes[i].transition != writes[j].transition &&
                  writes[i].transition >= 0 && writes[j].transition >= 0 &&
                  writes[i].value != writes[j].value;
  EXPECT_TRUE(collision);
}

}  // namespace
}  // namespace pscp::analysis
