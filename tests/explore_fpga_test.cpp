#include <gtest/gtest.h>

#include "actionlang/parser.hpp"
#include "core/codesign.hpp"
#include "explore/explorer.hpp"
#include "fpga/device.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd.hpp"

namespace pscp {
namespace {

// ---------------------------------------------------------------- fpga

TEST(FpgaDevices, FamilyAndLookup) {
  EXPECT_EQ(fpga::deviceByName("XC4025").clbs(), 1024);  // the paper's part
  EXPECT_EQ(fpga::deviceByName("XC4005").clbs(), 196);
  EXPECT_THROW((void)fpga::deviceByName("XC9999"), Error);
  EXPECT_EQ(fpga::smallestFitting(500.0).name, "XC4013");
  EXPECT_THROW((void)fpga::smallestFitting(5000.0), Error);
}

TEST(Floorplanner, PlacesAllBlocksWithoutOverlap) {
  const fpga::Device& dev = fpga::deviceByName("XC4013");
  std::vector<fpga::Block> blocks = {
      {"alpha", 120}, {"beta", 90}, {"gamma", 45}, {"delta", 30}, {"eps", 8},
  };
  fpga::Floorplan plan(dev, blocks);
  EXPECT_EQ(plan.placements().size(), blocks.size());
  // No two placements overlap.
  for (size_t i = 0; i < plan.placements().size(); ++i)
    for (size_t j = i + 1; j < plan.placements().size(); ++j) {
      const auto& a = plan.placements()[i];
      const auto& b = plan.placements()[j];
      const bool overlap = a.row < b.row + b.height && b.row < a.row + a.height &&
                           a.col < b.col + b.width && b.col < a.col + a.width;
      EXPECT_FALSE(overlap) << a.block.name << " vs " << b.block.name;
    }
  EXPECT_GT(plan.utilization(), 0.4);
  const std::string art = plan.render();
  EXPECT_NE(art.find("alpha"), std::string::npos);
  EXPECT_NE(art.find("legend"), std::string::npos);
}

TEST(Floorplanner, RejectsOversizedDesigns) {
  EXPECT_THROW(fpga::Floorplan(fpga::deviceByName("XC4002"), {{"huge", 500}}), Error);
}

// -------------------------------------------------------------- explorer

statechart::Chart smdChart() {
  return statechart::parseChart(workloads::smdChartText(), "smd.chart");
}

actionlang::Program smdActions() {
  return actionlang::parseActionSource(workloads::smdActionText(), "smd.c");
}

TEST(Explorer, HotGlobalRankingWeighsLoops) {
  auto chart = statechart::parseChart(R"chart(
    event E;
    basicstate S { transition { target S2; label "E/go()"; } }
    basicstate S2 { }
  )chart");
  auto program = actionlang::parseActionSource(R"code(
    int:16 hot;
    int:16 cold;
    void go() {
      cold = 1;
      int:16 i = 0;
      while (i < 40) bound 40 { hot = hot + 1; i = i + 1; }
    }
  )code");
  explore::Explorer explorer(chart, std::move(program), fpga::deviceByName("XC4025"));
  const auto ranked = explorer.hotGlobals();
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, "hot");
  EXPECT_GT(ranked[0].second, ranked.back().second);
}

TEST(Explorer, SingleOwnerAnalysisTracksCallGraphs) {
  auto chart = statechart::parseChart(R"chart(
    event E; event F;
    basicstate S { transition { target S2; label "E/a()"; } }
    basicstate S2 { transition { target S; label "F/b()"; } }
  )chart");
  auto program = actionlang::parseActionSource(R"code(
    int:16 onlyA;
    int:16 shared;
    void helper() { shared = shared + 1; }
    void a() { onlyA = onlyA + 1; helper(); }
    void b() { helper(); }
  )code");
  explore::Explorer explorer(chart, std::move(program), fpga::deviceByName("XC4025"));
  const auto owners = explorer.singleOwnerGlobals();
  EXPECT_NE(std::find(owners.begin(), owners.end(), "onlyA"), owners.end());
  EXPECT_EQ(std::find(owners.begin(), owners.end(), "shared"), owners.end());
}

TEST(Explorer, LadderMonotonicallyImprovesAndMatchesPaperShape) {
  auto chart = smdChart();
  explore::Explorer explorer(chart, smdActions(), fpga::deviceByName("XC4025"));
  const auto result = explorer.run();

  // Shape of Table 4: the baseline is the worst; every kept step improves
  // (violations, excess) lexicographically; area grows as features are
  // added; the final architecture is a multi-TEP 16-bit machine with the
  // multiply/divide unit that fits the XC4025.
  ASSERT_GE(result.steps.size(), 5u);
  int64_t prevExcess = result.steps.front().eval.worstExcess;
  int prevViol = result.steps.front().eval.violations;
  for (const auto& step : result.steps) {
    if (!step.kept) continue;
    EXPECT_LE(step.eval.violations, prevViol) << step.action;
    if (step.eval.violations == prevViol) {
      EXPECT_LE(step.eval.worstExcess, prevExcess) << step.action;
    }
    prevViol = step.eval.violations;
    prevExcess = step.eval.worstExcess;
  }
  EXPECT_EQ(result.arch.dataWidth, 16);
  EXPECT_TRUE(result.arch.hasMulDiv);
  EXPECT_GE(result.arch.numTeps, 2);
  EXPECT_TRUE(result.fitsDevice);
  // Improvement factor baseline -> final (paper: >1000 -> 282 on X/Y).
  EXPECT_GT(result.steps.front().eval.worstExcess, 4 * result.final.worstExcess);
}

TEST(Explorer, EvaluateReportsTable4Columns) {
  auto chart = smdChart();
  auto actions = smdActions();
  hwlib::ArchConfig minimal;
  minimal.dataWidth = 8;
  const auto unopt =
      explore::evaluate(chart, actions, minimal, compiler::CompileOptions::unoptimized());
  hwlib::ArchConfig big;
  big.dataWidth = 16;
  big.hasMulDiv = true;
  big.registerFileSize = 12;
  const auto opt = explore::evaluate(chart, actions, big, {});
  // Table 4 relationships: minimal TEP is smallest and slowest; the 16-bit
  // M/D machine costs more area and wins on both critical paths.
  EXPECT_LT(unopt.areaClb, opt.areaClb);
  EXPECT_GT(unopt.worstXyLength, opt.worstXyLength);
  EXPECT_GT(unopt.worstDataValidLength, opt.worstDataValidLength);
  EXPECT_GT(unopt.worstXyLength, 2 * opt.worstXyLength);
}

// ------------------------------------------------------------- core flow

TEST(CodesignFlow, EndToEndProducesAllArtifacts) {
  const auto result =
      core::Codesign::run(workloads::smdChartText(), workloads::smdActionText());
  EXPECT_NE(result.slaBlif.find(".model"), std::string::npos);
  EXPECT_NE(result.slaVhdl.find("entity"), std::string::npos);
  EXPECT_NE(result.crDescription.find("CR:"), std::string::npos);
  EXPECT_NE(result.programListing.find("tr_0::"), std::string::npos);
  EXPECT_NE(result.timingTable.find("X_PULSE"), std::string::npos);
  EXPECT_NE(result.floorplanAscii.find("XC4025"), std::string::npos);
  EXPECT_NE(result.summary().find("architecture"), std::string::npos);
  EXPECT_TRUE(result.exploration.fitsDevice);

  // The machine built from the result must actually run the application.
  auto machine = result.buildMachine();
  machine->configurationCycle({"POWER"});
  EXPECT_TRUE(machine->isActive("Idle1"));
}

TEST(CodesignFlow, RejectsMalformedInputs) {
  EXPECT_THROW(core::Codesign::run("basicstate {", "int x;"), Error);
  EXPECT_THROW(core::Codesign::run("basicstate A { }", "void f( {"), Error);
  EXPECT_THROW(
      core::Codesign::run("basicstate A { }", "int x;", "NOT_A_DEVICE"), Error);
}

}  // namespace
}  // namespace pscp
