#include <gtest/gtest.h>

#include <algorithm>

#include "sla/sla.hpp"
#include "support/text.hpp"
#include "statechart/parser.hpp"
#include "statechart/semantics.hpp"

namespace pscp::sla {
namespace {

using statechart::Chart;
using statechart::parseChart;

const char* kDemo = R"chart(
chart Demo;
event GO; event STOP; event TICK;
condition READY;

orstate Top {
  contains IdleS, Work;
  default IdleS;
}
basicstate IdleS {
  transition { target Work; label "GO [READY]"; }
}
andstate Work {
  transition { target IdleS; label "STOP or not (GO or TICK)"; }
  orstate L { default L1;
    basicstate L1 { transition { target L2; label "TICK"; } }
    basicstate L2 { }
  }
  orstate R { default R1;
    basicstate R1 { transition { target R2; label "TICK [not READY]"; } }
    basicstate R2 { }
  }
}
)chart";

TEST(Exclusivity, MutualExclusionRelation) {
  Chart c = parseChart(kDemo);
  // IdleS and Work are exclusive (children of OR state Top).
  EXPECT_TRUE(mutuallyExclusive(c, c.stateByName("IdleS"), c.stateByName("Work")));
  // L1 and R1 live in parallel components: not exclusive.
  EXPECT_FALSE(mutuallyExclusive(c, c.stateByName("L1"), c.stateByName("R1")));
  // Ancestor pairs are not exclusive.
  EXPECT_FALSE(mutuallyExclusive(c, c.stateByName("Work"), c.stateByName("L1")));
  // L1 vs L2: exclusive.
  EXPECT_TRUE(mutuallyExclusive(c, c.stateByName("L1"), c.stateByName("L2")));
  // IdleS vs L1: exclusive (IdleS active implies Work inactive).
  EXPECT_TRUE(mutuallyExclusive(c, c.stateByName("IdleS"), c.stateByName("L1")));
}

TEST(Exclusivity, SetsArePairwiseExclusiveAndCoverAllStates) {
  Chart c = parseChart(kDemo);
  const auto sets = exclusivitySets(c);
  size_t covered = 0;
  for (const auto& set : sets) {
    covered += set.size();
    for (size_t i = 0; i < set.size(); ++i)
      for (size_t j = i + 1; j < set.size(); ++j)
        EXPECT_TRUE(mutuallyExclusive(c, set[i], set[j]))
            << c.state(set[i]).name << " vs " << c.state(set[j]).name;
  }
  EXPECT_EQ(covered, c.stateCount() - 1);  // everything but the root
}

TEST(CrLayoutTest, PartsAndCodes) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  EXPECT_EQ(layout.eventCount(), 3);
  EXPECT_EQ(layout.conditionCount(), 1);
  EXPECT_GT(layout.totalBits(), layout.stateBase());
  // Exclusive states in one field get distinct codes.
  const auto [fIdle, cIdle] = layout.stateCode(c.stateByName("IdleS"));
  const auto [fWork, cWork] = layout.stateCode(c.stateByName("Work"));
  if (fIdle == fWork) {
    EXPECT_NE(cIdle, cWork);
  }
  EXPECT_GT(cIdle, 0);  // code 0 is reserved for "none active"
  // Encoding must not exceed one-hot (binary fields compress OR siblings).
  EXPECT_LE(layout.totalBits() - layout.stateBase(),
            static_cast<int>(c.stateCount()) - 1);
}

/// Build CR bits for a given interpreter configuration + events.
std::vector<bool> crFor(const CrLayout& layout, const statechart::Interpreter& interp,
                        const std::set<std::string>& events) {
  std::vector<bool> bits(static_cast<size_t>(layout.totalBits()), false);
  for (const std::string& e : events) bits[static_cast<size_t>(layout.eventBit(e))] = true;
  for (const auto& [name, bit] : layout.conditionBits())
    bits[static_cast<size_t>(layout.conditionBase() + bit)] = interp.conditionValue(name);
  for (const StateField& field : layout.stateFields()) {
    int code = 0;
    for (size_t i = 0; i < field.states.size(); ++i)
      if (interp.isActive(field.states[i])) code = static_cast<int>(i) + 1;
    for (int i = 0; i < field.width; ++i)
      bits[static_cast<size_t>(layout.stateBase() + field.baseBit + i)] =
          ((code >> i) & 1) != 0;
  }
  return bits;
}

/// Property: the SLA's selection equals the interpreter's enabled set, for
/// every event subset in several configurations.
TEST(SlaLogic, AgreesWithInterpreterSemantics) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  Sla sla(c, layout);
  statechart::Interpreter interp(c);

  const std::vector<std::string> eventNames = {"GO", "STOP", "TICK"};
  auto checkAll = [&]() {
    for (int mask = 0; mask < 8; ++mask) {
      for (bool ready : {false, true}) {
        interp.setCondition("READY", ready);
        std::set<std::string> events;
        for (int i = 0; i < 3; ++i)
          if ((mask >> i) & 1) events.insert(eventNames[static_cast<size_t>(i)]);
        const auto fromSla = sla.select(crFor(layout, interp, events));
        const auto fromInterp = interp.enabledTransitions(events);
        EXPECT_EQ(fromSla, fromInterp) << "mask=" << mask << " ready=" << ready;
      }
    }
  };
  checkAll();  // initial configuration
  interp.setCondition("READY", true);
  interp.step({"GO"});  // now inside Work (L1, R1)
  checkAll();
  interp.step({"TICK"});  // L2, R1 or R2 depending on READY
  checkAll();
}

TEST(SlaLogic, NegatedTriggerExpandsCorrectly) {
  // "STOP or not (GO or TICK)" must fire on STOP, or on the absence of
  // both GO and TICK — classic De Morgan expansion check.
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  Sla sla(c, layout);
  statechart::Interpreter interp(c);
  interp.setCondition("READY", true);
  interp.step({"GO"});  // enter Work

  auto enabledWith = [&](const std::set<std::string>& events) {
    const auto sel = sla.select(crFor(layout, interp, events));
    const statechart::TransitionId workToIdle = c.outgoing(c.stateByName("Work"))[0];
    return std::find(sel.begin(), sel.end(), workToIdle) != sel.end();
  };
  EXPECT_TRUE(enabledWith({"STOP"}));
  EXPECT_TRUE(enabledWith({}));            // neither GO nor TICK
  EXPECT_TRUE(enabledWith({"STOP", "GO"}));
  EXPECT_FALSE(enabledWith({"GO"}));
  EXPECT_FALSE(enabledWith({"TICK"}));
}

TEST(SlaLogic, StatsArePositive) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  Sla sla(c, layout);
  EXPECT_GT(sla.productTermCount(), 0);
  EXPECT_GT(sla.literalCount(), sla.productTermCount());
  const auto stats = sla.hardwareStats(c);
  EXPECT_EQ(stats.transitions, 4);
  EXPECT_EQ(stats.crBits, layout.totalBits());
}

// ------------------------------------------------------------ BLIF / VHDL

/// Minimal BLIF evaluator for round-trip testing of the emitter.
std::map<std::string, bool> evalBlif(const std::string& blif,
                                     const std::map<std::string, bool>& inputs) {
  std::map<std::string, bool> values = inputs;
  std::vector<std::string> lines = splitOn(blif, '\n');
  size_t i = 0;
  while (i < lines.size()) {
    std::string_view line = trim(lines[i]);
    if (line.rfind(".names", 0) != 0) {
      ++i;
      continue;
    }
    std::vector<std::string> sig;
    for (const std::string& tok : splitOn(line.substr(6), ' '))
      if (!std::string_view(trim(tok)).empty()) sig.push_back(std::string(trim(tok)));
    const std::string out = sig.back();
    sig.pop_back();
    bool value = false;
    ++i;
    while (i < lines.size()) {
      std::string_view row = trim(lines[i]);
      if (row.empty() || row[0] == '.') break;
      if (row == "0") {  // constant-0 single row convention
        ++i;
        continue;
      }
      const auto parts = splitOn(row, ' ');
      const std::string& pattern = parts[0];
      bool match = true;
      for (size_t b = 0; b < sig.size(); ++b) {
        const char p = pattern[b];
        if (p == '-') continue;
        if (values[sig[b]] != (p == '1')) {
          match = false;
          break;
        }
      }
      if (match) value = true;
      ++i;
    }
    values[out] = value;
  }
  return values;
}

TEST(SlaNetlists, BlifRoundTripsAgainstEvaluator) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  Sla sla(c, layout);
  const std::string blif = sla.emitBlif();
  EXPECT_NE(blif.find(".model sla"), std::string::npos);
  EXPECT_NE(blif.find(".inputs"), std::string::npos);

  statechart::Interpreter interp(c);
  interp.setCondition("READY", true);
  for (const auto& events :
       std::vector<std::set<std::string>>{{}, {"GO"}, {"TICK"}, {"GO", "STOP"}}) {
    const std::vector<bool> cr = crFor(layout, interp, events);
    std::map<std::string, bool> inputs;
    for (size_t b = 0; b < cr.size(); ++b) inputs[strfmt("cr%zu", b)] = cr[b];
    const auto values = evalBlif(blif, inputs);
    const auto selected = sla.select(cr);
    for (size_t t = 0; t < c.transitions().size(); ++t) {
      const bool inSel = std::find(selected.begin(), selected.end(),
                                   static_cast<statechart::TransitionId>(t)) !=
                         selected.end();
      EXPECT_EQ(values.at(strfmt("t%zu", t)), inSel) << "t" << t;
    }
  }
}

TEST(SlaNetlists, VhdlHasEntityAndAllOutputs) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  Sla sla(c, layout);
  const std::string vhdl = sla.emitVhdl("demo_sla");
  EXPECT_NE(vhdl.find("entity demo_sla is"), std::string::npos);
  EXPECT_NE(vhdl.find("architecture rtl of demo_sla"), std::string::npos);
  for (size_t t = 0; t < c.transitions().size(); ++t)
    EXPECT_NE(vhdl.find(strfmt("t(%zu) <=", t)), std::string::npos);
}

TEST(SlaNetlists, BindingExposesAllHardwareNames) {
  Chart c = parseChart(kDemo);
  CrLayout layout(c);
  const auto binding = makeBinding(c, layout);
  EXPECT_EQ(binding.event("GO"), layout.eventBit("GO"));
  EXPECT_EQ(binding.condition("READY"), layout.conditionBit("READY"));
  EXPECT_EQ(binding.state("Work"), c.stateByName("Work"));
  EXPECT_THROW((void)binding.event("NOPE"), Error);
}

}  // namespace
}  // namespace pscp::sla
