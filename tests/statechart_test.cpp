#include <gtest/gtest.h>

#include "statechart/chart.hpp"
#include "statechart/label_parser.hpp"
#include "statechart/parser.hpp"
#include "statechart/semantics.hpp"

namespace pscp::statechart {
namespace {

// ---------------------------------------------------------------- labels

TEST(LabelParser, EventAndAction) {
  Label l = parseLabel("INIT or ALLRESET/InitializeAll()");
  EXPECT_EQ(l.trigger.str(), "INIT or ALLRESET");
  EXPECT_TRUE(l.guard.isTrue());
  ASSERT_EQ(l.actions.size(), 1u);
  EXPECT_EQ(l.actions[0].function, "InitializeAll");
  EXPECT_TRUE(l.actions[0].args.empty());
}

TEST(LabelParser, NegatedParenTrigger) {
  Label l = parseLabel("not (X_PULSE or Y_PULSE)/PhiParameters(PhiParams, NewPhi, OldPhi)");
  EXPECT_EQ(l.trigger.str(), "not (X_PULSE or Y_PULSE)");
  ASSERT_EQ(l.actions.size(), 1u);
  EXPECT_EQ(l.actions[0].args.size(), 3u);
  EXPECT_EQ(l.actions[0].args[1], "NewPhi");
}

TEST(LabelParser, GuardOnly) {
  Label l = parseLabel("[XFINISH and YFINISH and PHIFINISH]");
  EXPECT_TRUE(l.trigger.isTrue());
  EXPECT_EQ(l.guard.str(), "XFINISH and YFINISH and PHIFINISH");
  EXPECT_TRUE(l.actions.empty());
}

TEST(LabelParser, GuardedEventWithAction) {
  Label l = parseLabel("POWER [DATA_VALID]/GetByte()");
  EXPECT_EQ(l.trigger.str(), "POWER");
  EXPECT_EQ(l.guard.str(), "DATA_VALID");
  ASSERT_EQ(l.actions.size(), 1u);
}

TEST(LabelParser, EmptyLabelIsSpontaneous) {
  Label l = parseLabel("");
  EXPECT_TRUE(l.isSpontaneous());
  EXPECT_TRUE(l.guard.isTrue());
}

TEST(LabelParser, MultipleActions) {
  Label l = parseLabel("E/Stop(); SetTrue(DONE)");
  ASSERT_EQ(l.actions.size(), 2u);
  EXPECT_EQ(l.actions[1].str(), "SetTrue(DONE)");
}

TEST(LabelParser, NumericArgs) {
  Label l = parseLabel("/Load(5, X)");
  ASSERT_EQ(l.actions.size(), 1u);
  EXPECT_EQ(l.actions[0].args[0], "5");
}

TEST(LabelParser, RejectsMalformed) {
  EXPECT_THROW(parseLabel("A or"), Error);
  EXPECT_THROW(parseLabel("[A"), Error);
  EXPECT_THROW(parseLabel("E/Go"), Error);
  EXPECT_THROW(parseLabel("E/Go(,)"), Error);
  EXPECT_THROW(parseLabel("E extra"), Error);
}

TEST(BoolExprEval, RespectsOperators) {
  Label l = parseLabel("not (A or B) and C");
  auto mk = [&](bool a, bool b, bool c) {
    return l.trigger.eval([&](const std::string& n) {
      if (n == "A") return a;
      if (n == "B") return b;
      return c;
    });
  };
  EXPECT_TRUE(mk(false, false, true));
  EXPECT_FALSE(mk(true, false, true));
  EXPECT_FALSE(mk(false, false, false));
}

// ---------------------------------------------------------------- parser

const char* kSmall = R"chart(
chart Demo;
event GO period 100;
event STOP;
condition READY;

orstate Top {
  contains IdleS, Work;
  default IdleS;
}
basicstate IdleS {
  transition { target Work; label "GO [READY]/Begin()"; }
}
orstate Work {
  contains A, B;
  default A;
  transition { target IdleS; label "STOP/Halt()"; bound 42; }
}
basicstate A {
  transition { target B; label "TICK"; }
}
basicstate B {
  transition { target A; label "TICK"; }
}
)chart";

TEST(ChartParser, BuildsHierarchy) {
  Chart c = parseChart(kSmall, "small.chart");
  EXPECT_EQ(c.name(), "Demo");
  const StateId top = c.stateByName("Top");
  EXPECT_EQ(c.state(top).kind, StateKind::Or);
  EXPECT_EQ(c.state(top).parent, c.root());
  const StateId work = c.stateByName("Work");
  EXPECT_EQ(c.state(work).parent, top);
  EXPECT_EQ(c.state(c.state(work).defaultChild).name, "A");
  EXPECT_EQ(c.stateCount(), 6u);  // root + Top + IdleS + Work + A + B
}

TEST(ChartParser, TransitionAttributes) {
  Chart c = parseChart(kSmall);
  const auto out = c.outgoing(c.stateByName("Work"));
  ASSERT_EQ(out.size(), 1u);
  const Transition& t = c.transition(out[0]);
  EXPECT_EQ(c.state(t.target).name, "IdleS");
  ASSERT_TRUE(t.explicitBound.has_value());
  EXPECT_EQ(*t.explicitBound, 42);
}

TEST(ChartParser, EventPeriodAndImplicitDecls) {
  Chart c = parseChart(kSmall);
  EXPECT_EQ(c.event("GO").period, 100);
  EXPECT_TRUE(c.hasEvent("TICK"));       // implicit from labels
  EXPECT_TRUE(c.hasCondition("READY"));  // explicit
}

TEST(ChartParser, NestedDeclarationStyle) {
  Chart c = parseChart(R"chart(
    orstate Outer {
      default In1;
      basicstate In1 { transition { target In2; label "E"; } }
      basicstate In2 { }
    }
  )chart");
  EXPECT_EQ(c.state(c.stateByName("In1")).parent, c.stateByName("Outer"));
}

TEST(ChartParser, PortsAndExternalEvents) {
  Chart c = parseChart(R"chart(
    port PE0 event in width 1 address 0700;
    event X_PULSE port PE0 bit 0 period 400;
    basicstate S { transition { target S2; label "X_PULSE"; } }
    basicstate S2 { }
  )chart");
  EXPECT_EQ(c.ports().at("PE0").address, 0700);
  EXPECT_TRUE(c.event("X_PULSE").external);
  EXPECT_EQ(c.event("X_PULSE").period, 400);
}

TEST(ChartParser, Errors) {
  EXPECT_THROW(parseChart("basicstate A { } basicstate A { }"), Error);
  EXPECT_THROW(parseChart("orstate A { contains B; }"), Error);  // B undeclared
  EXPECT_THROW(parseChart("basicstate A { transition { label \"E\"; } }"), Error);
  EXPECT_THROW(parseChart("orstate A { contains B; } orstate B { contains A; } "), Error);
  // andstate needs >= 2 children
  EXPECT_THROW(parseChart("andstate A { contains B; } basicstate B { }"), Error);
  // state contained twice
  EXPECT_THROW(
      parseChart("orstate A { contains C; } orstate B { contains C; } basicstate C { }"),
      Error);
}

TEST(ChartParser, OutOfRangeIntegerAttributesAreLocatedErrors) {
  // A port address or width that does not fit an int is a located parse
  // error, never a wrapped value that trips an internal assertion at the
  // first port write.
  const auto errorFor = [](const std::string& port) -> std::string {
    try {
      (void)parseChart("chart C;\n" + port +
                           "\nbasicstate S { transition { target S; label \"E\"; } }",
                       "lamp.chart");
    } catch (const Error& e) {
      EXPECT_EQ(e.where().file, "lamp.chart");
      EXPECT_EQ(e.where().line, 2);
      return e.what();
    }
    return "";
  };
  const std::string address =
      errorFor("port Lamp data out width 8 address 0x429496729630;");
  EXPECT_NE(address.find("port address '0x429496729630' is out of range"),
            std::string::npos)
      << address;
  const std::string width = errorFor("port Lamp data out width 4294967304 address 0x10;");
  EXPECT_NE(width.find("port width '4294967304' is out of range"), std::string::npos)
      << width;
  EXPECT_EQ(address.find("internal assertion"), std::string::npos);

  // The largest int is still a legal literal.
  const Chart c = parseChart(
      "port Lamp data out width 8 address 0x7fffffff;\n"
      "basicstate S { transition { target S; label \"E\"; } }");
  EXPECT_EQ(c.ports().at("Lamp").address, 0x7fffffff);
}

// ------------------------------------------------------------- hierarchy

TEST(ChartHierarchy, LcaAndOrthogonality) {
  Chart c = parseChart(R"chart(
    andstate P {
      contains L, R;
    }
    orstate L { contains L1, L2; default L1; }
    basicstate L1 { transition { target L2; label "E"; } }
    basicstate L2 { }
    orstate R { contains R1, R2; default R1; }
    basicstate R1 { transition { target R2; label "E"; } }
    basicstate R2 { }
  )chart");
  const StateId l1 = c.stateByName("L1");
  const StateId r1 = c.stateByName("R1");
  EXPECT_TRUE(c.orthogonal(l1, r1));
  EXPECT_FALSE(c.orthogonal(l1, c.stateByName("L2")));
  EXPECT_EQ(c.lowestCommonAncestor(l1, r1), c.stateByName("P"));
  EXPECT_TRUE(c.isAncestor(c.stateByName("P"), l1));
  EXPECT_FALSE(c.isAncestor(l1, c.stateByName("P")));
}

TEST(ChartHierarchy, DefaultCompletionEntersAllParallelParts) {
  Chart c = parseChart(R"chart(
    andstate P { contains L, R; }
    orstate L { contains L1, L2; default L2; }
    basicstate L1 {} basicstate L2 {}
    orstate R { contains R1, R2; default R1; }
    basicstate R1 {} basicstate R2 {}
  )chart");
  auto comp = c.defaultCompletion(c.stateByName("P"));
  std::set<StateId> s(comp.begin(), comp.end());
  EXPECT_TRUE(s.count(c.stateByName("L2")));
  EXPECT_TRUE(s.count(c.stateByName("R1")));
  EXPECT_FALSE(s.count(c.stateByName("L1")));
}

TEST(ChartValidate, RejectsCrossParallelTransition) {
  EXPECT_THROW(parseChart(R"chart(
    andstate P { contains L, R; }
    orstate L { contains L1; default L1; }
    basicstate L1 { transition { target R1; label "E"; } }
    orstate R { contains R1; default R1; }
    basicstate R1 { }
  )chart"),
               Error);
}

// ------------------------------------------------------------- semantics

TEST(Semantics, InitialConfiguration) {
  Chart c = parseChart(kSmall);
  Interpreter interp(c);
  EXPECT_TRUE(interp.isActive("IdleS"));
  EXPECT_FALSE(interp.isActive("Work"));
  EXPECT_TRUE(interp.isActive("Top"));
}

TEST(Semantics, GuardBlocksTransition) {
  Chart c = parseChart(kSmall);
  Interpreter interp(c);
  auto r = interp.step({"GO"});
  EXPECT_TRUE(r.quiescent);  // READY is false
  interp.setCondition("READY", true);
  r = interp.step({"GO"});
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_TRUE(interp.isActive("Work"));
  EXPECT_TRUE(interp.isActive("A"));  // default completion
}

TEST(Semantics, EventsLastOneCycle) {
  Chart c = parseChart(kSmall);
  Interpreter interp(c);
  interp.setCondition("READY", true);
  interp.step({"GO"});
  auto r = interp.step({});  // GO not re-supplied: nothing fires
  EXPECT_TRUE(r.quiescent);
}

TEST(Semantics, ParallelComponentsFireTogether) {
  Chart c = parseChart(R"chart(
    andstate P { contains L, R; }
    orstate L { contains L1, L2; default L1; }
    basicstate L1 { transition { target L2; label "E"; } }
    basicstate L2 { }
    orstate R { contains R1, R2; default R1; }
    basicstate R1 { transition { target R2; label "E"; } }
    basicstate R2 { }
  )chart");
  Interpreter interp(c);
  auto r = interp.step({"E"});
  EXPECT_EQ(r.fired.size(), 2u);
  EXPECT_TRUE(interp.isActive("L2"));
  EXPECT_TRUE(interp.isActive("R2"));
}

TEST(Semantics, OuterTransitionWins) {
  // Statemate priority: a transition leaving an outer state beats one
  // inside it when both are enabled.
  Chart c = parseChart(R"chart(
    orstate Outer {
      default In1;
      basicstate In1 { transition { target In2; label "E"; } }
      basicstate In2 { }
      transition { target Off; label "E"; }
    }
    basicstate Off { }
  )chart");
  Interpreter interp(c);
  auto r = interp.step({"E"});
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_TRUE(interp.isActive("Off"));
  EXPECT_FALSE(interp.isActive("In2"));
}

TEST(Semantics, RaisedEventVisibleNextCycle) {
  Chart c = parseChart(R"chart(
    orstate T {
      default S1;
      basicstate S1 { transition { target S2; label "A/Raise()"; } }
      basicstate S2 { transition { target S3; label "B"; } }
      basicstate S3 { }
    }
  )chart");
  Interpreter interp(c);
  ActionHandler h = [](const ActionCall& call, StepEffects& fx) {
    if (call.function == "Raise") fx.raiseEvent("B");
  };
  auto r1 = interp.step({"A"}, h);
  ASSERT_EQ(r1.fired.size(), 1u);
  EXPECT_EQ(r1.raisedEvents.count("B"), 1u);
  EXPECT_TRUE(interp.isActive("S2"));
  auto r2 = interp.step({}, h);  // internal B latched in CR
  ASSERT_EQ(r2.fired.size(), 1u);
  EXPECT_TRUE(interp.isActive("S3"));
}

TEST(Semantics, ConditionWritesTakeEffectAtCycleEnd) {
  Chart c = parseChart(R"chart(
    orstate T {
      default S1;
      basicstate S1 { transition { target S2; label "A/Set()"; } }
      basicstate S2 { transition { target S3; label "[C]"; } }
      basicstate S3 { }
    }
    condition C;
  )chart");
  Interpreter interp(c);
  ActionHandler h = [](const ActionCall& call, StepEffects& fx) {
    if (call.function == "Set") fx.setCondition("C", true);
  };
  interp.step({"A"}, h);
  EXPECT_TRUE(interp.conditionValue("C"));
  auto r = interp.step({}, h);  // guard-only transition now enabled
  ASSERT_EQ(r.fired.size(), 1u);
  EXPECT_TRUE(interp.isActive("S3"));
}

TEST(Semantics, SelfTransitionReentersDefaults) {
  Chart c = parseChart(R"chart(
    orstate W {
      default W1;
      basicstate W1 { transition { target W2; label "E"; } }
      basicstate W2 { }
      transition { target W; label "R"; }
    }
  )chart");
  Interpreter interp(c);
  interp.step({"E"});
  EXPECT_TRUE(interp.isActive("W2"));
  interp.step({"R"});
  EXPECT_TRUE(interp.isActive("W1"));  // default re-entered
  EXPECT_FALSE(interp.isActive("W2"));
}

TEST(Semantics, TransitionIntoParallelStateEntersAllComponents) {
  Chart c = parseChart(R"chart(
    orstate Top2 {
      default IdleT;
      basicstate IdleT { transition { target P; label "E"; } }
      andstate P {
        transition { target IdleT; label "X"; }
        orstate L { default L1; basicstate L1 { } }
        orstate R { default R1; basicstate R1 { } }
      }
    }
  )chart");
  Interpreter interp(c);
  interp.step({"E"});
  EXPECT_TRUE(interp.isActive("L1"));
  EXPECT_TRUE(interp.isActive("R1"));
  interp.step({"X"});
  EXPECT_TRUE(interp.isActive("IdleT"));
  EXPECT_FALSE(interp.isActive("L1"));
}

// --------------------------------------------------------------- nesting

std::string repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// The message of the Error `parse` throws, or "" when it returns.
template <typename Parse>
std::string errorOf(Parse&& parse) {
  try {
    parse();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// A chart whose leaf sits `depth` or-states deep, nested by declaration
/// or, with `byContains`, by a chain of flat `contains` lists.
std::string nestedChart(int depth, bool byContains) {
  std::string out = "chart Deep;\nevent GO;\n";
  if (byContains) {
    for (int i = 0; i < depth; ++i)
      out += strfmt("orstate S%d { contains %s; }\n", i,
                    i + 1 < depth ? strfmt("S%d", i + 1).c_str() : "Leaf");
    return out + "basicstate Leaf { transition { target Leaf; label \"GO\"; } }\n";
  }
  for (int i = 0; i < depth; ++i) out += strfmt("orstate S%d {\n", i);
  out += "basicstate Leaf { transition { target Leaf; label \"GO\"; } }\n";
  return out + repeat("}\n", depth);
}

TEST(LabelParser, NestingPastTheBoundIsALocatedError) {
  constexpr int kHostile = 20000;
  const SourceLoc loc{"deep.chart", 7, 3};
  for (const std::string& label :
       {"[" + repeat("(", kHostile) + "A" + repeat(")", kHostile) + "]",
        repeat("not ", kHostile) + "A",
        "[" + repeat("(", kMaxNesting) + "A" + repeat(")", kMaxNesting) + "]"}) {
    const std::string msg = errorOf([&] { (void)parseLabel(label, loc); });
    EXPECT_EQ(msg, "deep.chart:7:3: label expression nested deeper than 256 levels");
  }
}

TEST(LabelParser, NestingAtTheBoundIsAccepted) {
  const int inner = kMaxNesting - 1;
  const Label parens =
      parseLabel("[" + repeat("(", inner) + "A or B" + repeat(")", inner) + "]");
  EXPECT_EQ(parens.guard.str(), "A or B");
  const Label negations = parseLabel(repeat("not ", inner) + "E");
  EXPECT_FALSE(negations.trigger.eval([](const std::string&) { return true; }));
}

TEST(ChartParser, StateHierarchyPastTheBoundIsALocatedError) {
  for (const bool byContains : {false, true}) {
    for (const int depth : {20000, kMaxNesting + 1}) {
      const std::string msg =
          errorOf([&] { (void)parseChart(nestedChart(depth, byContains), "deep.chart"); });
      EXPECT_NE(msg.find("deep.chart:"), std::string::npos) << msg;
      EXPECT_NE(msg.find("state nested deeper than 256 levels"), std::string::npos)
          << msg;
    }
  }
}

TEST(ChartParser, StateHierarchyAtTheBoundIsAccepted) {
  // The leaf is the kMaxNesting-th level; S0 is the first.
  for (const bool byContains : {false, true}) {
    const Chart chart = parseChart(nestedChart(kMaxNesting - 1, byContains));
    EXPECT_EQ(chart.depth(chart.stateByName("Leaf")), kMaxNesting);
  }
}

}  // namespace
}  // namespace pscp::statechart
