// Profiler subsystem tests: the attribution-completeness property (every
// configuration cycle's category sum equals the cycles the machine itself
// reported — the profiler explains 100% of the run, by construction and
// now by test), quantile estimates against the exact sorted-sample oracle,
// TeeSink fan-out equivalence, the JSON parser, and the bench-regression
// gate against injected-regression fixtures.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "obs/bench_compare.hpp"
#include "obs/metrics.hpp"
#include "obs/percentile.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/report.hpp"
#include "obs/tee.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "support/json.hpp"
#include "workloads/smd.hpp"

namespace pscp::obs {
namespace {

// ------------------------------------------------------------ SMD harness

hwlib::ArchConfig smdArch(int teps) {
  hwlib::ArchConfig a;
  a.dataWidth = 16;
  a.hasMulDiv = true;
  a.numTeps = teps;
  a.registerFileSize = 12;
  return a;
}

struct ProfiledRun {
  statechart::Chart chart;
  actionlang::Program actions;
  machine::PscpMachine machine;
  Profiler profiler;
  std::vector<machine::CycleStats> stats;

  explicit ProfiledRun(int teps)
      : chart(statechart::parseChart(workloads::smdChartText())),
        actions(actionlang::parseActionSource(workloads::smdActionText())),
        machine(chart, actions, smdArch(teps)) {
    machine.setObsOptions({&profiler});
  }

  void cycle(const std::set<std::string>& events) {
    stats.push_back(machine.configurationCycle(events));
  }

  /// The canonical walk: power-up, one move command, pulses to completion.
  void driveCanonical() {
    cycle({"POWER"});
    for (uint32_t b : {0x01u, 6u, 4u, 2u}) {
      machine.setInputPort("Buffer", b);
      cycle({"DATA_VALID"});
    }
    cycle({});
    cycle({});
    cycle({});
    cycle({"X_PULSE", "Y_PULSE", "PHI_PULSE"});
    cycle({"X_PULSE", "Y_PULSE"});
    cycle({"X_STEPS", "Y_STEPS", "PHI_STEPS"});
    cycle({});
    for (const auto& s : machine.runToQuiescence({})) stats.push_back(s);
  }

  /// Deterministic pseudo-random event storm after a canonical power-up:
  /// exercises every dispatch width from quiescent to all-TEPs-busy.
  void driveRandom(int cycles, uint32_t seed) {
    driveCanonical();
    std::mt19937 rng(seed);
    const std::vector<std::string> pool = {"X_PULSE", "Y_PULSE",  "PHI_PULSE",
                                           "X_STEPS", "Y_STEPS", "PHI_STEPS"};
    for (int i = 0; i < cycles; ++i) {
      std::set<std::string> events;
      for (const std::string& e : pool)
        if ((rng() & 3u) == 0) events.insert(e);
      cycle(events);
    }
  }
};

void expectFullyAttributed(const ProfiledRun& run, int teps) {
  const auto& cycles = run.profiler.cycles();
  ASSERT_EQ(cycles.size(), run.stats.size());
  int64_t statsTotal = 0;
  for (size_t i = 0; i < cycles.size(); ++i) {
    const CycleAttribution& a = cycles[i];
    int64_t sum = 0;
    for (const int64_t c : a.cat) sum += c;
    EXPECT_EQ(sum, a.total) << "attribution leak at cycle " << i;
    EXPECT_EQ(a.total, run.stats[i].cycles) << "cycle " << i;
    EXPECT_EQ(a.quiescent, run.stats[i].quiescent) << "cycle " << i;
    if (run.stats[i].fired.empty()) {
      EXPECT_EQ(a.criticalTep, -1) << "cycle " << i;
    } else {
      EXPECT_GE(a.criticalTep, 0) << "cycle " << i;
      EXPECT_LT(a.criticalTep, teps) << "cycle " << i;
    }
    statsTotal += run.stats[i].cycles;
  }
  EXPECT_EQ(run.profiler.totalCycles(), statsTotal);
  int64_t catTotal = 0;
  for (const int64_t c : run.profiler.categoryTotals()) catTotal += c;
  EXPECT_EQ(catTotal, statsTotal);
}

// -------------------------------------------------- attribution property

class AttributionCompleteness : public ::testing::TestWithParam<int> {};

TEST_P(AttributionCompleteness, CanonicalWalkSumsToReportedCycles) {
  ProfiledRun run(GetParam());
  run.driveCanonical();
  expectFullyAttributed(run, GetParam());
}

TEST_P(AttributionCompleteness, RandomizedDriveSumsToReportedCycles) {
  ProfiledRun run(GetParam());
  run.driveRandom(100, /*seed=*/0xC0FFEE);
  expectFullyAttributed(run, GetParam());
}

INSTANTIATE_TEST_SUITE_P(TepCounts, AttributionCompleteness,
                         ::testing::Values(1, 2, 4));

TEST(Profiler, EveryNonQuiescentCycleHasExactlyOneCriticalTep) {
  ProfiledRun run(2);
  run.driveRandom(60, /*seed=*/7);
  int64_t critical = 0;
  for (const TepProfile& tp : run.profiler.teps()) critical += tp.criticalCycles;
  int64_t firing = 0;
  for (const auto& s : run.stats)
    if (!s.fired.empty()) ++firing;
  EXPECT_EQ(critical, firing);
}

TEST(Profiler, TransitionCallsMatchFiredLog) {
  ProfiledRun run(2);
  run.driveCanonical();
  std::map<int, int64_t> fired;
  int64_t totalFired = 0;
  for (const auto& s : run.stats)
    for (const auto t : s.fired) {
      ++fired[static_cast<int>(t)];
      ++totalFired;
    }
  EXPECT_EQ(run.profiler.transitionsFired(), totalFired);
  const auto& profiles = run.profiler.transitions();
  for (size_t t = 0; t < profiles.size(); ++t) {
    const auto it = fired.find(static_cast<int>(t));
    EXPECT_EQ(profiles[t].calls, it == fired.end() ? 0 : it->second)
        << "transition " << t;
    if (profiles[t].calls > 0) {
      EXPECT_GE(profiles[t].minCycles, 1) << "transition " << t;
      EXPECT_LE(profiles[t].minCycles, profiles[t].maxCycles) << "transition " << t;
      EXPECT_GE(profiles[t].cycles,
                profiles[t].busStalls + profiles[t].memWaits)
          << "transition " << t;
    }
  }
}

TEST(Profiler, StateRollupConservesCost) {
  ProfiledRun run(2);
  run.driveCanonical();
  const auto states = run.profiler.stateProfiles();
  const auto& parent = run.profiler.meta().stateParent;
  ASSERT_EQ(states.size(), parent.size());
  int64_t selfCycles = 0;
  int64_t selfCalls = 0;
  int64_t rootTotalCycles = 0;
  int64_t rootTotalCalls = 0;
  for (size_t s = 0; s < states.size(); ++s) {
    EXPECT_LE(states[s].selfCycles, states[s].totalCycles) << "state " << s;
    EXPECT_LE(states[s].selfCalls, states[s].totalCalls) << "state " << s;
    selfCycles += states[s].selfCycles;
    selfCalls += states[s].selfCalls;
    if (parent[s] < 0) {
      rootTotalCycles += states[s].totalCycles;
      rootTotalCalls += states[s].totalCalls;
    }
  }
  // Every transition's cost lands on exactly one source state, and the
  // root regions' totals absorb the whole hierarchy.
  EXPECT_EQ(selfCycles, rootTotalCycles);
  EXPECT_EQ(selfCalls, rootTotalCalls);
  EXPECT_EQ(selfCalls, run.profiler.transitionsFired());
}

TEST(Profiler, KeepCyclesOffStillAccumulatesTotals) {
  ProfiledRun keep(2);
  keep.driveCanonical();

  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  machine::PscpMachine m(chart, actions, smdArch(2));
  Profiler lean(ProfilerOptions{.keepCycles = false});
  m.setObsOptions({&lean});
  m.configurationCycle({"POWER"});
  for (uint32_t b : {0x01u, 6u, 4u, 2u}) {
    m.setInputPort("Buffer", b);
    m.configurationCycle({"DATA_VALID"});
  }
  m.configurationCycle({});
  m.configurationCycle({});
  m.configurationCycle({});
  m.configurationCycle({"X_PULSE", "Y_PULSE", "PHI_PULSE"});
  m.configurationCycle({"X_PULSE", "Y_PULSE"});
  m.configurationCycle({"X_STEPS", "Y_STEPS", "PHI_STEPS"});
  m.configurationCycle({});
  m.runToQuiescence({});

  EXPECT_TRUE(lean.cycles().empty());
  EXPECT_EQ(lean.totalCycles(), keep.profiler.totalCycles());
  EXPECT_EQ(lean.categoryTotals(), keep.profiler.categoryTotals());
  EXPECT_EQ(lean.transitionsFired(), keep.profiler.transitionsFired());
}

// ------------------------------------------------------- quantile oracles

TEST(Percentile, QuantileOfSortedIsNearestRank) {
  const std::vector<int64_t> s = {10, 20, 30, 40};
  EXPECT_EQ(quantileOfSorted(s, -1.0), 10);
  EXPECT_EQ(quantileOfSorted(s, 0.0), 10);
  EXPECT_EQ(quantileOfSorted(s, 0.25), 10);   // ceil(0.25*4) = 1
  EXPECT_EQ(quantileOfSorted(s, 0.26), 20);   // ceil(1.04)   = 2
  EXPECT_EQ(quantileOfSorted(s, 0.50), 20);
  EXPECT_EQ(quantileOfSorted(s, 0.75), 30);
  EXPECT_EQ(quantileOfSorted(s, 0.99), 40);
  EXPECT_EQ(quantileOfSorted(s, 1.0), 40);
  EXPECT_EQ(quantileOfSorted(s, 2.0), 40);
  EXPECT_EQ(quantileOfSorted({}, 0.5), 0);
}

TEST(Percentile, SampleQuantileMatchesOracle) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int64_t> dist(0, 5000);
  SampleQuantile sq;
  std::vector<int64_t> samples;
  for (int i = 0; i < 997; ++i) {
    const int64_t v = dist(rng);
    sq.record(v);
    samples.push_back(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    EXPECT_EQ(sq.quantile(q), quantileOfSorted(samples, q)) << "q=" << q;
  EXPECT_EQ(sq.min(), samples.front());
  EXPECT_EQ(sq.max(), samples.back());
  EXPECT_EQ(sq.count(), 997);
}

TEST(Percentile, EmptySampleQuantileReportsZeros) {
  const SampleQuantile sq;
  EXPECT_TRUE(sq.empty());
  EXPECT_EQ(sq.quantile(0.5), 0);
  EXPECT_EQ(sq.min(), 0);
  EXPECT_EQ(sq.max(), 0);
  EXPECT_EQ(sq.mean(), 0.0);
}

TEST(HistogramQuantile, EmptyHistogramMinIsZeroNotSentinel) {
  const Histogram h({10, 100, 1000});
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.min(), 0);  // regression: used to leak the int64 max sentinel
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.quantileBounds(0.5).lo, 0);
  EXPECT_EQ(h.quantileBounds(0.5).hi, 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramQuantile, SingleSampleIsExactAtEveryQuantile) {
  Histogram h({10, 100, 1000});
  h.record(42);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantileBounds(q).lo, 42) << "q=" << q;
    EXPECT_EQ(h.quantileBounds(q).hi, 42) << "q=" << q;
    EXPECT_EQ(h.quantile(q), 42.0) << "q=" << q;
  }
}

TEST(HistogramQuantile, BoundsBracketExactQuantile) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int64_t> dist(0, 2000);
  Histogram h({16, 64, 256, 1024});
  std::vector<int64_t> samples;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = dist(rng);
    h.record(v);
    samples.push_back(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const int64_t exact = quantileOfSorted(samples, q);
    const Histogram::QuantileBound b = h.quantileBounds(q);
    EXPECT_LE(b.lo, exact) << "q=" << q;
    EXPECT_GE(b.hi, exact) << "q=" << q;
    EXPECT_GE(h.quantile(q), static_cast<double>(b.lo)) << "q=" << q;
    EXPECT_LE(h.quantile(q), static_cast<double>(b.hi)) << "q=" << q;
  }
  // The bracket ends stay inside the observed sample range.
  EXPECT_GE(h.quantileBounds(0.0).lo, samples.front());
  EXPECT_LE(h.quantileBounds(1.0).hi, samples.back());
}

// --------------------------------------------------------------- TeeSink

TEST(TeeSink, FanOutMatchesDirectAttachment) {
  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());

  machine::PscpMachine direct(chart, actions, smdArch(2));
  TraceRecorder directRecorder;
  direct.setObsOptions({&directRecorder});

  machine::PscpMachine teed(chart, actions, smdArch(2));
  TraceRecorder teedRecorder;
  Profiler profiler;
  TeeSink tee{&teedRecorder, &profiler};
  teed.setObsOptions({&tee});

  auto drive = [](machine::PscpMachine& m) {
    m.configurationCycle({"POWER"});
    for (uint32_t b : {0x01u, 6u, 4u, 2u}) {
      m.setInputPort("Buffer", b);
      m.configurationCycle({"DATA_VALID"});
    }
    m.configurationCycle({});
    m.configurationCycle({});
    m.configurationCycle({});
    m.runToQuiescence({});
  };
  drive(direct);
  drive(teed);

  // Both recorders saw the identical event stream...
  EXPECT_EQ(directRecorder.cycles().size(), teedRecorder.cycles().size());
  EXPECT_EQ(directRecorder.slices().size(), teedRecorder.slices().size());
  EXPECT_EQ(directRecorder.metrics().value("machine.config_cycles"),
            teedRecorder.metrics().value("machine.config_cycles"));
  // ...and the second sink got it too.
  EXPECT_EQ(profiler.configCycles(),
            teedRecorder.metrics().value("machine.config_cycles"));
  EXPECT_GT(profiler.totalCycles(), 0);
}

TEST(TeeSink, IgnoresNullAndSurvivesEmpty) {
  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  machine::PscpMachine m(chart, actions, smdArch(1));
  TraceRecorder recorder;
  TeeSink tee;
  tee.add(nullptr);     // ignored, not stored
  tee.add(&recorder);
  tee.add(nullptr);
  m.setObsOptions({&tee});
  m.configurationCycle({"POWER"});
  EXPECT_EQ(recorder.cycles().size(), 1u);

  machine::PscpMachine empty(chart, actions, smdArch(1));
  TeeSink none;
  empty.setObsOptions({&none});
  EXPECT_EQ(empty.configurationCycle({"POWER"}).quiescent, false);
}

// ------------------------------------------------------------ JSON parser

TEST(JsonParser, ParsesDocumentsAndRejectsGarbage) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parseJson(R"({"a":1,"b":[true,null,"x\nA"],"c":{"d":-2.5e2}})",
                        &v, &error))
      << error;
  ASSERT_TRUE(v.isObject());
  EXPECT_EQ(v.findPath("a")->number, 1.0);
  EXPECT_EQ(v.findPath("c.d")->number, -250.0);
  ASSERT_NE(v.find("b"), nullptr);
  ASSERT_EQ(v.find("b")->array.size(), 3u);
  EXPECT_EQ(v.find("b")->array[2].string, "x\nA");
  EXPECT_EQ(v.findPath("c.missing"), nullptr);

  EXPECT_FALSE(parseJson("{\"a\":1} trailing", &v, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parseJson("{\"a\":}", &v, &error));
  EXPECT_FALSE(parseJson("[1,2", &v, &error));
  EXPECT_FALSE(parseJson("", &v, &error));
}

TEST(JsonParser, NumericLeavesFlattenWithDottedPaths) {
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parseJson(
      R"({"top":3,"nest":{"x":1.5},"arr":[{"y":7},{"y":8}],"skip":"str"})", &v,
      &error))
      << error;
  const auto leaves = v.numericLeaves();
  std::map<std::string, double> m(leaves.begin(), leaves.end());
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.at("top"), 3.0);
  EXPECT_EQ(m.at("nest.x"), 1.5);
  EXPECT_EQ(m.at("arr[0].y"), 7.0);
  EXPECT_EQ(m.at("arr[1].y"), 8.0);
}

// ---------------------------------------------------------- bench_compare

JsonValue parseFixture(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parseJson(text, &v, &error)) << error;
  return v;
}

constexpr const char* kBaselineFixture =
    R"({"benchmark":"sla_select","charts":[
        {"name":"smd","transitions":54,"speedup":4.0,
         "reference_ns_per_select":100.0,"packed_ns_per_select":25.0}]})";

TEST(BenchCompare, InjectedTwoTimesRegressionGates) {
  const JsonValue baseline = parseFixture(kBaselineFixture);
  // Injected regression: speedup halves (the acceptance fixture).
  const JsonValue current = parseFixture(
      R"({"benchmark":"sla_select","charts":[
          {"name":"smd","transitions":54,"speedup":2.0,
           "reference_ns_per_select":100.0,"packed_ns_per_select":50.0}]})");
  BenchCompareOptions options;
  options.ignore = {"_ns_per_select"};
  const BenchCompareResult r = compareBenchJson(baseline, current, options);
  ASSERT_GT(r.regressions, 0);  // nonzero => tool exits 1
  bool speedupFlagged = false;
  for (const MetricDelta& d : r.deltas)
    if (d.path == "charts[0].speedup") {
      speedupFlagged = d.regression;
      EXPECT_NEAR(d.change, -0.5, 1e-9);
    }
  EXPECT_TRUE(speedupFlagged);
  EXPECT_NE(r.summaryText().find("REGRESSION"), std::string::npos);
}

TEST(BenchCompare, ToleranceAbsorbsSmallDrift) {
  const JsonValue baseline = parseFixture(kBaselineFixture);
  const JsonValue current = parseFixture(
      R"({"benchmark":"sla_select","charts":[
          {"name":"smd","transitions":54,"speedup":3.8,
           "reference_ns_per_select":110.0,"packed_ns_per_select":27.0}]})");
  BenchCompareOptions loose;  // default 25%
  EXPECT_EQ(compareBenchJson(baseline, current, loose).regressions, 0);

  BenchCompareOptions tight;
  tight.tolerance = 0.01;
  EXPECT_GT(compareBenchJson(baseline, current, tight).regressions, 0);
}

TEST(BenchCompare, IgnorePatternNeverGates) {
  const JsonValue baseline = parseFixture(kBaselineFixture);
  const JsonValue current = parseFixture(
      R"({"benchmark":"sla_select","charts":[
          {"name":"smd","transitions":54,"speedup":4.0,
           "reference_ns_per_select":900.0,"packed_ns_per_select":900.0}]})");
  BenchCompareOptions options;
  options.ignore = {"_ns_per_select"};
  const BenchCompareResult r = compareBenchJson(baseline, current, options);
  EXPECT_EQ(r.regressions, 0);
  for (const MetricDelta& d : r.deltas)
    if (d.path.find("_ns_per_select") != std::string::npos) {
      EXPECT_TRUE(d.ignored) << d.path;
      EXPECT_FALSE(d.regression) << d.path;
    }
}

TEST(BenchCompare, LongestPerMetricToleranceWins) {
  const JsonValue baseline = parseFixture(R"({"a":{"speedup":4.0}})");
  const JsonValue current = parseFixture(R"({"a":{"speedup":3.5}})");
  BenchCompareOptions options;
  options.tolerance = 0.01;  // would regress under the global tolerance
  options.perMetricTolerance = {{"speedup", 0.02}, {"a.speedup", 0.5}};
  const BenchCompareResult r = compareBenchJson(baseline, current, options);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].tolerance, 0.5);
  EXPECT_EQ(r.regressions, 0);
}

TEST(BenchCompare, ZeroBaselineGatesExactly) {
  const JsonValue baseline = parseFixture(R"({"bus_stall_cycles":0,"speedup":0})");
  const JsonValue worse = parseFixture(R"({"bus_stall_cycles":7,"speedup":2})");
  const BenchCompareResult r = compareBenchJson(baseline, worse, {});
  int regressed = 0;
  for (const MetricDelta& d : r.deltas) {
    if (d.path == "bus_stall_cycles") {
      EXPECT_TRUE(d.regression);  // lower-is-better rose from zero
    }
    if (d.path == "speedup") {
      EXPECT_FALSE(d.regression);  // higher-is-better rose from zero
    }
    regressed += d.regression ? 1 : 0;
  }
  EXPECT_EQ(regressed, r.regressions);
  EXPECT_EQ(r.regressions, 1);
}

TEST(BenchCompare, OneSidedMetricsAreNotesNotRegressions) {
  const JsonValue baseline = parseFixture(R"({"old_only":1,"shared":2})");
  const JsonValue current = parseFixture(R"({"new_only":3,"shared":2})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_EQ(r.regressions, 0);
  ASSERT_EQ(r.deltas.size(), 1u);
  EXPECT_EQ(r.deltas[0].path, "shared");
  ASSERT_EQ(r.notes.size(), 2u);
}

TEST(BenchCompare, HostMismatchWarnsButNeverGates) {
  const JsonValue baseline = parseFixture(
      R"({"host":{"cpu_model":"Xeon","logical_cpus":16,"physical_cores":8,
          "governor":"performance"},"speedup":4.0})");
  const JsonValue current = parseFixture(
      R"({"host":{"cpu_model":"EPYC","logical_cpus":1,"physical_cores":1,
          "governor":"unknown"},"speedup":4.0})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_TRUE(r.hostMismatch);
  EXPECT_EQ(r.regressions, 0);
  // host.* numeric leaves must never enter the gated delta set.
  for (const MetricDelta& d : r.deltas)
    EXPECT_NE(d.path.rfind("host.", 0), 0u) << d.path;
  EXPECT_NE(r.summaryText().find("WARNING"), std::string::npos);
  EXPECT_NE(r.summaryText().find("host"), std::string::npos);
}

TEST(BenchCompare, HostMismatchNamesCapabilityFields) {
  // The warning names each differing member; jit is an execution
  // capability, flagged as such (metrics not comparable), while governor
  // drift is named without that flag.
  const JsonValue baseline = parseFixture(
      R"({"host":{"cpu_model":"Xeon","governor":"performance","jit":"auto"},
          "speedup":4.0})");
  const JsonValue current = parseFixture(
      R"({"host":{"cpu_model":"Xeon","governor":"powersave",
          "jit":"unavailable"},"speedup":4.0})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_TRUE(r.hostMismatch);
  EXPECT_EQ(r.regressions, 0);
  bool namedJit = false, namedGovernor = false, namedCpu = false;
  for (const std::string& note : r.notes) {
    if (note.find("jit baseline") != std::string::npos) {
      namedJit = true;
      EXPECT_NE(note.find("execution capability"), std::string::npos) << note;
      EXPECT_NE(note.find("auto"), std::string::npos) << note;
      EXPECT_NE(note.find("unavailable"), std::string::npos) << note;
    }
    if (note.find("governor") != std::string::npos) {
      namedGovernor = true;
      EXPECT_EQ(note.find("execution capability"), std::string::npos) << note;
    }
    if (note.find("cpu_model") != std::string::npos) namedCpu = true;
  }
  EXPECT_TRUE(namedJit);
  EXPECT_TRUE(namedGovernor);
  EXPECT_FALSE(namedCpu);  // matching members stay out of the warning
}

TEST(BenchCompare, MatchingHostIsSilent) {
  const JsonValue baseline = parseFixture(
      R"({"host":{"cpu_model":"Xeon","logical_cpus":16},"speedup":4.0})");
  const JsonValue current = parseFixture(
      R"({"host":{"cpu_model":"Xeon","logical_cpus":16},"speedup":4.0})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_FALSE(r.hostMismatch);
  EXPECT_EQ(r.regressions, 0);
  EXPECT_EQ(r.summaryText().find("WARNING"), std::string::npos);
}

TEST(BenchCompare, OneSidedHostIsNoteOnly) {
  // Old baselines predate host capture: note it, don't warn or gate.
  const JsonValue baseline = parseFixture(R"({"speedup":4.0})");
  const JsonValue current = parseFixture(
      R"({"host":{"cpu_model":"Xeon","logical_cpus":16},"speedup":4.0})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_FALSE(r.hostMismatch);
  EXPECT_EQ(r.regressions, 0);
  bool noted = false;
  for (const std::string& note : r.notes)
    noted = noted || note.find("host") != std::string::npos;
  EXPECT_TRUE(noted);
}

TEST(BenchCompare, OversubscribedScalingMetricsAreSkipped) {
  // A 4-thread sweep captured on a 1-hardware-thread host: its
  // speedup/efficiency numbers are scheduler noise, so even a huge
  // "regression" in them must not gate — while real throughput metrics
  // in the same sweep still do.
  const JsonValue baseline = parseFixture(
      R"({"hardware_threads":1,"sweeps":[
          {"threads":4,"config_cycles_per_sec":1000.0,
           "speedup_vs_1t":1.0,"efficiency":0.25}]})");
  const JsonValue current = parseFixture(
      R"({"hardware_threads":1,"sweeps":[
          {"threads":4,"config_cycles_per_sec":1000.0,
           "speedup_vs_1t":0.2,"efficiency":0.05}]})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_EQ(r.regressions, 0);
  bool speedupSkipped = false;
  bool efficiencySkipped = false;
  for (const MetricDelta& d : r.deltas) {
    if (d.path == "sweeps[0].speedup_vs_1t") speedupSkipped = d.ignored;
    if (d.path == "sweeps[0].efficiency") efficiencySkipped = d.ignored;
  }
  EXPECT_TRUE(speedupSkipped);
  EXPECT_TRUE(efficiencySkipped);
  bool noted = false;
  for (const std::string& note : r.notes)
    noted = noted || note.find("not gated") != std::string::npos;
  EXPECT_TRUE(noted);

  // Throughput in the same oversubscribed sweep still gates.
  const JsonValue slower = parseFixture(
      R"({"hardware_threads":1,"sweeps":[
          {"threads":4,"config_cycles_per_sec":100.0,
           "speedup_vs_1t":1.0,"efficiency":0.25}]})");
  EXPECT_GT(compareBenchJson(baseline, slower, {}).regressions, 0);
}

TEST(BenchCompare, ScalingMetricsGateWhenHostHasTheThreads) {
  const JsonValue baseline = parseFixture(
      R"({"hardware_threads":8,"sweeps":[
          {"threads":4,"speedup_vs_1t":3.0,"efficiency":0.75}]})");
  const JsonValue current = parseFixture(
      R"({"hardware_threads":8,"sweeps":[
          {"threads":4,"speedup_vs_1t":1.0,"efficiency":0.25}]})");
  const BenchCompareResult r = compareBenchJson(baseline, current, {});
  EXPECT_GT(r.regressions, 0);
  for (const MetricDelta& d : r.deltas)
    if (d.path == "sweeps[0].speedup_vs_1t") {
      EXPECT_TRUE(d.regression);
    }
}

TEST(BenchCompare, CurrentHostOversubscriptionAlsoSkips) {
  // Baseline captured on a big host, current run on a starved CI
  // container: the current document's own numbers are the noisy ones.
  const JsonValue baseline = parseFixture(
      R"({"hardware_threads":8,"sweeps":[
          {"threads":4,"speedup_vs_1t":3.0}]})");
  const JsonValue current = parseFixture(
      R"({"hardware_threads":2,"sweeps":[
          {"threads":4,"speedup_vs_1t":0.9}]})");
  BenchCompareOptions options;
  // The hardware_threads leaf itself is provenance; CI ignores it too.
  options.ignore = {"hardware_threads"};
  const BenchCompareResult r = compareBenchJson(baseline, current, options);
  EXPECT_EQ(r.regressions, 0);
  for (const MetricDelta& d : r.deltas)
    if (d.path == "sweeps[0].speedup_vs_1t") {
      EXPECT_TRUE(d.ignored);
    }
}

TEST(BenchCompare, DirectionHeuristic) {
  EXPECT_EQ(metricDirection("charts[0].speedup"), MetricDirection::kHigherIsBetter);
  EXPECT_EQ(metricDirection("totals.machine_cycles"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(metricDirection("reference_ns_per_select"), MetricDirection::kLowerIsBetter);
  EXPECT_EQ(metricDirection("charts[0].transitions"), MetricDirection::kTwoSided);
  EXPECT_EQ(metricDirection("cr_bits"), MetricDirection::kTwoSided);
}

// --------------------------------------------------------- profile report

TEST(ProfileReport, JsonParsesAndCategoriesSumToTotal) {
  ProfiledRun run(2);
  run.driveCanonical();
  const std::string json = profileJson(run.profiler);

  JsonValue v;
  std::string error;
  ASSERT_TRUE(parseJson(json, &v, &error)) << error;
  ASSERT_NE(v.find("schema"), nullptr);
  EXPECT_EQ(v.find("schema")->string, "pscp-profile-v1");
  for (const char* key :
       {"chart", "teps", "totals", "categories", "percentiles", "transitions",
        "states", "teps"})
    EXPECT_NE(v.find(key), nullptr) << key;

  const JsonValue* total = v.findPath("totals.machine_cycles");
  ASSERT_NE(total, nullptr);
  const JsonValue* categories = v.find("categories");
  ASSERT_NE(categories, nullptr);
  double sum = 0;
  for (const auto& [name, value] : categories->object) {
    (void)name;
    sum += value.number;
  }
  EXPECT_EQ(sum, total->number);
  EXPECT_EQ(static_cast<int64_t>(total->number), run.profiler.totalCycles());

  const JsonValue* p50 = v.findPath("percentiles.config_cycle_cycles.p50");
  ASSERT_NE(p50, nullptr);
  EXPECT_EQ(static_cast<int64_t>(p50->number),
            run.profiler.cycleLength().quantile(0.5));
}

TEST(ProfileReport, TextReportShowsFullAttribution) {
  ProfiledRun run(2);
  run.driveCanonical();
  const std::string text = profileText(run.profiler, {});
  EXPECT_NE(text.find("100.0%"), std::string::npos);
  EXPECT_NE(text.find("sla_decode"), std::string::npos);
  EXPECT_NE(text.find("critical"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace pscp::obs
