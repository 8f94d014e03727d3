// Profiler subsystem tests: the attribution-completeness property (every
// configuration cycle's category sum equals the cycles the machine itself
// reported — the profiler explains 100% of the run, by construction and
// now by test), quantile estimates against the exact sorted-sample oracle,
// TeeSink fan-out equivalence, and the JSON parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
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

TEST(JsonParser, NestingIsBounded) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parseJson(nested(200000), &v, &error));
  EXPECT_NE(error.find("value nested deeper than 256 levels"), std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(parseJson("{\"a\":" + nested(kMaxNesting) + "}", &v, &error));
  EXPECT_FALSE(error.empty());
  ASSERT_TRUE(parseJson(nested(kMaxNesting), &v, &error)) << error;
  EXPECT_TRUE(v.isArray());
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
