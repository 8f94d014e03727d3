// Observability subsystem tests (src/obs): metrics accumulation, exporter
// well-formedness (the Chrome trace JSON is parsed back by a small
// recursive-descent JSON reader, the VCD is structurally checked), and the
// observer-effect regression — attaching a recorder must not change a
// single cycle of the simulated machine, even though it takes the machine
// off its decode memo.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "actionlang/parser.hpp"
#include "core/system.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/tee.hpp"
#include "obs/vcd.hpp"
#include "pscp/machine.hpp"
#include "statechart/parser.hpp"
#include "workloads/smd.hpp"

namespace pscp::obs {
namespace {

// ------------------------------------------------------------ JSON reader
// Minimal validating JSON parser: accepts objects, arrays, strings,
// numbers, booleans and null; rejects trailing garbage. Enough to prove
// the exporters emit well-formed documents.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return at_ == text_.size();
  }

  [[nodiscard]] int arrayItems() const { return arrayItems_; }
  [[nodiscard]] int objects() const { return objects_; }

 private:
  void skipWs() {
    while (at_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[at_])))
      ++at_;
  }
  bool literal(const char* word) {
    const size_t n = std::string(word).size();
    if (text_.compare(at_, n, word) != 0) return false;
    at_ += n;
    return true;
  }
  bool string() {
    if (at_ >= text_.size() || text_[at_] != '"') return false;
    ++at_;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;
      ++at_;
    }
    if (at_ >= text_.size()) return false;
    ++at_;  // closing quote
    return true;
  }
  bool number() {
    const size_t start = at_;
    if (at_ < text_.size() && (text_[at_] == '-' || text_[at_] == '+')) ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '-' || text_[at_] == '+'))
      ++at_;
    return at_ > start;
  }
  bool value() {
    skipWs();
    if (at_ >= text_.size()) return false;
    const char c = text_[at_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == 't') return literal("true");
    if (c == 'f') return literal("false");
    if (c == 'n') return literal("null");
    return number();
  }
  bool object() {
    ++at_;  // '{'
    ++objects_;
    skipWs();
    if (at_ < text_.size() && text_[at_] == '}') {
      ++at_;
      return true;
    }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (at_ >= text_.size() || text_[at_] != ':') return false;
      ++at_;
      if (!value()) return false;
      skipWs();
      if (at_ < text_.size() && text_[at_] == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (at_ >= text_.size() || text_[at_] != '}') return false;
    ++at_;
    return true;
  }
  bool array() {
    ++at_;  // '['
    skipWs();
    if (at_ < text_.size() && text_[at_] == ']') {
      ++at_;
      return true;
    }
    while (true) {
      if (!value()) return false;
      ++arrayItems_;
      skipWs();
      if (at_ < text_.size() && text_[at_] == ',') {
        ++at_;
        continue;
      }
      break;
    }
    if (at_ >= text_.size() || text_[at_] != ']') return false;
    ++at_;
    return true;
  }

  const std::string& text_;
  size_t at_ = 0;
  int arrayItems_ = 0;
  int objects_ = 0;
};

int countOccurrences(const std::string& haystack, const std::string& needle) {
  int n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

// --------------------------------------------------------------- fixtures

struct SmdRun {
  statechart::Chart chart;
  actionlang::Program actions;
  machine::PscpMachine machine;
  TraceRecorder recorder;

  explicit SmdRun(int teps)
      : chart(statechart::parseChart(workloads::smdChartText())),
        actions(actionlang::parseActionSource(workloads::smdActionText())),
        machine(chart, actions, arch(teps)) {
    machine.setObsOptions({&recorder});
  }

  static hwlib::ArchConfig arch(int teps) {
    hwlib::ArchConfig a;
    a.dataWidth = 16;
    a.hasMulDiv = true;
    a.numTeps = teps;
    a.registerFileSize = 12;
    return a;
  }

  void drive() {
    machine.configurationCycle({"POWER"});
    for (uint32_t b : {0x01u, 6u, 4u, 2u}) {
      machine.setInputPort("Buffer", b);
      machine.configurationCycle({"DATA_VALID"});
    }
    machine.configurationCycle({});
    machine.configurationCycle({});
    machine.configurationCycle({});
    machine.configurationCycle({"X_PULSE", "Y_PULSE", "PHI_PULSE"});
    machine.configurationCycle({"X_STEPS", "Y_STEPS", "PHI_STEPS"});
    machine.runToQuiescence({});
  }
};

// ---------------------------------------------------------------- metrics

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry reg;
  reg.counter("a") += 3;
  reg.add("a", 4);
  reg.counter("b");  // materialise at zero
  EXPECT_EQ(reg.value("a"), 7);
  EXPECT_EQ(reg.value("b"), 0);
  EXPECT_EQ(reg.value("missing"), 0);
  EXPECT_TRUE(reg.hasCounter("b"));
  EXPECT_FALSE(reg.hasCounter("missing"));
}

TEST(Metrics, HistogramBucketsAndStats) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {10, 100, 1000});
  for (int64_t v : {5, 10, 11, 99, 100, 5000}) h.record(v);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 99 + 100 + 5000);
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2);  // <= 10
  EXPECT_EQ(h.counts()[1], 3);  // <= 100
  EXPECT_EQ(h.counts()[2], 0);  // <= 1000
  EXPECT_EQ(h.counts()[3], 1);  // overflow
  // Re-requesting keeps the same histogram (bounds ignored on lookup).
  EXPECT_EQ(&reg.histogram("lat", {1}), &h);
}

TEST(Metrics, HistogramFromCountsRebuildsSnapshot) {
  // fromCounts is how the fleet's atomic bucket arrays re-enter the
  // registry reporting stack: it must agree with a recorded histogram.
  Histogram recorded({10, 100, 1000});
  for (int64_t v : {5, 10, 11, 99, 100, 5000}) recorded.record(v);
  const Histogram rebuilt = Histogram::fromCounts(
      recorded.bounds(), recorded.counts(), recorded.sum(), recorded.min(),
      recorded.max());
  EXPECT_EQ(rebuilt.count(), recorded.count());
  EXPECT_EQ(rebuilt.sum(), recorded.sum());
  EXPECT_EQ(rebuilt.min(), recorded.min());
  EXPECT_EQ(rebuilt.max(), recorded.max());
  EXPECT_EQ(rebuilt.counts(), recorded.counts());
  for (const double q : {0.1, 0.5, 0.9})
    EXPECT_EQ(rebuilt.quantile(q), recorded.quantile(q)) << "q=" << q;

  // All-zero counts produce a well-defined empty histogram regardless of
  // the stats passed alongside.
  const Histogram empty =
      Histogram::fromCounts({10, 100}, {0, 0, 0}, 999, 999, 999);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.min(), 0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
}

TEST(Metrics, DumpsAreWellFormed) {
  MetricsRegistry reg;
  reg.counter("x.y") = 42;
  reg.histogram("h", {1, 2}).record(1);
  const std::string text = reg.dumpText();
  EXPECT_NE(text.find("x.y"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  const std::string json = reg.dumpJson();
  JsonReader reader(json);
  EXPECT_TRUE(reader.valid()) << json;
}

// ------------------------------------------------------- recorder metrics

TEST(Recorder, MetricsMatchMachineCounters) {
  SmdRun run(2);
  run.drive();
  const MetricsRegistry& m = run.recorder.metrics();
  EXPECT_EQ(m.value("machine.cycles"), run.machine.totalCycles());
  EXPECT_EQ(m.value("machine.config_cycles"), run.machine.configurationCycles());
  EXPECT_EQ(m.value("machine.bus_stalls"), run.machine.totalBusStalls());
  EXPECT_EQ(m.value("machine.port_writes"),
            static_cast<int64_t>(run.machine.portWrites().size()));
  EXPECT_GT(m.value("machine.transitions_fired"), 0);
  EXPECT_GT(m.value("sla.terms_evaluated"), 0);
  // Dispatches == routines == transitions fired.
  EXPECT_EQ(m.value("sched.dispatches"), m.value("machine.transitions_fired"));
  EXPECT_EQ(m.value("tep0.routines") + m.value("tep1.routines"),
            m.value("machine.transitions_fired"));
}

TEST(Recorder, PerTepCycleAccountingSumsToTotal) {
  for (int teps : {1, 2, 3}) {
    SmdRun run(teps);
    run.drive();
    for (int i = 0; i < teps; ++i)
      EXPECT_EQ(run.recorder.tepBusyCycles(i) + run.recorder.tepStallCycles(i) +
                    run.recorder.tepIdleCycles(i),
                run.machine.totalCycles())
          << "TEP " << i << " of " << teps;
  }
}

TEST(Recorder, PortWritesCarryCycleIndexAndTime) {
  SmdRun run(2);
  run.drive();
  const auto& writes = run.machine.portWrites();
  ASSERT_FALSE(writes.empty());
  int64_t lastTime = 0;
  for (const auto& w : writes) {
    EXPECT_GE(w.configCycle, 0);
    EXPECT_LT(w.configCycle, run.machine.configurationCycles());
    EXPECT_GE(w.time, lastTime);  // ordered in machine time
    lastTime = w.time;
  }
  // Compat accessor: same writes, bare pairs.
  const auto compat = run.machine.portWriteLog();
  ASSERT_EQ(compat.size(), writes.size());
  for (size_t i = 0; i < compat.size(); ++i) {
    EXPECT_EQ(compat[i].first, writes[i].port);
    EXPECT_EQ(compat[i].second, writes[i].value);
  }
}

// -------------------------------------------------------------- exporters

TEST(ChromeTrace, JsonParsesBackAndHasOneLanePerTep) {
  SmdRun run(2);
  run.drive();
  const std::string json = chromeTraceJson(run.recorder);
  JsonReader reader(json);
  ASSERT_TRUE(reader.valid());
  EXPECT_GT(reader.arrayItems(), 20);  // metadata + slices + instants
  // One metadata lane per configured TEP plus the scheduler lane.
  EXPECT_NE(json.find("\"scheduler/SLA\""), std::string::npos);
  EXPECT_NE(json.find("\"TEP 0\""), std::string::npos);
  EXPECT_NE(json.find("\"TEP 1\""), std::string::npos);
  EXPECT_EQ(json.find("\"TEP 2\""), std::string::npos);
  // Every routine slice surfaces as a complete event on a TEP lane.
  EXPECT_GE(countOccurrences(json, "\"ph\":\"X\""),
            static_cast<int>(run.recorder.slices().size()));
}

TEST(Vcd, HeaderTimescaleAndEdgesAreValid) {
  SmdRun run(2);
  run.drive();
  const std::string vcd = vcdDump(run.recorder);
  // Header structure.
  EXPECT_NE(vcd.find("$timescale 1 ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_EQ(countOccurrences(vcd, "$scope"), countOccurrences(vcd, "$upscope"));
  // One wire per event, condition, state and TEP.
  const auto meta = run.machine.traceMeta();
  const int expectedVars = static_cast<int>(meta.eventNames.size()) +
                           static_cast<int>(meta.conditionNames.size()) +
                           static_cast<int>(meta.stateNames.size()) +
                           meta.tepCount +
                           static_cast<int>(meta.portNames.size());
  EXPECT_EQ(countOccurrences(vcd, "$var wire"), expectedVars);
  // The POWER pulse must appear as a rising then falling edge, and time
  // must advance past zero.
  EXPECT_NE(vcd.find("ev_POWER"), std::string::npos);
  EXPECT_NE(vcd.find("st_Moving"), std::string::npos);
  EXPECT_GE(countOccurrences(vcd, "\n#"), 2);
  // Every value-change line after $enddefinitions uses a declared id.
  const size_t defsEnd = vcd.find("$enddefinitions $end");
  const std::string body = vcd.substr(defsEnd);
  EXPECT_NE(body.find("#0"), std::string::npos);
}

// ------------------------------------------------- observer-effect checks

TEST(ObserverEffect, TracingDoesNotChangeCycleStats) {
  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  const auto arch = SmdRun::arch(2);

  auto drive = [](machine::PscpMachine& m) {
    std::vector<machine::CycleStats> out;
    out.push_back(m.configurationCycle({"POWER"}));
    for (uint32_t b : {0x01u, 6u, 4u, 2u}) {
      m.setInputPort("Buffer", b);
      out.push_back(m.configurationCycle({"DATA_VALID"}));
    }
    out.push_back(m.configurationCycle({}));
    out.push_back(m.configurationCycle({}));
    out.push_back(m.configurationCycle({}));
    out.push_back(m.configurationCycle({"X_PULSE", "Y_PULSE", "PHI_PULSE"}));
    out.push_back(m.configurationCycle({"X_STEPS", "Y_STEPS", "PHI_STEPS"}));
    return out;
  };

  machine::PscpMachine bare(chart, actions, arch);
  const auto bareStats = drive(bare);

  machine::PscpMachine traced(chart, actions, arch);
  TraceRecorder recorder;
  traced.setObsOptions({&recorder});
  const auto tracedStats = drive(traced);

  // Heavier observation must be just as invisible: a TeeSink fanning out
  // to a recorder AND the cycle-attribution profiler.
  machine::PscpMachine profiled(chart, actions, arch);
  TraceRecorder teeRecorder;
  Profiler profiler;
  TeeSink tee{&teeRecorder, &profiler};
  profiled.setObsOptions({&tee});
  const auto profiledStats = drive(profiled);

  ASSERT_EQ(bareStats.size(), tracedStats.size());
  ASSERT_EQ(bareStats.size(), profiledStats.size());
  for (size_t i = 0; i < bareStats.size(); ++i) {
    EXPECT_EQ(bareStats[i].cycles, tracedStats[i].cycles) << "cycle " << i;
    EXPECT_EQ(bareStats[i].busStallCycles, tracedStats[i].busStallCycles)
        << "cycle " << i;
    EXPECT_EQ(bareStats[i].quiescent, tracedStats[i].quiescent) << "cycle " << i;
    EXPECT_EQ(bareStats[i].fired, tracedStats[i].fired) << "cycle " << i;
    EXPECT_EQ(bareStats[i].cycles, profiledStats[i].cycles) << "cycle " << i;
    EXPECT_EQ(bareStats[i].busStallCycles, profiledStats[i].busStallCycles)
        << "cycle " << i;
    EXPECT_EQ(bareStats[i].quiescent, profiledStats[i].quiescent)
        << "cycle " << i;
    EXPECT_EQ(bareStats[i].fired, profiledStats[i].fired) << "cycle " << i;
  }
  EXPECT_EQ(bare.totalCycles(), traced.totalCycles());
  EXPECT_EQ(bare.totalBusStalls(), traced.totalBusStalls());
  EXPECT_EQ(bare.activeNames(), traced.activeNames());
  EXPECT_EQ(bare.portWriteLog(), traced.portWriteLog());
  EXPECT_EQ(bare.totalCycles(), profiled.totalCycles());
  EXPECT_EQ(bare.totalBusStalls(), profiled.totalBusStalls());
  EXPECT_EQ(bare.activeNames(), profiled.activeNames());
  EXPECT_EQ(bare.portWriteLog(), profiled.portWriteLog());
  EXPECT_EQ(profiler.totalCycles(), bare.totalCycles());
}

TEST(ObserverEffect, NullSinkOptionsAreInert) {
  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  const auto arch = SmdRun::arch(2);
  machine::PscpMachine bare(chart, actions, arch);
  machine::PscpMachine nulled(chart, actions, arch);
  nulled.setObsOptions({});  // explicit null sink
  const auto a = bare.configurationCycle({"POWER"});
  const auto b = nulled.configurationCycle({"POWER"});
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fired, b.fired);
}

// -------------------------------------------------------- decode memo
// An unobserved machine answers an event-free cycle over an unchanged,
// already-quiescent CR from its memo; an observed one decodes every
// cycle. This chart's idle stretches end through every kind of CR writer:
// Wait leaves on [ARMED] alone (setCondition) unless KICK masks it, Armed
// leaves on [FLAG] alone (a TEP condition write-back), Spin leaves on
// [FLAG] as soon as it is entered (a configuration update), PING is raised
// by a TEP or directly through raiseEvent, TMR comes from a hardware
// timer, GO and KICK from outside.

const char* kMemoChart = R"chart(
chart MemoProbe;
event GO; event KICK; event PING; event TMR;
condition ARMED; condition FLAG;
port In data in width 8 address 0x20;
port Out data out width 8 address 0x21;

orstate Top {
  contains Wait, Armed, Flagged, Spin;
  default Wait;
}
basicstate Wait {
  transition { target Armed; label "not KICK [ARMED]/Disarm()"; }
}
basicstate Armed {
  transition { target Armed; label "GO/Ping()"; }
  transition { target Armed; label "PING/SetFlag()"; }
  transition { target Flagged; label "[FLAG]/Report()"; }
  transition { target Armed; label "TMR/Count()"; }
}
basicstate Flagged {
  transition { target Flagged; label "TMR/Count()"; }
  transition { target Wait; label "KICK/Unflag()"; }
  transition { target Spin; label "GO"; }
}
basicstate Spin {
  transition { target Flagged; label "[FLAG]"; }
}
)chart";

const char* kMemoActions = R"code(
int:16 hits;
void Disarm() { set_cond(ARMED, 0); }
void Ping() { raise(PING); }
void SetFlag() { set_cond(FLAG, 1); }
void Report() { write_port(Out, read_port(In) + hits); }
void Count() { hits = hits + 1; write_port(Out, hits); }
void Unflag() { set_cond(FLAG, 0); }
)code";

/// Observes nothing: attaching it only takes the memo away.
class NullObserver final : public ObsSink {};

struct MemoProbe {
  statechart::Chart chart = statechart::parseChart(kMemoChart);
  actionlang::Program actions = actionlang::parseActionSource(kMemoActions);
  std::shared_ptr<const machine::ChartImage> image =
      std::make_shared<const machine::ChartImage>(chart, actions, SmdRun::arch(2));
};

/// One machine's run: every cycle's stats, in order.
struct MemoTrace {
  machine::PscpMachine machine;
  std::vector<machine::CycleStats> cycles;

  explicit MemoTrace(const MemoProbe& probe) : machine(probe.image) {}
  void step(std::vector<int> events = {}) {
    machine::CycleStats stats;
    machine.configurationCycleIds(events, &stats);
    cycles.push_back(std::move(stats));
  }
  void idle(int n) {
    for (int i = 0; i < n; ++i) step();
  }
};

/// Every field of a CycleStats, compared (and printed) in one assertion.
auto sums(const machine::CycleStats& s) {
  return std::make_tuple(s.fired, s.cycles, s.busStallCycles, s.quiescentCycles,
                         s.quiescent);
}

/// Two MemoProbe machines agree on machine time, timestamped port writes
/// and everything the chart keeps.
void expectSameState(const machine::PscpMachine& a, const machine::PscpMachine& b) {
  EXPECT_EQ(a.totalCycles(), b.totalCycles());
  EXPECT_EQ(a.configurationCycles(), b.configurationCycles());
  EXPECT_EQ(a.activeNames(), b.activeNames());
  EXPECT_EQ(a.portWrites(), b.portWrites());
  EXPECT_EQ(a.conditionValue("ARMED"), b.conditionValue("ARMED"));
  EXPECT_EQ(a.conditionValue("FLAG"), b.conditionValue("FLAG"));
  EXPECT_EQ(a.globalValue("hits"), b.globalValue("hits"));
}

/// Run `drive` on a bare machine and on one with a NullObserver attached,
/// require the two to agree on every cycle and all final state, then hand
/// the bare run to `check`.
template <typename Drive, typename Check>
void expectBareMatchesObserved(const MemoProbe& probe, Drive drive, Check check) {
  MemoTrace bare(probe);
  drive(bare);
  MemoTrace observed(probe);
  NullObserver observer;
  observed.machine.setObsOptions({&observer});
  drive(observed);

  ASSERT_EQ(bare.cycles.size(), observed.cycles.size());
  for (size_t i = 0; i < bare.cycles.size(); ++i)
    EXPECT_EQ(sums(bare.cycles[i]), sums(observed.cycles[i])) << "cycle " << i;
  expectSameState(bare.machine, observed.machine);
  check(bare);
}

TEST(ObserverEffect, QuiescenceMemoMatchesObservedDecodeAtEveryInvalidation) {
  const MemoProbe probe;
  constexpr size_t kTimerStart = 16;
  const auto drive = [](MemoTrace& t) {
    machine::PscpMachine& m = t.machine;
    t.idle(3);  // Wait, ARMED clear: quiescent, into the memo
    m.setCondition("ARMED", true);
    t.step({m.eventId("KICK")});  // events sampled, nothing selected
    t.idle(3);  // [ARMED] fires with no event; Disarm writes ARMED back
    t.step({m.eventId("GO")});  // external event; Ping raises PING
    t.idle(4);  // PING fires SetFlag, whose write-back enables [FLAG]
    t.step({m.eventId("GO")});  // into Spin, whose [FLAG] already holds
    t.idle(3);
    m.addTimer("TMR", 150);  // after idling in Flagged
    // Idle until the timer has fired three times: it matures after idle
    // cycles each time (a firing costs far less than the period).
    for (int fires = 0, i = 0; fires < 3 && i < 400; ++i) {
      t.step();
      if (!t.cycles.back().fired.empty()) ++fires;
    }
    // Right after a firing, the next maturity is a period away: the
    // twelve cycles below stay clear of it.
    t.step({m.eventId("KICK")});
    t.idle(6);  // Wait: nothing selected
    m.setCondition("ARMED", true);
    t.idle(3);  // into Armed, then into the memo
    m.raiseEvent(m.eventId("PING"));  // raised from outside any routine
    t.idle(2);  // PING fires SetFlag, then [FLAG] moves to Flagged
  };
  expectBareMatchesObserved(probe, drive, [&](const MemoTrace& bare) {
    // The drive must really leave the memo at each point above.
    const auto firedAt = [&](size_t i) { return bare.cycles[i].fired.size(); };
    EXPECT_TRUE(bare.cycles[3].quiescent) << "KICK masks [ARMED]";
    EXPECT_EQ(firedAt(4), 1u) << "setCondition must end the idle stretch";
    EXPECT_EQ(firedAt(7), 1u) << "GO";
    EXPECT_EQ(firedAt(8), 1u) << "TEP-raised PING";
    EXPECT_EQ(firedAt(9), 1u) << "[FLAG] after the write-back";
    EXPECT_EQ(firedAt(12), 1u) << "GO into Spin";
    EXPECT_EQ(firedAt(13), 1u) << "[FLAG] right after entering Spin";
    EXPECT_TRUE(bare.cycles[kTimerStart - 1].quiescent);
    const size_t tail = bare.cycles.size() - 12;  // the KICK cycle
    int64_t timerFirings = 0;
    for (size_t i = kTimerStart; i < tail; ++i) {
      if (firedAt(i) == 0) continue;
      ++timerFirings;
      EXPECT_TRUE(bare.cycles[i - 1].quiescent)
          << "cycle " << i << ": the timer must mature after an idle cycle";
    }
    EXPECT_EQ(timerFirings, 3);
    EXPECT_EQ(bare.machine.globalValue("hits"), 3);
    EXPECT_EQ(firedAt(tail), 1u) << "KICK";
    EXPECT_EQ(firedAt(tail + 7), 1u) << "[ARMED] after setCondition";
    EXPECT_TRUE(bare.cycles[tail + 9].quiescent);
    EXPECT_EQ(firedAt(tail + 10), 1u) << "a directly raised PING";
    EXPECT_EQ(firedAt(tail + 11), 1u) << "[FLAG] after the write-back";
    EXPECT_TRUE(bare.machine.isActive("Flagged"));
  });
}

/// A bare machine stepped a whole epoch per call (the k-cycle form, which
/// collapses memo stretches) beside an observed one stepped a cycle per
/// call (which decodes every cycle). Every epoch's sums must agree.
struct EpochPair {
  machine::PscpMachine bare;
  machine::PscpMachine observed;
  std::vector<machine::CycleStats> lastEpoch;  ///< observed, one per cycle

  EpochPair(const MemoProbe& probe, ObsSink* sink)
      : bare(probe.image), observed(probe.image) {
    observed.setObsOptions({sink});
  }
  template <typename Op>
  void both(Op op) {
    op(bare);
    op(observed);
  }
  void step(int k, const std::vector<int>& events = {}) {
    machine::CycleStats got;
    bare.configurationCycleIds(events, &got, k);
    machine::CycleStats want;
    lastEpoch.assign(static_cast<size_t>(k), {});
    for (size_t c = 0; c < lastEpoch.size(); ++c) {
      machine::CycleStats& cycle = lastEpoch[c];
      observed.configurationCycleIds(c == 0 ? events : std::vector<int>{}, &cycle);
      want.fired.insert(want.fired.end(), cycle.fired.begin(), cycle.fired.end());
      want.cycles += cycle.cycles;
      want.busStallCycles += cycle.busStallCycles;
      want.quiescentCycles += cycle.quiescentCycles;
      want.quiescent = cycle.quiescent;
    }
    EXPECT_EQ(sums(got), sums(want)) << "epoch of " << k;
  }
};

TEST(ObserverEffect, EpochStepsMatchObservedCycleByCycleStepping) {
  // Epoch lengths 1-17 cross every way a memo stretch ends: a directly
  // raised event, an external event, and a TMR timer whose routine (Count)
  // writes a port. The timer matures one configuration cycle before, at
  // and after the target epoch's k-th cycle start, and one machine cycle
  // either side of it, so a collapse that runs one cycle past a maturity
  // moves a timestamped port write.
  const MemoProbe probe;
  NullObserver observer;
  for (int k = 1; k <= 17; ++k) {
    for (const int offset : {-2, -1, 0, 1, 2}) {
      SCOPED_TRACE(testing::Message() << "k " << k << ", offset " << offset);
      EpochPair pair(probe, &observer);
      const int go = pair.bare.eventId("GO");
      pair.both([](machine::PscpMachine& m) { m.setCondition("ARMED", true); });
      pair.step(k);  // [ARMED]/Disarm into Armed, then idle
      pair.step(k);  // idle in Armed: the memo holds
      ASSERT_TRUE(pair.lastEpoch.back().quiescent);
      pair.both([](machine::PscpMachine& m) { m.raiseEvent(m.eventId("PING")); });
      for (int e = 0; e < 3; ++e) pair.step(k);  // SetFlag, [FLAG]/Report
      ASSERT_TRUE(pair.bare.isActive("Flagged"));
      ASSERT_TRUE(pair.lastEpoch.back().quiescent);
      pair.step(k, {go});  // into Spin, whose [FLAG] already holds
      for (int e = 0; e < 2; ++e) pair.step(k);
      ASSERT_TRUE(pair.bare.isActive("Flagged"));
      ASSERT_TRUE(pair.lastEpoch.back().quiescent);

      // Two idle cycles, then the target epoch: its cycle j starts 4 + 2j
      // cycles after the timer is added, while nothing fires.
      const int64_t period = 4 + 2 * (k - 1) + offset;
      pair.both([&](machine::PscpMachine& m) { m.addTimer("TMR", period); });
      pair.step(2);
      pair.step(k);
      // The first cycle whose start reaches the maturity fires Count (a
      // negative `due` matured during the two idle cycles).
      const int due = k - 1 + (offset > 0 ? 1 : offset / 2);
      for (int j = 0; j < k && j <= due; ++j)
        EXPECT_EQ(pair.lastEpoch[static_cast<size_t>(j)].fired.size(),
                  j == due ? 1u : 0u)
            << "cycle " << j;
      pair.step(k);
      if (due == k) {
        EXPECT_EQ(pair.lastEpoch.front().fired.size(), 1u);
      }
      for (int e = 0; e < 4; ++e) pair.step(k);  // later maturities
      expectSameState(pair.bare, pair.observed);
      EXPECT_GE(pair.bare.globalValue("hits"), 2);
    }
  }
}

TEST(ObserverEffect, PortAndGlobalWritesLeaveTheMemoValid) {
  // Input ports and globals are not part of the CR: writing them while the
  // machine idles in the memo must not change a single cycle, and the
  // next routine must read the new values.
  const MemoProbe probe;
  const auto drive = [](MemoTrace& t) {
    machine::PscpMachine& m = t.machine;
    m.setCondition("ARMED", true);
    t.step();
    t.step({m.eventId("GO")});
    t.idle(2);  // PING, then [FLAG]: Report writes In + hits = 0
    t.idle(3);  // Flagged: into the memo
    m.setInputPort("In", 7);
    m.setGlobalValue("hits", 5);
    t.idle(3);
    t.step({m.eventId("KICK")});
    m.setCondition("ARMED", true);
    t.idle(2);  // back to Armed
    t.step({m.eventId("GO")});
    t.idle(3);  // Report writes In + hits = 12
  };
  expectBareMatchesObserved(probe, drive, [](const MemoTrace& bare) {
    for (size_t i = 4; i < 10; ++i)
      EXPECT_TRUE(bare.cycles[i].quiescent) << "cycle " << i;
    const std::vector<machine::PortWrite>& writes = bare.machine.portWrites();
    ASSERT_EQ(writes.size(), 2u);
    EXPECT_EQ(writes[0].value, 0u);
    EXPECT_EQ(writes[1].value, 12u);
  });
}

// The decode memo answers a sampled CR that recurs with the chosen set and
// the configuration-update verdict it recorded for it. In this chart GO
// fires a composite self-loop on Outer: over Inner1 (Outer's default) it
// leaves the configuration as it found it, over Inner2 it changes it.
// [FLAG] moves Inner1 to Inner2 in an event-free decode, [SPIN]/Count is
// an event-free self-loop that leaves the CR as it found it, and AUX is a
// condition no guard reads.
const char* kDecodeMemoChart = R"chart(
chart DecodeMemo;
event GO;
condition FLAG; condition SPIN; condition AUX;
port Out data out width 8 address 0x21;

orstate Top { contains Outer; default Outer; }
orstate Outer {
  contains Inner1, Inner2;
  default Inner1;
  transition { target Outer; label "GO/Count()"; }
}
basicstate Inner1 {
  transition { target Inner2; label "[FLAG]"; }
}
basicstate Inner2 {
  transition { target Inner2; label "[SPIN]/Count()"; }
}
)chart";

const char* kDecodeMemoActions = R"code(
int:16 hits;
void Count() { hits = hits + 1; write_port(Out, hits); }
)code";

TEST(ObserverEffect, DecodeMemoAnswersARecurringCrExactly) {
  const statechart::Chart chart = statechart::parseChart(kDecodeMemoChart);
  const actionlang::Program actions = actionlang::parseActionSource(kDecodeMemoActions);
  const auto image = std::make_shared<const machine::ChartImage>(chart, actions, SmdRun::arch(2));
  struct Run {
    machine::PscpMachine machine;
    std::vector<machine::CycleStats> cycles;
    explicit Run(const std::shared_ptr<const machine::ChartImage>& img) : machine(img) {}
    void step(const std::vector<int>& events = {}) {
      cycles.emplace_back();
      machine.configurationCycleIds(events, &cycles.back());
    }
  };
  const auto drive = [](Run& r) {
    machine::PscpMachine& m = r.machine;
    const std::vector<int> go{m.eventId("GO")};
    r.step();
    r.step();    // 1: idle in Inner1, credited
    r.step(go);  // 2: GO over Inner1 leaves the configuration as it found it
    m.setCondition("AUX", true);
    r.step();  // 3: a new CR, decoded
    m.setCondition("AUX", false);
    r.step(go);  // 4: the CR of cycle 2 recurs after a condition write
    r.step();    // 5
    m.setCondition("FLAG", true);
    r.step();    // 6: [FLAG] into Inner2, an event-free decode that selects
    r.step();    // 7: idle in Inner2
    r.step(go);  // 8: GO over Inner2 re-enters Inner1, a new configuration
    r.step();    // 9: [FLAG] again (cycle 7 replaced cycle 6's entry)
    r.step(go);  // 10: the CR of cycle 8 recurs after a configuration change
    r.step();    // 11: [FLAG] again, after the event-free decode of cycle 9
    m.setCondition("SPIN", true);
    for (int i = 0; i < 4; ++i) r.step();  // 12-15: [SPIN]/Count every cycle
  };
  Run bare(image);
  drive(bare);
  Run observed(image);
  NullObserver observer;
  observed.machine.setObsOptions({&observer});
  drive(observed);

  ASSERT_EQ(bare.cycles.size(), observed.cycles.size());
  for (size_t i = 0; i < bare.cycles.size(); ++i) {
    EXPECT_EQ(sums(bare.cycles[i]), sums(observed.cycles[i])) << "cycle " << i;
    EXPECT_EQ(observed.cycles[i].decodes, 1) << "cycle " << i << ": observed decodes";
    EXPECT_EQ(observed.cycles[i].decodeMemoHits, 0) << "cycle " << i << ": a sink bypasses the memo";
  }
  EXPECT_EQ(bare.machine.activeNames(), observed.machine.activeNames());
  EXPECT_EQ(bare.machine.portWrites(), observed.machine.portWrites());
  EXPECT_EQ(bare.machine.globalValue("hits"), observed.machine.globalValue("hits"));
  EXPECT_TRUE(bare.machine.crBits() == observed.machine.crBits());

  // The drive must reach each recurrence through the memo.
  const auto hitAt = [&](size_t i) { return bare.cycles[i].decodeMemoHits; };
  EXPECT_EQ(bare.cycles[1].decodes, 0) << "idle in Inner1 is credited";
  EXPECT_EQ(hitAt(4), 1) << "after a condition write";
  EXPECT_EQ(hitAt(10), 1) << "after a configuration change";
  EXPECT_EQ(hitAt(11), 1) << "after an event-free decode that selected";
  for (size_t i = 13; i < 16; ++i) {
    EXPECT_EQ(hitAt(i), 1) << "cycle " << i;
    EXPECT_EQ(bare.cycles[i].fired.size(), 1u) << "cycle " << i << ": [SPIN] fires";
  }
  EXPECT_TRUE(bare.machine.isActive("Inner2"));
  EXPECT_EQ(bare.machine.globalValue("hits"), 8);
}

/// Counts the decodes a sink sees.
class DecodeCounter final : public ObsSink {
 public:
  void onCrSampled(const BitVec&, int64_t) override { ++sampled; }
  void onSlaSelect(const std::vector<int>&, const std::vector<int>& chosen, int64_t,
                   int64_t) override {
    ++selects;
    chose += static_cast<int64_t>(chosen.size());
  }
  int64_t sampled = 0;
  int64_t selects = 0;
  int64_t chose = 0;
};

TEST(ObserverEffect, SinkAttachedOverAFilledMemoSeesEveryDecode) {
  // Bare cycles fill both memo entries with CRs that recur below; once a
  // sink is attached, every cycle decodes in front of it all the same.
  const statechart::Chart chart = statechart::parseChart(kDecodeMemoChart);
  const actionlang::Program actions = actionlang::parseActionSource(kDecodeMemoActions);
  machine::PscpMachine m(
      std::make_shared<const machine::ChartImage>(chart, actions, SmdRun::arch(2)));
  const std::vector<int> go{m.eventId("GO")};
  m.setCondition("SPIN", true);
  m.setCondition("FLAG", true);
  machine::CycleStats stats;
  m.configurationCycleIds({}, &stats, 3);  // [FLAG] into Inner2, then [SPIN]
  m.configurationCycleIds(go, &stats);     // back to Inner1
  m.configurationCycleIds({}, &stats, 3);
  m.configurationCycleIds(go, &stats);
  m.configurationCycleIds({}, &stats, 3);
  ASSERT_GT(stats.decodeMemoHits, 0);

  DecodeCounter counter;
  m.setObsOptions({&counter});
  m.configurationCycleIds(go, &stats);
  m.configurationCycleIds({}, &stats, 3);
  EXPECT_EQ(stats.decodes, 3);
  EXPECT_EQ(stats.decodeMemoHits, 0);
  EXPECT_EQ(counter.sampled, 4);
  EXPECT_EQ(counter.selects, 4);
  EXPECT_EQ(counter.chose, 4);  // GO, [FLAG], then [SPIN] twice
}

// ----------------------------------------------- reference-system observer

TEST(ReferenceObserver, SpecLevelTraceRecordsStepsAndPorts) {
  auto chart = statechart::parseChart(workloads::smdChartText());
  auto actions = actionlang::parseActionSource(workloads::smdActionText());
  core::ReferenceSystem ref(chart, actions);
  TraceRecorder recorder;
  ref.attachObserver(&recorder);
  ref.step({"POWER"});
  ref.setInputPort("Buffer", 0x01);
  ref.step({"DATA_VALID"});
  EXPECT_EQ(recorder.metrics().value("machine.config_cycles"), 2);
  EXPECT_EQ(recorder.cycles().size(), 2u);
  EXPECT_FALSE(recorder.configSamples().empty());
  EXPECT_GT(recorder.metrics().value("machine.transitions_fired"), 0);
}

}  // namespace
}  // namespace pscp::obs
