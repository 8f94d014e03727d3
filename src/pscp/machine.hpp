// The PSCP machine simulator (paper Fig. 1 and Sec. 3.1).
//
// "The execution of the PSCP is controlled by the scheduler, which enables
//  the SLA at the beginning of a configuration cycle. The SLA generates
//  the addresses of the transitions to be executed... The scheduler copies
//  the contents of the condition part of the CR into the local condition
//  caches, and assigns the execution of the individual transitions to the
//  available TEPs employing a round-robin protocol. ... At the end of a
//  transition execution, the scheduler copies the condition cache back to
//  the CR. Transitions are scheduled until the Transition Address Table is
//  empty. The TEPs may generate new events in the CR, and alter the
//  contents of their condition caches, thus generating a new
//  configuration. The scheduler then enables the SLA to begin the next
//  configuration cycle, at which time the new external events are sampled
//  into the CR."
//
// This class is the executable model of that machine: N cycle-accurate
// TEPs stepped in lockstep with single-owner external-bus arbitration,
// per-TEP condition caches with end-of-routine write-back, a Transition
// Address Table, mutual-exclusion decode logic, and the CR. Its observable
// behaviour (configurations, conditions, raised events, fired transitions)
// must agree with the specification-level statechart::Interpreter +
// actionlang::Interp pair; property tests enforce this.
//
// Hot-path organisation: the CR is a packed BitVec maintained
// *incrementally* — condition writes, configuration updates and event
// sampling each touch only their own bits, so a configuration cycle never
// rebuilds the register from the active-state set. Exit/enter sets and
// scope depths are precomputed per transition as bitsets at construction
// (resolveConflicts allocates nothing per call), condition caches are flat
// byte arrays with dirty bitmasks, and the string-keyed API has interned
// integer-ID twins (eventId()/portId() + the int overloads) for callers
// that drive millions of cycles.
//
// Multi-instance organisation: everything a machine needs that depends
// only on the chart — the CR layout, the synthesized SLA, the compiled
// program and its microprogram table, the port map, the per-transition
// exit/enter bitsets — lives in a ChartImage, an immutable compile product
// that any number of machines share via shared_ptr. A fleet spawns its Nth
// instance by allocating mutable state only (data memory sized from the
// image's layout, port values, TEP cores); the compiler, the microcode
// decoder and SLA synthesis run once per chart, not once per instance.
// Steady-state stepping through configurationCycleIds(events, &stats,
// cycles) is allocation-free. A machine keeps only state that outlives a
// configuration cycle; every per-cycle temporary (the SLA selection, the
// TAT, the condition caches, the native tier's replay log and context)
// is per thread, so a fleet worker reuses one set for every instance it
// steps and thousands of instances never serialize on the allocator.
//
// Decode memo: the SLA is two-level logic over the CR, and conflict
// resolution reads only the configuration, which the CR's state fields
// encode, so the chosen set is a function of the sampled CR. The machine
// keeps two entries keyed on the sampled CR words, one for decodes that
// sampled no events and one for those that did; each holds the chosen set
// and whether the configuration update left the configuration as it found
// it. A hit skips the SLA, conflict resolution and (when the entry says
// so) the update. Its empty case is the quiescence rule: when the
// event-free entry's key is the CR as it stands and it chose nothing, every
// coming event-free cycle selects nothing. One configurationCycleIds call
// steps k configuration cycles (a fleet epoch) and credits each such
// stretch in one step: nothing to sample (no external event, none raised,
// no matured timer) means nothing selected, so n such cycles are n
// quiescent cycles of SLA time. quiescentCredit() says how many coming
// cycles that covers and creditQuiescent() steps them in closed form; a
// fleet uses the pair to let an idle instance sleep through epochs without
// being visited. An attached observer bypasses the memo, so sinks still
// see every decode.
//
// Fault latch: an error that escapes a configuration cycle leaves the
// machine as the fault left it (a TEP mid-routine, the update not run) and
// latches it; every later step is refused with a diagnostic naming the
// faulted cycle.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "compiler/codegen.hpp"
#include "obs/sink.hpp"
#include "pscp/sched_cost.hpp"
#include "sla/sla.hpp"
#include "statechart/semantics.hpp"
#include "support/bits.hpp"
#include "tep/jit/tier.hpp"
#include "tep/machine.hpp"

namespace pscp::machine {

/// One entry of the machine's port-write log, ordered and timestamped so
/// the observability layer (and environment models) can correlate writes
/// with configuration cycles and machine time.
struct PortWrite {
  int port = 0;             ///< bus address
  uint32_t value = 0;
  int64_t configCycle = 0;  ///< 0-based configuration-cycle index
  int64_t time = 0;         ///< absolute machine time (reference cycles)
  /// Which TEP issued the write and which transition routine it was
  /// executing (-1 for writes from outside a routine, e.g. the loader).
  /// The static race analysis (src/analysis) cross-checks its verdict
  /// against these fields: two same-cycle writes to one port from
  /// *different* transitions are an observed dispatch-order race.
  int tep = -1;
  statechart::TransitionId transition = -1;

  [[nodiscard]] bool operator==(const PortWrite&) const = default;
};

/// What one configurationCycleIds call did, summed over the configuration
/// cycles it stepped (one, unless the call asks for more).
struct CycleStats {
  std::vector<statechart::TransitionId> fired;  ///< in dispatch order
  int64_t cycles = 0;           ///< reference-clock cycles consumed
  int64_t busStallCycles = 0;   ///< external-bus arbitration losses
  int64_t quiescentCycles = 0;  ///< configuration cycles that selected nothing
  int64_t decodes = 0;          ///< configuration cycles that ran a decode
  int64_t decodeMemoHits = 0;   ///< of which the decode memo answered
  int64_t lockstepRuns = 0;     ///< configuration cycles that ran a TAT
  int64_t scheduleReplays = 0;  ///< of which the schedule memo replayed
  bool quiescent = false;       ///< the last cycle selected nothing
};

/// The immutable per-chart compile product: CR layout, synthesized SLA,
/// hardware binding, compiled TEP program and its predecoded microprogram
/// table, the port map, and the per-transition structural data (exit/enter
/// bitsets, scope depths, interned exclusion groups, routine entry points)
/// the scheduler needs each cycle. Build it once and hand the same
/// shared_ptr to every PscpMachine over the chart — construction cost (SLA
/// synthesis + compilation) is paid once per chart, and the image is safe
/// to read from any number of threads concurrently.
/// The chart and actions must outlive the image.
class ChartImage {
 public:
  ChartImage(const statechart::Chart& chart, const actionlang::Program& actions,
             const hwlib::ArchConfig& arch, compiler::CompileOptions options = {});

  [[nodiscard]] const statechart::Chart& chart() const { return chart_; }
  [[nodiscard]] const actionlang::Program& actions() const { return actions_; }
  [[nodiscard]] const hwlib::ArchConfig& arch() const { return arch_; }
  [[nodiscard]] const sla::CrLayout& layout() const { return layout_; }
  [[nodiscard]] const sla::Sla& sla() const { return sla_; }
  [[nodiscard]] const compiler::HardwareBinding& binding() const { return binding_; }
  [[nodiscard]] const compiler::CompiledApp& app() const { return app_; }
  [[nodiscard]] const tep::MicroTable& microTable() const { return micro_; }
  /// The port map: declared bus addresses, sorted and unique. A machine
  /// keeps one port value per entry.
  [[nodiscard]] const std::vector<int>& portAddresses() const { return portAddresses_; }
  /// Index of `address` in portAddresses(), or -1 when none is declared.
  [[nodiscard]] int portSlot(int64_t address) const;

  /// The native-tier compile cache for this image's routines. Like the
  /// image it is shared by every instance over the chart: each routine is
  /// emitted once and the read-execute pages serve the whole fleet. The
  /// cache is internally synchronized, so handing it out from a const
  /// image is safe.
  [[nodiscard]] tep::jit::TierCache& tierCache() const { return *tier_; }

  /// Program entry index of the transition's TEP routine (what the
  /// dispatcher jumps to, and what TierCache::dispatch compiles from).
  [[nodiscard]] int routineEntry(int transition) const {
    return routineEntry_[static_cast<size_t>(transition)];
  }

  /// True when the two transitions' routines may observe each other run
  /// on two TEPs in one configuration cycle (analysis::replayHazards), so
  /// a cycle choosing both stays on the microcode interpreter. Always
  /// false on a one-TEP image, where routines run one after another.
  [[nodiscard]] bool hazardPair(int a, int b) const {
    return !hazards_.empty() && hazards_[static_cast<size_t>(a)].test(b);
  }

  /// Machine cycles to copy the CR's condition part into one TEP's
  /// condition cache, and the same to write it back
  /// (machine::conditionCopyCycles over this chart and datapath).
  [[nodiscard]] int condCopyCycles() const { return condCopyCycles_; }

 private:
  friend class PscpMachine;

  const statechart::Chart& chart_;
  const actionlang::Program& actions_;
  hwlib::ArchConfig arch_;
  sla::CrLayout layout_;
  sla::Sla sla_;
  compiler::HardwareBinding binding_;
  compiler::CompiledApp app_;
  tep::MicroTable micro_;
  std::vector<int> portAddresses_;

  // Precomputed per transition (the scheduler's per-cycle work reads these
  // flat arrays and never recomputes structure).
  std::vector<BitVec> exitSets_;   ///< states exited when t fires
  std::vector<BitVec> enterSets_;  ///< states entered when t fires
  std::vector<int> scopeDepth_;    ///< depth of the transition's scope
  std::vector<int> exclusionGroup_;  ///< interned group id, -1 = none
  std::vector<int> routineEntry_;    ///< program entry index of t's routine
  std::vector<BitVec> hazards_;      ///< replay hazard rows (multi-TEP only)
  int exclusionGroupCount_ = 0;
  int condCopyCycles_ = 0;
  std::unique_ptr<tep::jit::TierCache> tier_;
};

class PscpMachine : public tep::TepHost {
 public:
  /// Spawn an instance over a prebuilt (shared) compile image — the cheap
  /// path for fleets: allocates mutable machine state only.
  explicit PscpMachine(std::shared_ptr<const ChartImage> image);

  /// Convenience: compile a private image and run over it.
  PscpMachine(const statechart::Chart& chart, const actionlang::Program& actions,
              const hwlib::ArchConfig& arch,
              compiler::CompileOptions options = {});
  ~PscpMachine() override;

  /// Run one configuration cycle with the given external events.
  CycleStats configurationCycle(const std::set<std::string>& externalEvents);

  /// Interned fast path: external events given as CR event bits (from
  /// eventId()). The string overload resolves names and delegates here;
  /// environment models that fire the same events millions of times should
  /// intern once and call this. An id outside [0, event count) is a
  /// runtime error, raised before the cycle touches any state.
  CycleStats configurationCycleIds(const std::vector<int>& externalEventIds);

  /// In-place form that steps `cycles` configuration cycles, sampling
  /// `externalEventIds` at the first; `*stats` is reset and refilled with
  /// the sums over all of them (its `fired` list keeps its capacity, so a
  /// caller that reuses one stats object steps without any heap allocation
  /// in steady state — the fleet worker loop depends on this). A stretch of
  /// cycles quiescentCredit() covers is credited at once and costs no
  /// decode; it stops short of the first cycle whose start reaches a
  /// timer's maturity, which decodes. Stats and every counter are those of
  /// `cycles` one-cycle calls with the events passed to the first, except
  /// the decode and memo counts, which count the work actually done.
  void configurationCycleIds(const std::vector<int>& externalEventIds,
                             CycleStats* stats, int cycles = 1);

  /// Configuration cycles from now that select nothing with no decode,
  /// provided none of them gets an external event: 0 unless the event-free
  /// decode memo entry is the CR as it stands and chose nothing, no raised
  /// event is pending and no sink is attached; then cyclesBeforeTimer(),
  /// INT64_MAX without timers. A fleet puts an instance to sleep for this
  /// many cycles.
  [[nodiscard]] int64_t quiescentCredit() const {
    if (obs_.sink != nullptr || !pendingEvents_.empty()) return 0;
    const DecodeEntry& quiet = decodeMemo_[0];
    if (!quiet.filled || quiet.words.size() != cr_.wordCount() || !keyIsCr(quiet))
      return 0;
    return cyclesBeforeTimer();
  }
  /// True once an error escaped a configuration cycle: every later step is
  /// refused (see "Fault latch" above).
  [[nodiscard]] bool faulted() const { return faulted_; }
  /// Step `cycles` event-free configuration cycles in closed form: each is
  /// one quiescent cycle of kSlaEvaluateCycles machine time, exactly what
  /// its full decode would count. `cycles` must not exceed
  /// quiescentCredit(). The memo stretch of configurationCycleIds and a
  /// fleet waking a sleeper both credit through it. Returns the machine
  /// cycles credited.
  int64_t creditQuiescent(int64_t cycles) {
    configCycles_ += cycles;
    totalCycles_ += cycles * kSlaEvaluateCycles;
    machineTimeNow_ = totalCycles_;
    return cycles * kSlaEvaluateCycles;
  }

  /// The packed CR. Between cycles the event bits are always clear (they
  /// live only inside the decode window); journals digest these words.
  [[nodiscard]] const BitVec& crBits() const { return cr_; }

  // ----------------------------------------------------- tiered execution
  // The lockstep loop schedules every routine. A TEP slot is stepped either
  // by the microcode interpreter or by a cursor over the timed shared
  // effects (external-bus steps, port writes, raises, a fault, the length)
  // its routine logged when it ran natively, to its end, at dispatch. A
  // routine runs natively when no observer is attached, TierCache::dispatch
  // has code for it (under kAlways it compiles on its first dispatch), and
  // — on two or more TEPs — no two of the cycle's chosen transitions form
  // a hazard pair (ChartImage::hazardPair). Contract: CR, ports, the
  // port-write log, fired order, cycle and stall counts and error
  // diagnostics are bit-identical between tiers (tests/tep_jit_test.cpp).

  /// Override the process-wide PSCP_JIT mode for this instance.
  void setJitMode(tep::jit::JitMode mode) { jitMode_ = mode; }
  [[nodiscard]] tep::jit::JitMode jitMode() const { return jitMode_; }
  /// Routines this instance ran natively / on the lockstep interpreter.
  /// Their sum is the number of transitions the instance fired.
  [[nodiscard]] int64_t jitNativeRuns() const { return jitNativeRuns_; }
  [[nodiscard]] int64_t jitInterpRuns() const { return jitInterpRuns_; }
  /// Image-wide tier residency (shared compile cache).
  [[nodiscard]] tep::jit::TierResidency tierResidency() const {
    return image_->tierCache().residency();
  }

  /// Hardware timer (paper Sec. 6 future work): raises `event` every
  /// `period` reference-clock cycles of machine time. Timer events are
  /// sampled into the CR at the next configuration-cycle boundary, like
  /// any external event. A period that is not positive, or whose first
  /// maturity lies past the largest int64 machine time, is a runtime error.
  void addTimer(const std::string& event, int64_t period);

  /// Run cycles until quiescent (no enabled transitions and no pending
  /// internal events), up to `maxCycles` configuration cycles.
  std::vector<CycleStats> runToQuiescence(const std::set<std::string>& initialEvents,
                                          int maxCycles = 64);

  // ------------------------------------------------------------ observers
  [[nodiscard]] bool isActive(const std::string& stateName) const;
  [[nodiscard]] std::vector<std::string> activeNames() const;
  [[nodiscard]] bool conditionValue(const std::string& name) const;
  void setCondition(const std::string& name, bool value);
  [[nodiscard]] int64_t totalCycles() const { return totalCycles_; }
  [[nodiscard]] int64_t totalBusStalls() const { return totalBusStalls_; }
  [[nodiscard]] int64_t configurationCycles() const { return configCycles_; }
  /// Events the TEPs raised since the last sampling, each once, in raise
  /// order; the next configuration cycle samples them.
  [[nodiscard]] const std::vector<int>& pendingEvents() const { return pendingEvents_; }

  // ---------------------------------------------------------- interned IDs
  /// CR event bit of a declared event (stable for the machine's lifetime).
  [[nodiscard]] int eventId(const std::string& eventName) const;
  /// Bus address of a declared port.
  [[nodiscard]] int portId(const std::string& portName) const;

  /// Environment-facing ports (by chart port name, or — fast path — by the
  /// interned bus address from portId()). Setting an address no port is
  /// declared at throws; reading one returns 0.
  void setInputPort(const std::string& portName, uint32_t value);
  void setInputPort(int portAddress, uint32_t value);
  [[nodiscard]] uint32_t outputPort(const std::string& portName) const;
  [[nodiscard]] uint32_t outputPort(int portAddress) const;
  /// Ordered, timestamped port writes (configuration-cycle index + machine
  /// time per entry).
  [[nodiscard]] const std::vector<PortWrite>& portWrites() const {
    return portWrites_;
  }
  /// Drop the accumulated port-write log, keeping its capacity. Long-lived
  /// instances (fleet members) drain the log each batch and clear it here
  /// so steady-state logging never regrows the buffer.
  void clearPortWrites() { portWrites_.clear(); }
  /// Compatibility view of portWrites(): bare (port, value) pairs.
  [[nodiscard]] std::vector<std::pair<int, uint32_t>> portWriteLog() const {
    std::vector<std::pair<int, uint32_t>> out;
    out.reserve(portWrites_.size());
    for (const PortWrite& w : portWrites_) out.emplace_back(w.port, w.value);
    return out;
  }

  /// Attach/detach observability (opt-in; see src/obs). With the default
  /// (null sink) options the machine's behaviour and timing are
  /// bit-identical to an unobserved machine, and a non-null sink only
  /// observes — it never changes CycleStats beyond the memo counts. An
  /// attached sink bypasses the decode memo, so it sees every decode.
  void setObsOptions(const obs::ObsOptions& options);
  [[nodiscard]] const obs::ObsOptions& obsOptions() const { return obs_; }
  /// The naming context a sink receives at attach (also usable directly).
  [[nodiscard]] obs::TraceMeta traceMeta() const;

  /// Read a compiled global (for assertions / environment models).
  [[nodiscard]] int64_t globalValue(const std::string& name) const;
  void setGlobalValue(const std::string& name, int64_t value);

  [[nodiscard]] const ChartImage& image() const { return *image_; }
  [[nodiscard]] const compiler::CompiledApp& app() const { return image_->app(); }
  [[nodiscard]] const sla::Sla& slaModel() const { return sla_; }
  [[nodiscard]] const sla::CrLayout& crLayout() const { return layout_; }
  [[nodiscard]] const hwlib::ArchConfig& arch() const { return arch_; }

  // ---------------------------------------------------- TepHost interface
  tep::MemView memView(int tepId) override;
  uint8_t readByte(int32_t addr) override;
  void writeByte(int32_t addr, uint8_t value) override;
  void writeReg(int index, uint32_t value) override;
  uint32_t readPort(int address) override;
  void writePort(int address, uint32_t value) override;
  void latchPort(int address, uint32_t value) override;
  void raiseEvent(int index) override;
  void setCondition(int index, bool value) override;
  bool testCondition(int index) override;
  bool testState(int index) override;
  bool acquireExternalBus(int tepId) override;

 private:
  /// Insert/remove `s` from the configuration, keeping the packed activity
  /// bitset and the CR state field incrementally in sync.
  void applyActive(statechart::StateId s, bool active);
  /// Write one condition bit to both the byte array and the packed CR.
  void setCrCondition(int index, bool value);
  /// How many quiescent configuration cycles can start before one starts
  /// at or after a hardware timer's maturity (and so samples its event):
  /// 0 when a timer is due now, INT64_MAX without timers.
  [[nodiscard]] int64_t cyclesBeforeTimer() const;
  /// Throw the latch diagnostic when an earlier cycle faulted.
  void refuseIfFaulted() const;
  /// One configuration cycle with a decode (from the memo or the SLA), its
  /// sums added to `stats`.
  void decodeCycle(const std::vector<int>& externalEventIds, CycleStats& stats);
  /// ports_ index of `address`; an undeclared one is a runtime error.
  [[nodiscard]] size_t declaredPortSlot(int address, const char* access) const;

  /// One decode memo entry: a sampled CR and what it decodes to.
  struct DecodeEntry {
    /// The key's CR words (events, conditions, state fields as sampled),
    /// then the chosen set in dispatch order, one id per word: one
    /// allocation per entry.
    std::vector<uint64_t> words;
    /// Whether the configuration update leaves the configuration as it
    /// found it: -1 until an update over this key has run, then 0 or 1.
    int8_t sameConfig = -1;
    bool filled = false;
    /// No two transitions of the chosen set form a hazard pair
    /// (ChartImage::hazardPair), so its routines may run natively.
    bool hazardFree = false;
  };
  /// True when `entry`'s key words are cr_'s words.
  [[nodiscard]] bool keyIsCr(const DecodeEntry& entry) const {
    for (size_t w = 0; w < cr_.wordCount(); ++w)
      if (entry.words[w] != cr_.word(w)) return false;
    return true;
  }
  /// True when `entry`'s key and cr_ agree on the state fields.
  [[nodiscard]] bool keyStatesAreCr(const DecodeEntry& entry) const;

  /// Where a log-stepped TEP stands in the effects its routine logged.
  /// Steps are the routine's local steps (stalls not counted), as the
  /// interpreter would take them.
  struct LogCursor {
    bool active = false;
    int64_t step = 0;      ///< steps taken
    int64_t length = 0;    ///< steps to retire (never, when it faults or overruns)
    int64_t busUntil = 0;  ///< steps below this need the external bus
    int64_t faultStep = 0; ///< the step that raises `fault` (never: none)
    size_t begin = 0;      ///< its run's first entry in the log
    size_t next = 0;       ///< its first unreplayed entry in the log
    size_t end = 0;        ///< one past its last entry
    std::string fault;
  };
  /// One step of the lockstep loop's output: a replayed effect (entry
  /// `entry` of TEP `tep`'s run, at machine time `time` from the cycle
  /// base), or TEP `tep`'s routine retiring (entry kRetire).
  struct ScheduleStep {
    static constexpr int32_t kRetire = -1;
    int32_t tep = 0;
    int32_t entry = 0;
    int64_t time = 0;
  };
  /// The native runs of one TAT execution: the timed shared effects they
  /// logged (each run's entries contiguous, in step order) and a cursor per
  /// TEP. When `recording`, the loop appends its output to `steps`.
  struct Replay {
    /// Binds the context to this replay's log and error text; a Replay
    /// never moves (it lives in the thread's scratch).
    Replay();
    Replay(const Replay&) = delete;
    Replay& operator=(const Replay&) = delete;

    tep::jit::EffectLog log;
    std::vector<LogCursor> cursors;
    bool recording = false;
    int64_t base = 0;  ///< the cycle's machine time at its start
    std::vector<ScheduleStep> steps;
    /// The thread's one native-run context. A TAT binds its machine (host,
    /// datapath, program size, ports); each run rewrites the fields that
    /// differ per run (runAhead), so nothing carries over from the last.
    tep::jit::JitContext ctx;
    std::string error;  ///< *ctx.error: a faulting run's diagnostic
  };
  /// The schedule memo: the lockstep loop's output for the last all-native
  /// TAT it ran to its end, keyed on everything the loop read (TEP count,
  /// start cycle, write-back cost, and per TEP slot idle or the routine's
  /// length and each logged entry's step, kind and argument). A lookup
  /// compares the key with the TAT in place; the key is built only to
  /// store a new entry.
  struct ScheduleMemo {
    std::vector<uint64_t> key;  ///< empty: no entry
    std::vector<ScheduleStep> steps;
    int64_t cycles = 0;  ///< the loop's final cycle count
    int64_t stalls = 0;  ///< bus stalls the loop counted
  };
  /// The schedule key of the TAT that `running` and `replay` hold, whose
  /// loop starts at cycle `cycles` with write-back cost `condCopy`: the TEP
  /// count, `cycles`, `condCopy`, then per TEP slot kIdleSlot, or the
  /// routine's length, its entry count and two words per entry (its step
  /// and argument, then its kind).
  static void buildScheduleKey(const Replay& replay,
                               const std::vector<statechart::TransitionId>& running,
                               int64_t cycles, int64_t condCopy, std::vector<uint64_t>* key);
  /// Whether `key` is that key, compared in place without building it.
  [[nodiscard]] static bool scheduleKeyMatches(
      const std::vector<uint64_t>& key, const Replay& replay,
      const std::vector<statechart::TransitionId>& running, int64_t cycles, int64_t condCopy);
  /// Everything a configuration cycle works with that no machine state
  /// outlives. It is per thread, not per machine: a fleet worker reuses one
  /// for every instance it steps (allocation-free once grown, also across
  /// images), and instances carry no scratch.
  struct CycleScratch {
    std::vector<statechart::TransitionId> select;    ///< SLA selection, by id
    std::vector<statechart::TransitionId> chosen;    ///< conflict-resolved
    std::vector<statechart::TransitionId> table;     ///< the TAT, -1 once dispatched
    std::vector<statechart::TransitionId> running;   ///< per TEP, -1 idle
    BitVec exited;                                   ///< resolveConflicts working set
    std::vector<uint8_t> groupInFlight;              ///< by interned exclusion group
    /// The TEP condition caches: a full copy of the CR's condition part
    /// per TEP, with the entries written since dispatch.
    std::vector<std::vector<uint8_t>> condCache;
    std::vector<BitVec> condDirty;
    // Per-TEP counter snapshots at dispatch, for RoutineStats deltas.
    std::vector<int64_t> dispatchCycles;
    std::vector<int64_t> dispatchInstrs;
    std::vector<int64_t> dispatchStalls;
    Replay replay;
    ScheduleMemo schedule;
    std::vector<uint64_t> scheduleKey;  ///< the key of the TAT being recorded
  };
  /// The calling thread's cycle scratch.
  static CycleScratch& scratch();

  /// Conflict resolution over `s.select` into `s.chosen` (identical policy
  /// to statechart::Interpreter::step), allocation-free.
  void resolveConflicts(CycleScratch& s);
  /// Execute the Transition Address Table: every busy TEP advances one
  /// step per machine cycle, with round-robin dispatch, exclusion groups
  /// and external-bus arbitration. Returns the cycle count. When `native`,
  /// routines with code run natively; an all-native TAT whose timing the
  /// schedule memo holds replays the memo instead.
  int64_t runTatLockstep(CycleScratch& s, CycleStats& stats, int64_t base, bool native);
  /// Whether the routines of the chosen set `decode` holds may run natively
  /// (see "tiered execution"). `decode` must describe this cycle's decode,
  /// which an unobserved cycle's memo entry always does.
  [[nodiscard]] bool nativeAllowed(const DecodeEntry& decode) const {
    return obs_.sink == nullptr && jitMode_ != tep::jit::JitMode::kOff &&
           tep::jit::jitBackendAvailable() && decode.hazardFree;
  }
  /// True when no two of `chosen` form a hazard pair.
  [[nodiscard]] bool hazardFree(const std::vector<statechart::TransitionId>& chosen) const;

  /// Run `t`'s routine natively to its end on TEP `tep` at its dispatch,
  /// logging its timed shared effects, and point the TEP's cursor at them.
  /// False when the tier cache has no code for it. `guard` counts the
  /// loop's machine cycles so far; external-bus steps are logged only when
  /// `contended` (another routine may be in flight).
  bool runAhead(Replay& replay, size_t tep, statechart::TransitionId t, int64_t guard,
                bool contended);
  /// One machine cycle of a log-stepped TEP: win the bus if this step needs
  /// it (else stall), replay the effects logged at this step, raise its
  /// fault. True when the step was the routine's last.
  bool stepLogged(Replay& replay, size_t tep);
  /// Machine cycles the log-stepped TEPs can take at once: up to the first
  /// one that retires or faults, or that two of them spend requesting the
  /// external bus (only such a cycle can stall one).
  [[nodiscard]] static int64_t quietSteps(const Replay& replay);
  /// The first machine cycle, counted from now and below `limit`, in which
  /// both cursors request the external bus; `limit` when there is none.
  [[nodiscard]] static int64_t firstSharedBusCycle(const Replay& replay, const LogCursor& a,
                                                   const LogCursor& b, int64_t limit);
  /// Advance every log-stepped TEP by `steps` machine cycles, the first of
  /// them cycle `cycles` of this TAT execution, replaying the port writes
  /// and raises passed on the way: in machine-cycle order, and within one
  /// cycle in the loop's visit order, each at its own machine time.
  void skipSteps(Replay& replay, int64_t steps, int64_t cycles, int64_t base);
  /// Perform log entry `entry`, a port write (with its PortWrite record) or
  /// a raise, for TEP `tep` at the current machineTimeNow_; record it when
  /// the loop is recording.
  void replayEffect(Replay& replay, size_t entry, size_t tep);

  std::shared_ptr<const ChartImage> image_;
  // Aliases into the image, so the cycle logic reads image data with the
  // same spelling it used when the machine owned these objects.
  const statechart::Chart& chart_;
  const hwlib::ArchConfig& arch_;
  const sla::CrLayout& layout_;
  const sla::Sla& sla_;

  // What a quiescent configuration cycle and the fleet's per-epoch
  // bookkeeping touch, kept together: an idle fleet is memory-bound, and
  // these few cache lines are all it reads of an instance.
  struct Timer {
    int eventBit = 0;
    int64_t period = 0;
    int64_t nextFire = 0;
  };
  /// Set when an error escaped a configuration cycle (the fault latch).
  bool faulted_ = false;
  std::vector<Timer> timers_;
  /// Internal events raised since the last sampling, in raise order (the
  /// dedup bitset pendingEventBits_ is below).
  std::vector<int> pendingEvents_;
  std::vector<PortWrite> portWrites_;
  int64_t totalCycles_ = 0;
  int64_t totalBusStalls_ = 0;
  int64_t configCycles_ = 0;
  // Tiered execution mode and per-instance tier counters.
  tep::jit::JitMode jitMode_ = tep::jit::jitModeFromEnv();
  int64_t jitNativeRuns_ = 0;
  int64_t jitInterpRuns_ = 0;
  // Observability. machineTimeNow_ tracks absolute machine time inside a
  // configuration cycle (cycle base + local cycles) so TepHost callbacks
  // (port writes, bus events) can be timestamped; it is pure bookkeeping
  // and never feeds back into the cycle accounting.
  obs::ObsOptions obs_;
  int64_t machineTimeNow_ = 0;

  /// The configuration as a bitset over StateIds. Written only at
  /// construction and in the configuration update, so during a cycle it
  /// holds the cycle-start configuration that STST reads.
  BitVec activeBits_;
  /// The packed Configuration Register, maintained incrementally: event
  /// bits live only between sampling and SLA selection; condition bits
  /// track crConditions_; state fields track activeBits_.
  BitVec cr_;
  std::vector<int> fieldCode_;         ///< current code per state field
  std::vector<uint8_t> crConditions_;  ///< condition part, byte per bit
  /// Dedup bitset of pendingEvents_ (both reused across cycles, never freed).
  BitVec pendingEventBits_;
  /// The decode memo: [0] the last decode that sampled no events, [1] the
  /// last one that sampled events. Only [0] speaks for the bare CR between
  /// cycles (a negated event literal may select once the sampled events
  /// are gone), so quiescentCredit() reads [0] alone.
  DecodeEntry decodeMemo_[2];

  // Memory / registers / ports. Internal RAM is the TEP-local memory of
  // Fig. 1 — one bank per TEP (function frames and expression temporaries
  // land there, so parallel TEPs never race on them); external RAM is
  // shared. Register files are per TEP too ("units with or without
  // associated register files"): the compiler's register windows hold call
  // frames. All of it is one allocation sized from the image's layout (the
  // TEP cores and native code read it in place); a write past the layout
  // allocates that bank's tail.
  tep::DataMemory memory_;
  std::vector<uint32_t> ports_;  ///< one per image port-map entry

  // TEP cores (their condition caches are per thread, in CycleScratch).
  std::vector<std::unique_ptr<tep::Tep>> teps_;
  int currentTep_ = -1;

  // External-bus arbitration (single owner per machine cycle).
  int busOwner_ = -1;
  int64_t busStallsThisCycle_ = 0;
};

}  // namespace pscp::machine
