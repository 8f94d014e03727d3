// Multi-instance fleet engine (scaling the PSCP model out).
//
// One PscpMachine simulates one chip. A reactive-systems deployment —
// the paper's target domain — runs *populations* of them: every elevator
// bank, every SMD placement head, every protocol endpoint is its own
// statechart instance over the same compiled chart. The Fleet owns N
// independent PscpMachine instances spawned from one shared ChartImage
// (compile once, instantiate thousands) and steps them in batches across
// a fixed set of workers.
//
// Execution model
//   - step(cycles) is one *epoch*: every live instance advances exactly
//     `cycles` configuration cycles, then a barrier completes the epoch.
//     The fleet keeps a configuration-cycle clock, the running sum of the
//     steps' `cycles`; epochs may differ in length, so sleep and wake are
//     keyed on that clock, never on epoch numbers.
//   - Worker 0 is the thread that calls step(); workers 1..N-1 are helper
//     threads the fleet starts at construction. Every epoch runs the same
//     way at any worker count: step() builds one step list (the awake
//     instances, by ascending id) and cuts it into N balanced contiguous
//     ranges, worker w's being [n*w/N, n*(w+1)/N). Each worker steps its
//     own range in chunks of 8 claimed through the range's atomic cursor,
//     then steals remaining chunks from the other ranges — a range whose
//     worker wakes late or runs busier instances is finished by whoever
//     has idle cycles, so the barrier waits for the slowest chunk, not the
//     slowest range. Contiguous ranges keep one worker on one run of
//     neighbouring instances instead of interleaving with every other.
//   - The barrier is two 32-bit atomics: step() bumps a generation counter
//     that releases the helpers, runs worker 0's epoch itself, and waits
//     for a pending-helper count to reach zero.
//   - A worker whose epoch throws (a machine fault, say) stops its own
//     epoch; the others finish theirs. After the barrier, step() rethrows
//     the error of the lowest-numbered worker that failed, without
//     advancing the clock. The faulted machine is latched, so the next
//     step throws the latch diagnostic (see PscpMachine::faulted).
//   - Every stepped instance-epoch is one PscpMachine::configurationCycleIds
//     call that steps all `cycles` configuration cycles and returns their
//     sums; stepInstance is the one stepping path. The machine's decode
//     memo credits a stretch of event-free cycles over a CR that already
//     decoded to nothing in one step, up to the first cycle a timer
//     matures in (see pscp/machine.hpp).
//   - Idle instances — the dominant case for reactive populations, which
//     are mostly quiescent between stimuli — cost nothing per epoch: they
//     sleep. After an epoch that fired nothing, an instance whose machine
//     can credit the coming cycles with no decode (PscpMachine::
//     quiescentCredit: memo held, nothing pending, no sink) stops being
//     visited. Its machine and counters are credited those cycles in
//     closed form when it wakes or when anything reads it, and the epoch
//     counters add sleepers x cycles at once, so mergedMetrics() is exact
//     after every epoch. A sleeper
//     wakes, and is stepped from the next epoch on, when
//       * an event is injected into it;
//       * its credit runs out inside an epoch, i.e. a timer matures
//         (sleepers with a timer sit in a calendar keyed on that clock
//         cycle; the epoch steps it through the maturity);
//       * setCondition, addTimer, warmCycle or the non-const machine(id)
//         is called on it (each credits it first).
//     setInputPort does not wake it: ports are not in the CR. Each epoch
//     steps the awake and woken instances in ascending id order, so the
//     journal is the same as if every instance were stepped.
//   - Event injection goes through a per-instance bounded SPSC queue.
//     Producers never take a lock and never touch the stepping hot loop;
//     after the push, inject() sets the instance's bit in a wake bitmap
//     (one release fetch_or), which step() exchanges (acquire) before the
//     epoch, and the worker drains the queue at the first cycle of the
//     instance's next epoch. Injections that happen-before step() are
//     therefore delivered at that epoch's first cycle, in injection order.
//
// Determinism: an instance's trajectory is a function of its event
// script alone. Machines share only the immutable ChartImage, every
// mutable byte is instance-private, and each instance is stepped by
// exactly one worker per epoch (chunk ownership via the cursor), so
// per-instance port-write logs are bit-identical at any worker count.
// The fleet test suite asserts this at 1, 2 and 8 workers.
//
// Thread contract: Fleet's control surface (spawn/retire/step/snapshot/
// mergedMetrics/machine and the journaled setters) is single-threaded —
// call it from one thread, between epochs; that thread is worker 0 for
// the length of each step(). A machine(id) reference may be
// used only until the next step(): fetching it is what credits and wakes
// the instance, so fetch it again after each epoch. inject()/
// injectByName() are safe from any thread at any time (one producer per
// instance at a time) except during spawn(), which may reallocate the
// instance table, and so is epochs(). The telemetry surface — healthSnapshot(),
// flightRecorder() snapshots, writeFlightDump() — is safe from any thread
// at any time, including mid-epoch: it reads only atomics and the flight
// rings' seqlocked slots.
//
// Counters: every worker owns one cacheline-aligned block of single-writer
// relaxed atomics, flushed once per epoch from the worker's plain sums;
// worker 0's block also carries the epoch's sleepers.
// The block is the only home of the fleet's epoch counters: mergedMetrics()
// sums the blocks by name and healthSnapshot() reads the same fields, so
// the two views agree by construction.
//
// Telemetry plane (FleetConfig::telemetry): when armed, every worker also
// keeps a flight-recorder ring, shard w being worker w (recent epoch/
// instance/steal/port activity, see obs/flight.hpp), and fills the
// armed-only fields of its block (epoch latency EWMA/min/max/histogram,
// queue high-water, drain-time drops and port writes, see
// obs/health.hpp). When disarmed (the default), the hot
// loop does zero telemetry work beyond one predictable null check per
// instance step — no virtual calls, no clock reads — which the
// counting-operator-new test and the telemetry_overhead bench both
// enforce.
//
// Record/replay journal (FleetConfig::journal): when armed, every
// control-plane op and every delivered event is appended to a
// pscp-journal-v1 log with periodic CR-digest checkpoints, from which
// obs/journal/replay.hpp re-executes the run bit-identically at any
// worker count. See obs/journal/journal.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/spsc.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/journal/journal.hpp"
#include "obs/metrics.hpp"
#include "pscp/machine.hpp"

namespace pscp::fleet {

/// Monotonic instance handle: ids are never reused, so a stale handle
/// fails loudly instead of aliasing a newer instance.
using InstanceId = uint64_t;

/// The most workers a fleet runs. FleetConfig::workerThreads above it is
/// an error, raised before the fleet allocates or starts anything, so a
/// mistyped worker count cannot ask the OS for thousands of threads.
inline constexpr int kMaxWorkerThreads = 1024;

struct FleetConfig {
  /// Workers stepping the fleet: the calling thread plus workerThreads-1
  /// helper threads the fleet starts (1: the calling thread alone), at
  /// most kMaxWorkerThreads.
  int workerThreads = 1;
  /// Per-instance event-queue capacity (rounded up to a power of two), at
  /// most kMaxEventQueueCapacity: a larger one makes Fleet throw.
  size_t eventQueueCapacity = 256;
  /// Keep per-instance port-write logs across epochs (drained from the
  /// machine each epoch; read/clear via portWrites()/clearPortWrites()).
  /// Off by default: a throughput fleet discards writes each epoch so
  /// steady-state memory stays flat.
  bool capturePortWrites = false;

  /// Native-tier mode applied to every instance (default: the process-wide
  /// PSCP_JIT setting, `always` when unset). Serial-equivalent
  /// configuration cycles then run each TEP routine compiled from its first
  /// dispatch on — bit-identical to the interpreter by contract
  /// (tests/tep_jit_test.cpp diffs the two across worker counts), so this
  /// is purely a perf knob.
  tep::jit::JitMode jitMode = tep::jit::jitModeFromEnv();

  /// Arm the telemetry plane: per-shard flight-recorder rings of 1024
  /// records (about the last few dozen epochs of a busy shard) plus the
  /// armed-only fields of each worker's counter block (see header
  /// comment). Off by default — a disarmed fleet pays one predictable
  /// branch per instance step and nothing else.
  bool telemetry = false;

  /// Arm the record/replay journal (obs/journal): every control-plane op
  /// (spawn/retire/port/condition/timer/warm cycle), every *delivered*
  /// external event with its arrival epoch, every step, and periodic
  /// CR-word digest checkpoints are appended to an in-memory journal,
  /// written out with writeJournal(). Off by default — a disarmed fleet
  /// records nothing and the stepping hot loop is untouched either way:
  /// capture reads the per-instance drained scratch on the control thread
  /// after the epoch barrier. Armed appends stay allocation-free within
  /// the journalConfig reserves (the counting-new test holds it to zero).
  bool journal = false;
  obs::journal::JournalConfig journalConfig;

  /// Fault injection for telemetry tests and demos: worker
  /// `debugStallShard` (0: the thread that calls step()) sleeps
  /// `debugStallMicros` at the start of every epoch, which the stall/skew
  /// detector must surface. Ignored unless telemetry is armed. Not for
  /// production use.
  int debugStallShard = -1;
  int64_t debugStallMicros = 0;
};

/// Point-in-time per-instance accounting (valid between epochs).
struct InstanceSnapshot {
  InstanceId id = 0;
  int64_t machineCycles = 0;      ///< reference-clock cycles simulated
  int64_t configCycles = 0;       ///< configuration cycles run
  int64_t quiescentCycles = 0;    ///< of which the SLA selected nothing
  int64_t firedTransitions = 0;
  int64_t busStallCycles = 0;
  int64_t eventsDelivered = 0;    ///< injections drained into the machine
  int64_t eventsDropped = 0;      ///< injections rejected on a full queue
  std::vector<std::string> activeStates;  ///< current configuration
};

class Fleet {
 public:
  using ChartImagePtr = std::shared_ptr<const machine::ChartImage>;

  explicit Fleet(ChartImagePtr image, FleetConfig config = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // ------------------------------------------------------------ lifecycle
  /// Create one instance over the shared image; returns its permanent id.
  InstanceId spawn();
  std::vector<InstanceId> spawnMany(size_t count);
  /// Destroy an instance (frees its machine; the id is never reused).
  void retire(InstanceId id);
  [[nodiscard]] bool isLive(InstanceId id) const;
  [[nodiscard]] size_t liveCount() const {
    return liveCount_.load(std::memory_order_relaxed);
  }

  // ------------------------------------------------------------ injection
  /// CR event bit for a declared event name (same interning as the
  /// machine); resolve once, inject by bit from the hot producer path.
  [[nodiscard]] int eventId(const std::string& eventName) const;
  /// Enqueue an external event for `id`'s next epoch. Lock-free; safe
  /// from any thread (one producer per instance at a time). Returns false
  /// — and counts a drop — if the instance's queue is full; returns false
  /// without a drop if the id is retired or `eventBit` is not an event bit
  /// of the chart (outside [0, event count)).
  bool inject(InstanceId id, int eventBit);
  bool injectByName(InstanceId id, const std::string& eventName);

  // ------------------------------------------------------------- stepping
  /// Advance every live instance by `cycles` configuration cycles: steps
  /// the awake ones, credits the sleepers. `cycles` below 1 is an error
  /// that leaves the fleet untouched.
  void step(int cycles = 1);
  [[nodiscard]] int64_t epochs() const {
    return epochs_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------------- inspection
  /// Direct access to an instance's machine (between epochs only). The
  /// non-const form credits a sleeper and wakes it, so mutating the
  /// machine is safe for stepping — the machine's decode memo is keyed on
  /// the CR, so a CR write is seen at the next decode — until the next
  /// step(); fetch it again after that.
  /// Direct writes are not journaled: replayable runs use the wrappers
  /// below. The const form and snapshot() credit a sleeper without waking
  /// it, so both show counters up to the fleet's clock.
  [[nodiscard]] machine::PscpMachine& machine(InstanceId id);
  [[nodiscard]] const machine::PscpMachine& machine(InstanceId id) const;
  [[nodiscard]] InstanceSnapshot snapshot(InstanceId id) const;

  /// Per-instance port-write log accumulated across epochs (requires
  /// FleetConfig::capturePortWrites).
  [[nodiscard]] const std::vector<machine::PortWrite>& portWrites(InstanceId id) const;
  void clearPortWrites(InstanceId id);

  /// Sum the per-worker counter blocks into one report: counters
  /// fleet.config_cycles, fleet.machine_cycles, fleet.quiescent_cycles,
  /// fleet.fired_transitions, fleet.bus_stall_cycles,
  /// fleet.events_delivered, fleet.events_dropped, fleet.steal_chunks,
  /// fleet.epoch_tasks, fleet.sleeping_instances (the instances the last
  /// epoch credited without stepping), fleet.decodes and
  /// fleet.decode_memo_hits (configuration cycles that decoded, and of
  /// those the ones the machine's decode memo answered),
  /// fleet.lockstep_runs and fleet.schedule_replays (cycles that ran a
  /// TAT, and of those the ones the schedule memo replayed), and
  /// fleet.jit_native_routines +
  /// fleet.jit_interp_routines, which split fleet.fired_transitions by
  /// tier over the same epochs (warm-up cycles excluded, retired instances
  /// kept). With telemetry armed, healthToMetrics() adds the health plane.
  [[nodiscard]] obs::MetricsRegistry mergedMetrics() const;

  /// Native-tier residency of the shared chart image (routine counts and
  /// compile time). Reads only atomics in the per-image TierCache, so —
  /// unlike mergedMetrics() — it is safe to call from a display thread
  /// while workers are stepping.
  [[nodiscard]] tep::jit::TierResidency tierResidency() const;

  // ------------------------------------------------------------ telemetry
  /// The flight recorder, or nullptr when telemetry is disarmed. Ring
  /// snapshots are safe from any thread at any time.
  [[nodiscard]] const obs::FlightRecorder* flightRecorder() const {
    return flight_.get();
  }
  /// Lock-free point-in-time health snapshot: safe from any thread at any
  /// time, including while an epoch is running (that is the point — it is
  /// how a dashboard sees a stalled epoch *while* it stalls). With
  /// telemetry disarmed only the fleet-level fields are populated.
  [[nodiscard]] obs::FleetHealth healthSnapshot() const;
  /// Dump the flight recorder to `path` as pscp-flight-v1 JSON. Safe from
  /// any thread; false when telemetry is disarmed or on I/O failure.
  bool writeFlightDump(const std::string& path, std::string* error = nullptr) const;

  // --------------------------------------------------------- record/replay
  /// The armed journal, or nullptr (FleetConfig::journal). Unlike the
  /// telemetry surface this is control-thread-only, between epochs.
  [[nodiscard]] const obs::journal::Journal* journal() const {
    return journal_.get();
  }
  /// Dump the journal as pscp-journal-v1 (JSON, or the compact binary
  /// framing). False when the journal is disarmed or on I/O failure.
  bool writeJournal(const std::string& path, bool binary = false,
                    std::string* error = nullptr) const;

  /// Journaled machine-control surface: same effect as the corresponding
  /// PscpMachine calls through machine(id), but logged so a replay
  /// reproduces them. Replayable runs must route all pre-/inter-epoch
  /// machine mutation through these — direct machine() writes are
  /// invisible to the journal. All but setInputPort wake a sleeper.
  void setInputPort(InstanceId id, const std::string& portName, uint32_t value);
  void setInputPort(InstanceId id, int portAddress, uint32_t value);
  void setCondition(InstanceId id, const std::string& conditionName, bool value);
  void addTimer(InstanceId id, const std::string& eventName, int64_t period);
  /// Run one configuration cycle directly on `id`'s machine, outside the
  /// epoch loop, with the given interned events — the warm-up path. Port
  /// writes from the cycle follow the fleet's epoch semantics: appended to
  /// the portWrites(id) log when capturePortWrites is set, dropped
  /// otherwise.
  void warmCycle(InstanceId id, const std::vector<int>& eventBits);

  [[nodiscard]] const ChartImagePtr& image() const { return image_; }
  [[nodiscard]] const FleetConfig& config() const { return config_; }

 private:
  struct Instance;
  struct RangeCursor;     // next unclaimed index of one worker's range
  struct CalendarEntry;   // a sleeper's wake cycle, in the calendar heap
  struct WorkerLocal;     // per-epoch accumulator, flushed to the block
  struct WorkerCounters;  // cacheline-aligned counter atomics per worker

  Instance& liveInstance(InstanceId id);
  [[nodiscard]] const Instance& liveInstance(InstanceId id) const;
  /// The live instance, a sleeper credited up to the clock (still asleep).
  Instance& creditedInstance(InstanceId id) const;
  /// Wake the calendar's due sleepers, fill the step list from the awake
  /// bitmap and the exchanged wake bitmap, and cut it into the workers'
  /// ranges.
  void buildStepLists(int cycles);
  /// One worker's share of the epoch. An error a step throws ends it and
  /// is kept in errors_[worker] for step() to rethrow.
  void runWorkerEpoch(size_t worker, int cycles, int64_t epoch) noexcept;
  /// Step one instance through the epoch; returns the cycles it may sleep
  /// after it (0: it stays awake).
  int64_t stepInstance(Instance& inst, int cycles, WorkerLocal& local);
  void helperLoop(size_t worker);
  /// Stop the helper threads and join them.
  void joinHelpers();

  /// Bring a sleeper's machine and counters to the clock in closed form.
  void creditSleeper(Instance& inst) const;
  /// Credit a sleeper and step it from the next epoch on.
  void wake(Instance& inst);
  /// Put a stepped instance to sleep at the clock for `credit` cycles.
  void fallAsleep(Instance& inst, int64_t credit);

  ChartImagePtr image_;
  FleetConfig config_;
  size_t workerCount_ = 1;

  std::vector<std::unique_ptr<Instance>> instances_;  // index == InstanceId
  std::atomic<size_t> liveCount_{0};  // written by control thread only
  std::atomic<int64_t> epochs_{0};  // written by control thread only

  // The epoch's work: the instances to step by ascending id, each one's
  // stepInstance result beside it, and one cursor per worker range.
  std::vector<Instance*> stepList_;
  std::vector<int64_t> credits_;
  std::unique_ptr<RangeCursor[]> cursors_;

  std::unique_ptr<WorkerCounters[]> counters_;  // one block per worker
  int64_t retiredDrops_ = 0;  // drop counts of retired instances

  // Activity (control thread only, except wakeBits_). The clock counts
  // the configuration cycles of all epochs so far.
  int64_t clock_ = 0;
  std::vector<uint64_t> awakeBits_;  // by InstanceId: awake, stepped each epoch
  std::vector<uint64_t> wakeBits_;   // by InstanceId: set by inject (atomic_ref)
  std::vector<CalendarEntry> calendar_;  // min-heap of sleepers' wake cycles

  // Telemetry plane (null when config_.telemetry is false).
  std::unique_ptr<obs::FlightRecorder> flight_;

  // Record/replay journal (null when config_.journal is false). Appended
  // on the control thread only; see finishEpoch()/takeCheckpoint().
  std::unique_ptr<obs::journal::Journal> journal_;
  /// After the barrier: journal the stepped instances' deliveries and put
  /// those that can credit the coming cycles to sleep.
  void finishEpoch(int64_t epoch, int cycles);
  void takeCheckpoint(int64_t epoch);

  // Epoch barrier. step() sets pending_ to the helper count and bumps
  // generation_ (release); each helper runs the epoch the bump announced
  // and decrements pending_ (acq_rel). stop_ is set before the last bump.
  std::atomic<uint32_t> generation_{0};
  std::atomic<uint32_t> pending_{0};
  bool stop_ = false;
  int epochCycles_ = 0;
  std::vector<std::exception_ptr> errors_;  // by worker, rethrown by step()
  std::vector<std::thread> helpers_;        // workers 1..N-1
};

}  // namespace pscp::fleet
