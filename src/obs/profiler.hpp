// Cycle-attribution profiler: an ObsSink that explains *where every
// simulated cycle went*.
//
// The TraceRecorder answers "what happened"; this sink answers "what
// bounded the cycle". For each configuration cycle it attributes 100% of
// the cycles reported by onCycleEnd to exclusive categories, reconstructed
// from the event stream and the scheduler cost model the machine publishes
// in TraceMeta:
//
//   sla_decode  SLA settle + scheduler latch (quiescent cycles are pure
//               sla_decode: the array evaluated and selected nothing)
//   cache_fill  condition-cache fill, all TEPs (tepCount * condCopyCycles)
//   dispatch    round-robin grants (dispatchCycles per grant)
//   write_back  condition-cache write-back (condCopyCycles per retire)
//   exec        the *critical TEP* advancing microinstructions
//   bus_stall   the critical TEP losing external-bus arbitration
//   mem_wait    the critical TEP in an external-memory wait state
//   idle        lockstep cycles in which the critical TEP was not busy
//               (dispatched late, or blocked by a mutual-exclusion group)
//
// The critical TEP of a cycle is the one whose routine chain retired last
// — the TEP that bounded the configuration-cycle length; exec/bus_stall/
// mem_wait/idle describe *its* composition, so the breakdown is a
// critical-path attribution: shrinking a non-critical TEP's work cannot
// shrink the cycle, shrinking the categories shown here can.
//
// Exactness invariant (property-tested): for every configuration cycle,
// the category sum equals the cycles reported by onCycleEnd. It holds by
// construction: overhead charges come from the published cost model, the
// lockstep residual is split around the critical TEP's busy count, and
// every busy cycle of the critical TEP is exec, bus_stall or mem_wait.
//
// The profiler also accumulates per-transition and per-state-region
// profiles keyed by the interned TransitionId/StateId (calls, cycles,
// instructions, stalls, waits; states roll transition costs up the
// hierarchy published in TraceMeta.stateParent), and exact latency
// distributions (configuration-cycle length, dispatch queue depth,
// routine length) for the percentile report.
//
// Like every sink it only observes: attaching one keeps CycleStats
// bit-identical (enforced by the observer-effect test in tests/).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "obs/percentile.hpp"
#include "obs/sink.hpp"

namespace pscp::obs {

enum class CycleCat : int {
  kSlaDecode = 0,
  kCacheFill,
  kDispatch,
  kWriteBack,
  kExec,
  kBusStall,
  kMemWait,
  kIdle,
};
inline constexpr int kCycleCatCount = 8;

/// Stable machine-readable name ("sla_decode", "cache_fill", ...).
[[nodiscard]] const char* cycleCatName(CycleCat c);

/// One configuration cycle, fully attributed.
struct CycleAttribution {
  int64_t index = 0;  ///< configuration-cycle index (0-based)
  int64_t total = 0;  ///< cycles reported by onCycleEnd; == sum of cat[]
  std::array<int64_t, kCycleCatCount> cat{};
  int criticalTep = -1;  ///< TEP that bounded the cycle; -1 when none ran
  bool quiescent = false;
};

struct TransitionProfile {
  int64_t calls = 0;
  int64_t cycles = 0;        ///< TEP cycles, incl. stalls and waits
  int64_t instructions = 0;
  int64_t busStalls = 0;
  int64_t memWaits = 0;
  int64_t minCycles = 0;     ///< 0 when calls == 0
  int64_t maxCycles = 0;
};

/// Per-state-region roll-up: self counts transitions sourced exactly at
/// the state, total includes every descendant's transitions.
struct StateProfile {
  int64_t selfCalls = 0;
  int64_t selfCycles = 0;
  int64_t totalCalls = 0;
  int64_t totalCycles = 0;
};

struct TepProfile {
  int64_t busyCycles = 0;   ///< stepped cycles, incl. stalls and waits
  int64_t busStalls = 0;
  int64_t memWaits = 0;
  int64_t routines = 0;
  int64_t instructions = 0;
  int64_t criticalCycles = 0;  ///< configuration cycles this TEP bounded
};

class Profiler : public ObsSink {
 public:
  [[nodiscard]] const TraceMeta& meta() const { return meta_; }

  // ---------------------------------------------------------- attribution
  /// Per-configuration-cycle attributions.
  [[nodiscard]] const std::vector<CycleAttribution>& cycles() const {
    return cycles_;
  }
  /// Category totals over the whole run; sums to totalCycles().
  [[nodiscard]] const std::array<int64_t, kCycleCatCount>& categoryTotals() const {
    return categoryTotals_;
  }
  [[nodiscard]] int64_t totalCycles() const { return totalCycles_; }
  [[nodiscard]] int64_t configCycles() const { return configCycles_; }
  [[nodiscard]] int64_t quiescentCycles() const { return quiescentCycles_; }
  [[nodiscard]] int64_t transitionsFired() const { return transitionsFired_; }

  // -------------------------------------------------------------- profiles
  [[nodiscard]] const std::vector<TransitionProfile>& transitions() const {
    return transitions_;
  }
  /// Per-state-region profiles with totals rolled up the state hierarchy
  /// (computed on demand from the accumulated self counts).
  [[nodiscard]] std::vector<StateProfile> stateProfiles() const;
  [[nodiscard]] const std::vector<TepProfile>& teps() const { return teps_; }

  // -------------------------------------------------- latency distributions
  [[nodiscard]] const SampleQuantile& cycleLength() const { return cycleLength_; }
  [[nodiscard]] const SampleQuantile& queueDepth() const { return queueDepth_; }
  [[nodiscard]] const SampleQuantile& routineLength() const {
    return routineLength_;
  }

  // ----------------------------------------------------- ObsSink overrides
  void onAttach(const TraceMeta& meta) override;
  void onCycleBegin(int64_t configCycle, int64_t time) override;
  void onDispatch(int tep, int transition, int tatDepth, int64_t time) override;
  void onRetire(int tep, int transition, const RoutineStats& stats,
                int64_t time) override;
  void onCycleEnd(int64_t configCycle, int64_t cycles, int64_t busStalls,
                  int firedCount, bool quiescent, int64_t time) override;
  void onInstrRetire(int tep, int64_t time) override;
  void onBusStall(int tep, int64_t time) override;
  void onBusWait(int tep, int64_t time) override;

 private:
  void ensureTep(int tep);

  TraceMeta meta_;

  std::vector<CycleAttribution> cycles_;
  std::array<int64_t, kCycleCatCount> categoryTotals_{};
  int64_t totalCycles_ = 0;
  int64_t configCycles_ = 0;
  int64_t quiescentCycles_ = 0;
  int64_t transitionsFired_ = 0;

  std::vector<TransitionProfile> transitions_;
  std::vector<int64_t> stateSelfCalls_;   ///< by source StateId
  std::vector<int64_t> stateSelfCycles_;
  std::vector<TepProfile> teps_;

  SampleQuantile cycleLength_;
  SampleQuantile queueDepth_;
  SampleQuantile routineLength_;

  // In-flight state for the current configuration cycle.
  int64_t currentIndex_ = 0;
  int64_t dispatchesThisCycle_ = 0;
  int64_t retiresThisCycle_ = 0;
  std::vector<int64_t> busyThisCycle_;    ///< per TEP, from RoutineStats
  std::vector<int64_t> stallsThisCycle_;  ///< per TEP, from onBusStall
  std::vector<int64_t> waitsThisCycle_;   ///< per TEP, from onBusWait
  std::vector<int64_t> waitsAtDispatch_;  ///< per TEP, for per-routine waits
  int lastRetireTep_ = -1;
  int64_t lastRetireTime_ = 0;
};

}  // namespace pscp::obs
