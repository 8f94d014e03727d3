// Tier selection for TEP routines: interpreter (reference, always
// available) vs compiled native code.
//
// Promotion policy: with mode kAlways every routine is compiled on its
// first dispatch; with kAuto a routine is compiled once its execution
// count reaches kDefaultJitThreshold (hotness, fed by the same
// per-transition counters the profiler attributes cycles to); kOff never
// compiles. A routine that fails lowering or emission is marked Rejected
// and stays on the interpreter forever — rejection is a performance
// decision, never a correctness one, because the interpreter is the
// semantics.
//
// A machine asks for code only on serial-equivalent cycles (one TEP, or
// one selected transition) and dispatches every chosen routine; the cycle
// runs natively when all of them have code, and on the lockstep
// interpreter otherwise (pscp/machine.hpp).
//
// The cache lives per ChartImage, so a fleet of thousands of instances
// compiles each routine once and shares the read-execute pages; per-run
// state (JitContext) is per machine, which keeps multi-worker stepping
// race-free without locks on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/isa.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/runtime.hpp"

namespace pscp::tep::jit {

enum class JitMode : uint8_t {
  kOff,     ///< interpreter only
  kAuto,    ///< compile when a routine reaches kDefaultJitThreshold runs
  kAlways,  ///< compile every routine on first dispatch
};

[[nodiscard]] const char* jitModeName(JitMode mode);

/// Parse "off" / "auto" / "always" (case-sensitive).
/// Returns false on unknown values.
[[nodiscard]] bool parseJitMode(const std::string& text, JitMode* out);

/// Process-wide mode from PSCP_JIT (cached on first use). Unset or
/// unparsable -> kAuto.
[[nodiscard]] JitMode jitModeFromEnv();

/// True when this build/host can emit and run native code (x86-64 Linux
/// with the emitter compiled in). When false every mode degrades to the
/// interpreter — kAuto/kAlways are safe to request anywhere.
[[nodiscard]] constexpr bool jitBackendAvailable() { return PSCP_JIT_BACKEND != 0; }

/// Hotness threshold (routine executions before compilation) for kAuto.
/// Low enough that steady-state fleet workloads promote within the
/// first epochs, high enough that one-shot configuration routines don't
/// pay compile time.
inline constexpr int64_t kDefaultJitThreshold = 64;

enum class RoutineState : uint8_t { kNotCompiled, kCompiling, kNative, kRejected };

/// Stable display name ("interp", "compiling", "native", "rejected").
[[nodiscard]] const char* routineStateName(RoutineState state);

/// Tier residency summary (pscp_prof / pscp_top / fleet metrics): where
/// each routine lives and what compiling cost. How often routines ran on
/// each tier is counted per machine (PscpMachine::jitNativeRuns /
/// jitInterpRuns), where the two counts add up to the fired transitions.
struct TierResidency {
  int nativeRoutines = 0;
  int rejectedRoutines = 0;
  int interpretedRoutines = 0;  ///< seen at least once, still interpreted
  int64_t compileMicros = 0;
};

/// Per-image compile cache, keyed by transition id. Thread-safe: the hot
/// path is one relaxed counter bump plus an acquire load; compilation is
/// serialized behind a mutex and publishes with release ordering.
class TierCache {
 public:
  TierCache(const AsmProgram* program, const hwlib::ArchConfig* config,
            int transitionCount);

  /// Called per dispatch. Bumps the routine's execution counter, applies
  /// the promotion policy, and returns the native entry point when the
  /// routine is (now) compiled — nullptr means "no native code for this
  /// run".
  [[nodiscard]] CompiledFn dispatch(int transition, int entry, JitMode mode);

  /// Force-compile a routine (profiler-seeded AOT). Returns false with
  /// `reason` when lowering/emission rejects it.
  bool precompile(int transition, int entry, std::string* reason = nullptr);

  [[nodiscard]] TierResidency residency() const;
  [[nodiscard]] RoutineState stateOf(int transition) const;
  [[nodiscard]] int64_t execCount(int transition) const;

 private:
  struct Slot {
    std::atomic<uint8_t> state{static_cast<uint8_t>(RoutineState::kNotCompiled)};
    std::atomic<int64_t> execs{0};
    CodeBuf buf;
    std::atomic<CompiledFn> fn{nullptr};
  };

  bool compileSlot(Slot& slot, int entry, std::string* reason);

  const AsmProgram* program_;
  const hwlib::ArchConfig* config_;
  std::unique_ptr<Slot[]> slots_;
  int count_ = 0;
  std::mutex compileMutex_;
  std::atomic<int64_t> compileMicros_{0};
};

}  // namespace pscp::tep::jit
