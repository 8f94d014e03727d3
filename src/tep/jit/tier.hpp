// Tier selection for TEP routines: interpreter (reference, always
// available) vs compiled native code.
//
// Promotion policy: with mode kAlways (the default) a routine is compiled
// the first time any machine dispatches it; kOff never asks for code. A
// routine the emitter rejects (emit_x64.hpp) is marked Rejected and stays
// on the interpreter forever — rejection is a performance decision, never
// a correctness one, because the interpreter is the semantics.
//
// A machine asks for code at each dispatch of an unobserved cycle whose
// routines pass its hazard gate; a routine with code runs natively to its
// end and the lockstep loop replays its timed shared effects, a routine
// without code runs on the interpreter for that dispatch
// (pscp/machine.hpp).
//
// The cache lives per ChartImage, so a fleet of thousands of instances
// compiles each routine once and shares the read-execute pages; per-run
// state (JitContext) is built on the stack of each native run, which keeps
// multi-worker stepping race-free without locks on the hot path.
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
  kAlways,  ///< compile every routine on first dispatch
};

[[nodiscard]] const char* jitModeName(JitMode mode);

/// Parse "off" / "always" (case-sensitive).
/// Returns false on unknown values.
[[nodiscard]] bool parseJitMode(const std::string& text, JitMode* out);

/// Process-wide mode from PSCP_JIT (cached on first use). Unset or
/// unparsable -> kAlways.
[[nodiscard]] JitMode jitModeFromEnv();

/// True when this build/host can emit and run native code (x86-64 Linux
/// with the emitter compiled in). When false every mode degrades to the
/// interpreter — kAlways is safe to request anywhere.
[[nodiscard]] constexpr bool jitBackendAvailable() { return PSCP_JIT_BACKEND != 0; }

/// Tier residency summary (pscp_top / fleet metrics): how many routines
/// compiled or were rejected, and what compiling cost. How often routines
/// ran on each tier is counted per machine (PscpMachine::jitNativeRuns /
/// jitInterpRuns), where the two counts add up to the fired transitions.
struct TierResidency {
  int nativeRoutines = 0;
  int rejectedRoutines = 0;
  int64_t compileMicros = 0;
};

/// Per-image compile cache, keyed by transition id. Thread-safe: the hot
/// path is one acquire load; compilation is serialized behind a mutex and
/// publishes with release ordering.
class TierCache {
 public:
  /// `portAddresses` is the image's port map (sorted); the emitter
  /// resolves a declared port's slot in it at compile time.
  TierCache(const AsmProgram* program, const hwlib::ArchConfig* config,
            int transitionCount, const std::vector<int>* portAddresses);

  /// The routine's native entry point, compiled on its first dispatch.
  /// nullptr means "no native code for this run": the backend is
  /// unavailable, the routine was rejected, or another thread is
  /// compiling it right now. `reason`, when given, says which.
  [[nodiscard]] CompiledFn dispatch(int transition, int entry,
                                    std::string* reason = nullptr);

  [[nodiscard]] TierResidency residency() const;

 private:
  enum class RoutineState : uint8_t { kNotCompiled, kCompiling, kNative, kRejected };

  struct Slot {
    std::atomic<uint8_t> state{static_cast<uint8_t>(RoutineState::kNotCompiled)};
    CodeBuf buf;
    std::atomic<CompiledFn> fn{nullptr};
  };

  CompiledFn compileSlot(Slot& slot, int entry, std::string* reason);

  const AsmProgram* program_;
  const hwlib::ArchConfig* config_;
  const std::vector<int>* portAddresses_;
  std::unique_ptr<Slot[]> slots_;
  int count_ = 0;
  std::mutex compileMutex_;
  std::atomic<int64_t> compileMicros_{0};
};

}  // namespace pscp::tep::jit
