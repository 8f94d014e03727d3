#include "tep/jit/tier.hpp"

#include <chrono>
#include <cstdlib>

#include "support/diag.hpp"
#include "tep/jit/emit_x64.hpp"

namespace pscp::tep::jit {

const char* jitModeName(JitMode mode) {
  switch (mode) {
    case JitMode::kOff: return "off";
    case JitMode::kAlways: return "always";
  }
  return "?";
}

bool parseJitMode(const std::string& text, JitMode* out) {
  if (text == "off") {
    *out = JitMode::kOff;
  } else if (text == "always") {
    *out = JitMode::kAlways;
  } else {
    return false;
  }
  return true;
}

JitMode jitModeFromEnv() {
  static const JitMode cached = [] {
    JitMode mode = JitMode::kAlways;
    if (const char* env = std::getenv("PSCP_JIT")) {
      if (!parseJitMode(env, &mode)) mode = JitMode::kAlways;
    }
    return mode;
  }();
  return cached;
}

TierCache::TierCache(const AsmProgram* program, const hwlib::ArchConfig* config,
                     int transitionCount, const std::vector<int>* portAddresses)
    : program_(program),
      config_(config),
      portAddresses_(portAddresses),
      count_(transitionCount) {
  PSCP_ASSERT(transitionCount >= 0);
  if (count_ > 0) slots_ = std::make_unique<Slot[]>(static_cast<size_t>(count_));
}

CompiledFn TierCache::dispatchSlow(int transition, int entry, std::string* reason) {
  if (transition < 0 || transition >= count_) {
    if (reason != nullptr) *reason = "transition id out of range";
    return nullptr;
  }
  Slot& slot = slots_[transition];
  // Compiled since the inline load looked.
  if (const CompiledFn fn = slot.fn.load(std::memory_order_acquire)) return fn;
  if (!jitBackendAvailable()) {
    if (reason != nullptr) *reason = "native tier unavailable on this build";
    return nullptr;
  }
  const auto state = static_cast<RoutineState>(slot.state.load(std::memory_order_acquire));
  if (state != RoutineState::kNotCompiled) {
    // Rejected, or compiling on another thread: this run interprets
    // rather than wait on the compile mutex.
    if (reason != nullptr)
      *reason = state == RoutineState::kRejected ? "rejected" : "compiling";
    return nullptr;
  }
  return compileSlot(slot, entry, reason);
}

CompiledFn TierCache::compileSlot(Slot& slot, int entry, std::string* reason) {
  std::lock_guard<std::mutex> lock(compileMutex_);
  const auto state = static_cast<RoutineState>(slot.state.load(std::memory_order_acquire));
  if (state != RoutineState::kNotCompiled) {  // another thread finished first
    if (state == RoutineState::kRejected && reason != nullptr) *reason = "rejected";
    return slot.fn.load(std::memory_order_acquire);
  }
  slot.state.store(static_cast<uint8_t>(RoutineState::kCompiling),
                   std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  CompiledFn fn = nullptr;
  std::string why;
  const EmitResult emitted = emitX64(*program_, entry, *config_, *portAddresses_);
  if (!emitted.ok) {
    why = emitted.error;
  } else if (slot.buf.install(emitted.code, &why)) {
    fn = reinterpret_cast<CompiledFn>(const_cast<void*>(slot.buf.entry()));
    slot.fn.store(fn, std::memory_order_release);
  }
  const auto t1 = std::chrono::steady_clock::now();
  compileMicros_.fetch_add(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count(),
      std::memory_order_relaxed);
  slot.state.store(static_cast<uint8_t>(fn != nullptr ? RoutineState::kNative
                                                      : RoutineState::kRejected),
                   std::memory_order_release);
  if (fn == nullptr && reason != nullptr) *reason = why;
  return fn;
}

TierResidency TierCache::residency() const {
  TierResidency r;
  r.compileMicros = compileMicros_.load(std::memory_order_relaxed);
  for (int i = 0; i < count_; ++i) {
    const Slot& slot = slots_[i];
    switch (static_cast<RoutineState>(slot.state.load(std::memory_order_acquire))) {
      case RoutineState::kNative:
        ++r.nativeRoutines;
        break;
      case RoutineState::kRejected:
        ++r.rejectedRoutines;
        break;
      case RoutineState::kNotCompiled:
      case RoutineState::kCompiling:
        break;
    }
  }
  return r;
}

}  // namespace pscp::tep::jit
