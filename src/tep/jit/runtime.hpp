// Native-tier runtime contract: the JitContext block shared between
// emitted x86-64 code and the embedder, and the extern "C" helper bridge
// emitted code calls when its in-place path does not apply.
//
// What emitted code does in place, through the context:
//   - the register file, and loads and stores of 1, 2 or 4 bytes that lie
//     wholly inside the in-layout prefix of the TEP's internal bank or of
//     the shared external bank (MemView); an external access also appends
//     its bus entry (when logBus is set) and pays its wait states;
//   - division at every width;
//   - the image's declared ports: a read loads JitContext::ports at the
//     port's slot (the emitter resolves it at compile time), a write
//     latches it there and logs the write;
//   - raises, which are logged.
// What the helpers still serve, each the one slow path of its operation:
//   - tail, straddling, unmapped and 3-byte accesses, and an access, port
//     write or raise that finds the effect log full (the helper grows it);
//   - a masked zero divisor, and INT32_MIN / -1 at width 32 (the host
//     instruction traps on it);
//   - undeclared ports (the host raises the diagnostic);
//   - condition set, condition test and state test (the per-thread
//     condition caches and the configuration), custom instructions and
//     the error exits.
//
// Error discipline: emitted code has no unwind tables, so C++ exceptions
// must never cross a JIT frame. Every helper catches pscp::Error, stores
// the exact message in *JitContext::error and returns nonzero; the emitted
// code checks the status and exits through its error epilogue, after
// which the embedder rethrows the stored message. Interpreter and native
// tier therefore fail with byte-identical diagnostics.
//
// One context per thread: a JitContext holds both what emitted code reads
// and what only the helpers read, so an embedder keeps one per thread and
// rewrites, before each run, only the fields that differ between runs
// (pscp/machine.cpp's runAhead); nothing a run leaves behind may decide
// the next one.
//
// Timed effects: a routine's shared effects — external-bus steps, port
// writes, raises — are logged, each at the interpreter step that performs
// it, instead of performed, so a machine can run a routine to its end at
// dispatch and replay only those effects in lockstep with the other TEPs.
// Emitted code and helpers append them through one cursor
// (JitContext::logAt, up to logEnd), so entries keep program order; the
// embedder points the cursor at its EffectLog before a run and takes the
// size back after it (EffectLog::tail / setTail).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>

#include "hwlib/arch_config.hpp"
#include "tep/machine.hpp"

namespace pscp::tep::jit {

/// One timed shared effect of a routine that ran natively ahead of the
/// lockstep loop: what another TEP or the machine's logs could observe, at
/// the local step (0-based, stalls not counted) where the microcode
/// interpreter performs it. The machine replays these in lockstep order
/// (pscp/machine.hpp); everything else a routine does stays TEP-private
/// until write-back. Emitted code writes entries in place, so the layout
/// is fixed (asserted below).
struct TimedEffect {
  enum class Kind : uint8_t {
    kBus,        ///< `arg` consecutive steps that each need the external bus
    kPortWrite,  ///< writePort(arg, value)
    kRaise,      ///< raiseEvent(arg)
  };
  int32_t step = 0;   // +0
  int32_t arg = 0;    // +4
  uint32_t value = 0; // +8
  Kind kind = Kind::kBus;  // +12
};

inline constexpr int32_t kEffectStep = 0;
inline constexpr int32_t kEffectArg = 4;
inline constexpr int32_t kEffectValue = 8;
inline constexpr int32_t kEffectKind = 12;
inline constexpr int32_t kEffectSize = 16;

static_assert(offsetof(TimedEffect, step) == kEffectStep);
static_assert(offsetof(TimedEffect, arg) == kEffectArg);
static_assert(offsetof(TimedEffect, value) == kEffectValue);
static_assert(offsetof(TimedEffect, kind) == kEffectKind);
static_assert(sizeof(TimedEffect) == kEffectSize);

/// The timed effects of a TAT's native runs, in append order (each run's
/// entries contiguous and in step order). A run appends through a cursor
/// into the log's spare capacity (tail() up to limit()), and the embedder
/// takes the size back with setTail(); when the cursor meets the limit, a
/// helper grows the log. The storage is raw: a std::vector would
/// value-initialize the entries a run wrote past its size.
class EffectLog {
 public:
  static constexpr size_t kInitialCapacity = 64;

  EffectLog() { grow(); }

  [[nodiscard]] size_t size() const { return size_; }
  void clear() { size_ = 0; }
  [[nodiscard]] const TimedEffect* data() const { return data_.get(); }
  [[nodiscard]] const TimedEffect& operator[](size_t i) const { return data_[i]; }
  [[nodiscard]] const TimedEffect* begin() const { return data_.get(); }
  [[nodiscard]] const TimedEffect* end() const { return data_.get() + size_; }

  /// Where the next entry goes, and one past the last slot of capacity.
  [[nodiscard]] TimedEffect* tail() { return data_.get() + size_; }
  [[nodiscard]] TimedEffect* limit() { return data_.get() + capacity_; }
  /// Take back the entries a run appended, up to its cursor `at`.
  void setTail(const TimedEffect* at) { size_ = static_cast<size_t>(at - data_.get()); }
  /// Double the capacity (to kInitialCapacity from none), keeping the
  /// entries. Every cursor into the log is stale afterwards.
  void grow();

 private:
  std::unique_ptr<TimedEffect[]> data_;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// The block emitted code addresses with fixed offsets (asserted below),
/// followed by what only the helpers read. Seeded by the embedder before a
/// routine runs; read back afterwards. `cycles` counts the routine's local
/// steps: seeded at 0, a routine that returns 0 has taken exactly `cycles`
/// steps on the interpreter. Standard-layout, so offsetof applies.
struct JitContext {
  uint32_t acc = 0;          // +0
  uint32_t op = 0;           // +4
  uint8_t flagZ = 0;         // +8
  uint8_t flagN = 0;         // +9
  uint8_t flagC = 0;         // +10
  uint8_t pad0 = 0;          // +11
  uint32_t hvalue = 0;       // +12  helper value-return slot
  int64_t cycles = 0;        // +16  machine cycles consumed (running total)
  int64_t cycleBudget = 0;   // +24  error when a backward edge exceeds this
  uint64_t pad2 = 0;         // +32
  int32_t callDepth = 0;     // +40
  int32_t pad1 = 0;          // +44
  MemView mem;               // +48  the TEP's registers and in-layout memory
  /// +88  native return addresses; entries at or above callDepth are never
  /// read, so the stack is left uninitialized (a run need not clear it).
  uint64_t callStack[32];
  /// +344 the effect log's append cursor, +352 the end of its capacity
  /// (log's tail() and limit() when the run starts).
  TimedEffect* logAt = nullptr;
  TimedEffect* logEnd = nullptr;
  /// +360 the values of the image's declared ports, by slot: port reads
  /// and writes whose address the emitter resolved read and latch them.
  uint32_t* ports = nullptr;
  /// +368 nonzero: log every external-bus access (the machine clears it
  /// when no other routine can be in flight to contend for the bus).
  /// Port writes and raises are always logged.
  uint8_t logBus = 1;

  // Read by the helpers only; emitted code never addresses them.
  int32_t tepId = 0;
  TepHost* host = nullptr;
  const hwlib::ArchConfig* config = nullptr;
  size_t programSize = 0;
  int64_t budgetLimit = 0;  ///< configuration-cycle guard (machine cycles)
  /// Required: the log logAt appends to, which a helper grows when the
  /// cursor meets logEnd.
  EffectLog* log = nullptr;
  /// Required: where a helper stores its diagnostic. A string member would
  /// make the context non-standard-layout, so it lives outside.
  std::string* error = nullptr;
  /// Step of the fault when a memory access failed part-way (its chunk's
  /// access step); -1 means the fault is at the last step charged so far.
  int64_t faultStep = -1;
  bool overBudget = false;  ///< the budget guard, not a fault, stopped the run
};

inline constexpr int32_t kCtxAcc = 0;
inline constexpr int32_t kCtxOp = 4;
inline constexpr int32_t kCtxFlagZ = 8;
inline constexpr int32_t kCtxFlagN = 9;
inline constexpr int32_t kCtxFlagC = 10;
inline constexpr int32_t kCtxHvalue = 12;
inline constexpr int32_t kCtxCycles = 16;
inline constexpr int32_t kCtxBudget = 24;
inline constexpr int32_t kCtxCallDepth = 40;
inline constexpr int32_t kCtxRegs = 48;
inline constexpr int32_t kCtxInternal = 56;
inline constexpr int32_t kCtxExternal = 64;
inline constexpr int32_t kCtxInternalSize = 72;
inline constexpr int32_t kCtxExternalSize = 80;
inline constexpr int32_t kCtxCallStack = 88;
inline constexpr int32_t kCtxLogAt = 344;
inline constexpr int32_t kCtxLogEnd = 352;
inline constexpr int32_t kCtxPorts = 360;
inline constexpr int32_t kCtxLogBus = 368;

static_assert(offsetof(JitContext, acc) == kCtxAcc);
static_assert(offsetof(JitContext, op) == kCtxOp);
static_assert(offsetof(JitContext, flagZ) == kCtxFlagZ);
static_assert(offsetof(JitContext, flagN) == kCtxFlagN);
static_assert(offsetof(JitContext, flagC) == kCtxFlagC);
static_assert(offsetof(JitContext, hvalue) == kCtxHvalue);
static_assert(offsetof(JitContext, cycles) == kCtxCycles);
static_assert(offsetof(JitContext, cycleBudget) == kCtxBudget);
static_assert(offsetof(JitContext, callDepth) == kCtxCallDepth);
static_assert(offsetof(JitContext, mem) + offsetof(MemView, regs) == kCtxRegs);
static_assert(offsetof(JitContext, mem) + offsetof(MemView, internal) == kCtxInternal);
static_assert(offsetof(JitContext, mem) + offsetof(MemView, external) == kCtxExternal);
static_assert(offsetof(JitContext, mem) + offsetof(MemView, internalSize) ==
              kCtxInternalSize);
static_assert(offsetof(JitContext, mem) + offsetof(MemView, externalSize) ==
              kCtxExternalSize);
static_assert(offsetof(JitContext, callStack) == kCtxCallStack);
static_assert(offsetof(JitContext, logAt) == kCtxLogAt);
static_assert(offsetof(JitContext, logEnd) == kCtxLogEnd);
static_assert(offsetof(JitContext, ports) == kCtxPorts);
static_assert(offsetof(JitContext, logBus) == kCtxLogBus);
static_assert(std::is_standard_layout_v<JitContext>);

/// The interpreter step at which a routine that returned nonzero (and did
/// not stop at the budget guard) faults.
[[nodiscard]] inline int64_t faultStepOf(const JitContext& ctx) {
  return ctx.faultStep >= 0 ? ctx.faultStep : ctx.cycles - 1;
}

/// Signature of an emitted routine: run to TRET or error. Returns 0 on
/// TRET, nonzero after an error epilogue (*JitContext::error holds the text).
using CompiledFn = int32_t (*)(JitContext*);

// --------------------------------------------------------------- helpers
//
// SysV x86-64: ctx in rdi, scalar args in esi/edx/ecx/r8d. Status in eax
// (0 ok); value results land in ctx->hvalue. `packed` for memory ops is
// totalBytes | chunks<<8 | lead<<16 — chunks wait cycles are charged onto
// ctx->cycles when the base address is external, exactly the
// interpreter's per-chunk wait states; `lead` is how many of the
// instruction's (already charged) micro-ops run from its first memory
// micro-op on, which places the access's steps. `skew` places an effect
// the same way: its micro-op's index minus the microprogram length.
// Helpers that log append at ctx->logAt, growing ctx->log (and moving the
// cursor) when it is full.

extern "C" {
int32_t pscpJitLoad(JitContext* ctx, int32_t addr, int32_t packed) noexcept;
int32_t pscpJitStore(JitContext* ctx, int32_t addr, uint32_t value,
                     int32_t packed) noexcept;
int32_t pscpJitPortRead(JitContext* ctx, int32_t port) noexcept;
int32_t pscpJitPortWrite(JitContext* ctx, int32_t port, uint32_t value,
                         int32_t skew) noexcept;
int32_t pscpJitEvSet(JitContext* ctx, int32_t index, int32_t skew) noexcept;
int32_t pscpJitCondSet(JitContext* ctx, int32_t index, int32_t value) noexcept;
int32_t pscpJitCondTest(JitContext* ctx, int32_t index) noexcept;
int32_t pscpJitStateTest(JitContext* ctx, int32_t index) noexcept;
/// packed = width | signed<<8 | isDiv<<9; pc = ISA index for diagnostics.
int32_t pscpJitDivMod(JitContext* ctx, uint32_t a, uint32_t b, int32_t packed,
                      int32_t pc) noexcept;
int32_t pscpJitCustom(JitContext* ctx, int32_t index, uint32_t a,
                      uint32_t b) noexcept;
// Error formatters (always return nonzero).
int32_t pscpJitErrRunOff(JitContext* ctx, int32_t pc) noexcept;
int32_t pscpJitErrStackOver(JitContext* ctx) noexcept;
int32_t pscpJitErrStackUnder(JitContext* ctx) noexcept;
int32_t pscpJitErrBudget(JitContext* ctx) noexcept;
}

}  // namespace pscp::tep::jit
