// Native-tier runtime contract: the JitContext block shared between
// emitted x86-64 code and the embedder, and the extern "C" helper bridge
// the emitted code calls for everything it does not do in place. Emitted
// code reads and writes the register file, and internal loads and stores
// of 1, 2 or 4 bytes that lie inside the layout, through the context's
// MemView; the helpers serve every other memory access (the external bank
// in place, tail and unmapped bytes through the host), the ports, the CR,
// division and custom instructions, and the error exits.
//
// Error discipline: emitted code has no unwind tables, so C++ exceptions
// must never cross a JIT frame. Every helper catches pscp::Error, stores
// the exact message in JitEnv::error and returns nonzero; the emitted
// code checks the status and exits through its error epilogue, after
// which the embedder rethrows the stored message. Interpreter and native
// tier therefore fail with byte-identical diagnostics.
//
// Timed effects: the helpers log the routine's shared effects —
// external-bus steps, port writes, raises — each at the interpreter step
// that performs it, instead of performing them, so a machine can run a
// routine to its end at dispatch and replay only those effects in lockstep
// with the other TEPs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/machine.hpp"

namespace pscp::tep::jit {

/// One timed shared effect of a routine that ran natively ahead of the
/// lockstep loop: what another TEP or the machine's logs could observe, at
/// the local step (0-based, stalls not counted) where the microcode
/// interpreter performs it. The machine replays these in lockstep order
/// (pscp/machine.hpp); everything else a routine does stays TEP-private
/// until write-back.
struct TimedEffect {
  enum class Kind : uint8_t {
    kBus,        ///< `arg` consecutive steps that each need the external bus
    kPortWrite,  ///< writePort(arg, value)
    kRaise,      ///< raiseEvent(arg)
  };
  int32_t step = 0;
  int32_t arg = 0;
  uint32_t value = 0;
  Kind kind = Kind::kBus;
};

/// Everything the helpers need from C++ land. Referenced (not owned) by
/// JitContext::env; never read by emitted code directly.
struct JitEnv {
  TepHost* host = nullptr;
  const hwlib::ArchConfig* config = nullptr;
  int tepId = 0;
  size_t programSize = 0;
  int64_t budgetLimit = 0;  ///< configuration-cycle guard (machine cycles)
  std::string error;        ///< helper-captured diagnostic
  /// Required. Port writes latch their value (TepHost::latchPort) and
  /// raises touch nothing; both are appended here with their interpreter
  /// step for the embedder to replay, and so is every external-bus access
  /// when `logBus` is set (the machine clears it when no other routine can
  /// be in flight to contend for the bus).
  std::vector<TimedEffect>* log = nullptr;
  bool logBus = true;
  /// Step of the fault when a memory access failed part-way (its chunk's
  /// access step); -1 means the fault is at the last step charged so far.
  int64_t faultStep = -1;
  bool overBudget = false;  ///< the budget guard, not a fault, stopped the run
};

/// The block emitted code addresses with fixed offsets (asserted below).
/// Seeded by the embedder before a routine runs; read back afterwards.
/// `cycles` counts the routine's local steps: seeded at 0, a routine that
/// returns 0 has taken exactly `cycles` steps on the interpreter.
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
  JitEnv* env = nullptr;     // +32
  int32_t callDepth = 0;     // +40
  int32_t pad1 = 0;          // +44
  MemView mem;               // +48  the TEP's registers and in-layout memory
  /// +88  native return addresses; entries at or above callDepth are never
  /// read, so the stack is left uninitialized (a run need not clear it).
  uint64_t callStack[32];
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
inline constexpr int32_t kCtxInternalSize = 72;
inline constexpr int32_t kCtxCallStack = 88;

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
static_assert(offsetof(JitContext, mem) + offsetof(MemView, internalSize) ==
              kCtxInternalSize);
static_assert(offsetof(JitContext, callStack) == kCtxCallStack);

/// The interpreter step at which a routine that returned nonzero (and did
/// not stop at the budget guard) faults.
[[nodiscard]] inline int64_t faultStepOf(const JitContext& ctx) {
  return ctx.env->faultStep >= 0 ? ctx.env->faultStep : ctx.cycles - 1;
}

/// Signature of an emitted routine: run to TRET or error. Returns 0 on
/// TRET, nonzero after an error epilogue (JitEnv::error holds the text).
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
