// x86-64 template emitter for assembled TEP routines.
//
// Each ISA instruction reachable from the routine's entry is emitted in
// ascending ISA order behind its own label: first one `add r13, n` that
// charges the instruction's whole microprogram length (microcodeFor, the
// same microprograms the interpreter runs), then a fixed byte sequence
// for its effect. Memory, port-write and raise effects take their step
// offsets from the position of their micro-op in that microprogram, so
// each lands on the cycle where the interpreter performs it; external
// wait states are charged by the access itself at run time.
//
// Register plan (SysV): rbx = ACC, r12d = OP, r15d = address temp,
// r13 = cycle counter, r14 = JitContext*. All five pinned registers are
// callee-saved, so helper calls need no spills; five pushes keep rsp
// 16-byte aligned at every call site. eax/ecx/edx are scratch, and the
// in-place paths use them so:
//   - memory: eax for the bounds sum, then the log cursor when an
//     external access logs its bus entry; ecx for the bank base (and the
//     entry's step); edx holds a stored value, eax a loaded one;
//   - division: eax the dividend, ecx the divisor, edx the high half and
//     then the remainder;
//   - port writes and raises: eax the log cursor, ecx the port array and
//     the entry's step, edx the written value.
// Z/N/C live as bytes in the JitContext and are updated with setcc
// wherever the instruction sets the flag.
//
// Control flow stays inside the emitted routine: TEP Call/Ret use a
// shadow stack of native return addresses in the JitContext (depth 32,
// like the interpreter), so rsp never moves between the prologue and
// epilogue and the ABI alignment above holds everywhere.
//
// Bit-identity contract: running emitted code must produce the same
// ACC/OP/Z/N/C, the same host side effects in the same order, the same
// cycle count and the same error messages as the interpreter. A shape the
// emitter cannot prove it preserves is rejected, and the routine then
// stays on the interpreter tier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/isa.hpp"

namespace pscp::tep::jit {

/// Size bound that keeps compilation cheap and the emitted code small: a
/// routine with more reachable instructions is rejected (permanently
/// interpreted), never mis-compiled.
inline constexpr int kMaxRoutineInstrs = 16384;

struct EmitResult {
  bool ok = false;
  std::string error;
  std::vector<uint8_t> code;
};

/// Emit native code for the routine entered at ISA index `entry`: every
/// instruction reachable from it. `config` must describe the machine the
/// routine runs on (costs come from its microprograms). `portAddresses` is
/// the image's port map (sorted, ChartImage::portAddresses()): a port read
/// or write at one of its addresses reads or latches JitContext::ports at
/// its slot in place, any other address takes the helper. Fails (never
/// mis-emits) on an entry out of range, a width outside 1..32, a register
/// outside the register file, a custom index without an instruction and a
/// routine over kMaxRoutineInstrs; the caller keeps the routine
/// interpreted. Only meaningful when PSCP_JIT_BACKEND — other builds
/// always fail.
[[nodiscard]] EmitResult emitX64(const AsmProgram& program, int entry,
                                 const hwlib::ArchConfig& config,
                                 const std::vector<int>& portAddresses);

}  // namespace pscp::tep::jit
