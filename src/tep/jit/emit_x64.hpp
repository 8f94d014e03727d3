// x86-64 template emitter for lowered TEP routines.
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
// wherever the IR op sets the flag.
//
// Control flow stays inside the emitted routine: TEP Call/Ret use a
// shadow stack of native return addresses in the JitContext (depth 32,
// like the interpreter), so rsp never moves between the prologue and
// epilogue and the ABI alignment above holds everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tep/ir.hpp"

namespace pscp::tep::jit {

struct EmitResult {
  bool ok = false;
  std::string error;
  std::vector<uint8_t> code;
};

/// Emit native code for a lowered routine. `portAddresses` is the image's
/// port map (sorted, ChartImage::portAddresses()): a port read or write at
/// one of its addresses reads or latches JitContext::ports at its slot in
/// place, any other address takes the helper. Fails (never mis-emits) on
/// unsupported shapes; the caller keeps the routine interpreted. Only
/// meaningful when PSCP_JIT_BACKEND — other builds always fail.
[[nodiscard]] EmitResult emitX64(const ir::IrRoutine& routine,
                                 const std::vector<int>& portAddresses);

}  // namespace pscp::tep::jit
