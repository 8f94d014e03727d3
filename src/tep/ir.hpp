// Three-address IR for assembled TEP routines — the lowering target that
// feeds the native tier (src/tep/jit).
//
// The interpreter (tep/machine.cpp) is the reference semantics: it runs
// one micro-op per clock and derives its cycle counts from the
// microprogram lengths. The IR collapses each ISA instruction into a
// handful of explicit register-transfer ops over three virtual registers
// (ACC, OP and one address temp), with the instruction's *whole* static
// microprogram cost charged up front by a kAddCycles op. Dynamic costs
// that depend on runtime addresses (external-memory wait states) are
// charged by the memory ops themselves, so a lowered routine accounts the
// exact same cycle total as the interpreter on every path.
//
// Lowering feeds the emitter directly: there is no IR optimizer. The
// compiler's peephole pass (compiler/optimize.cpp) already removes
// redundant jumps before assembly, and folding or dead-store passes here
// showed no measured gain while each had to preserve the cycle ledger.
//
// Bit-identity contract: executing a lowered routine must produce the
// same ACC/OP/Z/N/C, the same host side effects in the same order
// (port/reg/memory writes, raised events, condition updates), the same
// cycle count, and the same error messages as the interpreter. Anything
// the lowering cannot prove it preserves must be rejected (the routine
// then stays on the interpreter tier forever).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/isa.hpp"

namespace pscp::tep::ir {

/// Virtual registers. The TEP is an accumulator machine, so three are
/// enough: lowering never materialises more than one live temporary (the
/// effective address of an indirect access).
inline constexpr int kVregAcc = 0;
inline constexpr int kVregOp = 1;
inline constexpr int kVregTmp = 2;
inline constexpr int kVregCount = 3;

enum class IrOp : uint8_t {
  // Cost accounting. Every lowered ISA instruction begins with one of
  // these charging its static microprogram length; the op doubles as the
  // branch-target anchor for its ISA index.
  kAddCycles,

  // Data movement (no flags).
  kLoadImm,  ///< dst = imm
  kCopy,     ///< dst = src1
  kMask,     ///< dst = src1 & imm
  kAddImm,   ///< dst = src1 + imm (raw 32-bit wrap; address arithmetic)

  // ALU at `width` bits: dst = trunc(op(src1[, src2]), width). Flags per
  // setZ/setN/setC (Z/N from the truncated result; C as the interpreter
  // defines it for Add/Sub).
  kAdd, kSub, kAnd, kOr, kXor, kNot, kNeg,
  kMul,     ///< low-width product, Z/N
  kDivMod,  ///< via helper; signedOp/isDiv select the variant; imm = ISA pc
            ///< for the division-by-zero diagnostic
  kCmp,     ///< flags only: Z = (a==b), N = signed <, C = unsigned <
  kShl, kShr, kSar,  ///< shift by imm (& 31); interpreter semantics

  // Data memory. imm = static byte address (kLoad/kStore) — dynamic forms
  // take it from src1. imm2 packs totalBytes | chunks<<8 | lead<<16 (the
  // micro-ops from the first memory micro-op to the instruction's end);
  // the executor charges `chunks` wait cycles when the base address is
  // external and surfaces unmapped-address errors exactly like the
  // interpreter.
  kLoad,     ///< dst = mem[imm ..] & mask(width)
  kStore,    ///< mem[imm ..] = src1 & mask(width)
  kLoadAt,   ///< dst = mem[src1 ..] & mask(width)
  kStoreAt,  ///< mem[src1 ..] = src2 & mask(width)

  // Register file (in place; imm in [0, kRegisterCount)), then ports and
  // CR (host calls; order-preserving).
  kRegGet,     ///< dst = reg[imm] & mask(width)
  kRegSet,     ///< reg[imm] = src1 & mask(width)
  kPortRead,   ///< dst = readPort(imm) — unmasked, like the interpreter
  kPortWrite,  ///< writePort(imm, src1 & mask); imm2 = micro-op step skew
  kEvSet,      ///< raiseEvent(imm); imm2 = micro-op step skew
  kCondSet,    ///< setCondition(imm, imm2 != 0)
  kCondTest,   ///< dst = testCondition(imm) ? 1 : 0; Z = !value
  kStateTest,  ///< dst = testState(imm) ? 1 : 0; Z = !value
  kCustom,     ///< dst = custom chain imm over (src1, src2); imm2 = chain
               ///< width; Z/N at that width

  // Control flow. imm = target ISA instruction index.
  kJump, kJz, kJnz, kJn, kJc,
  kCall,  ///< shadow-stack call; overflow at depth 32
  kRet,   ///< shadow-stack return; underflow error on empty
  kTret,  ///< routine complete

  // Error exit: "PC imm ran off the program". Reached by jumps to invalid
  // targets and by falling off the end of the instruction stream.
  kRunOff,
};

[[nodiscard]] const char* irOpName(IrOp op);

struct IrInst {
  IrOp op = IrOp::kAddCycles;
  uint8_t width = 8;       ///< operation width in bits (1..32)
  bool signedOp = false;   ///< kDivMod: signed variant
  bool isDiv = false;      ///< kDivMod: quotient (else remainder)
  bool setZ = false, setN = false, setC = false;
  int8_t dst = -1, src1 = -1, src2 = -1;  ///< vregs, -1 = unused
  int32_t imm = 0;
  int32_t imm2 = 0;
  int32_t isa = -1;  ///< owning ISA instruction index (diagnostics/labels)

  [[nodiscard]] std::string str() const;
};

/// A lowered routine. `code` is ordered by ascending ISA index; the
/// kAddCycles op carrying `isa == i` anchors branch target `i`.
struct IrRoutine {
  int entryIsa = 0;
  std::vector<IrInst> code;
  bool hasCalls = false;

  /// Offset in `code` of the anchor for ISA index `target`, or -1 when the
  /// target is not a lowered instruction (the executor emits a kRunOff
  /// stub for it).
  [[nodiscard]] int anchorOf(int target) const;

  [[nodiscard]] std::string listing() const;
};

struct LowerResult {
  bool ok = false;
  std::string reason;  ///< set when !ok (routine stays interpreted)
  IrRoutine routine;
};

/// Size bound that keeps compilation cheap and the emitted code small. A
/// routine lowering to more ops is rejected (permanently interpreted),
/// never mis-compiled.
inline constexpr int kMaxIrOps = 16384;

/// Lower the routine entered at ISA index `entry` — every instruction
/// reachable from it, in ascending ISA order. The program and config must
/// describe the machine the routine will run on (costs come from the same
/// microprograms the interpreter executes).
[[nodiscard]] LowerResult lowerRoutine(const AsmProgram& program, int entry,
                                       const hwlib::ArchConfig& config);

}  // namespace pscp::tep::ir
