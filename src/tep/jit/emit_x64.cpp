#include "tep/jit/emit_x64.hpp"

#include <map>

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/runtime.hpp"

#if PSCP_JIT_BACKEND

namespace pscp::tep::jit {

namespace {

using ir::IrInst;
using ir::IrOp;
using ir::IrRoutine;

// Register numbers (x86-64 encoding).
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3, kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15;

// Condition codes (for setcc 0F 90+cc / jcc 0F 80+cc).
constexpr uint8_t kCcB = 0x2;   // below / carry set
constexpr uint8_t kCcAe = 0x3;  // above or equal (unsigned)
constexpr uint8_t kCcA = 0x7;   // above (unsigned)
constexpr uint8_t kCcE = 0x4;   // equal / zero
constexpr uint8_t kCcNe = 0x5;  // not equal
constexpr uint8_t kCcS = 0x8;   // sign set
constexpr uint8_t kCcL = 0xC;   // signed less
constexpr uint8_t kCcGe = 0xD;  // signed greater-or-equal
constexpr uint8_t kCcG = 0xF;   // signed greater

int vregReg(int v) {
  switch (v) {
    case ir::kVregAcc: return kRbx;
    case ir::kVregOp: return kR12;
    case ir::kVregTmp: return kR15;
    default: PSCP_ASSERT(false); return kRax;
  }
}

class Asm {
 public:
  std::vector<uint8_t> code;

  int newLabel() {
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
  }
  void bind(int label) {
    PSCP_ASSERT(labels_[static_cast<size_t>(label)] < 0);
    labels_[static_cast<size_t>(label)] = static_cast<int64_t>(code.size());
  }

  void byte(uint8_t b) { code.push_back(b); }
  void i32(int32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<uint8_t>((static_cast<uint32_t>(v) >> (8 * i)) & 0xFF));
  }
  void i64(uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<uint8_t>((v >> (8 * i)) & 0xFF));
  }
  void rex(bool w, int reg, int index, int rm) {
    const uint8_t r = 0x40 | (w ? 8 : 0) | ((reg >= 8) ? 4 : 0) |
                      ((index >= 8) ? 2 : 0) | ((rm >= 8) ? 1 : 0);
    if (r != 0x40 || w) byte(r);
  }
  void modrm(int mod, int reg, int rm) {
    byte(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  /// [base + disp32] memory operand (base must not be rsp/rbp-class; we
  /// only ever use r14, whose low bits avoid the SIB/disp escapes).
  void mem(int reg, int base, int32_t disp) {
    PSCP_ASSERT((base & 7) != 4 && (base & 7) != 5);
    modrm(2, reg, base);
    i32(disp);
  }

  void push(int r) { rex(false, 0, 0, r); byte(static_cast<uint8_t>(0x50 | (r & 7))); }
  void pop(int r) { rex(false, 0, 0, r); byte(static_cast<uint8_t>(0x58 | (r & 7))); }

  void movRI(int r, uint32_t imm) {
    rex(false, 0, 0, r);
    byte(static_cast<uint8_t>(0xB8 | (r & 7)));
    i32(static_cast<int32_t>(imm));
  }
  void movRI64(int r, uint64_t imm) {
    rex(true, 0, 0, r);
    byte(static_cast<uint8_t>(0xB8 | (r & 7)));
    i64(imm);
  }
  void movRR(int dst, int src) {  // 32-bit
    rex(false, src, 0, dst);
    byte(0x89);
    modrm(3, src, dst);
  }
  void movRR64(int dst, int src) {
    rex(true, src, 0, dst);
    byte(0x89);
    modrm(3, src, dst);
  }
  void movRM(int dst, int base, int32_t disp) {  // mov r32, [base+disp]
    rex(false, dst, 0, base);
    byte(0x8B);
    mem(dst, base, disp);
  }
  void movMR(int base, int32_t disp, int src) {  // mov [base+disp], r32
    rex(false, src, 0, base);
    byte(0x89);
    mem(src, base, disp);
  }
  void movRM64(int dst, int base, int32_t disp) {
    rex(true, dst, 0, base);
    byte(0x8B);
    mem(dst, base, disp);
  }
  void movMR64(int base, int32_t disp, int src) {
    rex(true, src, 0, base);
    byte(0x89);
    mem(src, base, disp);
  }
  void movMI(int base, int32_t disp, int32_t imm) {  // mov dword [base+disp], imm32
    rex(false, 0, 0, base);
    byte(0xC7);
    mem(0, base, disp);
    i32(imm);
  }
  void cmpM64I(int base, int32_t disp, int32_t imm) {  // cmp qword [..], imm32
    rex(true, 7, 0, base);
    byte(0x81);
    mem(7, base, disp);
    i32(imm);
  }
  /// Move between r32 and the `bytes`-wide cell at [base + index + disp]
  /// (no index when `index` < 0): loads zero-extend, stores write the low
  /// bytes (a byte store takes al/cl/dl/bl only).
  void movCell(bool store, int bytes, int r, int base, int index, int32_t disp) {
    PSCP_ASSERT(bytes == 1 || bytes == 2 || bytes == 4);
    PSCP_ASSERT(!(store && bytes == 1 && r >= 4));
    if (store && bytes == 2) byte(0x66);
    rex(false, r, index >= 0 ? index : 0, base);
    if (store) {
      byte(bytes == 1 ? 0x88 : 0x89);
    } else if (bytes == 4) {
      byte(0x8B);
    } else {
      byte(0x0F);
      byte(bytes == 1 ? 0xB6 : 0xB7);
    }
    if (index < 0) {
      mem(r, base, disp);
      return;
    }
    PSCP_ASSERT((base & 7) != 5 && (index & 7) != 4);
    modrm(2, r, 4);  // rm=100 -> SIB follows
    byte(static_cast<uint8_t>(((index & 7) << 3) | (base & 7)));
    i32(disp);
  }
  void cmpByteMI(int base, int32_t disp, uint8_t imm) {  // cmp byte [..], imm
    rex(false, 7, 0, base);
    byte(0x80);
    mem(7, base, disp);
    byte(imm);
  }
  void setccM(uint8_t cc, int base, int32_t disp) {  // setcc byte [..]
    rex(false, 0, 0, base);
    byte(0x0F);
    byte(static_cast<uint8_t>(0x90 | cc));
    mem(0, base, disp);
  }

  void aluRR(uint8_t opcode, int dst, int src) {  // 32-bit op dst, src
    rex(false, src, 0, dst);
    byte(opcode);
    modrm(3, src, dst);
  }
  void addRR(int d, int s) { aluRR(0x01, d, s); }
  void subRR(int d, int s) { aluRR(0x29, d, s); }
  void andRR(int d, int s) { aluRR(0x21, d, s); }
  void orRR(int d, int s) { aluRR(0x09, d, s); }
  void xorRR(int d, int s) { aluRR(0x31, d, s); }
  void cmpRR(int d, int s) { aluRR(0x39, d, s); }
  void testRR(int d, int s) { aluRR(0x85, d, s); }

  void aluRI(int ext, int r, int32_t imm) {  // 81 /ext r32, imm32
    rex(false, 0, 0, r);
    byte(0x81);
    modrm(3, ext, r);
    i32(imm);
  }
  void addRI(int r, int32_t imm) { aluRI(0, r, imm); }
  void andRI(int r, uint32_t imm) { aluRI(4, r, static_cast<int32_t>(imm)); }
  void addR64I(int r, int32_t imm) {
    rex(true, 0, 0, r);
    byte(0x81);
    modrm(3, 0, r);
    i32(imm);
  }
  void cmpR64M(int r, int base, int32_t disp) {  // cmp r64, [base+disp]
    rex(true, r, 0, base);
    byte(0x3B);
    mem(r, base, disp);
  }

  void notR(int r) { rex(false, 0, 0, r); byte(0xF7); modrm(3, 2, r); }
  void negR(int r) { rex(false, 0, 0, r); byte(0xF7); modrm(3, 3, r); }
  void divR(int r) { rex(false, 0, 0, r); byte(0xF7); modrm(3, 6, r); }   // edx:eax / r
  void idivR(int r) { rex(false, 0, 0, r); byte(0xF7); modrm(3, 7, r); }  // signed
  void cdq() { byte(0x99); }  // edx = sign of eax
  void imulRR(int dst, int src) {
    rex(false, dst, 0, src);
    byte(0x0F);
    byte(0xAF);
    modrm(3, dst, src);
  }
  void shiftRI(int ext, int r, uint8_t count) {  // C1 /ext r32, imm8
    rex(false, 0, 0, r);
    byte(0xC1);
    modrm(3, ext, r);
    byte(count);
  }
  void shlRI(int r, uint8_t c) { shiftRI(4, r, c); }
  void shrRI(int r, uint8_t c) { shiftRI(5, r, c); }
  void sarRI(int r, uint8_t c) { shiftRI(7, r, c); }
  void btRI(int r, uint8_t bit) {  // bt r32, imm8 -> CF
    rex(false, 0, 0, r);
    byte(0x0F);
    byte(0xBA);
    modrm(3, 4, r);
    byte(bit);
  }

  void jmpLabel(int label) {
    byte(0xE9);
    fixups_.push_back({static_cast<int64_t>(code.size()), label});
    i32(0);
  }
  void jccLabel(uint8_t cc, int label) {
    byte(0x0F);
    byte(static_cast<uint8_t>(0x80 | cc));
    fixups_.push_back({static_cast<int64_t>(code.size()), label});
    i32(0);
  }
  void leaRipLabel(int r, int label) {  // lea r64, [rip + label]
    rex(true, r, 0, 5);
    byte(0x8D);
    modrm(0, r, 5);
    fixups_.push_back({static_cast<int64_t>(code.size()), label});
    i32(0);
  }
  void callR64(int r) { rex(false, 0, 0, r); byte(0xFF); modrm(3, 2, r); }
  void jmpR64(int r) { rex(false, 0, 0, r); byte(0xFF); modrm(3, 4, r); }
  /// mov [base + index*8 + disp], r64  /  mov r64, [base + index*8 + disp]
  void movSibR64(bool store, int base, int index, int32_t disp, int r) {
    rex(true, r, index, base);
    byte(store ? 0x89 : 0x8B);
    modrm(2, r, 4);  // rm=100 -> SIB follows
    byte(static_cast<uint8_t>((3 << 6) | ((index & 7) << 3) | (base & 7)));
    i32(disp);
  }
  void ret() { byte(0xC3); }

  bool resolve(std::string* error) {
    for (const Fixup& f : fixups_) {
      const int64_t target = labels_[static_cast<size_t>(f.label)];
      if (target < 0) {
        if (error != nullptr) *error = "unresolved label";
        return false;
      }
      const int64_t rel = target - (f.pos + 4);
      if (rel < INT32_MIN || rel > INT32_MAX) {
        if (error != nullptr) *error = "branch out of rel32 range";
        return false;
      }
      for (int i = 0; i < 4; ++i)
        code[static_cast<size_t>(f.pos) + static_cast<size_t>(i)] =
            static_cast<uint8_t>((static_cast<uint32_t>(rel) >> (8 * i)) & 0xFF);
    }
    return true;
  }

 private:
  struct Fixup {
    int64_t pos;  ///< offset of the rel32 field
    int label;
  };
  std::vector<int64_t> labels_;
  std::vector<Fixup> fixups_;
};

class RoutineEmitter {
 public:
  RoutineEmitter(const IrRoutine& r, const std::vector<int>& portAddresses)
      : r_(r), portAddresses_(portAddresses) {}

  EmitResult run();

 private:
  const IrRoutine& r_;
  const std::vector<int>& portAddresses_;
  Asm a_;
  std::map<int, int> anchorLabel_;  ///< ISA index -> label
  std::map<int, int> runoffLabel_;  ///< invalid target -> stub label
  int exitOk_ = -1, errExit_ = -1, budgetFail_ = -1, stackOver_ = -1,
      stackUnder_ = -1;
  bool needBudget_ = false, needOver_ = false, needUnder_ = false;

  int targetLabel(int isaTarget);
  void helperCall(const void* fn, int nargs, const int32_t* immArgs,
                  const int* regArgs);
  void finishValueFlags(const IrInst& in, int w);
  void logRoom(int full);
  void appendEffect(int32_t stepOffset, int32_t arg, int valueReg, TimedEffect::Kind kind);
  void inlineMemory(const IrInst& in, bool store, int r, int done);
  void emitInst(const IrInst& in);
  void emitAlu(const IrInst& in);
  void emitDivMod(const IrInst& in);
  void emitShift(const IrInst& in);
  void emitCmp(const IrInst& in);
  void emitBranch(const IrInst& in);
  void emitCall(const IrInst& in);
  void budgetGuard(const IrInst& in);
};

int RoutineEmitter::targetLabel(int isaTarget) {
  auto it = anchorLabel_.find(isaTarget);
  if (it != anchorLabel_.end()) return it->second;
  auto [sit, inserted] = runoffLabel_.try_emplace(isaTarget, -1);
  if (inserted) sit->second = a_.newLabel();
  return sit->second;
}

/// Call a runtime helper. Args beyond ctx are described positionally:
/// regArgs[i] >= 0 takes a machine register (32-bit), else immArgs[i] is
/// a literal. r13 (cycles) is synced out/in around the call because
/// memory helpers charge external wait states.
void RoutineEmitter::helperCall(const void* fn, int nargs, const int32_t* immArgs,
                                const int* regArgs) {
  static constexpr int kArgReg[4] = {kRsi, kRdx, kRcx, kR8};
  a_.movMR64(kR14, kCtxCycles, kR13);
  a_.movRR64(kRdi, kR14);
  for (int i = 0; i < nargs; ++i) {
    if (regArgs != nullptr && regArgs[i] >= 0)
      a_.movRR(kArgReg[i], regArgs[i]);
    else
      a_.movRI(kArgReg[i], static_cast<uint32_t>(immArgs[i]));
  }
  a_.movRI64(kRax, reinterpret_cast<uint64_t>(fn));
  a_.callR64(kRax);
  a_.testRR(kRax, kRax);
  a_.jccLabel(kCcNe, errExit_);
  a_.movRM64(kR13, kR14, kCtxCycles);
}

/// Mask eax to `w` bits, then store the requested flags from it and move
/// it into the destination vreg. ZF/SF come from the masking AND (or a
/// TEST at full width); N for narrow widths reads bit w-1 via BT.
void RoutineEmitter::finishValueFlags(const IrInst& in, int w) {
  if (w < 32)
    a_.andRI(kRax, maskBits(w));
  else
    a_.testRR(kRax, kRax);
  if (in.setZ) a_.setccM(kCcE, kR14, kCtxFlagZ);
  if (in.setN) {
    if (w == 32) {
      a_.setccM(kCcS, kR14, kCtxFlagN);
    } else {
      a_.btRI(kRax, static_cast<uint8_t>(w - 1));
      a_.setccM(kCcB, kR14, kCtxFlagN);
    }
  }
  if (in.dst >= 0) a_.movRR(vregReg(in.dst), kRax);
}

/// rax = the effect log's cursor; jump to `full` when it has no room for
/// one more entry (the helper the caller emits there grows the log).
void RoutineEmitter::logRoom(int full) {
  a_.movRM64(kRax, kR14, kCtxLogAt);
  a_.cmpR64M(kRax, kR14, kCtxLogEnd);
  a_.jccLabel(kCcAe, full);
}

/// Write a timed effect at the cursor in rax (checked by logRoom) and
/// advance the cursor: step r13 + `stepOffset`, `arg`, the value in
/// `valueReg` (0 when < 0) and `kind`. Clobbers ecx.
void RoutineEmitter::appendEffect(int32_t stepOffset, int32_t arg, int valueReg,
                                  TimedEffect::Kind kind) {
  a_.movRR(kRcx, kR13);
  if (stepOffset != 0) a_.addRI(kRcx, stepOffset);
  a_.movMR(kRax, kEffectStep, kRcx);
  a_.movMI(kRax, kEffectArg, arg);
  if (valueReg >= 0)
    a_.movMR(kRax, kEffectValue, valueReg);
  else
    a_.movMI(kRax, kEffectValue, 0);
  a_.movMI(kRax, kEffectKind, static_cast<int32_t>(kind));
  a_.addR64I(kRax, kEffectSize);
  a_.movMR64(kR14, kCtxLogAt, kRax);
}

/// The inline paths of a load or store of 1, 2 or 4 bytes: one bounds
/// check that the access's bytes lie wholly inside the in-layout prefix of
/// a bank, then `r` moves to or from the cell and control jumps to `done`.
/// An access to the external bank first appends its bus entry, when logBus
/// is set, and afterwards pays one wait state per chunk, as the helper
/// does. A static address is checked against its own bank only, a dynamic
/// one (in r15) against the internal bank, then the external one. Anything
/// else (tail, straddling, unmapped, 3-byte, or a bus entry that finds the
/// log full) falls through to the helper call the caller emits next. eax
/// and ecx are scratch, so a stored value must be in edx.
void RoutineEmitter::inlineMemory(const IrInst& in, bool store, int r, int done) {
  const int bytes = in.imm2 & 0xFF;
  if (bytes != 1 && bytes != 2 && bytes != 4) return;
  const bool dynamic = in.op == IrOp::kLoadAt || in.op == IrOp::kStoreAt;
  const bool internal = dynamic || (in.imm >= 0 && in.imm <= kExternalBase - bytes);
  const bool external =
      dynamic || (in.imm >= kExternalBase && in.imm <= kExternalBase + kExternalSize - bytes);
  if (!internal && !external) return;
  const int slow = a_.newLabel();
  if (internal) {
    const int miss = dynamic ? a_.newLabel() : slow;
    if (dynamic) {
      // Zero-extended, a negative address is far above any bank size.
      a_.movRR(kRax, kR15);
      a_.addR64I(kRax, bytes);
      a_.cmpR64M(kRax, kR14, kCtxInternalSize);
      a_.jccLabel(kCcA, miss);
    } else {
      a_.cmpM64I(kR14, kCtxInternalSize, in.imm + bytes);
      a_.jccLabel(kCcB, miss);
    }
    a_.movRM64(kRcx, kR14, kCtxInternal);
    a_.movCell(store, bytes, r, kRcx, dynamic ? kR15 : -1, dynamic ? 0 : in.imm);
    a_.jmpLabel(done);
    if (dynamic) a_.bind(miss);
  }
  if (external) {
    if (dynamic) {
      // Below kExternalBase the 32-bit difference wraps far above any size.
      a_.movRR(kRax, kR15);
      a_.addRI(kRax, -kExternalBase);
      a_.addR64I(kRax, bytes);
      a_.cmpR64M(kRax, kR14, kCtxExternalSize);
      a_.jccLabel(kCcA, slow);
    } else {
      a_.cmpM64I(kR14, kCtxExternalSize, in.imm - kExternalBase + bytes);
      a_.jccLabel(kCcB, slow);
    }
    const int chunks = (in.imm2 >> 8) & 0xFF;
    const int lead = (in.imm2 >> 16) & 0xFF;
    const int unlogged = a_.newLabel();
    a_.cmpByteMI(kR14, kCtxLogBus, 0);
    a_.jccLabel(kCcE, unlogged);
    logRoom(slow);
    appendEffect(-lead, 2 * chunks, -1, TimedEffect::Kind::kBus);
    a_.bind(unlogged);
    a_.movRM64(kRcx, kR14, kCtxExternal);
    a_.movCell(store, bytes, r, kRcx, dynamic ? kR15 : -1,
               dynamic ? -kExternalBase : in.imm - kExternalBase);
    a_.addR64I(kR13, chunks);
    a_.jmpLabel(done);
  }
  a_.bind(slow);
}

void RoutineEmitter::emitAlu(const IrInst& in) {
  const int w = in.width;
  const uint32_t m = maskBits(w);
  const bool binary = in.src2 >= 0;
  a_.movRR(kRax, vregReg(in.src1));
  if (binary) a_.movRR(kRcx, vregReg(in.src2));
  const bool needMaskedOperands =
      (in.op == IrOp::kAdd || in.op == IrOp::kSub) && w < 32;
  if (needMaskedOperands) {
    a_.andRI(kRax, m);
    a_.andRI(kRcx, m);
  }
  switch (in.op) {
    case IrOp::kAdd: a_.addRR(kRax, kRcx); break;
    case IrOp::kSub: a_.subRR(kRax, kRcx); break;
    case IrOp::kAnd: a_.andRR(kRax, kRcx); break;
    case IrOp::kOr: a_.orRR(kRax, kRcx); break;
    case IrOp::kXor: a_.xorRR(kRax, kRcx); break;
    case IrOp::kNot: a_.notR(kRax); break;
    case IrOp::kNeg: a_.negR(kRax); break;
    case IrOp::kMul: a_.imulRR(kRax, kRcx); break;
    default: PSCP_ASSERT(false);
  }
  if (in.setC) {
    // Interpreter carry: Add -> carry out of the w-bit sum of masked
    // operands (bit w of the 32-bit sum, which cannot carry past bit w+1
    // for w < 32); Sub -> unsigned borrow, which with masked operands is
    // exactly the host CF.
    if (in.op == IrOp::kSub || w == 32) {
      a_.setccM(kCcB, kR14, kCtxFlagC);
    } else {
      a_.btRI(kRax, static_cast<uint8_t>(w));
      a_.setccM(kCcB, kR14, kCtxFlagC);
    }
  }
  finishValueFlags(in, w);
}

/// Division in place at every width, on the operands masked (unsigned) or
/// sign-extended (signed) to the width. A masked zero divisor, and
/// INT32_MIN / -1 at width 32 (the host instruction traps), take the
/// helper, which raises the interpreter's diagnostic or wraps.
void RoutineEmitter::emitDivMod(const IrInst& in) {
  const int w = in.width;
  const int slow = a_.newLabel();
  const int done = a_.newLabel();
  a_.movRR(kRax, vregReg(in.src1));
  a_.movRR(kRcx, vregReg(in.src2));
  if (w < 32)
    a_.andRI(kRcx, maskBits(w));
  else
    a_.testRR(kRcx, kRcx);
  a_.jccLabel(kCcE, slow);
  if (in.signedOp) {
    if (w < 32) {
      const auto shift = static_cast<uint8_t>(32 - w);
      a_.shlRI(kRax, shift);
      a_.sarRI(kRax, shift);
      a_.shlRI(kRcx, shift);
      a_.sarRI(kRcx, shift);
    } else {
      const int fits = a_.newLabel();
      a_.aluRI(7 /*cmp*/, kRcx, -1);
      a_.jccLabel(kCcNe, fits);
      a_.aluRI(7 /*cmp*/, kRax, INT32_MIN);
      a_.jccLabel(kCcE, slow);
      a_.bind(fits);
    }
    a_.cdq();
    a_.idivR(kRcx);
  } else {
    if (w < 32) a_.andRI(kRax, maskBits(w));
    a_.xorRR(kRdx, kRdx);
    a_.divR(kRcx);
  }
  if (!in.isDiv) a_.movRR(kRax, kRdx);
  a_.jmpLabel(done);
  a_.bind(slow);
  const int32_t packed = in.width | (in.signedOp ? 1 << 8 : 0) | (in.isDiv ? 1 << 9 : 0);
  const int32_t imms[4] = {0, 0, packed, in.imm};
  const int regs[4] = {vregReg(in.src1), vregReg(in.src2), -1, -1};
  helperCall(reinterpret_cast<const void*>(&pscpJitDivMod), 4, imms, regs);
  a_.movRM(kRax, kR14, kCtxHvalue);
  a_.bind(done);
  finishValueFlags(in, w);
}

void RoutineEmitter::emitShift(const IrInst& in) {
  const int w = in.width;
  const uint8_t count = static_cast<uint8_t>(in.imm & 31);
  a_.movRR(kRax, vregReg(in.src1));
  switch (in.op) {
    case IrOp::kShl:
      // Raw ACC shifted, then truncated — stale bits above w shift out of
      // the mask, so no pre-mask is needed (matches the interpreter).
      if (count != 0) a_.shlRI(kRax, count);
      break;
    case IrOp::kShr:
      if (w < 32) a_.andRI(kRax, maskBits(w));
      if (count != 0) a_.shrRI(kRax, count);
      break;
    case IrOp::kSar:
      if (w < 32) {
        a_.shlRI(kRax, static_cast<uint8_t>(32 - w));
        a_.sarRI(kRax, static_cast<uint8_t>(32 - w));
      }
      if (count != 0) a_.sarRI(kRax, count);
      break;
    default: PSCP_ASSERT(false);
  }
  finishValueFlags(in, w);
}

void RoutineEmitter::emitCmp(const IrInst& in) {
  const int w = in.width;
  a_.movRR(kRax, vregReg(in.src1));
  a_.movRR(kRcx, vregReg(in.src2));
  if (w < 32) {
    a_.andRI(kRax, maskBits(w));
    a_.andRI(kRcx, maskBits(w));
  }
  a_.cmpRR(kRax, kRcx);
  if (in.setZ) a_.setccM(kCcE, kR14, kCtxFlagZ);
  if (in.setC) a_.setccM(kCcB, kR14, kCtxFlagC);
  if (in.setN) {
    if (w == 32) {
      a_.setccM(kCcL, kR14, kCtxFlagN);
    } else {
      // Signed compare at width w: sign-extend both, compare again.
      a_.shlRI(kRax, static_cast<uint8_t>(32 - w));
      a_.sarRI(kRax, static_cast<uint8_t>(32 - w));
      a_.shlRI(kRcx, static_cast<uint8_t>(32 - w));
      a_.sarRI(kRcx, static_cast<uint8_t>(32 - w));
      a_.cmpRR(kRax, kRcx);
      a_.setccM(kCcL, kR14, kCtxFlagN);
    }
  }
}

/// Taken-edge guard shared by jumps and calls: trip the configuration-cycle
/// budget on loop-capable edges (backward jumps and calls — forward
/// straight-line code is bounded by its static cost and cannot run away).
void RoutineEmitter::budgetGuard(const IrInst& in) {
  const bool loopCapable = in.op == IrOp::kCall || in.imm <= in.isa;
  if (loopCapable) {
    if (budgetFail_ < 0) budgetFail_ = a_.newLabel();
    needBudget_ = true;
    a_.cmpR64M(kR13, kR14, kCtxBudget);
    a_.jccLabel(kCcG, budgetFail_);
  }
}

void RoutineEmitter::emitBranch(const IrInst& in) {
  if (in.op == IrOp::kJump) {
    budgetGuard(in);
    a_.jmpLabel(targetLabel(in.imm));
    return;
  }
  // Conditional: test the flag byte, skip the taken path when not taken.
  int32_t flagOff = kCtxFlagZ;
  bool takenWhenSet = true;
  switch (in.op) {
    case IrOp::kJz: flagOff = kCtxFlagZ; break;
    case IrOp::kJnz: flagOff = kCtxFlagZ; takenWhenSet = false; break;
    case IrOp::kJn: flagOff = kCtxFlagN; break;
    case IrOp::kJc: flagOff = kCtxFlagC; break;
    default: PSCP_ASSERT(false);
  }
  const int skip = a_.newLabel();
  a_.cmpByteMI(kR14, flagOff, 0);
  a_.jccLabel(takenWhenSet ? kCcE : kCcNe, skip);  // inverted: fall through
  budgetGuard(in);
  a_.jmpLabel(targetLabel(in.imm));
  a_.bind(skip);
}

void RoutineEmitter::emitCall(const IrInst& in) {
  if (stackOver_ < 0) stackOver_ = a_.newLabel();
  needOver_ = true;
  const int cont = a_.newLabel();
  a_.movRM(kRax, kR14, kCtxCallDepth);
  a_.aluRI(7 /*cmp*/, kRax, 32);
  a_.jccLabel(kCcGe, stackOver_);
  a_.leaRipLabel(kRcx, cont);
  a_.movSibR64(true, kR14, kRax, kCtxCallStack, kRcx);
  a_.addRI(kRax, 1);
  a_.movMR(kR14, kCtxCallDepth, kRax);
  budgetGuard(in);
  a_.jmpLabel(targetLabel(in.imm));
  a_.bind(cont);
}

void RoutineEmitter::emitInst(const IrInst& in) {
  const uint32_t m = maskBits(in.width);
  switch (in.op) {
    case IrOp::kAddCycles:
      if (in.imm != 0) a_.addR64I(kR13, in.imm);
      break;
    case IrOp::kLoadImm:
      a_.movRI(vregReg(in.dst), static_cast<uint32_t>(in.imm));
      break;
    case IrOp::kCopy:
      if (in.dst != in.src1) a_.movRR(vregReg(in.dst), vregReg(in.src1));
      break;
    case IrOp::kMask:
      if (in.dst != in.src1) a_.movRR(vregReg(in.dst), vregReg(in.src1));
      a_.andRI(vregReg(in.dst), static_cast<uint32_t>(in.imm));
      break;
    case IrOp::kAddImm:
      if (in.dst != in.src1) a_.movRR(vregReg(in.dst), vregReg(in.src1));
      a_.addRI(vregReg(in.dst), in.imm);
      break;
    case IrOp::kAdd:
    case IrOp::kSub:
    case IrOp::kAnd:
    case IrOp::kOr:
    case IrOp::kXor:
    case IrOp::kNot:
    case IrOp::kNeg:
    case IrOp::kMul:
      emitAlu(in);
      break;
    case IrOp::kShl:
    case IrOp::kShr:
    case IrOp::kSar:
      emitShift(in);
      break;
    case IrOp::kCmp:
      emitCmp(in);
      break;
    case IrOp::kDivMod:
      emitDivMod(in);
      break;
    case IrOp::kLoad:
    case IrOp::kLoadAt: {
      const int done = a_.newLabel();
      inlineMemory(in, false, kRax, done);
      const int32_t imms[2] = {in.imm, in.imm2};
      const int regs[2] = {in.op == IrOp::kLoadAt ? vregReg(in.src1) : -1, -1};
      helperCall(reinterpret_cast<const void*>(&pscpJitLoad), 2, imms, regs);
      a_.movRM(kRax, kR14, kCtxHvalue);
      a_.bind(done);
      if (in.width < 32) a_.andRI(kRax, m);
      a_.movRR(vregReg(in.dst), kRax);
      break;
    }
    case IrOp::kStore:
    case IrOp::kStoreAt: {
      const int valueVreg = in.op == IrOp::kStoreAt ? in.src2 : in.src1;
      a_.movRR(kRdx, vregReg(valueVreg));
      if (in.width < 32) a_.andRI(kRdx, m);
      const int done = a_.newLabel();
      inlineMemory(in, true, kRdx, done);
      // The value (arg 2, edx) is already in place.
      const int32_t imms[3] = {in.imm, 0, in.imm2};
      const int regs[3] = {in.op == IrOp::kStoreAt ? vregReg(in.src1) : -1, kRdx, -1};
      helperCall(reinterpret_cast<const void*>(&pscpJitStore), 3, imms, regs);
      a_.bind(done);
      break;
    }
    case IrOp::kRegGet:
      // Lowering keeps the index inside the register file.
      PSCP_ASSERT(in.imm >= 0 && in.imm < kRegisterCount);
      a_.movRM64(kRax, kR14, kCtxRegs);
      a_.movRM(vregReg(in.dst), kRax, 4 * in.imm);
      if (in.width < 32) a_.andRI(vregReg(in.dst), m);
      break;
    case IrOp::kRegSet:
      PSCP_ASSERT(in.imm >= 0 && in.imm < kRegisterCount);
      a_.movRR(kRdx, vregReg(in.src1));
      if (in.width < 32) a_.andRI(kRdx, m);
      a_.movRM64(kRax, kR14, kCtxRegs);
      a_.movMR(kRax, 4 * in.imm, kRdx);
      break;
    case IrOp::kPortRead: {
      if (const int slot = portSlotOf(portAddresses_, in.imm); slot >= 0) {
        a_.movRM64(kRax, kR14, kCtxPorts);
        a_.movRM(vregReg(in.dst), kRax, 4 * slot);
        break;
      }
      const int32_t imms[1] = {in.imm};
      helperCall(reinterpret_cast<const void*>(&pscpJitPortRead), 1, imms, nullptr);
      // PortRead loads ACC unmasked, exactly like the interpreter.
      a_.movRM(vregReg(in.dst), kR14, kCtxHvalue);
      break;
    }
    case IrOp::kPortWrite: {
      a_.movRR(kRdx, vregReg(in.src1));
      if (in.width < 32) a_.andRI(kRdx, m);
      const int done = a_.newLabel();
      if (const int slot = portSlotOf(portAddresses_, in.imm); slot >= 0) {
        // Latched now so the routine reads back its own write; the write
        // itself happens when the replay reaches its entry.
        const int full = a_.newLabel();
        logRoom(full);
        a_.movRM64(kRcx, kR14, kCtxPorts);
        a_.movMR(kRcx, 4 * slot, kRdx);
        appendEffect(in.imm2, in.imm, kRdx, TimedEffect::Kind::kPortWrite);
        a_.jmpLabel(done);
        a_.bind(full);
      }
      const int32_t imms[3] = {in.imm, 0, in.imm2};
      const int regs[3] = {-1, kRdx, -1};
      helperCall(reinterpret_cast<const void*>(&pscpJitPortWrite), 3, imms, regs);
      a_.bind(done);
      break;
    }
    case IrOp::kEvSet: {
      const int full = a_.newLabel();
      const int done = a_.newLabel();
      logRoom(full);
      appendEffect(in.imm2, in.imm, -1, TimedEffect::Kind::kRaise);
      a_.jmpLabel(done);
      a_.bind(full);
      const int32_t imms[2] = {in.imm, in.imm2};
      helperCall(reinterpret_cast<const void*>(&pscpJitEvSet), 2, imms, nullptr);
      a_.bind(done);
      break;
    }
    case IrOp::kCondSet: {
      const int32_t imms[2] = {in.imm, in.imm2};
      helperCall(reinterpret_cast<const void*>(&pscpJitCondSet), 2, imms, nullptr);
      break;
    }
    case IrOp::kCondTest:
    case IrOp::kStateTest: {
      const int32_t imms[1] = {in.imm};
      helperCall(in.op == IrOp::kCondTest
                     ? reinterpret_cast<const void*>(&pscpJitCondTest)
                     : reinterpret_cast<const void*>(&pscpJitStateTest),
                 1, imms, nullptr);
      a_.movRM(kRax, kR14, kCtxHvalue);
      a_.movRR(vregReg(in.dst), kRax);
      if (in.setZ) {
        a_.testRR(kRax, kRax);
        a_.setccM(kCcE, kR14, kCtxFlagZ);
      }
      break;
    }
    case IrOp::kCustom: {
      const int32_t imms[3] = {in.imm, 0, 0};
      const int regs[3] = {-1, vregReg(in.src1), vregReg(in.src2)};
      helperCall(reinterpret_cast<const void*>(&pscpJitCustom), 3, imms, regs);
      a_.movRM(kRax, kR14, kCtxHvalue);
      finishValueFlags(in, in.imm2);  // flags at the chain's width
      break;
    }
    case IrOp::kJump:
    case IrOp::kJz:
    case IrOp::kJnz:
    case IrOp::kJn:
    case IrOp::kJc:
      emitBranch(in);
      break;
    case IrOp::kCall:
      emitCall(in);
      break;
    case IrOp::kRet: {
      if (stackUnder_ < 0) stackUnder_ = a_.newLabel();
      needUnder_ = true;
      a_.movRM(kRax, kR14, kCtxCallDepth);
      a_.testRR(kRax, kRax);
      a_.jccLabel(kCcE, stackUnder_);
      a_.aluRI(5 /*sub*/, kRax, 1);
      a_.movMR(kR14, kCtxCallDepth, kRax);
      a_.movSibR64(false, kR14, kRax, kCtxCallStack, kRcx);
      a_.jmpR64(kRcx);
      break;
    }
    case IrOp::kTret:
      a_.jmpLabel(exitOk_);
      break;
    case IrOp::kRunOff: {
      a_.movRR64(kRdi, kR14);
      a_.movRI(kRsi, static_cast<uint32_t>(in.imm));
      a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                           reinterpret_cast<const void*>(&pscpJitErrRunOff)));
      a_.callR64(kRax);
      a_.jmpLabel(errExit_);
      break;
    }
  }
}

EmitResult RoutineEmitter::run() {
  EmitResult res;
  exitOk_ = a_.newLabel();
  errExit_ = a_.newLabel();

  // Labels for every lowered instruction anchor.
  for (const IrInst& in : r_.code)
    if (in.op == IrOp::kAddCycles && anchorLabel_.find(in.isa) == anchorLabel_.end())
      anchorLabel_[in.isa] = a_.newLabel();
  auto entryIt = anchorLabel_.find(r_.entryIsa);
  if (entryIt == anchorLabel_.end()) {
    res.error = "entry anchor missing";
    return res;
  }

  // Prologue: pin registers, seed machine state from the context.
  a_.push(kRbx);
  a_.push(kR12);
  a_.push(kR13);
  a_.push(kR14);
  a_.push(kR15);
  a_.movRR64(kR14, kRdi);
  a_.movRM(kRbx, kR14, kCtxAcc);
  a_.movRM(kR12, kR14, kCtxOp);
  a_.xorRR(kR15, kR15);
  a_.movRM64(kR13, kR14, kCtxCycles);
  a_.jmpLabel(entryIt->second);

  for (const IrInst& in : r_.code) {
    if (in.op == IrOp::kAddCycles) a_.bind(anchorLabel_.at(in.isa));
    emitInst(in);
  }

  // Shared tails.
  const int epilogue = a_.newLabel();
  a_.bind(exitOk_);
  a_.xorRR(kRax, kRax);
  a_.jmpLabel(epilogue);
  a_.bind(errExit_);
  a_.movRI(kRax, 1);
  a_.bind(epilogue);
  a_.movRR64(kRcx, kRax);  // preserve status across the state sync
  a_.movMR(kR14, kCtxAcc, kRbx);
  a_.movMR(kR14, kCtxOp, kR12);
  a_.movMR64(kR14, kCtxCycles, kR13);
  a_.movRR64(kRax, kRcx);
  a_.pop(kR15);
  a_.pop(kR14);
  a_.pop(kR13);
  a_.pop(kR12);
  a_.pop(kRbx);
  a_.ret();

  if (needBudget_) {
    a_.bind(budgetFail_);
    a_.movRR64(kRdi, kR14);
    a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                         reinterpret_cast<const void*>(&pscpJitErrBudget)));
    a_.callR64(kRax);
    a_.jmpLabel(errExit_);
  }
  if (needOver_) {
    a_.bind(stackOver_);
    a_.movRR64(kRdi, kR14);
    a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                         reinterpret_cast<const void*>(&pscpJitErrStackOver)));
    a_.callR64(kRax);
    a_.jmpLabel(errExit_);
  }
  if (needUnder_) {
    a_.bind(stackUnder_);
    a_.movRR64(kRdi, kR14);
    a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                         reinterpret_cast<const void*>(&pscpJitErrStackUnder)));
    a_.callR64(kRax);
    a_.jmpLabel(errExit_);
  }
  // Stubs for jumps whose target is outside the program: the interpreter
  // raises "ran off" when it fetches there.
  for (const auto& [target, label] : runoffLabel_) {
    a_.bind(label);
    a_.movRR64(kRdi, kR14);
    a_.movRI(kRsi, static_cast<uint32_t>(target));
    a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                         reinterpret_cast<const void*>(&pscpJitErrRunOff)));
    a_.callR64(kRax);
    a_.jmpLabel(errExit_);
  }

  if (!a_.resolve(&res.error)) return res;
  res.code = std::move(a_.code);
  res.ok = true;
  return res;
}

}  // namespace

EmitResult emitX64(const ir::IrRoutine& routine, const std::vector<int>& portAddresses) {
  return RoutineEmitter(routine, portAddresses).run();
}

}  // namespace pscp::tep::jit

#else  // !PSCP_JIT_BACKEND

namespace pscp::tep::jit {

EmitResult emitX64(const ir::IrRoutine& routine, const std::vector<int>& portAddresses) {
  (void)routine;
  (void)portAddresses;
  EmitResult res;
  res.error = "native tier unavailable on this build";
  return res;
}

}  // namespace pscp::tep::jit

#endif
