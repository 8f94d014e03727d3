#include "tep/jit/emit_x64.hpp"

#include <map>

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/runtime.hpp"
#include "tep/microcode.hpp"

#if PSCP_JIT_BACKEND

namespace pscp::tep::jit {

namespace {

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

/// Whether `op` transfers control to the instruction index in its operand.
bool isBranch(Opcode op) {
  switch (op) {
    case Opcode::Jmp:
    case Opcode::Jz:
    case Opcode::Jnz:
    case Opcode::Jn:
    case Opcode::Jc:
    case Opcode::Call:
      return true;
    default:
      return false;
  }
}

/// Whether the next instruction can run after `op`: everything but Jmp,
/// Ret and Tret (a Call's continuation is reached through its Ret).
bool fallsThrough(Opcode op) {
  return op != Opcode::Jmp && op != Opcode::Ret && op != Opcode::Tret;
}

/// Why the native tier does not take instruction `i`, or "" when it does.
std::string unsupported(int i, const Instr& in, const hwlib::ArchConfig& config) {
  if (in.width < 1 || in.width > kMaxWidth)
    return strfmt("isa %d: unsupported width %d", i, in.width);
  switch (in.op) {
    case Opcode::LdaReg:
    case Opcode::LdoReg:
    case Opcode::StaReg:
      // Native code indexes the register file unchecked; a register outside
      // it keeps the routine on the interpreter, which reports the fault.
      if (in.operand < 0 || in.operand >= kRegisterCount)
        return strfmt("isa %d: register %d outside the register file", i, in.operand);
      break;
    case Opcode::Custom:
      if (in.operand < 0 ||
          static_cast<size_t>(in.operand) >= config.customInstructions.size())
        return strfmt("isa %d: custom index %d out of range", i, in.operand);
      break;
    default:
      break;
  }
  return {};
}

/// A data-memory access: at the static address `addr`, or at the address
/// in r15 when `dynamic`. `pack` is totalBytes | chunks<<8 | lead<<16, lead
/// being the micro-ops from the first memory micro-op to the instruction's
/// end.
struct MemRef {
  bool dynamic;
  int32_t addr;
  int32_t pack;
};

class RoutineEmitter {
 public:
  RoutineEmitter(const AsmProgram& program, const hwlib::ArchConfig& config,
                 const std::vector<int>& portAddresses)
      : program_(program), config_(config), portAddresses_(portAddresses) {}

  EmitResult run(int entry);

 private:
  const AsmProgram& program_;
  const hwlib::ArchConfig& config_;
  const std::vector<int>& portAddresses_;
  Asm a_;
  std::vector<int> isaLabel_;       ///< ISA index -> label (-1: unreachable)
  std::map<int, int> runoffLabel_;  ///< invalid target -> stub label
  int exitOk_ = -1, errExit_ = -1, budgetFail_ = -1, stackOver_ = -1,
      stackUnder_ = -1;
  bool needBudget_ = false, needOver_ = false, needUnder_ = false;

  int targetLabel(int isaTarget);
  void helperCall(const void* fn, int nargs, const int32_t* immArgs,
                  const int* regArgs);
  void finishValueFlags(int w);
  void logRoom(int full);
  void appendEffect(int32_t stepOffset, int32_t arg, int valueReg, TimedEffect::Kind kind);
  void inlineMemory(const MemRef& m, bool store, int r, int done);
  void emitLoad(const MemRef& m, int w, int dst);
  void emitStore(const MemRef& m, int w);
  void emitInstr(int i, const Instr& in);
  void emitAlu(Opcode op, int w);
  void emitDivMod(Opcode op, int w, int isa);
  void emitShift(Opcode op, int w, int32_t count);
  void emitCmp(int w);
  void emitBranch(Opcode op, int target, int isa);
  void emitCall(int target);
  void emitRunOff(int pc);
  void budgetGuard(bool loopCapable);
};

int RoutineEmitter::targetLabel(int isaTarget) {
  if (isaTarget >= 0 && isaTarget < static_cast<int>(isaLabel_.size()) &&
      isaLabel_[static_cast<size_t>(isaTarget)] >= 0)
    return isaLabel_[static_cast<size_t>(isaTarget)];
  auto [it, inserted] = runoffLabel_.try_emplace(isaTarget, -1);
  if (inserted) it->second = a_.newLabel();
  return it->second;
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

/// Mask eax to `w` bits, store Z and N from it and move it into ACC. ZF/SF
/// come from the masking AND (or a TEST at full width); N for narrow
/// widths reads bit w-1 via BT.
void RoutineEmitter::finishValueFlags(int w) {
  if (w < 32)
    a_.andRI(kRax, maskBits(w));
  else
    a_.testRR(kRax, kRax);
  a_.setccM(kCcE, kR14, kCtxFlagZ);
  if (w == 32) {
    a_.setccM(kCcS, kR14, kCtxFlagN);
  } else {
    a_.btRI(kRax, static_cast<uint8_t>(w - 1));
    a_.setccM(kCcB, kR14, kCtxFlagN);
  }
  a_.movRR(kRbx, kRax);
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
void RoutineEmitter::inlineMemory(const MemRef& m, bool store, int r, int done) {
  const int bytes = m.pack & 0xFF;
  if (bytes != 1 && bytes != 2 && bytes != 4) return;
  const bool internal = m.dynamic || (m.addr >= 0 && m.addr <= kExternalBase - bytes);
  const bool external =
      m.dynamic || (m.addr >= kExternalBase && m.addr <= kExternalBase + kExternalSize - bytes);
  if (!internal && !external) return;
  const int slow = a_.newLabel();
  if (internal) {
    const int miss = m.dynamic ? a_.newLabel() : slow;
    if (m.dynamic) {
      // Zero-extended, a negative address is far above any bank size.
      a_.movRR(kRax, kR15);
      a_.addR64I(kRax, bytes);
      a_.cmpR64M(kRax, kR14, kCtxInternalSize);
      a_.jccLabel(kCcA, miss);
    } else {
      a_.cmpM64I(kR14, kCtxInternalSize, m.addr + bytes);
      a_.jccLabel(kCcB, miss);
    }
    a_.movRM64(kRcx, kR14, kCtxInternal);
    a_.movCell(store, bytes, r, kRcx, m.dynamic ? kR15 : -1, m.dynamic ? 0 : m.addr);
    a_.jmpLabel(done);
    if (m.dynamic) a_.bind(miss);
  }
  if (external) {
    if (m.dynamic) {
      // Below kExternalBase the 32-bit difference wraps far above any size.
      a_.movRR(kRax, kR15);
      a_.addRI(kRax, -kExternalBase);
      a_.addR64I(kRax, bytes);
      a_.cmpR64M(kRax, kR14, kCtxExternalSize);
      a_.jccLabel(kCcA, slow);
    } else {
      a_.cmpM64I(kR14, kCtxExternalSize, m.addr - kExternalBase + bytes);
      a_.jccLabel(kCcB, slow);
    }
    const int chunks = (m.pack >> 8) & 0xFF;
    const int lead = (m.pack >> 16) & 0xFF;
    const int unlogged = a_.newLabel();
    a_.cmpByteMI(kR14, kCtxLogBus, 0);
    a_.jccLabel(kCcE, unlogged);
    logRoom(slow);
    appendEffect(-lead, 2 * chunks, -1, TimedEffect::Kind::kBus);
    a_.bind(unlogged);
    a_.movRM64(kRcx, kR14, kCtxExternal);
    a_.movCell(store, bytes, r, kRcx, m.dynamic ? kR15 : -1,
               m.dynamic ? -kExternalBase : m.addr - kExternalBase);
    a_.addR64I(kR13, chunks);
    a_.jmpLabel(done);
  }
  a_.bind(slow);
}

/// dst = mem[..] masked to `w` bits.
void RoutineEmitter::emitLoad(const MemRef& m, int w, int dst) {
  const int done = a_.newLabel();
  inlineMemory(m, false, kRax, done);
  const int32_t imms[2] = {m.addr, m.pack};
  const int regs[2] = {m.dynamic ? kR15 : -1, -1};
  helperCall(reinterpret_cast<const void*>(&pscpJitLoad), 2, imms, regs);
  a_.movRM(kRax, kR14, kCtxHvalue);
  a_.bind(done);
  if (w < 32) a_.andRI(kRax, maskBits(w));
  a_.movRR(dst, kRax);
}

/// mem[..] = ACC masked to `w` bits.
void RoutineEmitter::emitStore(const MemRef& m, int w) {
  a_.movRR(kRdx, kRbx);
  if (w < 32) a_.andRI(kRdx, maskBits(w));
  const int done = a_.newLabel();
  inlineMemory(m, true, kRdx, done);
  // The value (arg 2, edx) is already in place.
  const int32_t imms[3] = {m.addr, 0, m.pack};
  const int regs[3] = {m.dynamic ? kR15 : -1, kRdx, -1};
  helperCall(reinterpret_cast<const void*>(&pscpJitStore), 3, imms, regs);
  a_.bind(done);
}

/// ACC = op(ACC[, OP]) at `w` bits, with Z and N, and C for Add and Sub.
void RoutineEmitter::emitAlu(Opcode op, int w) {
  const uint32_t m = maskBits(w);
  const bool carry = op == Opcode::Add || op == Opcode::Sub;
  a_.movRR(kRax, kRbx);
  if (op != Opcode::Not && op != Opcode::Neg) a_.movRR(kRcx, kR12);
  if (carry && w < 32) {
    a_.andRI(kRax, m);
    a_.andRI(kRcx, m);
  }
  switch (op) {
    case Opcode::Add: a_.addRR(kRax, kRcx); break;
    case Opcode::Sub: a_.subRR(kRax, kRcx); break;
    case Opcode::And: a_.andRR(kRax, kRcx); break;
    case Opcode::Or: a_.orRR(kRax, kRcx); break;
    case Opcode::Xor: a_.xorRR(kRax, kRcx); break;
    case Opcode::Not: a_.notR(kRax); break;
    // Without a two's-complement unit the interpreter expands Neg into
    // Not+Inc chunks; the final value and Z/N are identical to the
    // one-state Neg (flags come from the final increment).
    case Opcode::Neg: a_.negR(kRax); break;
    case Opcode::Mul: a_.imulRR(kRax, kRcx); break;
    default: PSCP_ASSERT(false);
  }
  if (carry) {
    // Interpreter carry: Add -> carry out of the w-bit sum of masked
    // operands (bit w of the 32-bit sum, which cannot carry past bit w+1
    // for w < 32); Sub -> unsigned borrow, which with masked operands is
    // exactly the host CF.
    if (op == Opcode::Sub || w == 32) {
      a_.setccM(kCcB, kR14, kCtxFlagC);
    } else {
      a_.btRI(kRax, static_cast<uint8_t>(w));
      a_.setccM(kCcB, kR14, kCtxFlagC);
    }
  }
  finishValueFlags(w);
}

/// Division in place at every width, on the operands masked (unsigned) or
/// sign-extended (signed) to the width. A masked zero divisor, and
/// INT32_MIN / -1 at width 32 (the host instruction traps), take the
/// helper, which raises the interpreter's diagnostic (naming ISA pc `isa`)
/// or wraps.
void RoutineEmitter::emitDivMod(Opcode op, int w, int isa) {
  const bool signedOp = op == Opcode::Div || op == Opcode::Mod;
  const bool isDiv = op == Opcode::Div || op == Opcode::Divu;
  const int slow = a_.newLabel();
  const int done = a_.newLabel();
  a_.movRR(kRax, kRbx);
  a_.movRR(kRcx, kR12);
  if (w < 32)
    a_.andRI(kRcx, maskBits(w));
  else
    a_.testRR(kRcx, kRcx);
  a_.jccLabel(kCcE, slow);
  if (signedOp) {
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
  if (!isDiv) a_.movRR(kRax, kRdx);
  a_.jmpLabel(done);
  a_.bind(slow);
  const int32_t packed = w | (signedOp ? 1 << 8 : 0) | (isDiv ? 1 << 9 : 0);
  const int32_t imms[4] = {0, 0, packed, isa};
  const int regs[4] = {kRbx, kR12, -1, -1};
  helperCall(reinterpret_cast<const void*>(&pscpJitDivMod), 4, imms, regs);
  a_.movRM(kRax, kR14, kCtxHvalue);
  a_.bind(done);
  finishValueFlags(w);
}

void RoutineEmitter::emitShift(Opcode op, int w, int32_t count) {
  const auto n = static_cast<uint8_t>(count & 31);
  a_.movRR(kRax, kRbx);
  switch (op) {
    case Opcode::Shl:
      // Raw ACC shifted, then truncated — stale bits above w shift out of
      // the mask, so no pre-mask is needed (matches the interpreter).
      if (n != 0) a_.shlRI(kRax, n);
      break;
    case Opcode::Shr:
      if (w < 32) a_.andRI(kRax, maskBits(w));
      if (n != 0) a_.shrRI(kRax, n);
      break;
    case Opcode::Sar:
      if (w < 32) {
        a_.shlRI(kRax, static_cast<uint8_t>(32 - w));
        a_.sarRI(kRax, static_cast<uint8_t>(32 - w));
      }
      if (n != 0) a_.sarRI(kRax, n);
      break;
    default: PSCP_ASSERT(false);
  }
  finishValueFlags(w);
}

/// Flags only: Z = (ACC == OP), C = unsigned <, N = signed <, at `w` bits.
void RoutineEmitter::emitCmp(int w) {
  a_.movRR(kRax, kRbx);
  a_.movRR(kRcx, kR12);
  if (w < 32) {
    a_.andRI(kRax, maskBits(w));
    a_.andRI(kRcx, maskBits(w));
  }
  a_.cmpRR(kRax, kRcx);
  a_.setccM(kCcE, kR14, kCtxFlagZ);
  a_.setccM(kCcB, kR14, kCtxFlagC);
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

/// Taken-edge guard shared by jumps and calls: trip the configuration-cycle
/// budget on loop-capable edges (backward jumps and calls — forward
/// straight-line code is bounded by its static cost and cannot run away).
void RoutineEmitter::budgetGuard(bool loopCapable) {
  if (!loopCapable) return;
  if (budgetFail_ < 0) budgetFail_ = a_.newLabel();
  needBudget_ = true;
  a_.cmpR64M(kR13, kR14, kCtxBudget);
  a_.jccLabel(kCcG, budgetFail_);
}

void RoutineEmitter::emitBranch(Opcode op, int target, int isa) {
  if (op == Opcode::Jmp) {
    budgetGuard(target <= isa);
    a_.jmpLabel(targetLabel(target));
    return;
  }
  // Conditional: test the flag byte, skip the taken path when not taken.
  int32_t flagOff = kCtxFlagZ;
  bool takenWhenSet = true;
  switch (op) {
    case Opcode::Jz: flagOff = kCtxFlagZ; break;
    case Opcode::Jnz: flagOff = kCtxFlagZ; takenWhenSet = false; break;
    case Opcode::Jn: flagOff = kCtxFlagN; break;
    case Opcode::Jc: flagOff = kCtxFlagC; break;
    default: PSCP_ASSERT(false);
  }
  const int skip = a_.newLabel();
  a_.cmpByteMI(kR14, flagOff, 0);
  a_.jccLabel(takenWhenSet ? kCcE : kCcNe, skip);  // inverted: fall through
  budgetGuard(target <= isa);
  a_.jmpLabel(targetLabel(target));
  a_.bind(skip);
}

void RoutineEmitter::emitCall(int target) {
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
  budgetGuard(true);
  a_.jmpLabel(targetLabel(target));
  a_.bind(cont);
}

/// "PC `pc` ran off the program", as the interpreter raises it when it
/// fetches there.
void RoutineEmitter::emitRunOff(int pc) {
  a_.movRR64(kRdi, kR14);
  a_.movRI(kRsi, static_cast<uint32_t>(pc));
  a_.movRI64(kRax, reinterpret_cast<uint64_t>(
                       reinterpret_cast<const void*>(&pscpJitErrRunOff)));
  a_.callR64(kRax);
  a_.jmpLabel(errExit_);
}

/// Instruction `i`: its whole microprogram's length charged up front, then
/// its effect, each timed effect offset to the step of its micro-op.
void RoutineEmitter::emitInstr(int i, const Instr& in) {
  const int w = in.width;
  const uint32_t m = maskBits(w);
  const std::vector<MicroInstr> micro = microcodeFor(in, config_);
  const auto cost = static_cast<int32_t>(micro.size());
  if (cost != 0) a_.addR64I(kR13, cost);

  // The first micro-op `is` accepts, as its index minus the microprogram
  // length: the step the interpreter performs it at, relative to the cycle
  // count after the charge (0: none).
  auto skewOf = [&](auto is) {
    size_t k = 0;
    while (k < micro.size() && !is(micro[k].op)) ++k;
    return static_cast<int32_t>(k) - cost;
  };
  auto access = [&](bool dynamic, int32_t addr) {
    const int32_t lead = -skewOf(
        [](MicroOp op) { return op == MicroOp::MemRead || op == MicroOp::MemWrite; });
    return MemRef{dynamic, addr, ((w + 7) / 8) | (config_.chunksFor(w) << 8) | (lead << 16)};
  };
  // mar = (OP & 0xFFFF) + disp in r15, raw 32-bit wrap like the interpreter.
  auto addressFromOp = [&](int32_t disp) {
    a_.movRR(kR15, kR12);
    a_.andRI(kR15, 0xFFFF);
    if (disp != 0) a_.addRI(kR15, disp);
    return access(true, 0);
  };

  switch (in.op) {
    case Opcode::Nop:
      break;
    case Opcode::LdaImm:
    case Opcode::LdoImm:
      a_.movRI(in.op == Opcode::LdaImm ? kRbx : kR12, static_cast<uint32_t>(in.operand) & m);
      break;
    case Opcode::LdaMem: emitLoad(access(false, in.operand), w, kRbx); break;
    case Opcode::LdoMem: emitLoad(access(false, in.operand), w, kR12); break;
    case Opcode::StaMem: emitStore(access(false, in.operand), w); break;
    case Opcode::LdaInd: emitLoad(addressFromOp(0), w, kRbx); break;
    case Opcode::StaInd: emitStore(addressFromOp(0), w); break;
    case Opcode::LdaIdx: emitLoad(addressFromOp(in.operand), w, kRbx); break;
    case Opcode::StaIdx: emitStore(addressFromOp(in.operand), w); break;
    case Opcode::LdaReg:
    case Opcode::LdoReg: {
      const int dst = in.op == Opcode::LdaReg ? kRbx : kR12;
      a_.movRM64(kRax, kR14, kCtxRegs);
      a_.movRM(dst, kRax, 4 * in.operand);
      if (w < 32) a_.andRI(dst, m);
      break;
    }
    case Opcode::StaReg:
      a_.movRR(kRdx, kRbx);
      if (w < 32) a_.andRI(kRdx, m);
      a_.movRM64(kRax, kR14, kCtxRegs);
      a_.movMR(kRax, 4 * in.operand, kRdx);
      break;
    case Opcode::Tao:  // OP = ACC & mask, no flags
      a_.movRR(kR12, kRbx);
      a_.andRI(kR12, m);
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Not:
    case Opcode::Neg:
    case Opcode::Mul:
      emitAlu(in.op, w);
      break;
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Divu:
    case Opcode::Modu:
      emitDivMod(in.op, w, i);
      break;
    case Opcode::Cmp:
      emitCmp(w);
      break;
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Sar:
      emitShift(in.op, w, in.operand);
      break;
    case Opcode::Jmp:
    case Opcode::Jz:
    case Opcode::Jnz:
    case Opcode::Jn:
    case Opcode::Jc:
      emitBranch(in.op, in.operand, i);
      break;
    case Opcode::Call:
      emitCall(in.operand);
      break;
    case Opcode::Ret:
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
    case Opcode::Inp: {
      if (const int slot = portSlotOf(portAddresses_, in.operand); slot >= 0) {
        a_.movRM64(kRax, kR14, kCtxPorts);
        a_.movRM(kRbx, kRax, 4 * slot);
        break;
      }
      const int32_t imms[1] = {in.operand};
      helperCall(reinterpret_cast<const void*>(&pscpJitPortRead), 1, imms, nullptr);
      // PortRead loads ACC unmasked, exactly like the interpreter.
      a_.movRM(kRbx, kR14, kCtxHvalue);
      break;
    }
    case Opcode::Outp: {
      const int32_t skew = skewOf([](MicroOp op) { return op == MicroOp::PortWrite; });
      a_.movRR(kRdx, kRbx);
      if (w < 32) a_.andRI(kRdx, m);
      const int done = a_.newLabel();
      if (const int slot = portSlotOf(portAddresses_, in.operand); slot >= 0) {
        // Latched now so the routine reads back its own write; the write
        // itself happens when the replay reaches its entry.
        const int full = a_.newLabel();
        logRoom(full);
        a_.movRM64(kRcx, kR14, kCtxPorts);
        a_.movMR(kRcx, 4 * slot, kRdx);
        appendEffect(skew, in.operand, kRdx, TimedEffect::Kind::kPortWrite);
        a_.jmpLabel(done);
        a_.bind(full);
      }
      const int32_t imms[3] = {in.operand, 0, skew};
      const int regs[3] = {-1, kRdx, -1};
      helperCall(reinterpret_cast<const void*>(&pscpJitPortWrite), 3, imms, regs);
      a_.bind(done);
      break;
    }
    case Opcode::EvSet: {
      const int32_t skew = skewOf([](MicroOp op) { return op == MicroOp::EvSet; });
      const int full = a_.newLabel();
      const int done = a_.newLabel();
      logRoom(full);
      appendEffect(skew, in.operand, -1, TimedEffect::Kind::kRaise);
      a_.jmpLabel(done);
      a_.bind(full);
      const int32_t imms[2] = {in.operand, skew};
      helperCall(reinterpret_cast<const void*>(&pscpJitEvSet), 2, imms, nullptr);
      a_.bind(done);
      break;
    }
    case Opcode::CSet:
    case Opcode::CClr: {
      const int32_t imms[2] = {in.operand, in.op == Opcode::CSet ? 1 : 0};
      helperCall(reinterpret_cast<const void*>(&pscpJitCondSet), 2, imms, nullptr);
      break;
    }
    case Opcode::CTst:
    case Opcode::STst: {  // ACC = 1 when set, else 0; Z = !ACC
      const int32_t imms[1] = {in.operand};
      helperCall(in.op == Opcode::CTst ? reinterpret_cast<const void*>(&pscpJitCondTest)
                                       : reinterpret_cast<const void*>(&pscpJitStateTest),
                 1, imms, nullptr);
      a_.movRM(kRax, kR14, kCtxHvalue);
      a_.movRR(kRbx, kRax);
      a_.testRR(kRax, kRax);
      a_.setccM(kCcE, kR14, kCtxFlagZ);
      break;
    }
    case Opcode::Tret:
      a_.jmpLabel(exitOk_);
      break;
    case Opcode::Custom: {
      const int32_t imms[3] = {in.operand, 0, 0};
      const int regs[3] = {-1, kRbx, kR12};
      helperCall(reinterpret_cast<const void*>(&pscpJitCustom), 3, imms, regs);
      a_.movRM(kRax, kR14, kCtxHvalue);
      // Flags at the chain's width.
      finishValueFlags(config_.customInstructions[static_cast<size_t>(in.operand)].width);
      break;
    }
  }
}

EmitResult RoutineEmitter::run(int entry) {
  EmitResult res;
  const int size = static_cast<int>(program_.code.size());
  if (entry < 0 || entry >= size) {
    res.error = "entry out of range";
    return res;
  }
  // Reachability over the ISA instruction stream; every reachable
  // instruction gets its label up front so forward branches resolve.
  isaLabel_.assign(static_cast<size_t>(size), -1);
  std::vector<int> work;
  int reachable = 0;
  auto visit = [&](int t) {
    if (t >= 0 && t < size && isaLabel_[static_cast<size_t>(t)] < 0) {
      isaLabel_[static_cast<size_t>(t)] = a_.newLabel();
      work.push_back(t);
      ++reachable;
    }
  };
  visit(entry);
  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    const Instr& in = program_.code[static_cast<size_t>(i)];
    if (isBranch(in.op)) visit(in.operand);
    if (fallsThrough(in.op)) visit(i + 1);
  }
  if (reachable > kMaxRoutineInstrs) {
    res.error = strfmt("routine of %d instructions exceeds the size limit of %d",
                       reachable, kMaxRoutineInstrs);
    return res;
  }
  exitOk_ = a_.newLabel();
  errExit_ = a_.newLabel();

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
  a_.jmpLabel(isaLabel_[static_cast<size_t>(entry)]);

  for (int i = 0; i < size; ++i) {
    if (isaLabel_[static_cast<size_t>(i)] < 0) continue;
    const Instr& in = program_.code[static_cast<size_t>(i)];
    res.error = unsupported(i, in, config_);
    if (!res.error.empty()) return res;
    a_.bind(isaLabel_[static_cast<size_t>(i)]);
    emitInstr(i, in);
    // Falling off the end of the program is a runtime error, raised by the
    // interpreter's beginInstruction inside the same cycle.
    if (fallsThrough(in.op) && i + 1 >= size) emitRunOff(i + 1);
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
    emitRunOff(target);
  }

  if (!a_.resolve(&res.error)) return res;
  res.code = std::move(a_.code);
  res.ok = true;
  return res;
}

}  // namespace

EmitResult emitX64(const AsmProgram& program, int entry, const hwlib::ArchConfig& config,
                   const std::vector<int>& portAddresses) {
  return RoutineEmitter(program, config, portAddresses).run(entry);
}

}  // namespace pscp::tep::jit

#else  // !PSCP_JIT_BACKEND

namespace pscp::tep::jit {

EmitResult emitX64(const AsmProgram& program, int entry, const hwlib::ArchConfig& config,
                   const std::vector<int>& portAddresses) {
  (void)program;
  (void)entry;
  (void)config;
  (void)portAddresses;
  EmitResult res;
  res.error = "native tier unavailable on this build";
  return res;
}

}  // namespace pscp::tep::jit

#endif
