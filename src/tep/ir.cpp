#include "tep/ir.hpp"

#include "support/bits.hpp"
#include "support/diag.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep::ir {

const char* irOpName(IrOp op) {
  switch (op) {
    case IrOp::kAddCycles: return "cycles+";
    case IrOp::kLoadImm: return "li";
    case IrOp::kCopy: return "mov";
    case IrOp::kMask: return "mask";
    case IrOp::kAddImm: return "addi";
    case IrOp::kAdd: return "add";
    case IrOp::kSub: return "sub";
    case IrOp::kAnd: return "and";
    case IrOp::kOr: return "or";
    case IrOp::kXor: return "xor";
    case IrOp::kNot: return "not";
    case IrOp::kNeg: return "neg";
    case IrOp::kMul: return "mul";
    case IrOp::kDivMod: return "divmod";
    case IrOp::kCmp: return "cmp";
    case IrOp::kShl: return "shl";
    case IrOp::kShr: return "shr";
    case IrOp::kSar: return "sar";
    case IrOp::kLoad: return "ld";
    case IrOp::kStore: return "st";
    case IrOp::kLoadAt: return "ld@";
    case IrOp::kStoreAt: return "st@";
    case IrOp::kRegGet: return "rget";
    case IrOp::kRegSet: return "rset";
    case IrOp::kPortRead: return "inp";
    case IrOp::kPortWrite: return "outp";
    case IrOp::kEvSet: return "evset";
    case IrOp::kCondSet: return "cset";
    case IrOp::kCondTest: return "ctst";
    case IrOp::kStateTest: return "stst";
    case IrOp::kCustom: return "custom";
    case IrOp::kJump: return "jmp";
    case IrOp::kJz: return "jz";
    case IrOp::kJnz: return "jnz";
    case IrOp::kJn: return "jn";
    case IrOp::kJc: return "jc";
    case IrOp::kCall: return "call";
    case IrOp::kRet: return "ret";
    case IrOp::kTret: return "tret";
    case IrOp::kRunOff: return "runoff";
  }
  return "?";
}

namespace {
const char* vregName(int v) {
  switch (v) {
    case kVregAcc: return "acc";
    case kVregOp: return "op";
    case kVregTmp: return "tmp";
    default: return "-";
  }
}
}  // namespace

std::string IrInst::str() const {
  std::string s = strfmt("%-8s", irOpName(op));
  if (dst >= 0) s += strfmt(" %s", vregName(dst));
  if (src1 >= 0) s += strfmt(" %s", vregName(src1));
  if (src2 >= 0) s += strfmt(" %s", vregName(src2));
  s += strfmt(" imm=%d", imm);
  if (imm2 != 0) s += strfmt(" imm2=%d", imm2);
  s += strfmt(" w=%d", width);
  if (setZ || setN || setC)
    s += strfmt(" [%s%s%s]", setZ ? "Z" : "", setN ? "N" : "", setC ? "C" : "");
  return s;
}

int IrRoutine::anchorOf(int target) const {
  for (size_t i = 0; i < code.size(); ++i)
    if (code[i].op == IrOp::kAddCycles && code[i].isa == target)
      return static_cast<int>(i);
  return -1;
}

std::string IrRoutine::listing() const {
  std::string out;
  for (size_t i = 0; i < code.size(); ++i) {
    const IrInst& in = code[i];
    if (in.op == IrOp::kAddCycles) out += strfmt("isa %d:\n", in.isa);
    out += strfmt("  %3zu  %s\n", i, in.str().c_str());
  }
  return out;
}

namespace {

bool fallsThrough(Opcode op) {
  // kCall "falls through" in the sense that its continuation (the next
  // instruction) is reachable via Ret.
  switch (op) {
    case Opcode::Jmp:
    case Opcode::Ret:
    case Opcode::Tret:
      return false;
    default:
      return true;
  }
}

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

struct Lowerer {
  const AsmProgram& program;
  const hwlib::ArchConfig& config;
  IrRoutine out;
  std::string reason;

  bool lower(int entry);
  void lowerInstr(int i, const Instr& in);
  void push(IrInst in) { out.code.push_back(in); }
};

bool Lowerer::lower(int entry) {
  const int size = static_cast<int>(program.code.size());
  if (entry < 0 || entry >= size) {
    reason = "entry out of range";
    return false;
  }
  // Reachability over the ISA instruction stream.
  std::vector<char> reach(static_cast<size_t>(size), 0);
  std::vector<int> work{entry};
  reach[static_cast<size_t>(entry)] = 1;
  auto visit = [&](int t) {
    if (t >= 0 && t < size && !reach[static_cast<size_t>(t)]) {
      reach[static_cast<size_t>(t)] = 1;
      work.push_back(t);
    }
  };
  while (!work.empty()) {
    const int i = work.back();
    work.pop_back();
    const Instr& in = program.code[static_cast<size_t>(i)];
    if (isBranch(in.op)) visit(in.operand);
    if (fallsThrough(in.op)) visit(i + 1);
  }

  out.entryIsa = entry;
  for (int i = 0; i < size; ++i) {
    if (!reach[static_cast<size_t>(i)]) continue;
    const Instr& in = program.code[static_cast<size_t>(i)];
    if (in.width < 1 || in.width > kMaxWidth) {
      reason = strfmt("isa %d: unsupported width %d", i, in.width);
      return false;
    }
    lowerInstr(i, in);
    if (!reason.empty()) return false;
    // Falling off the end of the program is a runtime error, raised by the
    // interpreter's beginInstruction inside the same cycle.
    if (fallsThrough(in.op) && i + 1 >= size) {
      IrInst ro;
      ro.op = IrOp::kRunOff;
      ro.imm = i + 1;
      ro.isa = i;
      push(ro);
    }
    if (static_cast<int>(out.code.size()) > kMaxIrOps) {
      reason = "routine exceeds IR size limit";
      return false;
    }
  }
  return true;
}

void Lowerer::lowerInstr(int i, const Instr& in) {
  const int w = in.width;
  const uint32_t mask = maskBits(w);
  const int bytes = (w + 7) / 8;
  const int chunks = config.chunksFor(w);
  const std::vector<MicroInstr> micro = microcodeFor(in, config);

  // Static microprogram cost, charged up front (the anchor op).
  IrInst cost;
  cost.op = IrOp::kAddCycles;
  cost.imm = static_cast<int32_t>(micro.size());
  cost.isa = i;
  push(cost);

  // The first micro-op `is` accepts, as its index minus the microprogram
  // length: the step the interpreter performs it at, relative to the cycle
  // count after the anchor charged the whole instruction (0: none).
  auto skewOf = [&](auto is) {
    size_t k = 0;
    while (k < micro.size() && !is(micro[k].op)) ++k;
    return static_cast<int32_t>(k) - cost.imm;
  };
  const int32_t lead = -skewOf(
      [](MicroOp op) { return op == MicroOp::MemRead || op == MicroOp::MemWrite; });
  const int32_t memPack = bytes | (chunks << 8) | (lead << 16);

  auto mk = [&](IrOp op) {
    IrInst n;
    n.op = op;
    n.width = static_cast<uint8_t>(w);
    n.isa = i;
    return n;
  };
  auto alu = [&](IrOp op, bool withOp, bool carry) {
    IrInst n = mk(op);
    n.dst = kVregAcc;
    n.src1 = kVregAcc;
    n.src2 = withOp ? kVregOp : -1;
    n.setZ = n.setN = true;
    n.setC = carry;
    push(n);
  };
  auto memDirect = [&](IrOp op, int reg) {
    IrInst n = mk(op);
    n.imm = in.operand;
    n.imm2 = memPack;
    if (op == IrOp::kLoad)
      n.dst = static_cast<int8_t>(reg);
    else
      n.src1 = static_cast<int8_t>(reg);
    push(n);
  };
  auto addrFromOp = [&](int32_t disp) {
    // mar = (OP & 0xFFFF) + disp, raw 32-bit wrap like the interpreter.
    IrInst m = mk(IrOp::kMask);
    m.dst = kVregTmp;
    m.src1 = kVregOp;
    m.imm = 0xFFFF;
    push(m);
    if (disp != 0) {
      IrInst a = mk(IrOp::kAddImm);
      a.dst = kVregTmp;
      a.src1 = kVregTmp;
      a.imm = disp;
      push(a);
    }
  };
  auto memIndirect = [&](bool isLoad, int32_t disp) {
    addrFromOp(disp);
    IrInst n = mk(isLoad ? IrOp::kLoadAt : IrOp::kStoreAt);
    n.src1 = kVregTmp;
    n.imm2 = memPack;
    if (isLoad)
      n.dst = kVregAcc;
    else
      n.src2 = kVregAcc;
    push(n);
  };
  auto branch = [&](IrOp op) {
    IrInst n = mk(op);
    n.imm = in.operand;
    push(n);
  };
  // Native code indexes the register file unchecked; a register outside it
  // keeps the routine on the interpreter, which reports the fault.
  auto registerInRange = [&] {
    if (in.operand >= 0 && in.operand < kRegisterCount) return true;
    reason = strfmt("isa %d: register %d outside the register file", i, in.operand);
    return false;
  };

  switch (in.op) {
    case Opcode::Nop:
      break;
    case Opcode::LdaImm:
    case Opcode::LdoImm: {
      IrInst n = mk(IrOp::kLoadImm);
      n.dst = in.op == Opcode::LdaImm ? kVregAcc : kVregOp;
      n.imm = static_cast<int32_t>(static_cast<uint32_t>(in.operand) & mask);
      push(n);
      break;
    }
    case Opcode::LdaMem: memDirect(IrOp::kLoad, kVregAcc); break;
    case Opcode::LdoMem: memDirect(IrOp::kLoad, kVregOp); break;
    case Opcode::StaMem: memDirect(IrOp::kStore, kVregAcc); break;
    case Opcode::LdaInd: memIndirect(true, 0); break;
    case Opcode::StaInd: memIndirect(false, 0); break;
    case Opcode::LdaIdx: memIndirect(true, in.operand); break;
    case Opcode::StaIdx: memIndirect(false, in.operand); break;
    case Opcode::LdaReg:
    case Opcode::LdoReg: {
      if (!registerInRange()) break;
      IrInst n = mk(IrOp::kRegGet);
      n.dst = in.op == Opcode::LdaReg ? kVregAcc : kVregOp;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::StaReg: {
      if (!registerInRange()) break;
      IrInst n = mk(IrOp::kRegSet);
      n.src1 = kVregAcc;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::Tao: {
      // AccToOp: OP = ACC & mask, no flags.
      IrInst n = mk(IrOp::kMask);
      n.dst = kVregOp;
      n.src1 = kVregAcc;
      n.imm = static_cast<int32_t>(mask);
      push(n);
      break;
    }
    case Opcode::Add: alu(IrOp::kAdd, true, true); break;
    case Opcode::Sub: alu(IrOp::kSub, true, true); break;
    case Opcode::And: alu(IrOp::kAnd, true, false); break;
    case Opcode::Or: alu(IrOp::kOr, true, false); break;
    case Opcode::Xor: alu(IrOp::kXor, true, false); break;
    case Opcode::Not: alu(IrOp::kNot, false, false); break;
    // Without a two's-complement unit the interpreter expands Neg into
    // Not+Inc chunks; the final value and Z/N are identical to the
    // one-state Neg (flags come from the final increment), so one IR op
    // covers both configurations.
    case Opcode::Neg: alu(IrOp::kNeg, false, false); break;
    case Opcode::Mul: alu(IrOp::kMul, true, false); break;
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Divu:
    case Opcode::Modu: {
      IrInst n = mk(IrOp::kDivMod);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.signedOp = in.op == Opcode::Div || in.op == Opcode::Mod;
      n.isDiv = in.op == Opcode::Div || in.op == Opcode::Divu;
      n.setZ = n.setN = true;
      n.imm = i;  // ISA pc for the division-by-zero diagnostic
      push(n);
      break;
    }
    case Opcode::Cmp: {
      IrInst n = mk(IrOp::kCmp);
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.setZ = n.setN = n.setC = true;
      push(n);
      break;
    }
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Sar: {
      IrInst n = mk(in.op == Opcode::Shl   ? IrOp::kShl
                    : in.op == Opcode::Shr ? IrOp::kShr
                                           : IrOp::kSar);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.imm = in.operand;
      n.setZ = n.setN = true;
      push(n);
      break;
    }
    case Opcode::Jmp: branch(IrOp::kJump); break;
    case Opcode::Jz: branch(IrOp::kJz); break;
    case Opcode::Jnz: branch(IrOp::kJnz); break;
    case Opcode::Jn: branch(IrOp::kJn); break;
    case Opcode::Jc: branch(IrOp::kJc); break;
    case Opcode::Call: {
      branch(IrOp::kCall);
      out.hasCalls = true;
      break;
    }
    case Opcode::Ret: push(mk(IrOp::kRet)); break;
    case Opcode::Inp: {
      IrInst n = mk(IrOp::kPortRead);
      n.dst = kVregAcc;
      n.imm = in.operand;
      push(n);
      break;
    }
    case Opcode::Outp: {
      IrInst n = mk(IrOp::kPortWrite);
      n.src1 = kVregAcc;
      n.imm = in.operand;
      n.imm2 = skewOf([](MicroOp op) { return op == MicroOp::PortWrite; });
      push(n);
      break;
    }
    case Opcode::EvSet: {
      IrInst n = mk(IrOp::kEvSet);
      n.imm = in.operand;
      n.imm2 = skewOf([](MicroOp op) { return op == MicroOp::EvSet; });
      push(n);
      break;
    }
    case Opcode::CSet:
    case Opcode::CClr: {
      IrInst n = mk(IrOp::kCondSet);
      n.imm = in.operand;
      n.imm2 = in.op == Opcode::CSet ? 1 : 0;
      push(n);
      break;
    }
    case Opcode::CTst:
    case Opcode::STst: {
      IrInst n = mk(in.op == Opcode::CTst ? IrOp::kCondTest : IrOp::kStateTest);
      n.dst = kVregAcc;
      n.imm = in.operand;
      n.setZ = true;
      push(n);
      break;
    }
    case Opcode::Tret: push(mk(IrOp::kTret)); break;
    case Opcode::Custom: {
      if (in.operand < 0 ||
          static_cast<size_t>(in.operand) >= config.customInstructions.size()) {
        reason = strfmt("isa %d: custom index %d out of range", i, in.operand);
        return;
      }
      IrInst n = mk(IrOp::kCustom);
      n.dst = kVregAcc;
      n.src1 = kVregAcc;
      n.src2 = kVregOp;
      n.imm = in.operand;
      n.imm2 = config.customInstructions[static_cast<size_t>(in.operand)].width;
      n.setZ = n.setN = true;
      push(n);
      break;
    }
  }
}

}  // namespace

LowerResult lowerRoutine(const AsmProgram& program, int entry,
                         const hwlib::ArchConfig& config) {
  LowerResult res;
  Lowerer l{program, config, {}, {}};
  if (!l.lower(entry)) {
    res.reason = l.reason.empty() ? "lowering failed" : l.reason;
    return res;
  }
  res.routine = std::move(l.out);
  res.ok = true;
  return res;
}

}  // namespace pscp::tep::ir
