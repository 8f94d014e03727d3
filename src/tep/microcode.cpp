#include "tep/microcode.hpp"

namespace pscp::tep {

int32_t packAlu(AluSub sub, int chunk, bool last) {
  return static_cast<int32_t>(sub) | (chunk << 8) | (last ? (1 << 15) : 0);
}

void unpackAlu(int32_t arg, AluSub& sub, int& chunk, bool& last) {
  sub = static_cast<AluSub>(arg & 0xFF);
  chunk = (arg >> 8) & 0x7F;
  last = (arg & (1 << 15)) != 0;
}

namespace {

/// Iteration cost factors for the microcoded (no-M/D-unit) multiply and
/// divide: shift-add/shift-subtract loops take a few states per operand
/// bit. These constants set the space/time cliff that Table 4 shows when
/// the M/D unit is added.
constexpr int kMulStepsPerBit = 3;
constexpr int kDivStepsPerBit = 4;
/// The hardware M/D unit is an iterative (multi-cycle) unit: 2 bits/cycle.
constexpr int kHwMulDivBitsPerCycle = 2;

void emitAluChunks(std::vector<MicroInstr>& u, AluSub sub, int chunks) {
  for (int c = 0; c < chunks; ++c)
    u.push_back({MicroOp::AluChunk, packAlu(sub, c, c == chunks - 1)});
}

}  // namespace

std::vector<MicroInstr> microcodeFor(const Instr& instr, const hwlib::ArchConfig& config) {
  const int chunks = config.chunksFor(instr.width);
  std::vector<MicroInstr> u;
  // The fetch state doubles as dispatch: the opcode field indexes the
  // microprogram ROM directly (the "next microinstruction address" of
  // Table 1), so there is no separate decode cycle. The pipelined TEP
  // (paper Sec. 6, future work) prefetches during the previous
  // instruction's execution and only pays the fetch state after control
  // transfers, which flush the prefetch.
  const bool flushesPrefetch = [&] {
    switch (instr.op) {
      case Opcode::Jmp:
      case Opcode::Jz:
      case Opcode::Jnz:
      case Opcode::Jn:
      case Opcode::Jc:
      case Opcode::Call:
      case Opcode::Ret:
        return true;
      default:
        return false;
    }
  }();
  if (!config.pipelinedFetch || flushesPrefetch) u.push_back({MicroOp::IFetch, 0});
  if (hasOperandWord(instr.op)) u.push_back({MicroOp::IFetchOp, 0});

  switch (instr.op) {
    case Opcode::Nop:
      u.push_back({MicroOp::CostOnly, 0});
      break;

    // ------------------------------------------------------------ loads
    case Opcode::LdaImm: {
      // Immediates arrive over the program bus one datapath word at a time.
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::AccLoadImm, c});
      break;
    }
    case Opcode::LdoImm: {
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::OpLoadImm, c});
      break;
    }
    case Opcode::LdaMem: {
      // The operand word latches straight into MAR during its fetch state,
      // so no separate MAR-load state is needed.
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemRead, c});
      u.push_back({MicroOp::MdrToAcc, 0});
      break;
    }
    case Opcode::LdoMem: {
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemRead, c});
      u.push_back({MicroOp::MdrToOp, 0});
      break;
    }
    case Opcode::StaMem: {
      u.push_back({MicroOp::AccToMdr, 0});
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemWrite, c});
      break;
    }
    case Opcode::LdaInd: {
      // OP drives the address bus (indexed access).
      u.push_back({MicroOp::MarFromOp, 0});
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemRead, c});
      u.push_back({MicroOp::MdrToAcc, 0});
      break;
    }
    case Opcode::StaInd: {
      u.push_back({MicroOp::MarFromOp, 0});
      u.push_back({MicroOp::AccToMdr, 0});
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemWrite, c});
      break;
    }
    case Opcode::LdaIdx: {
      u.push_back({MicroOp::MarFromOpDisp, instr.operand});
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemRead, c});
      u.push_back({MicroOp::MdrToAcc, 0});
      break;
    }
    case Opcode::StaIdx: {
      u.push_back({MicroOp::MarFromOpDisp, instr.operand});
      u.push_back({MicroOp::AccToMdr, 0});
      for (int c = 0; c < chunks; ++c) u.push_back({MicroOp::MemWrite, c});
      break;
    }
    case Opcode::Tao:
      u.push_back({MicroOp::AccToOp, 0});
      break;
    case Opcode::LdaReg:
      u.push_back({MicroOp::RegToAcc, instr.operand});
      break;
    case Opcode::LdoReg:
      u.push_back({MicroOp::RegToOp, instr.operand});
      break;
    case Opcode::StaReg:
      u.push_back({MicroOp::AccToReg, instr.operand});
      break;

    // -------------------------------------------------------------- ALU
    case Opcode::Add: emitAluChunks(u, AluSub::Add, chunks); break;
    case Opcode::Sub: emitAluChunks(u, AluSub::Sub, chunks); break;
    case Opcode::And: emitAluChunks(u, AluSub::And, chunks); break;
    case Opcode::Or: emitAluChunks(u, AluSub::Or, chunks); break;
    case Opcode::Xor: emitAluChunks(u, AluSub::Xor, chunks); break;
    case Opcode::Not: emitAluChunks(u, AluSub::Not, chunks); break;
    case Opcode::Neg: {
      if (config.hasTwosComplement) {
        // Dedicated two's-complement unit: one state regardless of width
        // (pattern optimization "x = -x" from Sec. 4).
        u.push_back({MicroOp::AluChunk, packAlu(AluSub::Neg, 0, true)});
      } else {
        // Complement then increment, chunked.
        emitAluChunks(u, AluSub::Not, chunks);
        emitAluChunks(u, AluSub::Inc, chunks);
      }
      break;
    }
    case Opcode::Mul: {
      if (config.hasMulDiv) {
        const int steps = (instr.width + kHwMulDivBitsPerCycle - 1) / kHwMulDivBitsPerCycle;
        for (int i = 0; i < steps - 1; ++i) u.push_back({MicroOp::MulStep, 0});
        u.push_back({MicroOp::MulExec, 0});
      } else {
        const int steps = instr.width * kMulStepsPerBit;
        for (int i = 0; i < steps - 1; ++i) u.push_back({MicroOp::MulStep, 0});
        u.push_back({MicroOp::MulExec, 0});
      }
      break;
    }
    case Opcode::Div:
    case Opcode::Mod:
    case Opcode::Divu:
    case Opcode::Modu: {
      const MicroOp fin = (instr.op == Opcode::Div || instr.op == Opcode::Divu)
                              ? MicroOp::DivExec
                              : MicroOp::ModExec;
      if (config.hasMulDiv) {
        const int steps = (instr.width + kHwMulDivBitsPerCycle - 1) / kHwMulDivBitsPerCycle;
        for (int i = 0; i < steps - 1; ++i) u.push_back({MicroOp::DivStep, 0});
        u.push_back({fin, 0});
      } else {
        const int steps = instr.width * kDivStepsPerBit;
        for (int i = 0; i < steps - 1; ++i) u.push_back({MicroOp::DivStep, 0});
        u.push_back({fin, 0});
      }
      break;
    }
    case Opcode::Cmp: {
      if (config.hasComparator) {
        // Dedicated comparator: single state (pattern "if (a == b)").
        u.push_back({MicroOp::CmpExec, 0});
      } else {
        for (int c = 0; c < chunks - 1; ++c)
          u.push_back({MicroOp::AluChunk, packAlu(AluSub::Sub, c, false)});
        u.push_back({MicroOp::CmpExec, 0});
      }
      break;
    }
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::Sar: {
      if (config.hasBarrelShifter) {
        u.push_back({MicroOp::ShiftExec, instr.operand});
      } else {
        const int steps = instr.operand * chunks;
        for (int i = 0; i < steps - 1; ++i) u.push_back({MicroOp::ShiftStep, 0});
        u.push_back({MicroOp::ShiftExec, instr.operand});
      }
      break;
    }

    // ----------------------------------------------------- control flow
    case Opcode::Jmp: u.push_back({MicroOp::Jump, instr.operand}); break;
    case Opcode::Jz: u.push_back({MicroOp::JumpZ, instr.operand}); break;
    case Opcode::Jnz: u.push_back({MicroOp::JumpNZ, instr.operand}); break;
    case Opcode::Jn: u.push_back({MicroOp::JumpN, instr.operand}); break;
    case Opcode::Jc: u.push_back({MicroOp::JumpC, instr.operand}); break;
    case Opcode::Call: u.push_back({MicroOp::CallPush, instr.operand}); break;
    case Opcode::Ret: u.push_back({MicroOp::RetPop, 0}); break;

    // -------------------------------------------------- ports & the SLA
    case Opcode::Inp: u.push_back({MicroOp::PortRead, instr.operand}); break;
    case Opcode::Outp: u.push_back({MicroOp::PortWrite, instr.operand}); break;
    case Opcode::EvSet: u.push_back({MicroOp::EvSet, instr.operand}); break;
    case Opcode::CSet: u.push_back({MicroOp::CondSet, instr.operand}); break;
    case Opcode::CClr: u.push_back({MicroOp::CondClr, instr.operand}); break;
    case Opcode::CTst: u.push_back({MicroOp::CondTest, instr.operand}); break;
    case Opcode::STst: u.push_back({MicroOp::StateTest, instr.operand}); break;
    case Opcode::Tret: u.push_back({MicroOp::Tret, 0}); break;
    case Opcode::Custom: u.push_back({MicroOp::CustomExec, instr.operand}); break;
  }
  return u;
}

int cyclesFor(const Instr& instr, const hwlib::ArchConfig& config) {
  return static_cast<int>(microcodeFor(instr, config).size());
}

MicroTable::MicroTable(const AsmProgram& program, const hwlib::ArchConfig& config)
    : offsets_{0} {
  for (const Instr& in : program.code) {
    const std::vector<MicroInstr> micro = microcodeFor(in, config);
    ops_.insert(ops_.end(), micro.begin(), micro.end());
    offsets_.push_back(static_cast<uint32_t>(ops_.size()));
  }
}

MicroGroup microGroupOf(MicroOp op) {
  switch (op) {
    case MicroOp::AluChunk:
    case MicroOp::MulStep:
    case MicroOp::DivStep:
    case MicroOp::MulExec:
    case MicroOp::DivExec:
    case MicroOp::ModExec:
    case MicroOp::CmpExec:
    case MicroOp::CustomExec:
      return MicroGroup::Arithmetic;
    case MicroOp::ShiftStep:
    case MicroOp::ShiftExec:
      return MicroGroup::Shift;
    case MicroOp::IFetch:
    case MicroOp::IFetchOp:
    case MicroOp::MarLoad:
    case MicroOp::MarFromOp:
    case MicroOp::MarFromOpDisp:
    case MicroOp::MemRead:
    case MicroOp::MemWrite:
      return MicroGroup::AddressBus;
    case MicroOp::Jump:
    case MicroOp::JumpZ:
    case MicroOp::JumpNZ:
    case MicroOp::JumpN:
    case MicroOp::JumpC:
    case MicroOp::CallPush:
    case MicroOp::RetPop:
      return MicroGroup::Jump;
    default:
      return MicroGroup::SingleSignal;
  }
}

namespace {
/// 5-bit control code within a group. For the arithmetic group the paper
/// distinguishes arithmetic (01x00) from logical (000xx) patterns; we honor
/// that by reserving code ranges.
uint8_t controlCodeOf(MicroOp op) {
  switch (op) {
    // Arithmetic group: arithmetic ops use 01x00-style codes (bit 3 set).
    case MicroOp::AluChunk: return 0b01000;
    case MicroOp::MulStep: return 0b01100;
    case MicroOp::MulExec: return 0b01101;
    case MicroOp::DivStep: return 0b01110;
    case MicroOp::DivExec: return 0b01111;
    case MicroOp::ModExec: return 0b01011;
    // Logical/compare use 000xx codes.
    case MicroOp::CmpExec: return 0b00001;
    case MicroOp::CustomExec: return 0b00010;
    // Shift group.
    case MicroOp::ShiftStep: return 0b00000;
    case MicroOp::ShiftExec: return 0b00001;
    // Address-bus group.
    case MicroOp::IFetch: return 0b00000;
    case MicroOp::IFetchOp: return 0b00001;
    case MicroOp::MarLoad: return 0b00010;
    case MicroOp::MemRead: return 0b00011;
    case MicroOp::MemWrite: return 0b00100;
    case MicroOp::MarFromOp: return 0b00101;
    case MicroOp::MarFromOpDisp: return 0b00110;
    // Jump group.
    case MicroOp::Jump: return 0b00000;
    case MicroOp::JumpZ: return 0b00001;
    case MicroOp::JumpNZ: return 0b00010;
    case MicroOp::JumpN: return 0b00011;
    case MicroOp::JumpC: return 0b00100;
    case MicroOp::CallPush: return 0b00101;
    case MicroOp::RetPop: return 0b00110;
    // Single-signal group: one code per signal.
    case MicroOp::Decode: return 0b00000;
    case MicroOp::MdrToAcc: return 0b00001;
    case MicroOp::AccToMdr: return 0b00010;
    case MicroOp::MdrToOp: return 0b00011;
    case MicroOp::AccLoadImm: return 0b00100;
    case MicroOp::OpLoadImm: return 0b00101;
    case MicroOp::RegToAcc: return 0b00110;
    case MicroOp::AccToReg: return 0b00111;
    case MicroOp::RegToOp: return 0b01000;
    case MicroOp::PortRead: return 0b01001;
    case MicroOp::PortWrite: return 0b01010;
    case MicroOp::EvSet: return 0b01011;
    case MicroOp::CondSet: return 0b01100;
    case MicroOp::CondClr: return 0b01101;
    case MicroOp::CondTest: return 0b01110;
    case MicroOp::StateTest: return 0b01111;
    case MicroOp::Tret: return 0b10000;
    case MicroOp::CostOnly: return 0b10001;
    case MicroOp::AccToOp: return 0b10010;
  }
  return 0;
}
}  // namespace

uint16_t encodeMicroWord(const MicroInstr& mi, uint8_t nextAddr) {
  const auto group = static_cast<uint16_t>(microGroupOf(mi.op));
  const uint16_t control = controlCodeOf(mi.op);
  return static_cast<uint16_t>((group << 13) | (control << 8) | nextAddr);
}

void decodeMicroWord(uint16_t word, uint8_t& group, uint8_t& control, uint8_t& nextAddr) {
  group = static_cast<uint8_t>(word >> 13);
  control = static_cast<uint8_t>((word >> 8) & 0x1F);
  nextAddr = static_cast<uint8_t>(word & 0xFF);
}

int MicrocodeRom::totalWords() const {
  int words = 0;
  for (const auto& [key, prog] : programs) words += static_cast<int>(prog.size());
  return words;
}

std::vector<uint16_t> MicrocodeRom::encode() const {
  std::vector<uint16_t> rom;
  for (const auto& [key, prog] : programs) {
    for (size_t i = 0; i < prog.size(); ++i) {
      // Sequential next-address; the final state returns to fetch (address
      // 0 by convention).
      const uint8_t next =
          (i + 1 < prog.size()) ? static_cast<uint8_t>((rom.size() + 1) & 0xFF) : 0;
      rom.push_back(encodeMicroWord(prog[i], next));
    }
  }
  return rom;
}

MicrocodeRom buildMicrocodeRom(const AsmProgram& program, const hwlib::ArchConfig& config) {
  MicrocodeRom rom;
  for (const Instr& in : program.code) {
    std::string key = opcodeMnemonic(in.op);
    if (isWidthSensitive(in.op)) key += strfmt(".%d", in.width);
    // Shift microprograms additionally depend on the count without a
    // barrel shifter.
    const bool isShift =
        in.op == Opcode::Shl || in.op == Opcode::Shr || in.op == Opcode::Sar;
    if (isShift && !config.hasBarrelShifter) key += strfmt("/%d", in.operand);
    if (rom.programs.count(key) != 0) continue;
    Instr normalized = in;
    // Operands do not change the microprogram shape (they feed the datapath
    // as literals), except for shift counts handled above.
    if (!isShift) normalized.operand = 0;
    rom.programs[key] = microcodeFor(normalized, config);
  }
  return rom;
}

}  // namespace pscp::tep
