#include "tep/machine.hpp"

#include <algorithm>

#include "support/bits.hpp"

namespace pscp::tep {

// ------------------------------------------------------------- DataMemory

DataMemory::DataMemory(int teps, int32_t internalBytes, int32_t externalBytes)
    : teps_(teps),
      internalBytes_(internalBytes),
      externalBytes_(externalBytes),
      tails_(static_cast<size_t>(teps) + 1) {
  PSCP_ASSERT(teps >= 1 && internalBytes >= 0 && internalBytes <= kExternalBase &&
              externalBytes >= 0 && externalBytes <= kExternalSize);
  const size_t bytes = static_cast<size_t>(teps) * static_cast<size_t>(internalBytes) +
                       static_cast<size_t>(externalBytes);
  const size_t words = static_cast<size_t>(teps) * kRegisterCount + (bytes + 3) / 4;
  block_ = std::make_unique<uint32_t[]>(words);  // zeroed
}

uint8_t* DataMemory::internalBank(int tep) const {
  return reinterpret_cast<uint8_t*>(block_.get() + static_cast<size_t>(teps_) * kRegisterCount) +
         static_cast<size_t>(tep) * static_cast<size_t>(internalBytes_);
}

uint8_t* DataMemory::externalBank() const { return internalBank(teps_); }

MemView DataMemory::view(int tep) const {
  PSCP_ASSERT(tep >= 0 && tep < teps_);
  MemView v;
  v.regs = block_.get() + static_cast<size_t>(tep) * kRegisterCount;
  v.internal = internalBank(tep);
  v.external = externalBank();
  v.internalSize = static_cast<uint64_t>(internalBytes_);
  v.externalSize = static_cast<uint64_t>(externalBytes_);
  return v;
}

DataMemory::TailSlot DataMemory::tailSlot(int tep, int32_t addr) const {
  if (addr < kExternalBase)
    return {static_cast<size_t>(tep), static_cast<size_t>(addr - internalBytes_)};
  return {static_cast<size_t>(teps_),
          static_cast<size_t>(addr - kExternalBase - externalBytes_)};
}

uint8_t DataMemory::read(int tep, int32_t addr) const {
  PSCP_ASSERT(mapped(addr));
  if (const uint8_t* cell = view(tep).byteAt(addr)) return *cell;
  const TailSlot slot = tailSlot(tep, addr);
  const std::unique_ptr<uint8_t[]>& tail = tails_[slot.bank];
  return tail != nullptr ? tail[slot.offset] : 0;
}

void DataMemory::write(int tep, int32_t addr, uint8_t value) {
  PSCP_ASSERT(mapped(addr));
  if (uint8_t* cell = view(tep).byteAt(addr)) {
    *cell = value;
    return;
  }
  const TailSlot slot = tailSlot(tep, addr);
  std::unique_ptr<uint8_t[]>& tail = tails_[slot.bank];
  if (tail == nullptr)
    tail = std::make_unique<uint8_t[]>(static_cast<size_t>(
        slot.bank < static_cast<size_t>(teps_) ? kExternalBase - internalBytes_
                                               : kExternalSize - externalBytes_));
  tail[slot.offset] = value;
}

uint32_t DataMemory::reg(int tep, int index) const {
  PSCP_ASSERT(tep >= 0 && tep < teps_ && index >= 0 && index < kRegisterCount);
  return block_[static_cast<size_t>(tep) * kRegisterCount + static_cast<size_t>(index)];
}

void DataMemory::setReg(int tep, int index, uint32_t value) {
  PSCP_ASSERT(tep >= 0 && tep < teps_ && index >= 0 && index < kRegisterCount);
  block_[static_cast<size_t>(tep) * kRegisterCount + static_cast<size_t>(index)] = value;
}

// ------------------------------------------------------------- SimpleHost

SimpleHost::SimpleHost(int32_t internalBytes, int32_t externalBytes)
    : memory_(1, internalBytes, externalBytes) {}

MemView SimpleHost::memView(int tepId) {
  (void)tepId;
  return memory_.view(0);
}

uint8_t SimpleHost::readByte(int32_t addr) {
  if (!DataMemory::mapped(addr)) fail("data read from unmapped address 0x%X", addr);
  return memory_.read(0, addr);
}

void SimpleHost::writeByte(int32_t addr, uint8_t value) {
  if (!DataMemory::mapped(addr)) fail("data write to unmapped address 0x%X", addr);
  memory_.write(0, addr, value);
}

uint32_t SimpleHost::readReg(int index) const { return memory_.reg(0, index); }

void SimpleHost::writeReg(int index, uint32_t value) { memory_.setReg(0, index, value); }

int portSlotOf(const std::vector<int>& portMap, int64_t address) {
  const auto it = std::lower_bound(portMap.begin(), portMap.end(), address);
  if (it == portMap.end() || *it != address) return -1;
  return static_cast<int>(it - portMap.begin());
}

uint32_t SimpleHost::readPort(int address) { return ports[address]; }

void SimpleHost::writePort(int address, uint32_t value) { ports[address] = value; }

void SimpleHost::latchPort(int address, uint32_t value) { ports[address] = value; }

void SimpleHost::raiseEvent(int index) { raisedEvents.push_back(index); }

void SimpleHost::setCondition(int index, bool value) { conditions[index] = value; }

bool SimpleHost::testCondition(int index) { return conditions[index]; }

bool SimpleHost::testState(int index) { return states[index]; }

uint32_t SimpleHost::readWord(int32_t addr, int bytes) {
  uint32_t v = 0;
  for (int i = 0; i < bytes; ++i)
    v |= static_cast<uint32_t>(readByte(addr + i)) << (8 * i);
  return v;
}

void SimpleHost::writeWord(int32_t addr, uint32_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    writeByte(addr + i, static_cast<uint8_t>((value >> (8 * i)) & 0xFF));
}

// -------------------------------------------------------------------- Tep

Tep::Tep(const hwlib::ArchConfig& config, TepHost& host, int id)
    : config_(config), host_(host), id_(id), mem_(host.memView(id)) {
  config_.validate();
  callStack_.reserve(32);
}

void Tep::setProgram(const AsmProgram* program, const MicroTable* micro) {
  PSCP_ASSERT(program != nullptr && micro != nullptr &&
              micro->size() == program->code.size());
  program_ = program;
  micro_ = micro;
}

void Tep::startRoutine(int entry) {
  PSCP_ASSERT(program_ != nullptr);
  PSCP_ASSERT(entry >= 0 && entry < static_cast<int>(program_->code.size()));
  pc_ = entry;
  callStack_.clear();
  busy_ = true;
  extPhase_ = 0;
  beginInstruction();
}

void Tep::beginInstruction() {
  if (pc_ < 0 || pc_ >= static_cast<int>(program_->code.size()))
    fail("TEP%d: PC %d ran off the program (size %zu)", id_, pc_, program_->code.size());
  current_ = program_->code[static_cast<size_t>(pc_)];
  const std::span<const MicroInstr> micro = micro_->at(pc_);
  microPc_ = micro.data();
  microEnd_ = micro.data() + micro.size();
  // The PC advances as the instruction enters execution; the IFetch state
  // (when present — the pipelined TEP overlaps it away) is pure cost.
  ++pc_;
}

namespace {
bool needsExternalBus(const MicroInstr& mi, int32_t mar) {
  return (mi.op == MicroOp::MemRead || mi.op == MicroOp::MemWrite) &&
         isExternalAddress(mar);
}
}  // namespace

void Tep::stepCycle() {
  if (!busy_) return;
  ++cycles_;
  const MicroInstr& mi = *microPc_;
  if (needsExternalBus(mi, mar_)) {
    if (!host_.acquireExternalBus(id_)) {
      ++stalls_;
      if (sink_ != nullptr) sink_->onBusStall(id_, obsNow());
      return;  // arbitration lost: retry next cycle
    }
    if (extPhase_ == 0) {
      extPhase_ = 1;  // external wait state
      if (sink_ != nullptr) sink_->onBusWait(id_, obsNow());
      return;
    }
    extPhase_ = 0;
  }
  execMicroOp(mi);
  if (++microPc_ == microEnd_) {
    ++instructions_;
    if (sink_ != nullptr) sink_->onInstrRetire(id_, obsNow());
    if (busy_) beginInstruction();
  }
}

uint32_t& Tep::reg(int index) {
  if (index < 0 || index >= kRegisterCount)
    fail("TEP%d: register %d outside the %d-entry register file at PC %d", id_, index,
         kRegisterCount, pc_ - 1);
  return mem_.regs[index];
}

void Tep::applyFlags(uint32_t result, int width) {
  flagZ_ = truncBits(result, width) == 0;
  flagN_ = width < 32 ? ((result >> (width - 1)) & 1u) != 0 : (result >> 31) != 0;
}

void Tep::aluExec(AluSub sub, bool last) {
  if (!last) return;  // earlier chunks: cost only; result applied atomically
  const int w = current_.width;
  const uint32_t mask = maskBits(w);
  const uint32_t a = acc_ & mask;
  const uint32_t b = op_ & mask;
  uint64_t wide = 0;
  switch (sub) {
    case AluSub::Add:
      wide = static_cast<uint64_t>(a) + b;
      flagC_ = (wide >> w) != 0;
      break;
    case AluSub::Sub:
      wide = static_cast<uint64_t>(a) - b;
      flagC_ = a < b;  // borrow
      break;
    case AluSub::And: wide = a & b; break;
    case AluSub::Or: wide = a | b; break;
    case AluSub::Xor: wide = a ^ b; break;
    case AluSub::Not: wide = ~a; break;
    case AluSub::Neg: wide = 0 - static_cast<uint64_t>(a); break;
    case AluSub::Inc: wide = static_cast<uint64_t>(a) + 1; break;
  }
  acc_ = truncBits(static_cast<uint32_t>(wide), w);
  applyFlags(acc_, w);
}

void Tep::execMicroOp(const MicroInstr& mi) {
  const int w = current_.width;
  const uint32_t mask = maskBits(w);
  const int totalBytes = (w + 7) / 8;
  const int bpw = config_.bytesPerWord();

  switch (mi.op) {
    case MicroOp::IFetch:
    case MicroOp::IFetchOp:
      // The operand word doubles as the memory address: latch it into MAR
      // so direct-address loads/stores skip a MAR-load state.
      mar_ = current_.operand;
      break;
    case MicroOp::Decode:
    case MicroOp::CostOnly:
    case MicroOp::MulStep:
    case MicroOp::DivStep:
    case MicroOp::ShiftStep:
      break;  // datapath setup states: cost only

    case MicroOp::MarLoad:
      mar_ = current_.operand;
      break;
    case MicroOp::MarFromOp:
      mar_ = static_cast<int32_t>(op_ & 0xFFFF);
      break;
    case MicroOp::MarFromOpDisp:
      mar_ = static_cast<int32_t>((op_ & 0xFFFF) + static_cast<uint32_t>(current_.operand));
      break;
    case MicroOp::MemRead: {
      const int chunk = mi.arg;
      const int base = chunk * bpw;
      for (int i = 0; i < bpw && base + i < totalBytes; ++i) {
        const int32_t addr = mar_ + base + i;
        const uint8_t* cell = mem_.byteAt(addr);
        const uint32_t byte = cell != nullptr ? *cell : host_.readByte(addr);
        mdr_ &= ~(0xFFu << (8 * (base + i)));
        mdr_ |= byte << (8 * (base + i));
      }
      break;
    }
    case MicroOp::MemWrite: {
      const int chunk = mi.arg;
      const int base = chunk * bpw;
      for (int i = 0; i < bpw && base + i < totalBytes; ++i) {
        const int32_t addr = mar_ + base + i;
        const auto byte = static_cast<uint8_t>((mdr_ >> (8 * (base + i))) & 0xFF);
        if (uint8_t* cell = mem_.byteAt(addr))
          *cell = byte;
        else
          host_.writeByte(addr, byte);
      }
      break;
    }
    case MicroOp::MdrToAcc:
      acc_ = mdr_ & mask;
      break;
    case MicroOp::MdrToOp:
      op_ = mdr_ & mask;
      break;
    case MicroOp::AccToMdr:
      mdr_ = acc_ & mask;
      break;
    case MicroOp::AccToOp:
      op_ = acc_ & mask;
      break;
    case MicroOp::AccLoadImm:
      if (mi.arg == config_.chunksFor(w) - 1)
        acc_ = static_cast<uint32_t>(current_.operand) & mask;
      break;
    case MicroOp::OpLoadImm:
      if (mi.arg == config_.chunksFor(w) - 1)
        op_ = static_cast<uint32_t>(current_.operand) & mask;
      break;
    case MicroOp::RegToAcc:
      acc_ = reg(current_.operand) & mask;
      break;
    case MicroOp::RegToOp:
      op_ = reg(current_.operand) & mask;
      break;
    case MicroOp::AccToReg:
      reg(current_.operand) = acc_ & mask;
      break;

    case MicroOp::AluChunk: {
      AluSub sub;
      int chunk = 0;
      bool last = false;
      unpackAlu(mi.arg, sub, chunk, last);
      aluExec(sub, last);
      break;
    }
    case MicroOp::MulExec:
      acc_ = truncBits(acc_ * op_, w);
      applyFlags(acc_, w);
      break;
    case MicroOp::DivExec:
    case MicroOp::ModExec: {
      const bool isDiv = mi.op == MicroOp::DivExec;
      const bool isSigned = current_.op == Opcode::Div || current_.op == Opcode::Mod;
      if ((op_ & mask) == 0)
        fail("TEP%d: division by zero at PC %d", id_, pc_ - 1);
      uint32_t result = 0;
      if (isSigned) {
        // In 64 bits: INT32_MIN / -1 wraps to INT32_MIN (remainder 0).
        const int64_t a = signExtend(acc_ & mask, w);
        const int64_t b = signExtend(op_ & mask, w);
        result = static_cast<uint32_t>(isDiv ? a / b : a % b);
      } else {
        const uint32_t a = acc_ & mask;
        const uint32_t b = op_ & mask;
        result = isDiv ? a / b : a % b;
      }
      acc_ = truncBits(result, w);
      applyFlags(acc_, w);
      break;
    }
    case MicroOp::CmpExec: {
      const uint32_t a = acc_ & mask;
      const uint32_t b = op_ & mask;
      flagZ_ = a == b;
      flagN_ = signExtend(a, w) < signExtend(b, w);  // signed less-than
      flagC_ = a < b;                                // unsigned less-than
      break;
    }
    case MicroOp::ShiftExec: {
      const int count = current_.operand & 31;
      if (current_.op == Opcode::Shl) {
        acc_ = truncBits(acc_ << count, w);
      } else if (current_.op == Opcode::Shr) {
        acc_ = truncBits((acc_ & mask) >> count, w);
      } else {  // Sar
        acc_ = truncBits(static_cast<uint32_t>(signExtend(acc_ & mask, w) >> count), w);
      }
      applyFlags(acc_, w);
      break;
    }
    case MicroOp::CustomExec: {
      const auto index = static_cast<size_t>(current_.operand);
      PSCP_ASSERT(index < config_.customInstructions.size());
      const hwlib::CustomInstr& ci = config_.customInstructions[index];
      const uint32_t cmask = maskBits(ci.width);
      uint32_t v = acc_ & cmask;
      for (const hwlib::CustomStep& step : ci.steps) {
        const uint32_t rhs = step.useConst ? static_cast<uint32_t>(step.konst) & cmask
                                           : op_ & cmask;
        switch (step.op) {
          case hwlib::CustomOp::Add: v = v + rhs; break;
          case hwlib::CustomOp::Sub: v = v - rhs; break;
          case hwlib::CustomOp::And: v = v & rhs; break;
          case hwlib::CustomOp::Or: v = v | rhs; break;
          case hwlib::CustomOp::Xor: v = v ^ rhs; break;
          case hwlib::CustomOp::Shl: v = v << (rhs & 31); break;
          case hwlib::CustomOp::Shr: v = (v & cmask) >> (rhs & 31); break;
          case hwlib::CustomOp::Sar:
            v = static_cast<uint32_t>(signExtend(v & cmask, ci.width) >>
                                      (rhs & 31));
            break;
          case hwlib::CustomOp::Neg: v = 0 - v; break;
          case hwlib::CustomOp::Not: v = ~v; break;
        }
        v &= cmask;
      }
      acc_ = v;
      applyFlags(acc_, ci.width);
      break;
    }

    case MicroOp::Jump:
      // Jump microinstructions are always the final state of their
      // microprogram, so plain fall-through ends the instruction.
      pc_ = current_.operand;
      break;
    case MicroOp::JumpZ:
      if (flagZ_) {
        pc_ = current_.operand;
      }
      break;
    case MicroOp::JumpNZ:
      if (!flagZ_) {
        pc_ = current_.operand;
      }
      break;
    case MicroOp::JumpN:
      if (flagN_) {
        pc_ = current_.operand;
      }
      break;
    case MicroOp::JumpC:
      if (flagC_) {
        pc_ = current_.operand;
      }
      break;
    case MicroOp::CallPush:
      if (callStack_.size() >= 32) fail("TEP%d: call stack overflow", id_);
      callStack_.push_back(pc_);
      pc_ = current_.operand;
      break;
    case MicroOp::RetPop:
      if (callStack_.empty()) fail("TEP%d: RET with empty call stack", id_);
      pc_ = callStack_.back();
      callStack_.pop_back();
      break;

    case MicroOp::PortRead:
      acc_ = host_.readPort(current_.operand);
      break;
    case MicroOp::PortWrite:
      host_.writePort(current_.operand, acc_ & mask);
      break;
    case MicroOp::EvSet:
      host_.raiseEvent(current_.operand);
      break;
    case MicroOp::CondSet:
      host_.setCondition(current_.operand, true);
      break;
    case MicroOp::CondClr:
      host_.setCondition(current_.operand, false);
      break;
    case MicroOp::CondTest: {
      const bool v = host_.testCondition(current_.operand);
      acc_ = v ? 1u : 0u;
      flagZ_ = !v;
      break;
    }
    case MicroOp::StateTest: {
      const bool v = host_.testState(current_.operand);
      acc_ = v ? 1u : 0u;
      flagZ_ = !v;
      break;
    }
    case MicroOp::Tret:
      busy_ = false;
      break;
  }
}

RunResult Tep::run(const std::string& routine, int64_t maxCycles) {
  PSCP_ASSERT(program_ != nullptr);
  const int64_t startCycles = cycles_;
  const int64_t startInstr = instructions_;
  startRoutine(program_->entryOf(routine));
  while (busy_ && cycles_ - startCycles < maxCycles) stepCycle();
  RunResult r;
  r.cycles = cycles_ - startCycles;
  r.instructions = instructions_ - startInstr;
  r.completed = !busy_;
  return r;
}

}  // namespace pscp::tep
