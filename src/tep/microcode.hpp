// Microprogrammed control (paper Sec. 3.2, Table 1).
//
// "Each instruction of the TEP is represented by a microprogram containing
//  a sequence of microinstructions. Every microinstruction defines a set
//  of datapath control signals that are asserted in a single state. ...
//  In the basic TEP, microinstructions are 16 bits wide. The first eight
//  bits represent the control signals, and the other eight bit indicate
//  the address of the next microinstruction. The eight control bits are
//  further divided into 3 bits to denote the group of control signals,
//  and 5 bits to encode the control signals."
//
// The microcode generator expands each width-annotated ISA instruction
// into its microinstruction sequence for a concrete ArchConfig; the TEP
// simulator executes these microinstructions one clock each, so the
// simulator and the static timing analysis share one cost model.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "tep/isa.hpp"

namespace pscp::tep {

/// Datapath control states. Each value is one microinstruction (one clock).
enum class MicroOp : uint8_t {
  // --- address-bus group (Table 1: 100 0xxxx)
  IFetch,       ///< IR <- pmem[PC++]
  IFetchOp,     ///< operand word <- pmem[PC++]
  MarLoad,      ///< MAR <- operand
  MarFromOp,    ///< MAR <- OP (indirect addressing)
  MarFromOpDisp,///< MAR <- OP + displacement (indexed addressing)
  MemRead,      ///< MDR chunk <- dmem[MAR + chunk*w]; arg = chunk index
  MemWrite,     ///< dmem[MAR + chunk*w] <- MDR chunk
  // --- single-signal group (011 xxxxx)
  Decode,       ///< microprogram dispatch
  MdrToAcc, AccToMdr, MdrToOp, AccToOp,
  AccLoadImm, OpLoadImm,
  RegToAcc, AccToReg, RegToOp,  ///< arg = register index
  PortRead, PortWrite,          ///< arg = port address
  EvSet, CondSet, CondClr, CondTest, StateTest,  ///< arg = CR index
  Tret,
  CostOnly,     ///< bus turnaround / wait filler
  // --- ALU group (001)
  AluChunk,     ///< arg = packed {aluSubOp, chunk, last}; carry chains chunks
  MulStep, DivStep,            ///< iterative multiply/divide steps
  MulExec, DivExec, ModExec,   ///< final/HW multiply, divide, modulo
  CmpExec,      ///< flags <- compare(ACC, OP), full width
  CustomExec,   ///< arg = custom instruction index
  // --- shift group (010 0xxxx)
  ShiftStep,    ///< one-position ripple shift step
  ShiftExec,    ///< final (or barrel single-cycle) shift; arg = count
  // --- jump group (101 0xxxx)
  Jump, JumpZ, JumpNZ, JumpN, JumpC,  ///< arg = target instruction index
  CallPush, RetPop,
};

/// ALU sub-operations selected by the AluChunk control bits.
enum class AluSub : uint8_t { Add, Sub, And, Or, Xor, Not, Neg, Inc };

struct MicroInstr {
  MicroOp op = MicroOp::CostOnly;
  int32_t arg = 0;

  [[nodiscard]] bool operator==(const MicroInstr&) const = default;
};

/// Pack/unpack the AluChunk argument.
[[nodiscard]] int32_t packAlu(AluSub sub, int chunk, bool last);
void unpackAlu(int32_t arg, AluSub& sub, int& chunk, bool& last);

/// The microprogram implementing `instr` on configuration `config`.
/// This is where the space/time trade-off lives: wider datapaths shrink
/// chunk counts, the M/D unit collapses multiply loops, the comparator and
/// two's-complement units collapse their patterns, the barrel shifter
/// collapses shift loops, and external memory operands add wait states
/// (wait states are charged by the simulator, not emitted here).
[[nodiscard]] std::vector<MicroInstr> microcodeFor(const Instr& instr,
                                                   const hwlib::ArchConfig& config);

/// Cycles the instruction takes in the absence of stalls (microprogram
/// length); external-memory wait states are added by the simulator.
[[nodiscard]] int cyclesFor(const Instr& instr, const hwlib::ArchConfig& config);

/// The microprogram of every instruction of one program on one config,
/// decoded once into a flat array with per-PC offsets: the one decoder the
/// flow synthesizes per application (Sec. 3.2). A ChartImage owns the
/// table every TEP of every instance reads.
class MicroTable {
 public:
  MicroTable(const AsmProgram& program, const hwlib::ArchConfig& config);
  /// microcodeFor(program.code[pc], config), for 0 <= pc < size().
  [[nodiscard]] std::span<const MicroInstr> at(int pc) const {
    const auto i = static_cast<size_t>(pc);
    return {ops_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  [[nodiscard]] size_t size() const { return offsets_.size() - 1; }

 private:
  std::vector<MicroInstr> ops_;
  std::vector<uint32_t> offsets_;  ///< size() + 1 entries into ops_
};

// ------------------------------------------------ Table 1 microword format

/// Microinstruction group codes (Table 1).
enum class MicroGroup : uint8_t {
  Arithmetic = 0b001,  // control pattern 01x00
  Logical = 0b001,     // control pattern 000xx
  Shift = 0b010,
  SingleSignal = 0b011,
  AddressBus = 0b100,
  Jump = 0b101,
};

[[nodiscard]] MicroGroup microGroupOf(MicroOp op);

/// Encode one microinstruction into the 16-bit microword: 3-bit group,
/// 5-bit control code, 8-bit next-microinstruction address.
[[nodiscard]] uint16_t encodeMicroWord(const MicroInstr& mi, uint8_t nextAddr);
/// Extract the fields again (for tests and the decoder-ROM emitter).
void decodeMicroWord(uint16_t word, uint8_t& group, uint8_t& control, uint8_t& nextAddr);

/// The application-specific microprogram decoder: unique microprograms of
/// every (opcode, width) pair actually used by `program`. Its size in
/// microwords feeds the area model ("the specific microprogram decoder for
/// this application can therefore be easily synthesized").
struct MicrocodeRom {
  /// Key: mnemonic-with-width, e.g. "ADD.16".
  std::map<std::string, std::vector<MicroInstr>> programs;

  [[nodiscard]] int totalWords() const;
  /// Flat encoded ROM image (sequential next-addresses).
  [[nodiscard]] std::vector<uint16_t> encode() const;
};

[[nodiscard]] MicrocodeRom buildMicrocodeRom(const AsmProgram& program,
                                             const hwlib::ArchConfig& config);

}  // namespace pscp::tep
