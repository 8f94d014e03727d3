// TEP instruction set (paper Sec. 3.2).
//
// The TEP is an accumulator machine: most ALU instructions combine the
// accumulator (ACC) with the second operand register (OP) and write ACC.
// "The instruction set includes load and store instructions, basic
//  arithmetic and logic instructions, shift instructions, jump
//  instructions, and port instructions. Further operations reset the
//  transition registers, perform calls to the transition routines, and
//  communicate with the SLA."
//
// Instructions are width-annotated: a 16-bit operation on an 8-bit
// datapath expands into a longer microprogram (chunked execution), which
// is exactly how the architecture selection trades area against time.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/diag.hpp"

namespace pscp::tep {

enum class Opcode : uint8_t {
  Nop,
  // Loads / stores. ACC is the accumulator, OP the second operand register.
  LdaImm, LdaMem, LdaReg,
  StaMem, StaReg,
  LdoImm, LdoMem, LdoReg,
  // Indirect addressing: OP holds the byte address (array indexing).
  LdaInd, StaInd,
  // Indexed with displacement: address = OP + operand (record fields of a
  // dynamically selected array element).
  LdaIdx, StaIdx,
  // Register transfer: OP <- ACC.
  Tao,
  // ALU: ACC <- ACC <op> OP (unary ops use ACC only). Flags Z/N/C updated.
  Add, Sub, And, Or, Xor, Not, Neg,
  Mul, Div, Mod, Divu, Modu,
  Cmp,            ///< flags from compare(ACC, OP), ACC unchanged
  // Shifts by an immediate count (operand). Shr is logical, Sar arithmetic.
  Shl, Shr, Sar,
  // Control flow. Operand is an instruction index (program word address).
  Jmp, Jz, Jnz, Jn, Jc, Call, Ret,
  // Port architecture (operand = port address on the data bus).
  Inp, Outp,
  // SLA communication (operand = event/condition/state index in the CR).
  EvSet, CSet, CClr, CTst, STst,
  // End of transition routine: signal the scheduler, release the TEP.
  Tret,
  // Application-specific single-cycle instruction (operand = table index).
  Custom,
};

[[nodiscard]] const char* opcodeMnemonic(Opcode op);

/// True if the instruction's operand is a second 16-bit program word
/// (addresses, 16/32-bit immediates, jump targets); small operands (reg
/// index, port address, CR index) ride in the first word.
[[nodiscard]] bool hasOperandWord(Opcode op);

/// True for instructions that use the width annotation.
[[nodiscard]] bool isWidthSensitive(Opcode op);

struct Instr {
  Opcode op = Opcode::Nop;
  int width = 8;        ///< operation width in bits (8/16/32)
  int32_t operand = 0;  ///< address / immediate / reg / port / CR index / target

  [[nodiscard]] std::string str() const;
  [[nodiscard]] bool operator==(const Instr&) const = default;
};

/// Data memory map. Addresses below the boundary are TEP-internal RAM
/// (fast); at or above, external RAM (cheap, wait-stated, shared bus).
inline constexpr int32_t kExternalBase = 0x4000;
inline constexpr int32_t kExternalSize = 0x4000;

[[nodiscard]] inline bool isExternalAddress(int32_t addr) {
  return addr >= kExternalBase;
}

/// Entries of a TEP register file (the largest ArchConfig::registerFileSize);
/// register operands index it.
inline constexpr int kRegisterCount = 16;

/// Designer-asserted iteration bound for a loop region [begin, end) of the
/// instruction stream — carried from the action language's `while ... bound
/// N` through codegen so the static WCET analysis can bound back edges.
struct LoopRegion {
  int begin = 0;  ///< first instruction of the loop (header test)
  int end = 0;    ///< one past the loop's back-edge jump
  int64_t bound = 1;
};

/// An assembled program: a flat instruction vector plus label and routine
/// entry-point tables (transition routines are entered via the Transition
/// Address Table).
struct AsmProgram {
  std::vector<Instr> code;
  std::map<std::string, int> labels;       ///< label -> instruction index
  std::map<std::string, int> routines;     ///< routine name -> entry index
  std::vector<LoopRegion> loops;           ///< WCET loop-bound annotations

  [[nodiscard]] int entryOf(const std::string& routine) const;
  [[nodiscard]] std::string listing() const;

  /// Program memory footprint in 16-bit words (operand words included).
  [[nodiscard]] int programWords() const;
};

// ------------------------------------------------------- binary encoding
//
// Primary word layout:  [15:10] opcode  [9:8] width code  [7:0] operand
// Width codes: 0 = 8, 1 = 16, 2 = 32. Instructions with hasOperandWord()
// put the operand in a second word and leave [7:0] zero.

[[nodiscard]] std::vector<uint16_t> encodeInstr(const Instr& instr);
[[nodiscard]] std::vector<uint16_t> encodeProgram(const AsmProgram& program);
/// Inverse of encodeInstr; consumes 1 or 2 words starting at `at`,
/// advancing it. Throws on malformed words.
[[nodiscard]] Instr decodeInstr(const std::vector<uint16_t>& words, size_t& at);

}  // namespace pscp::tep
