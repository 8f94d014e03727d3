#include <gtest/gtest.h>

#include "tep/assembler.hpp"
#include "tep/machine.hpp"
#include "support/bits.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep {
namespace {

hwlib::ArchConfig arch8() {
  hwlib::ArchConfig c;
  c.dataWidth = 8;
  return c;
}

hwlib::ArchConfig arch16md() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  c.registerFileSize = 4;
  return c;
}

// ------------------------------------------------------------- encoding

TEST(IsaEncoding, RoundTripsEveryOpcode) {
  std::vector<Instr> samples = {
      {Opcode::Nop, 8, 0},        {Opcode::LdaImm, 16, -5},
      {Opcode::LdaMem, 16, 0x4010}, {Opcode::LdaReg, 8, 3},
      {Opcode::StaMem, 32, 0x20},  {Opcode::StaReg, 16, 2},
      {Opcode::LdoImm, 8, 42},     {Opcode::LdoMem, 16, 0x100},
      {Opcode::LdoReg, 8, 1},      {Opcode::Add, 16, 0},
      {Opcode::Sub, 8, 0},         {Opcode::Mul, 16, 0},
      {Opcode::Div, 16, 0},        {Opcode::Divu, 16, 0},
      {Opcode::Cmp, 16, 0},        {Opcode::Shl, 16, 3},
      {Opcode::Sar, 16, 2},        {Opcode::Jmp, 8, 1234},
      {Opcode::Jz, 8, 7},          {Opcode::Call, 8, 99},
      {Opcode::Ret, 8, 0},         {Opcode::Inp, 8, 0x17},
      {Opcode::Outp, 8, 0x12},     {Opcode::EvSet, 8, 5},
      {Opcode::CSet, 8, 9},        {Opcode::CTst, 8, 4},
      {Opcode::STst, 8, 11},       {Opcode::Tret, 8, 0},
      {Opcode::Custom, 8, 1},
  };
  for (const Instr& in : samples) {
    const std::vector<uint16_t> words = encodeInstr(in);
    EXPECT_EQ(words.size(), hasOperandWord(in.op) ? 2u : 1u) << in.str();
    size_t at = 0;
    const Instr back = decodeInstr(words, at);
    EXPECT_EQ(back.op, in.op) << in.str();
    EXPECT_EQ(back.operand, in.operand) << in.str();
    if (isWidthSensitive(in.op)) {
      EXPECT_EQ(back.width, in.width) << in.str();
    }
    EXPECT_EQ(at, words.size());
  }
}

TEST(IsaEncoding, RejectsOversizedOperands) {
  EXPECT_THROW(encodeInstr({Opcode::EvSet, 8, 300}), Error);
  EXPECT_THROW(encodeInstr({Opcode::LdaMem, 8, 0x20000}), Error);
}

// ------------------------------------------------------------ microcode

TEST(Microcode, WidthScalesChunkedOps) {
  const auto c8 = arch8();
  const auto c16 = arch16md();
  // 16-bit ADD needs more states on an 8-bit datapath than on a 16-bit one.
  EXPECT_GT(cyclesFor({Opcode::Add, 16, 0}, c8), cyclesFor({Opcode::Add, 16, 0}, c16));
  // 8-bit ADD costs the same number of states on both.
  EXPECT_EQ(cyclesFor({Opcode::Add, 8, 0}, c8), cyclesFor({Opcode::Add, 8, 0}, c16));
}

TEST(Microcode, MulDivUnitCollapsesMultiply) {
  auto noMd = arch8();
  auto md = arch8();
  md.hasMulDiv = true;
  const int slow = cyclesFor({Opcode::Mul, 16, 0}, noMd);
  const int fast = cyclesFor({Opcode::Mul, 16, 0}, md);
  EXPECT_GT(slow, 4 * fast);  // the Table 4 cliff
}

TEST(Microcode, ComparatorCollapsesCompare) {
  auto plain = arch8();
  auto cmp = arch8();
  cmp.hasComparator = true;
  EXPECT_GT(cyclesFor({Opcode::Cmp, 32, 0}, plain), cyclesFor({Opcode::Cmp, 32, 0}, cmp));
}

TEST(Microcode, TwosComplementUnitCollapsesNeg) {
  auto plain = arch8();
  auto neg = arch8();
  neg.hasTwosComplement = true;
  EXPECT_GT(cyclesFor({Opcode::Neg, 16, 0}, plain), cyclesFor({Opcode::Neg, 16, 0}, neg));
}

TEST(Microcode, BarrelShifterCollapsesShifts) {
  auto plain = arch8();
  auto barrel = arch8();
  barrel.hasBarrelShifter = true;
  EXPECT_GT(cyclesFor({Opcode::Shl, 16, 6}, plain),
            cyclesFor({Opcode::Shl, 16, 6}, barrel));
}

TEST(Microcode, Table1GroupAssignment) {
  EXPECT_EQ(microGroupOf(MicroOp::AluChunk), MicroGroup::Arithmetic);
  EXPECT_EQ(microGroupOf(MicroOp::ShiftExec), MicroGroup::Shift);
  EXPECT_EQ(microGroupOf(MicroOp::MemRead), MicroGroup::AddressBus);
  EXPECT_EQ(microGroupOf(MicroOp::JumpZ), MicroGroup::Jump);
  EXPECT_EQ(microGroupOf(MicroOp::CondSet), MicroGroup::SingleSignal);
}

TEST(Microcode, MicrowordFieldsRoundTrip) {
  const MicroInstr mi{MicroOp::MemRead, 1};
  const uint16_t word = encodeMicroWord(mi, 0x5A);
  uint8_t group = 0;
  uint8_t control = 0;
  uint8_t next = 0;
  decodeMicroWord(word, group, control, next);
  EXPECT_EQ(group, 0b100);  // address-bus group per Table 1
  EXPECT_EQ(next, 0x5A);
}

TEST(Microcode, RomDeduplicatesPrograms) {
  AsmProgram p = assemble(R"asm(
    .routine r
      LDAI.16 #1
      LDOI.16 #2
      ADD.16
      ADD.16
      ADD.8
      TRET
  )asm");
  const MicrocodeRom rom = buildMicrocodeRom(p, arch8());
  // ADD.16 appears twice in the program but once in the decoder.
  EXPECT_EQ(rom.programs.count("ADD.16"), 1u);
  EXPECT_EQ(rom.programs.count("ADD.8"), 1u);
  EXPECT_EQ(rom.programs.size(), 5u);  // LDAI.16 LDOI.16 ADD.16 ADD.8 TRET
  EXPECT_EQ(rom.totalWords(), static_cast<int>(rom.encode().size()));
}

// ------------------------------------------------------------- assembler

TEST(Assembler, LabelsRoutinesAndOperands) {
  AsmProgram p = assemble(R"asm(
    ; demo routine
    .routine main
      LDAI.16 #-7
      LDOI.16 #3
    loop:
      ADD.16
      JNZ loop
      STA.16 [0x4000]
      TRET
  )asm");
  EXPECT_EQ(p.entryOf("main"), 0);
  EXPECT_EQ(p.labels.at("loop"), 2);
  EXPECT_EQ(p.code[3].op, Opcode::Jnz);
  EXPECT_EQ(p.code[3].operand, 2);
  EXPECT_EQ(p.code[0].operand, -7);
  EXPECT_EQ(p.code[4].operand, 0x4000);
  EXPECT_EQ(p.programWords(), 6 + 4);  // LDAI/LDOI/JNZ/STA carry operand words
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble("FOO"), Error);
  EXPECT_THROW(assemble("JMP nowhere"), Error);
  EXPECT_THROW(assemble("ADD.12"), Error);
  EXPECT_THROW(assemble("x:\nx:\nTRET"), Error);
  EXPECT_THROW(assemble(".routine a\n.routine a\nTRET"), Error);
}

// -------------------------------------------------------------- machine

RunResult runOn(const hwlib::ArchConfig& cfg, SimpleHost& host, const std::string& src,
                uint32_t* accOut = nullptr) {
  AsmProgram p = assemble(src);
  const MicroTable micro(p, cfg);
  Tep tep(cfg, host);
  tep.setProgram(&p, &micro);
  RunResult r = tep.run("main");
  if (accOut != nullptr) *accOut = tep.acc();
  return r;
}

TEST(TepMachine, ArithmeticSmokes) {
  SimpleHost host;
  uint32_t acc = 0;
  auto r = runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #1000
      LDOI.16 #234
      ADD.16
      TRET
  )asm", &acc);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(acc, 1234u);
  EXPECT_GT(r.cycles, r.instructions);  // microcoded: several states per instr
}

TEST(TepMachine, WrapAtWidth) {
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch8(), host, R"asm(
    .routine main
      LDAI.8 #200
      LDOI.8 #100
      ADD.8
      TRET
  )asm", &acc);
  EXPECT_EQ(acc, (200u + 100u) & 0xFF);
}

TEST(TepMachine, MemoryRoundTrip16On8BitBus) {
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch8(), host, R"asm(
    .routine main
      LDAI.16 #-12345
      STA.16 [0x40]
      LDAI.16 #0
      LDA.16 [0x40]
      TRET
  )asm", &acc);
  EXPECT_EQ(acc, static_cast<uint32_t>(-12345) & 0xFFFF);
  EXPECT_EQ(host.readWord(0x40, 2), static_cast<uint32_t>(-12345) & 0xFFFF);
}

TEST(TepMachine, NarrowStoreDoesNotClobberNeighbours) {
  SimpleHost host;
  host.writeByte(0x11, 0xEE);  // neighbour byte
  runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.8 #0x7F
      STA.8 [0x10]
      TRET
  )asm");
  EXPECT_EQ(host.readByte(0x10), 0x7F);
  EXPECT_EQ(host.readByte(0x11), 0xEE);  // 16-bit bus must not smash it
}

TEST(TepMachine, ExternalMemoryCostsMore) {
  SimpleHost hostA;
  SimpleHost hostB;
  const char* internalSrc = R"asm(
    .routine main
      LDA.16 [0x40]
      TRET
  )asm";
  const char* externalSrc = R"asm(
    .routine main
      LDA.16 [0x4040]
      TRET
  )asm";
  const auto rInt = runOn(arch8(), hostA, internalSrc);
  const auto rExt = runOn(arch8(), hostB, externalSrc);
  EXPECT_GT(rExt.cycles, rInt.cycles);
}

TEST(TepMachine, MulWithAndWithoutUnit) {
  auto md = arch16md();
  auto noMd = arch16md();
  noMd.hasMulDiv = false;
  const char* src = R"asm(
    .routine main
      LDAI.16 #123
      LDOI.16 #45
      MUL.16
      TRET
  )asm";
  SimpleHost h1;
  SimpleHost h2;
  uint32_t acc1 = 0;
  uint32_t acc2 = 0;
  const auto fast = runOn(md, h1, src, &acc1);
  const auto slow = runOn(noMd, h2, src, &acc2);
  EXPECT_EQ(acc1, 123u * 45u);
  EXPECT_EQ(acc2, acc1);  // same answer...
  // ...very different time: the microcoded shift-add loop dominates.
  EXPECT_GT(slow.cycles, 2 * fast.cycles);
}

TEST(TepMachine, SignedAndUnsignedDivision) {
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #-100
      LDOI.16 #7
      DIV.16
      TRET
  )asm", &acc);
  EXPECT_EQ(pscp::signExtend(acc, 16), -14);
  SimpleHost host2;
  runOn(arch16md(), host2, R"asm(
    .routine main
      LDAI.16 #-100
      LDOI.16 #7
      DIVU.16
      TRET
  )asm", &acc);
  EXPECT_EQ(acc, (static_cast<uint32_t>(-100) & 0xFFFF) / 7u);
}

TEST(TepMachine, DivisionByZeroFaults) {
  SimpleHost host;
  EXPECT_THROW(runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #5
      LDOI.16 #0
      DIV.16
      TRET
  )asm"), Error);
}

TEST(TepMachine, ShiftsRespectKind) {
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #-8
      SAR.16 2
      TRET
  )asm", &acc);
  EXPECT_EQ(pscp::signExtend(acc, 16), -2);
  SimpleHost host2;
  runOn(arch16md(), host2, R"asm(
    .routine main
      LDAI.16 #-8
      SHR.16 2
      TRET
  )asm", &acc);
  EXPECT_EQ(acc, (static_cast<uint32_t>(-8) & 0xFFFF) >> 2);
}

TEST(TepMachine, BranchesAndLoops) {
  // Sum 1..10 with a compare-driven loop.
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #0
      STAR R0       ; acc holder
      LDAI.16 #1
      STAR R1       ; i
    loop:
      LDAR.16 R0
      LDOR.16 R1
      ADD.16
      STAR R0
      LDAR.16 R1
      LDOI.16 #1
      ADD.16
      STAR R1
      LDOI.16 #10
      CMP.16
      JN loop       ; while (i < 10) ... runs i = 1..10
      JZ loop       ; include i == 10 pass
      LDAR.16 R0
      TRET
  )asm", &acc);
  EXPECT_EQ(acc, 55u);
}

TEST(TepMachine, CallAndReturn) {
  SimpleHost host;
  uint32_t acc = 0;
  runOn(arch16md(), host, R"asm(
    .routine main
      LDAI.16 #5
      CALL double
      CALL double
      TRET
    double:
      LDOR.16 R9   ; R9 is zero; OP <- 0
      LDOI.16 #0
      ADD.16       ; no-op, keep flags sane
      STAR R8
      LDAR.16 R8
      LDOR.16 R8
      ADD.16       ; acc = 2*acc
      RET
  )asm", &acc);
  EXPECT_EQ(acc, 20u);
}

TEST(TepMachine, PortsEventsConditions) {
  SimpleHost host;
  host.ports[0x17] = 0x2B;
  host.conditions[3] = true;
  AsmProgram p = assemble(R"asm(
    .routine main
      INP 0x17
      OUTP 0x12
      EVSET 5
      CSET 7
      CCLR 3
      CTST 7
      JZ fail
      STST 2
      TRET
    fail:
      TRET
  )asm");
  hwlib::ArchConfig cfg = arch8();
  const MicroTable micro(p, cfg);
  Tep tep(cfg, host);
  tep.setProgram(&p, &micro);
  auto r = tep.run("main");
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(host.ports[0x12], 0x2Bu);
  ASSERT_EQ(host.raisedEvents.size(), 1u);
  EXPECT_EQ(host.raisedEvents[0], 5);
  EXPECT_TRUE(host.conditions[7]);
  EXPECT_FALSE(host.conditions[3]);
  EXPECT_EQ(tep.pc(), 9);  // fell through to TRET before 'fail'
}

TEST(TepMachine, CustomInstructionExecutesFusedChain) {
  hwlib::ArchConfig cfg = arch16md();
  hwlib::CustomInstr ci;
  ci.name = "addshl2";
  ci.signature = "(a+b)<<2";
  ci.width = 16;
  ci.steps = {{hwlib::CustomOp::Add, false, 0}, {hwlib::CustomOp::Shl, true, 2}};
  ci.delayNs = 40.0;
  cfg.customInstructions.push_back(ci);
  SimpleHost host;
  AsmProgram p = assemble(R"asm(
    .routine main
      LDAI.16 #10
      LDOI.16 #3
      CUST 0
      TRET
  )asm");
  const MicroTable micro(p, cfg);
  Tep tep(cfg, host);
  tep.setProgram(&p, &micro);
  tep.run("main");
  EXPECT_EQ(tep.acc(), (10u + 3u) << 2);
  // Must be cheaper than the discrete ADD+SHL sequence.
  EXPECT_LT(cyclesFor({Opcode::Custom, 8, 0}, cfg),
            cyclesFor({Opcode::Add, 16, 0}, cfg) + cyclesFor({Opcode::Shl, 16, 2}, cfg));
}

TEST(TepMachine, SimulatedCyclesMatchMicrocodeModel) {
  // The simulator's cycle count for a straight-line routine must equal the
  // sum of the microprogram lengths (no stalls on internal memory).
  hwlib::ArchConfig cfg = arch8();
  AsmProgram p = assemble(R"asm(
    .routine main
      LDAI.16 #3
      LDOI.16 #4
      ADD.16
      STA.16 [0x20]
      TRET
  )asm");
  int64_t expected = 0;
  for (const Instr& in : p.code) expected += cyclesFor(in, cfg);
  SimpleHost host;
  const MicroTable micro(p, cfg);
  Tep tep(cfg, host);
  tep.setProgram(&p, &micro);
  const auto r = tep.run("main");
  EXPECT_EQ(r.cycles, expected);
}

TEST(TepMachine, RunAbortsAtCycleBudget) {
  SimpleHost host;
  AsmProgram p = assemble(R"asm(
    .routine main
    spin:
      JMP spin
  )asm");
  hwlib::ArchConfig cfg = arch8();
  const MicroTable micro(p, cfg);
  Tep tep(cfg, host);
  tep.setProgram(&p, &micro);
  const auto r = tep.run("main", 500);
  EXPECT_FALSE(r.completed);
  EXPECT_GE(r.cycles, 500);
}

}  // namespace
}  // namespace pscp::tep
