// Unit tests for the three-address IR: lowering shape and static cost
// accounting. Bit-identity of *execution* against the interpreter is
// covered by tep_jit_test.cpp; these tests pin the IR structure itself.
#include <gtest/gtest.h>

#include "tep/ir.hpp"
#include "tep/machine.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep {
namespace {

using ir::IrInst;
using ir::IrOp;
using ir::IrRoutine;
using ir::LowerResult;

hwlib::ArchConfig arch16() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  c.registerFileSize = 8;
  return c;
}

AsmProgram progOf(std::vector<Instr> code) {
  AsmProgram p;
  p.code = std::move(code);
  return p;
}

int countOps(const IrRoutine& r, IrOp op) {
  int n = 0;
  for (const IrInst& i : r.code)
    if (i.op == op) ++n;
  return n;
}

TEST(TepIr, LowersStraightLineRoutineWithAnchors) {
  const auto prog = progOf({
      {Opcode::LdaMem, 16, 0x100},
      {Opcode::LdoImm, 16, 3},
      {Opcode::Add, 16, 0},
      {Opcode::StaMem, 16, 0x102},
      {Opcode::Tret, 8, 0},
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, arch16());
  ASSERT_TRUE(res.ok) << res.reason;
  const IrRoutine& r = res.routine;
  // Every ISA instruction lowers behind its own kAddCycles anchor.
  EXPECT_EQ(countOps(r, IrOp::kAddCycles), 5);
  for (int i = 0; i < 5; ++i) EXPECT_GE(r.anchorOf(i), 0) << "anchor " << i;
  EXPECT_EQ(r.anchorOf(5), -1);
  EXPECT_EQ(countOps(r, IrOp::kTret), 1);
  EXPECT_FALSE(r.hasCalls);
  EXPECT_FALSE(r.listing().empty());
}

TEST(TepIr, StaticCostMatchesMicrocodeLengths) {
  const auto config = arch16();
  const auto prog = progOf({
      {Opcode::LdaImm, 16, 7},
      {Opcode::LdoMem, 32, 0x4000},  // external, chunked
      {Opcode::Mul, 16, 0},
      {Opcode::Outp, 16, 2},
      {Opcode::Tret, 8, 0},
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, config);
  ASSERT_TRUE(res.ok) << res.reason;
  int64_t charged = 0;
  for (const IrInst& i : res.routine.code)
    if (i.op == IrOp::kAddCycles) charged += i.imm;
  int64_t expected = 0;
  for (const Instr& in : prog.code) expected += cyclesFor(in, config);
  // Static anchors carry exactly the microprogram lengths; external wait
  // states are charged at runtime by the memory ops, never statically.
  EXPECT_EQ(charged, expected);
}

TEST(TepIr, DivisionIsNeverFolded) {
  const auto prog = progOf({
      {Opcode::LdaImm, 16, 10},
      {Opcode::LdoImm, 16, 0},
      {Opcode::Div, 16, 0},  // traps at runtime with the interpreter's text
      {Opcode::Tret, 8, 0},
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, arch16());
  ASSERT_TRUE(res.ok) << res.reason;
  // Constant operands do not matter: the division lowers to its helper
  // op, so division by zero fails at runtime like the interpreter.
  EXPECT_EQ(countOps(res.routine, IrOp::kDivMod), 1);
}

TEST(TepIr, RejectsInvalidWidth) {
  const auto prog = progOf({
      {Opcode::Add, 33, 0},
      {Opcode::Tret, 8, 0},
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, arch16());
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.reason.empty());
}

TEST(TepIr, RejectsOversizedRoutine) {
  // Each Add lowers to two ops (its anchor and the ALU op).
  std::vector<Instr> code(ir::kMaxIrOps / 2 + 1, {Opcode::Add, 32, 0});
  code.push_back({Opcode::Tret, 8, 0});
  const LowerResult res = ir::lowerRoutine(progOf(std::move(code)), 0, arch16());
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.reason.find("size limit"), std::string::npos) << res.reason;
}

TEST(TepIr, FallingOffTheProgramLowersToRunOff) {
  const auto prog = progOf({
      {Opcode::LdaImm, 8, 1},  // no Tret: interpreter would run off
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, arch16());
  ASSERT_TRUE(res.ok) << res.reason;
  EXPECT_EQ(countOps(res.routine, IrOp::kRunOff), 1);
}

TEST(TepIr, BackwardLoopKeepsConditionalBranch) {
  // for (acc = 3; acc != 0; --acc) — the loop lowers one-to-one: the
  // backward branch and the loop body stay, each op once.
  const auto prog = progOf({
      {Opcode::LdaImm, 8, 3},
      {Opcode::LdoImm, 8, 1},
      {Opcode::Sub, 8, 0},
      {Opcode::Jnz, 8, 1},
      {Opcode::Tret, 8, 0},
  });
  const LowerResult res = ir::lowerRoutine(prog, 0, arch16());
  ASSERT_TRUE(res.ok) << res.reason;
  EXPECT_EQ(countOps(res.routine, IrOp::kJnz), 1) << res.routine.listing();
  EXPECT_EQ(countOps(res.routine, IrOp::kSub), 1);
}

}  // namespace
}  // namespace pscp::tep
