// Fig. 3 reproduction: the TEP datapath, characterized through its
// microprograms — states per instruction class across the library's
// datapath variants — plus a google-benchmark of simulator throughput.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "tep/assembler.hpp"
#include "tep/machine.hpp"
#include "tep/microcode.hpp"

using namespace pscp;

namespace {

void printMicroStats() {
  struct Variant {
    const char* name;
    hwlib::ArchConfig arch;
  };
  std::vector<Variant> variants;
  {
    hwlib::ArchConfig a;
    a.dataWidth = 8;
    variants.push_back({"8-bit basic", a});
  }
  {
    hwlib::ArchConfig a;
    a.dataWidth = 8;
    a.hasMulDiv = true;
    a.hasBarrelShifter = true;
    variants.push_back({"8-bit +M/D +barrel", a});
  }
  {
    hwlib::ArchConfig a;
    a.dataWidth = 16;
    a.hasMulDiv = true;
    a.hasComparator = true;
    variants.push_back({"16-bit M/D +cmp", a});
  }

  const std::vector<std::pair<const char*, tep::Instr>> classes = {
      {"load imm 16", {tep::Opcode::LdaImm, 16, 5}},
      {"load mem 16", {tep::Opcode::LdaMem, 16, 0x40}},
      {"load reg", {tep::Opcode::LdaReg, 16, 1}},
      {"store mem 16", {tep::Opcode::StaMem, 16, 0x40}},
      {"add 16", {tep::Opcode::Add, 16, 0}},
      {"multiply 16", {tep::Opcode::Mul, 16, 0}},
      {"divide 16", {tep::Opcode::Div, 16, 0}},
      {"compare 16", {tep::Opcode::Cmp, 16, 0}},
      {"shift left 4", {tep::Opcode::Shl, 16, 4}},
      {"branch", {tep::Opcode::Jz, 8, 0}},
      {"port in", {tep::Opcode::Inp, 8, 0x17}},
      {"event set", {tep::Opcode::EvSet, 8, 2}},
  };

  std::printf("=== Fig. 3: TEP microprogram lengths (clocks per instruction) ===\n");
  std::printf("| %-14s |", "instruction");
  for (const auto& v : variants) std::printf(" %-18s |", v.name);
  std::printf("\n|----------------|");
  for (size_t i = 0; i < variants.size(); ++i) std::printf("--------------------|");
  std::printf("\n");
  for (const auto& [name, instr] : classes) {
    std::printf("| %-14s |", name);
    for (const auto& v : variants)
      std::printf(" %18d |", tep::cyclesFor(instr, v.arch));
    std::printf("\n");
  }
  std::printf("\n(the Harvard fetch state and the microprogram dispatch are "
              "included; Table 1 encodes each state in 16 bits)\n\n");
}

const char* kLoop = R"asm(
  .routine main
    LDAI.16 #0
    STAR R0
  loop:
    LDAR.16 R0
    LDOI.16 #1
    ADD.16
    STAR R0
    LDOI.16 #2000
    CMP.16
    JN loop
    TRET
)asm";

void BM_TepSimulatorThroughput(benchmark::State& state) {
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.registerFileSize = 4;
  tep::AsmProgram program = tep::assemble(kLoop);
  const tep::MicroTable micro(program, arch);
  tep::SimpleHost host;
  tep::Tep tep(arch, host);
  tep.setProgram(&program, &micro);
  int64_t cycles = 0;
  for (auto _ : state) {
    const auto r = tep.run("main");
    cycles += r.cycles;
    benchmark::DoNotOptimize(r.cycles);
  }
  state.counters["sim_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TepSimulatorThroughput);

}  // namespace

int main(int argc, char** argv) {
  printMicroStats();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
