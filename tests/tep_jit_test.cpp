// Native-tier differential tests: the headline bit-identity contract.
//
// Three levels, each diffing the compiled tier against the microcode
// interpreter (the reference semantics):
//   1. Routine level — handwritten edge cases (microcode jumps, indirect
//      array writes, width-boundary arithmetic, division by zero, custom
//      instructions, call stack overflow/underflow, running off the
//      program) plus seeded random-program fuzz over several architecture
//      shapes, each over full-size memory banks and over banks sized like
//      a small layout (in-layout, tail and straddling bytes). Compares
//      ACC/OP/flags, exact cycle counts, every host side effect in order,
//      the step of every bus request, port write, raise and fault, and
//      error messages byte for byte.
//   2. Machine level — the SMD workload at 1, 2 and 3 TEPs (and at 2 on
//      an 8-bit datapath) stepped with PSCP_JIT off vs always, and with a
//      mid-run switch from off to always: fired transitions, cycle and
//      stall counts, the CR and the pending events must match on every
//      cycle, port-write logs (values and timestamps) and active states
//      at the end. A two-AND-state chart covers the replay's edges
//      (exclusion groups, three routines on two TEPs, a hazard pair,
//      faults, one on a second chunk, and the machine-cycle guard), and a
//      layout chart's subscripts reach past the layout, straddle its end
//      and leave the address map.
//   3. Fleet/journal level — at 1 and 2 TEPs, fleets diffed across worker
//      counts, and a journal recorded under the interpreter must verify
//      (CR digest checkpoints) when replayed with the native tier forced
//      on, at 1 and 8 workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "actionlang/parser.hpp"
#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/replay.hpp"
#include "pscp/machine.hpp"
#include "tep/jit/codebuf.hpp"
#include "tep/jit/emit_x64.hpp"
#include "tep/jit/runtime.hpp"
#include "tep/jit/tier.hpp"
#include "statechart/parser.hpp"
#include "tep/machine.hpp"
#include "workloads/smd_fleet.hpp"

namespace pscp::tep {
namespace {

// Same LCG as property_test.cpp: deterministic across platforms.
class Rng {
 public:
  explicit Rng(uint32_t seed) : state_(seed) {}
  uint32_t next() {
    state_ = state_ * 1664525u + 1013904223u;
    return state_ >> 8;
  }
  int below(int n) { return static_cast<int>(next() % static_cast<uint32_t>(n)); }
  bool chance(int percent) { return below(100) < percent; }

 private:
  uint32_t state_;
};

// ------------------------------------------------------ routine harness

struct TierRun {
  bool completed = false;
  std::string error;
  uint32_t acc = 0, op = 0;
  bool z = false, n = false, c = false;
  int64_t cycles = 0;
  int64_t faultStep = -1;  ///< step the run faulted at (-1: no fault)
  /// Every external-bus step, port write and raise, each with the step
  /// that performs it ("12 bus", "13 port 64=5", "20 raise 3").
  std::vector<std::string> timed;
};

std::string busAt(int64_t step) { return std::to_string(step) + " bus"; }

std::string portAt(int64_t step, int port, uint32_t value) {
  return std::to_string(step) + " port " + std::to_string(port) + "=" + std::to_string(value);
}

std::string raiseAt(int64_t step, int index) {
  return std::to_string(step) + " raise " + std::to_string(index);
}

/// SimpleHost that notes each external-bus request, port write and raise
/// at the interpreter step the harness is running. Like a machine, it keeps
/// the values of its declared ports in an array by slot, which native code
/// reads and latches in place (JitContext::ports); other addresses go to
/// SimpleHost's map, or fail like a machine's undeclared port when
/// `strictPorts` is set.
class TimedHost : public SimpleHost {
 public:
  using SimpleHost::SimpleHost;

  /// The port map routines run against: 0 and 1 are declared (native code
  /// reaches them in place), 2 and 3 are not (it calls the helper).
  static const std::vector<int>& declaredPorts() {
    static const std::vector<int> ports = {0, 1};
    return ports;
  }

  bool acquireExternalBus(int /*tepId*/) override {
    timed.push_back(busAt(step));
    return true;
  }
  uint32_t readPort(int address) override {
    ++portReads;
    if (uint32_t* v = declaredPort(address, "TEP read of")) return *v;
    return SimpleHost::readPort(address);
  }
  void writePort(int address, uint32_t value) override {
    setPort(address, value);
    timed.push_back(portAt(step, address, value));
  }
  void latchPort(int address, uint32_t value) override {
    ++portLatches;
    setPort(address, value);
  }
  void raiseEvent(int index) override {
    SimpleHost::raiseEvent(index);
    timed.push_back(raiseAt(step, index));
  }
  /// Give port `address` a value without writing it.
  void seedPort(int address, uint32_t value) {
    if (uint32_t* v = declaredPort(address, "seed of"))
      *v = value;
    else
      ports[address] = value;
  }

  int64_t step = 0;
  std::vector<std::string> timed;
  bool strictPorts = false;
  uint32_t portValues[2] = {0, 0};  ///< by slot in declaredPorts()
  /// readPort and latchPort calls: native code makes them only through
  /// the helpers (a routine's writes reach writePort from the replay).
  int portReads = 0;
  int portLatches = 0;

 private:
  void setPort(int address, uint32_t value) {
    if (uint32_t* v = declaredPort(address, "TEP write to"))
      *v = value;
    else
      SimpleHost::latchPort(address, value);
  }
  uint32_t* declaredPort(int address, const char* access) {
    const std::vector<int>& declared = declaredPorts();
    for (size_t slot = 0; slot < declared.size(); ++slot)
      if (declared[slot] == address) return &portValues[slot];
    if (strictPorts) fail("PSCP: %s undeclared port address %d", access, address);
    return nullptr;
  }
};

TierRun runInterp(const AsmProgram& prog, int entry,
                  const hwlib::ArchConfig& config, TimedHost& host,
                  int64_t maxCycles) {
  const MicroTable micro(prog, config);
  Tep tep(config, host, 0);
  tep.setProgram(&prog, &micro);
  TierRun r;
  try {
    tep.startRoutine(entry);
    while (tep.busy() && tep.cyclesExecuted() < maxCycles) {
      host.step = tep.cyclesExecuted();
      tep.stepCycle();
    }
    if (tep.busy()) {
      r.error = "interpreter cycle cap";
    } else {
      r.completed = true;
    }
  } catch (const Error& e) {
    r.error = e.what();
    r.faultStep = host.step;
  }
  r.acc = tep.acc();
  r.op = tep.op();
  r.z = tep.flagZ();
  r.n = tep.flagN();
  r.c = tep.flagC();
  r.cycles = tep.cyclesExecuted();
  r.timed = std::move(host.timed);
  return r;
}

/// Compile and run natively over `host`'s port map, then perform the
/// logged port writes and raises on `host` in log order, as the machine's
/// replay does. Returns false (with `reject` set) when the emitter
/// rejects the routine — never an error, the caller just can't diff this
/// case. `logBus` is the context's flag; `logSize`, when given,
/// receives the number of entries the run logged.
bool runNative(const AsmProgram& prog, int entry,
               const hwlib::ArchConfig& config, TimedHost& host,
               int64_t budget, TierRun* out, std::string* reject,
               bool logBus = true, size_t* logSize = nullptr) {
  const jit::EmitResult em = jit::emitX64(prog, entry, config, TimedHost::declaredPorts());
  if (!em.ok) {
    *reject = "emit: " + em.error;
    return false;
  }
  jit::CodeBuf buf;
  std::string err;
  if (!buf.install(em.code, &err)) {
    *reject = "install: " + err;
    return false;
  }
  jit::EffectLog log;
  std::string error;
  jit::JitContext ctx;
  ctx.host = &host;
  ctx.config = &config;
  ctx.tepId = 0;
  ctx.programSize = prog.code.size();
  ctx.budgetLimit = budget;
  ctx.log = &log;
  ctx.error = &error;
  ctx.cycleBudget = budget;
  ctx.mem = host.memView(0);
  ctx.logAt = log.tail();
  ctx.logEnd = log.limit();
  ctx.ports = host.portValues;
  ctx.logBus = logBus ? 1 : 0;
  const auto fn =
      reinterpret_cast<jit::CompiledFn>(const_cast<void*>(buf.entry()));
  const int32_t status = fn(&ctx);
  EXPECT_LE(ctx.logAt, ctx.logEnd) << "the log cursor ran past the log's capacity";
  log.setTail(ctx.logAt);
  TierRun r;
  if (status == 0) {
    r.completed = true;
  } else {
    r.error = error;
    if (!ctx.overBudget) r.faultStep = jit::faultStepOf(ctx);
  }
  // A bus run is logged whole at its access; steps past a fault never run.
  const int64_t lastStep = r.faultStep >= 0 ? r.faultStep : INT64_MAX;
  for (const jit::TimedEffect& e : log) {
    switch (e.kind) {
      case jit::TimedEffect::Kind::kBus:
        for (int64_t s = e.step; s < e.step + e.arg && s <= lastStep; ++s)
          r.timed.push_back(busAt(s));
        break;
      case jit::TimedEffect::Kind::kPortWrite:
        host.writePort(e.arg, e.value);
        r.timed.push_back(portAt(e.step, e.arg, e.value));
        break;
      case jit::TimedEffect::Kind::kRaise:
        host.raiseEvent(e.arg);
        r.timed.push_back(raiseAt(e.step, e.arg));
        break;
    }
  }
  if (logSize != nullptr) *logSize = log.size();
  r.acc = ctx.acc;
  r.op = ctx.op;
  r.z = ctx.flagZ != 0;
  r.n = ctx.flagN != 0;
  r.c = ctx.flagC != 0;
  r.cycles = ctx.cycles;
  *out = r;
  return true;
}

// Addresses the generated programs may touch; the diff compares exactly
// these bytes on both hosts. Over the small-layout hosts below, 0x10, 0x40
// and 0x4000 lie inside the layout, 0x100, 0x3F0, 0x4010 and 0x4100 in a
// bank's tail, and a word at 0xFF or 0x400F straddles a bank's boundary.
const int32_t kAddrPool[] = {0x10,   0x40,   0xFF,   0x100, 0x3F0,
                             0x4000, 0x400F, 0x4010, 0x4100};
constexpr int kAddrPoolSize = static_cast<int>(std::size(kAddrPool));

/// Bank sizes the routine diffs run over: full-size banks, where every
/// mapped address is in place, and banks sized like a small compiled
/// layout, so the pool also reaches tail and straddling bytes.
struct HostShape {
  int32_t internalBytes;
  int32_t externalBytes;
  const char* name;
};
const HostShape kHostShapes[] = {{kExternalBase, kExternalSize, "full-size banks"},
                                 {0x100, 0x10, "small layout"}};

void seedHost(TimedHost& host, Rng& rng) {
  for (const int32_t addr : kAddrPool)
    host.writeWord(addr, rng.next(), 4);
  for (int i = 0; i < 8; ++i) host.writeReg(i, rng.next());
  for (int p = 0; p < 4; ++p) host.seedPort(p, rng.next() & 0xFFFF);
  for (int c = 0; c < 4; ++c) host.conditions[c] = rng.chance(50);
  for (int s = 0; s < 4; ++s) host.states[s] = rng.chance(50);
}

/// What a diff varies besides the program and the host shape.
struct DiffOptions {
  /// The native context's logBus flag; when off, the interpreter's bus
  /// steps are left out of the comparison.
  bool logBus = true;
  /// Both hosts reject undeclared ports, like a machine.
  bool strictPorts = false;
  /// Bytes to compare besides kAddrPool's words (mapped addresses only).
  std::vector<int32_t> watch;
};

/// Run `prog` on both tiers over identically seeded hosts of one shape and
/// require bit-identical outcomes, down to the step of every bus request,
/// port write and raise and of a fault. Returns false when the native tier
/// rejected the routine (callers assert how often that may happen).
bool diffRoutineOn(const AsmProgram& prog, int entry, const hwlib::ArchConfig& config,
                   uint32_t hostSeed, const HostShape& shape, const std::string& label,
                   const DiffOptions& options = {}) {
  TimedHost interpHost(shape.internalBytes, shape.externalBytes);
  TimedHost nativeHost(shape.internalBytes, shape.externalBytes);
  {
    Rng a(hostSeed);
    seedHost(interpHost, a);
    Rng b(hostSeed);
    seedHost(nativeHost, b);
  }
  interpHost.strictPorts = nativeHost.strictPorts = options.strictPorts;
  TierRun native;
  std::string reject;
  if (!runNative(prog, entry, config, nativeHost, 4'000'000, &native, &reject,
                 options.logBus))
    return false;
  TierRun interp = runInterp(prog, entry, config, interpHost, 4'000'000);
  if (!options.logBus)
    std::erase_if(interp.timed, [](const std::string& e) { return e.ends_with(" bus"); });

  EXPECT_EQ(interp.completed, native.completed) << label;
  EXPECT_EQ(interp.error, native.error) << label;
  EXPECT_EQ(interp.faultStep, native.faultStep) << label;
  EXPECT_EQ(interp.timed, native.timed) << label;
  if (interp.completed && native.completed) {
    EXPECT_EQ(interp.acc, native.acc) << label;
    EXPECT_EQ(interp.op, native.op) << label;
    EXPECT_EQ(interp.z, native.z) << label;
    EXPECT_EQ(interp.n, native.n) << label;
    EXPECT_EQ(interp.c, native.c) << label;
    EXPECT_EQ(interp.cycles, native.cycles) << label;
    for (const int32_t addr : kAddrPool)
      EXPECT_EQ(interpHost.readWord(addr, 4), nativeHost.readWord(addr, 4))
          << label << " mem@0x" << std::hex << addr;
    for (const int32_t addr : options.watch)
      EXPECT_EQ(interpHost.readWord(addr, 1), nativeHost.readWord(addr, 1))
          << label << " mem@0x" << std::hex << addr;
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(interpHost.readReg(i), nativeHost.readReg(i)) << label << " r" << i;
    EXPECT_EQ(interpHost.ports, nativeHost.ports) << label;
    for (int slot = 0; slot < 2; ++slot)
      EXPECT_EQ(interpHost.portValues[slot], nativeHost.portValues[slot])
          << label << " port slot " << slot;
    EXPECT_EQ(interpHost.raisedEvents, nativeHost.raisedEvents) << label;
    EXPECT_EQ(interpHost.conditions, nativeHost.conditions) << label;
  }
  return true;
}

/// diffRoutineOn over every host shape.
bool diffRoutine(const AsmProgram& prog, int entry,
                 const hwlib::ArchConfig& config, uint32_t hostSeed,
                 const std::string& label) {
  for (const HostShape& shape : kHostShapes)
    if (!diffRoutineOn(prog, entry, config, hostSeed, shape, label + " (" + shape.name + ")"))
      return false;
  return true;
}

hwlib::ArchConfig archPlain8() {
  hwlib::ArchConfig c;
  c.dataWidth = 8;
  c.registerFileSize = 8;
  return c;
}

hwlib::ArchConfig archFull16() {
  hwlib::ArchConfig c;
  c.dataWidth = 16;
  c.hasMulDiv = true;
  c.hasComparator = true;
  c.hasTwosComplement = true;
  c.registerFileSize = 8;
  return c;
}

hwlib::ArchConfig archWide32() {
  hwlib::ArchConfig c;
  c.dataWidth = 32;
  c.hasMulDiv = true;
  c.hasBarrelShifter = true;
  c.registerFileSize = 8;
  return c;
}

std::vector<hwlib::ArchConfig> allArchs() {
  return {archPlain8(), archFull16(), archWide32()};
}

#define SKIP_WITHOUT_BACKEND()                                        \
  do {                                                                \
    if (!jit::jitBackendAvailable())                                  \
      GTEST_SKIP() << "native tier unavailable on this build/host";   \
  } while (0)

// ----------------------------------------------------- handwritten cases

AsmProgram progOf(std::vector<Instr> code) {
  AsmProgram p;
  p.code = std::move(code);
  return p;
}

TEST(TepJitDiff, WidthBoundaryArithmetic) {
  SKIP_WITHOUT_BACKEND();
  // Carries, borrows and sign bits at 1/8/16/31/32-bit widths, including
  // values whose raw 32-bit form has bits above the operation width.
  const int32_t values[] = {0, 1, -1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                            static_cast<int32_t>(0xFFFF),
                            0x7FFFFFFF, static_cast<int32_t>(0x80000000)};
  const Opcode ops[] = {Opcode::Add, Opcode::Sub, Opcode::Cmp, Opcode::And,
                        Opcode::Xor, Opcode::Mul};
  const int widths[] = {1, 8, 16, 31, 32};
  for (const auto& config : allArchs()) {
    for (const int w : widths) {
      for (const Opcode op : ops) {
        for (const int32_t a : values) {
          for (const int32_t b : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {Opcode::LdoImm, w, b},
                {op, w, 0},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 7, "alu"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " b=" << b;
          }
        }
      }
    }
  }
}

TEST(TepJitDiff, UnaryAndShiftSemantics) {
  SKIP_WITHOUT_BACKEND();
  const int32_t values[] = {0, 1, -1, 0x80, 0xFFFF, 0x12345678,
                            static_cast<int32_t>(0x80000000)};
  for (const auto& config : allArchs()) {
    for (const int w : {1, 8, 16, 17, 32}) {
      for (const Opcode op : {Opcode::Not, Opcode::Neg}) {
        for (const int32_t a : values) {
          const auto prog = progOf({
              {Opcode::LdaImm, w, a},
              {op, w, 0},
              {Opcode::Tret, 8, 0},
          });
          ASSERT_TRUE(diffRoutine(prog, 0, config, 9, "unary"))
              << opcodeMnemonic(op) << " w" << w << " a=" << a;
        }
      }
      for (const Opcode op : {Opcode::Shl, Opcode::Shr, Opcode::Sar}) {
        for (const int count : {0, 1, 7, 15, 31, 33}) {  // 33 wraps to 1
          for (const int32_t a : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {op, w, count},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 11, "shift"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " n=" << count;
          }
        }
      }
    }
  }
}

// Division runs in place at every width; a masked zero divisor and
// INT32_MIN / -1 at width 32 take the helper. Each width's most negative
// value (0x80, 0x8000, 0x40000000 at 31 bits, INT32_MIN) meets -1.
TEST(TepJitDiff, DivisionIncludingByZero) {
  SKIP_WITHOUT_BACKEND();
  const int32_t values[] = {0,      1,      -1,         7,
                            -7,     0x80,   255,        0x8000,
                            -32768, 0x40000000, static_cast<int32_t>(0x80000000)};
  for (const auto& config : allArchs()) {
    for (const int w : {1, 8, 16, 31, 32}) {
      for (const Opcode op :
           {Opcode::Div, Opcode::Mod, Opcode::Divu, Opcode::Modu}) {
        for (const int32_t a : values) {
          for (const int32_t b : values) {
            const auto prog = progOf({
                {Opcode::LdaImm, w, a},
                {Opcode::LdoImm, w, b},
                {op, w, 0},
                {Opcode::Tret, 8, 0},
            });
            ASSERT_TRUE(diffRoutine(prog, 0, config, 13, "div"))
                << opcodeMnemonic(op) << " w" << w << " a=" << a << " b=" << b;
          }
        }
      }
    }
  }
}

// INT32_MIN / -1 overflows int32; both tiers wrap like the reference
// (quotient INT32_MIN, remainder 0) instead of trapping.
TEST(TepJitDiff, Int32MinOverMinusOneWraps) {
  SKIP_WITHOUT_BACKEND();
  for (const Opcode op : {Opcode::Div, Opcode::Mod}) {
    const auto prog = progOf({
        {Opcode::LdaImm, 32, static_cast<int32_t>(0x80000000)},
        {Opcode::LdoImm, 32, -1},
        {op, 32, 0},
        {Opcode::Tret, 8, 0},
    });
    const uint32_t expected = op == Opcode::Div ? 0x80000000u : 0u;
    TimedHost interpHost;
    EXPECT_EQ(runInterp(prog, 0, archWide32(), interpHost, 100).acc, expected);
    TimedHost nativeHost;
    TierRun native;
    std::string reject;
    ASSERT_TRUE(runNative(prog, 0, archWide32(), nativeHost, 100, &native, &reject)) << reject;
    EXPECT_TRUE(native.completed) << native.error;
    EXPECT_EQ(native.acc, expected);
  }
}

// External loads and stores of 1, 2, 3 and 4 bytes, at static and dynamic
// addresses, over a 16-byte external layout: the bank's first and last
// in-layout bytes run in place; an access straddling the layout's end, a
// tail address, an access straddling the map's end, an unmapped address, a
// 3-byte access and a dynamic address in the internal bank's tail take
// pscpJitLoad/pscpJitStore. With the bus logged and not, both tiers agree
// on values, cycles, every logged step and faults.
TEST(TepJitDiff, ExternalAccessesInPlaceAndThroughTheHelper) {
  SKIP_WITHOUT_BACKEND();
  const HostShape shape = {0x100, 0x10, "small layout"};
  const int32_t layoutEnd = kExternalBase + shape.externalBytes;
  const int32_t mapEnd = kExternalBase + kExternalSize;
  for (const auto& config : allArchs()) {
    for (const int width : {8, 16, 24, 32}) {
      const int bytes = width / 8;
      const int32_t addrs[] = {kExternalBase,         layoutEnd - bytes, layoutEnd - bytes + 1,
                               layoutEnd + 4,         mapEnd - 1,        mapEnd + 0x10,
                               0x200,                 0xFF};
      for (const int32_t addr : addrs) {
        DiffOptions options;
        for (int32_t a = addr; a < addr + bytes; ++a)
          if (tep::DataMemory::mapped(a)) options.watch.push_back(a);
        const std::vector<std::pair<const char*, AsmProgram>> progs = {
            {"static load", progOf({{Opcode::LdaMem, width, addr},
                                    {Opcode::Outp, 16, 0},
                                    {Opcode::Tret, 8, 0}})},
            {"static store", progOf({{Opcode::LdaImm, 32, 0x12345678},
                                     {Opcode::StaMem, width, addr},
                                     {Opcode::LdaImm, 8, 0},
                                     {Opcode::LdaMem, width, addr},
                                     {Opcode::Tret, 8, 0}})},
            {"dynamic load", progOf({{Opcode::LdoImm, 16, addr},
                                     {Opcode::LdaInd, width, 0},
                                     {Opcode::EvSet, 8, 1},
                                     {Opcode::Tret, 8, 0}})},
            {"dynamic store", progOf({{Opcode::LdoImm, 16, addr},
                                      {Opcode::LdaImm, 32, static_cast<int32_t>(0x9ABCDEF0)},
                                      {Opcode::StaInd, width, 0},
                                      {Opcode::LdaImm, 8, 0},
                                      {Opcode::LdaInd, width, 0},
                                      {Opcode::Tret, 8, 0}})},
        };
        for (const bool logBus : {true, false}) {
          options.logBus = logBus;
          for (const auto& [what, prog] : progs) {
            const std::string label = std::string(what) + " w" +
                                      std::to_string(config.dataWidth) + " " +
                                      std::to_string(width) + "-bit @0x" +
                                      strfmt("%X", addr) + (logBus ? "" : " unlogged");
            ASSERT_TRUE(diffRoutineOn(prog, 0, config, 5, shape, label, options));
            ASSERT_FALSE(::testing::Test::HasFailure()) << label;
          }
        }
      }
    }
  }
}

// More effects than the log's initial capacity: whichever append finds it
// full (a raise, a declared port write, an external access's bus entry)
// takes its helper, which grows the log and moves the cursor, and the
// appends after it run in place again, in order.
TEST(TepJitDiff, EffectLogGrowsFromEmittedCode) {
  SKIP_WITHOUT_BACKEND();
  const int capacity = static_cast<int>(jit::EffectLog::kInitialCapacity);
  for (const auto& config : allArchs()) {
    for (int lead = capacity - 4; lead <= capacity + 1; ++lead) {
      std::vector<Instr> code;
      for (int i = 0; i < lead; ++i) code.push_back({Opcode::EvSet, 8, i % 4});
      code.push_back({Opcode::LdaMem, 16, kExternalBase});
      code.push_back({Opcode::Outp, 16, 0});
      code.push_back({Opcode::StaMem, 16, kExternalBase + 2});
      code.push_back({Opcode::EvSet, 8, 1});
      code.push_back({Opcode::Outp, 16, 2});
      for (int i = 0; i < capacity + 3; ++i) code.push_back({Opcode::EvSet, 8, 2});
      code.push_back({Opcode::Tret, 8, 0});
      const AsmProgram prog = progOf(code);
      const std::string label = "lead " + std::to_string(lead) + " w" +
                                std::to_string(config.dataWidth);
      ASSERT_TRUE(diffRoutine(prog, 0, config, 3, label));
      ASSERT_FALSE(::testing::Test::HasFailure()) << label;

      TimedHost host;
      TierRun run;
      std::string reject;
      size_t logged = 0;
      ASSERT_TRUE(runNative(prog, 0, config, host, 4'000'000, &run, &reject, true, &logged));
      // The raises, two bus entries, two port writes.
      EXPECT_EQ(logged, static_cast<size_t>(lead + 1 + capacity + 3 + 4)) << label;
    }
  }
}

// A declared port is read and latched in place (JitContext::ports), an
// undeclared one through pscpJitPortRead/pscpJitPortWrite; a routine reads
// back its own write either way. On hosts that reject undeclared ports,
// like a machine, both tiers fail with the same diagnostic at one step.
TEST(TepJitDiff, PortsInPlaceAndThroughTheHelper) {
  SKIP_WITHOUT_BACKEND();
  for (const auto& config : allArchs()) {
    for (const int port : {0, 1, 2, 3}) {
      const bool declared = port < 2;
      for (const int width : {8, 16, 32}) {
        const AsmProgram writeBack = progOf({{Opcode::LdaImm, 32, 0x1234ABCD},
                                             {Opcode::Outp, width, port},
                                             {Opcode::LdaImm, 8, 0},
                                             {Opcode::Inp, width, port},
                                             {Opcode::Outp, 16, port ^ 1},
                                             {Opcode::Tret, 8, 0}});
        const std::string label = "port " + std::to_string(port) + " " +
                                  std::to_string(width) + "-bit w" +
                                  std::to_string(config.dataWidth);
        ASSERT_TRUE(diffRoutine(writeBack, 0, config, 21, label));

        TimedHost host;
        TierRun run;
        std::string reject;
        ASSERT_TRUE(runNative(writeBack, 0, config, host, 4'000'000, &run, &reject));
        EXPECT_EQ(run.acc, width == 8 ? 0xCDu : width == 16 ? 0xABCDu : 0x1234ABCDu) << label;
        // Only the helpers call the host's readPort/latchPort (port ^ 1 is
        // declared exactly when `port` is).
        EXPECT_EQ(host.portReads, declared ? 0 : 1) << label;
        EXPECT_EQ(host.portLatches, declared ? 0 : 2) << label;

        DiffOptions strict;
        strict.strictPorts = true;
        for (const HostShape& shape : kHostShapes)
          ASSERT_TRUE(diffRoutineOn(writeBack, 0, config, 21, shape, label + " strict", strict));
        const AsmProgram readFirst = progOf({{Opcode::Inp, width, port},
                                             {Opcode::Outp, 16, 0},
                                             {Opcode::Tret, 8, 0}});
        ASSERT_TRUE(diffRoutineOn(readFirst, 0, config, 21, kHostShapes[0],
                                  label + " strict read", strict));
        ASSERT_FALSE(::testing::Test::HasFailure()) << label;
      }
    }
  }
  // The diagnostic itself, from the native tier.
  TimedHost host;
  host.strictPorts = true;
  TierRun run;
  std::string reject;
  ASSERT_TRUE(runNative(progOf({{Opcode::LdaImm, 8, 1}, {Opcode::Outp, 8, 3}, {Opcode::Tret, 8, 0}}),
                        0, archPlain8(), host, 100, &run, &reject));
  EXPECT_EQ(run.error, "PSCP: TEP write to undeclared port address 3");
}

TEST(TepJitDiff, MicrocodeJumpsAndLoops) {
  SKIP_WITHOUT_BACKEND();
  for (const auto& config : allArchs()) {
    // Backward loop: count 5 down to 0 through a register.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdaImm, 8, 5},
                                {Opcode::StaReg, 8, 0},
                                {Opcode::LdaReg, 8, 0},   // loop head (2)
                                {Opcode::LdoImm, 8, 1},
                                {Opcode::Sub, 8, 0},
                                {Opcode::StaReg, 8, 0},
                                {Opcode::Jnz, 8, 2},
                                {Opcode::Tret, 8, 0},
                            }),
                            0, config, 17, "loop"));
    // All four conditional jumps, taken and not taken.
    for (const Opcode jcc : {Opcode::Jz, Opcode::Jnz, Opcode::Jn, Opcode::Jc}) {
      for (const int32_t a : {0, 1, -1, 0x80}) {
        ASSERT_TRUE(diffRoutine(progOf({
                                    {Opcode::LdaImm, 8, a},
                                    {Opcode::LdoImm, 8, 1},
                                    {Opcode::Sub, 8, 0},
                                    {jcc, 8, 6},
                                    {Opcode::LdaImm, 8, 0x33},
                                    {Opcode::Outp, 8, 1},
                                    {Opcode::Outp, 8, 0},  // target (6)
                                    {Opcode::Tret, 8, 0},
                                }),
                                0, config, 19, "jcc"))
            << opcodeMnemonic(jcc) << " a=" << a;
      }
    }
    // Calls: nested subroutines sharing the accumulator.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdaImm, 16, 100},
                                {Opcode::Call, 8, 4},
                                {Opcode::Outp, 16, 0},
                                {Opcode::Tret, 8, 0},
                                {Opcode::LdoImm, 16, 11},  // sub1 (4)
                                {Opcode::Add, 16, 0},
                                {Opcode::Call, 8, 8},
                                {Opcode::Ret, 8, 0},
                                {Opcode::LdoImm, 16, 3},   // sub2 (8)
                                {Opcode::Mul, 16, 0},
                                {Opcode::Ret, 8, 0},
                            }),
                            0, config, 23, "call"));
    // Static cost: every instruction's whole microprogram is charged up
    // front, an external access adds its chunks' wait states as it runs.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdaImm, 16, 7},
                                {Opcode::LdoMem, 32, 0x4000},  // external, chunked
                                {Opcode::Mul, 16, 0},
                                {Opcode::Outp, 16, 2},
                                {Opcode::Tret, 8, 0},
                            }),
                            0, config, 25, "static-cost"));
  }
}

// The suite keeps the name of the three-address IR this check began on;
// the emitter now charges each instruction's microprogram length itself.
TEST(TepIr, StaticCostMatchesMicrocodeLengths) {
  SKIP_WITHOUT_BACKEND();
  hwlib::ArchConfig config;
  config.dataWidth = 16;
  config.hasMulDiv = true;
  config.registerFileSize = 8;
  const auto prog = progOf({
      {Opcode::LdaImm, 16, 7},
      {Opcode::LdoMem, 32, 0x4000},  // external, chunked
      {Opcode::Mul, 16, 0},
      {Opcode::Outp, 16, 2},
      {Opcode::Tret, 8, 0},
  });
  int64_t microcodeLengths = 0;
  for (const Instr& in : prog.code) microcodeLengths += cyclesFor(in, config);
  // Each chunk of the uncontended external access adds one wait state as
  // it runs; no other cycle is charged.
  int64_t waitStates = 0;
  for (const MicroInstr& mi : microcodeFor(prog.code[1], config))
    if (mi.op == MicroOp::MemRead) ++waitStates;
  ASSERT_EQ(waitStates, 2) << "a 32-bit access takes two chunks on a 16-bit datapath";

  TimedHost host(kExternalBase, kExternalSize);
  TierRun run;
  std::string reject;
  ASSERT_TRUE(runNative(prog, 0, config, host, 4'000'000, &run, &reject)) << reject;
  EXPECT_TRUE(run.completed) << run.error;
  EXPECT_EQ(run.cycles, microcodeLengths + waitStates);
}

TEST(TepJitDiff, IndirectAndIndexedArrayWrites) {
  SKIP_WITHOUT_BACKEND();
  for (const auto& config : allArchs()) {
    // OP-relative addressing with the interpreter's 16-bit MAR wrap,
    // internal and external targets, plus a displaced record field.
    for (const int32_t base : {0x100, 0x4000}) {
      ASSERT_TRUE(diffRoutine(progOf({
                                  {Opcode::LdoImm, 16, base},
                                  {Opcode::LdaImm, 16, 0x1234},
                                  {Opcode::StaInd, 16, 0},
                                  {Opcode::LdaInd, 16, 0},
                                  {Opcode::LdaIdx, 16, 2},
                                  {Opcode::StaIdx, 16, 4},
                                  {Opcode::Tret, 8, 0},
                              }),
                              0, config, 29, "indirect"))
          << "base=0x" << std::hex << base;
    }
    // External pointer walk: pointer value itself loaded from memory.
    ASSERT_TRUE(diffRoutine(progOf({
                                {Opcode::LdoMem, 16, 0x40},   // OP = mem[0x40]
                                {Opcode::LdaImm, 8, 0x5A},
                                {Opcode::StaInd, 8, 0},       // may fault: both
                                {Opcode::Tret, 8, 0},         // tiers must agree
                            }),
                            0, config, 31, "pointer-walk"));
  }
}

TEST(TepJitDiff, ErrorPathsMatchByteForByte) {
  SKIP_WITHOUT_BACKEND();
  const auto config = archFull16();
  // Running off the program (no Tret).
  ASSERT_TRUE(diffRoutine(progOf({{Opcode::LdaImm, 8, 1}}), 0, config, 1, "runoff"));
  // Jump to an out-of-range target.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Jmp, 8, 99},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "jump-runoff"));
  // Call stack overflow (self-recursion blows the 32-deep stack).
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Call, 8, 0},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "stack-overflow"));
  // RET with an empty call stack.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::Ret, 8, 0},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "stack-underflow"));
  // Unmapped memory access.
  ASSERT_TRUE(diffRoutine(progOf({
                              {Opcode::LdaMem, 16, 0x7FFF},
                              {Opcode::Tret, 8, 0},
                          }),
                          0, config, 1, "unmapped"));
}

// A multi-byte access whose first bytes map and whose last does not
// faults at the step of the chunk that touches the unmapped byte; the bus
// steps of the chunks before it, and of an earlier access, line up too.
TEST(TepJitDiff, FaultOnALaterChunkLandsOnItsStep) {
  SKIP_WITHOUT_BACKEND();
  const int32_t end = kExternalBase + kExternalSize;  // first unmapped byte
  for (const auto& config : allArchs()) {
    for (const int width : {16, 32}) {
      for (int32_t addr = end - width / 8 + 1; addr < end; ++addr) {
        const std::string at = " w" + std::to_string(config.dataWidth) + " " +
                               std::to_string(width) + "-bit @" + std::to_string(addr);
        ASSERT_TRUE(diffRoutine(progOf({
                                    {Opcode::LdaMem, width, 0x4010},
                                    {Opcode::Outp, 8, 1},
                                    {Opcode::LdaMem, width, addr},
                                    {Opcode::Tret, 8, 0},
                                }),
                                0, config, 7, "load" + at));
        ASSERT_TRUE(diffRoutine(progOf({
                                    {Opcode::LdaImm, width, 0x1234},
                                    {Opcode::StaMem, width, addr},
                                    {Opcode::Tret, 8, 0},
                                }),
                                0, config, 7, "store" + at));
        ASSERT_TRUE(diffRoutine(progOf({
                                    {Opcode::LdoImm, 16, addr},
                                    {Opcode::LdaInd, width, 0},
                                    {Opcode::Tret, 8, 0},
                                }),
                                0, config, 7, "indirect" + at));
      }
    }
  }
}

TEST(TepJitDiff, BudgetExhaustionUsesInterpreterMessage) {
  SKIP_WITHOUT_BACKEND();
  // An infinite loop must hit the configuration-cycle budget with the
  // interpreter's exact message. (At routine level the interpreter has no
  // budget guard — the machine-level loop owns it — so only the native
  // side is run here and its message checked against the known text.)
  const auto prog = progOf({{Opcode::Jmp, 8, 0}});
  TimedHost host;
  TierRun native;
  std::string reject;
  ASSERT_TRUE(
      runNative(prog, 0, archPlain8(), host, 10'000, &native, &reject))
      << reject;
  EXPECT_FALSE(native.completed);
  EXPECT_EQ(native.error,
            "PSCP configuration cycle exceeded 10000 machine cycles");
}

// -------------------------------------------------------------- fuzzing

/// Generate a random terminating routine: straight-line body with forward
/// branches, register/memory/port traffic and CR ops, then Tret, then a
/// few straight-line subroutines for Call targets.
AsmProgram genProgram(Rng& rng) {
  const int widths[] = {1, 3, 8, 12, 16, 21, 31, 32};
  const int32_t imms[] = {0, 1, -1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000,
                          static_cast<int32_t>(0xFFFF), 0x7FFFFFFF,
                          static_cast<int32_t>(0x80000000)};
  const int bodyLen = 4 + rng.below(28);
  const int tretAt = bodyLen;  // body occupies [0, bodyLen)
  const int subCount = 1 + rng.below(3);

  // Lay out subroutine entries after the Tret so Call operands are known
  // while the body is generated.
  std::vector<int> subEntry(static_cast<size_t>(subCount));
  int at = tretAt + 1;
  std::vector<std::vector<Instr>> subs;
  Rng subRng(rng.next());
  for (int s = 0; s < subCount; ++s) {
    subEntry[static_cast<size_t>(s)] = at;
    std::vector<Instr> body;
    const int len = 1 + subRng.below(3);
    for (int i = 0; i < len; ++i) {
      const int w = widths[subRng.below(8)];
      switch (subRng.below(4)) {
        case 0: body.push_back({Opcode::LdoImm, w, imms[subRng.below(11)]}); break;
        case 1: body.push_back({Opcode::Add, w, 0}); break;
        case 2: body.push_back({Opcode::Xor, w, 0}); break;
        default: body.push_back({Opcode::Tao, w, 0}); break;
      }
    }
    body.push_back({Opcode::Ret, 8, 0});
    at += static_cast<int>(body.size());
    subs.push_back(std::move(body));
  }

  AsmProgram prog;
  for (int i = 0; i < bodyLen; ++i) {
    const int w = widths[rng.below(8)];
    const int32_t imm = imms[rng.below(11)];
    Instr in{Opcode::Nop, w, 0};
    switch (rng.below(24)) {
      case 0: in = {Opcode::LdaImm, w, imm}; break;
      case 1: in = {Opcode::LdoImm, w, imm}; break;
      case 2: in = {Opcode::LdaMem, w, kAddrPool[rng.below(kAddrPoolSize)]}; break;
      case 3: in = {Opcode::LdoMem, w, kAddrPool[rng.below(kAddrPoolSize)]}; break;
      case 4: in = {Opcode::StaMem, w, kAddrPool[rng.below(kAddrPoolSize)]}; break;
      case 5: in = {Opcode::LdaReg, w, rng.below(8)}; break;
      case 6: in = {Opcode::StaReg, w, rng.below(8)}; break;
      case 7: in = {Opcode::LdoReg, w, rng.below(8)}; break;
      case 8: in = {Opcode::Tao, w, 0}; break;
      case 9: {
        const Opcode alu[] = {Opcode::Add, Opcode::Sub, Opcode::And,
                              Opcode::Or, Opcode::Xor, Opcode::Not,
                              Opcode::Neg, Opcode::Mul, Opcode::Cmp};
        in = {alu[rng.below(9)], w, 0};
        break;
      }
      case 10: {
        const Opcode dv[] = {Opcode::Div, Opcode::Mod, Opcode::Divu,
                             Opcode::Modu};
        in = {dv[rng.below(4)], w, 0};
        break;
      }
      case 11: {
        const Opcode sh[] = {Opcode::Shl, Opcode::Shr, Opcode::Sar};
        in = {sh[rng.below(3)], w, rng.below(34)};
        break;
      }
      case 12:
      case 13: {
        // Forward branch into the remaining body (or straight to Tret).
        const Opcode br[] = {Opcode::Jmp, Opcode::Jz, Opcode::Jnz,
                             Opcode::Jn, Opcode::Jc};
        const int target = i + 1 + rng.below(tretAt - i);
        in = {br[rng.below(5)], 8, target};
        break;
      }
      case 14:
        in = {Opcode::Call, 8, subEntry[static_cast<size_t>(rng.below(subCount))]};
        break;
      case 15: in = {Opcode::Inp, w, rng.below(4)}; break;
      case 16: in = {Opcode::Outp, w, rng.below(4)}; break;
      case 17: in = {Opcode::EvSet, 8, rng.below(4)}; break;
      case 18: in = {Opcode::CSet, 8, rng.below(4)}; break;
      case 19: in = {Opcode::CClr, 8, rng.below(4)}; break;
      case 20: in = {Opcode::CTst, 8, rng.below(4)}; break;
      case 21: in = {Opcode::STst, 8, rng.below(4)}; break;
      case 22: {
        // Indirect/indexed over a safe pointer: OP is loaded just before.
        prog.code.push_back({Opcode::LdoImm, 16, kAddrPool[rng.below(kAddrPoolSize)]});
        const Opcode ind[] = {Opcode::LdaInd, Opcode::StaInd, Opcode::LdaIdx,
                              Opcode::StaIdx};
        const Opcode pick = ind[rng.below(4)];
        const int32_t disp =
            (pick == Opcode::LdaIdx || pick == Opcode::StaIdx) ? rng.below(8) : 0;
        in = {pick, w, disp};
        break;
      }
      default: in = {Opcode::Nop, 8, 0}; break;
    }
    prog.code.push_back(in);
  }
  // The branch targets were chosen against pre-growth indices; indirect
  // setup pushes extra LdoImm words, so re-target anything now stale to
  // the Tret (still a valid forward branch).
  const int realTret = static_cast<int>(prog.code.size());
  for (int idx = 0; idx < realTret; ++idx) {
    Instr& in = prog.code[static_cast<size_t>(idx)];
    switch (in.op) {
      case Opcode::Jmp: case Opcode::Jz: case Opcode::Jnz:
      case Opcode::Jn: case Opcode::Jc:
        // Strictly forward, in range: the body always terminates.
        if (in.operand <= idx || in.operand > realTret) in.operand = realTret;
        break;
      default: break;
    }
  }
  prog.code.push_back({Opcode::Tret, 8, 0});
  const int shift = realTret - tretAt;
  for (auto& sub : subs)
    for (const Instr& in : sub) prog.code.push_back(in);
  // Call operands were laid out against the pre-growth Tret position.
  for (Instr& in : prog.code)
    if (in.op == Opcode::Call) in.operand += shift;
  return prog;
}

TEST(TepJitDiff, RandomProgramFuzz) {
  SKIP_WITHOUT_BACKEND();
  int rejected = 0;
  int diffed = 0;
  const auto archs = allArchs();
  for (uint32_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed * 2654435761u);
    const AsmProgram prog = genProgram(rng);
    const auto& config = archs[seed % archs.size()];
    if (diffRoutine(prog, 0, config, seed, "fuzz seed " + std::to_string(seed)))
      ++diffed;
    else
      ++rejected;
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed << "\n"
                    << prog.listing();
      break;
    }
  }
  // The generator only emits supported shapes; nothing may be rejected.
  EXPECT_EQ(rejected, 0);
  EXPECT_GE(diffed, 100);
}

// A second seed lane pinned to the richest arch shape (16-bit with
// mul/div/comparator/two's complement) so chunked-width paths get extra
// coverage beyond the round-robin in RandomProgramFuzz.
TEST(TepJitDiff, FuzzWithCrossingBranches) {
  SKIP_WITHOUT_BACKEND();
  for (uint32_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 40503u + 7u);
    AsmProgram prog = genProgram(rng);
    const auto config = archFull16();
    (void)diffRoutine(prog, 0, config, seed ^ 0x55u,
                      "crossing seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed << "\n" << prog.listing();
      break;
    }
  }
}

// Custom instructions (paper Sec. 3.3) have two implementations: the
// interpreter's CustomExec micro-op and the native tier's pscpJitCustom
// helper. Every CustomOp runs against OP and against a constant, at chain
// widths 8, 16 and 32, plus a multi-stage chain.
TEST(TepJitDiff, CustomInstructions) {
  SKIP_WITHOUT_BACKEND();
  using hwlib::CustomOp;
  const CustomOp ops[] = {CustomOp::Add, CustomOp::Sub, CustomOp::And,
                          CustomOp::Or,  CustomOp::Xor, CustomOp::Shl,
                          CustomOp::Shr, CustomOp::Sar, CustomOp::Neg,
                          CustomOp::Not};
  const auto konst = static_cast<int32_t>(0xA5A5A5A5);  // shift count 5
  std::vector<hwlib::CustomInstr> customs;
  for (const int width : {8, 16, 32}) {
    for (const CustomOp op : ops) {
      for (const bool useConst : {false, true}) {
        hwlib::CustomInstr ci;
        ci.width = width;
        ci.steps = {{op, useConst, useConst ? konst : 0}};
        customs.push_back(ci);
      }
    }
    hwlib::CustomInstr chain;
    chain.width = width;
    chain.steps = {{CustomOp::Add, false, 0},
                   {CustomOp::Shl, true, 3},
                   {CustomOp::Xor, true, konst},
                   {CustomOp::Sar, false, 0},
                   {CustomOp::Sub, true, 0x81},
                   {CustomOp::Not, false, 0}};
    customs.push_back(chain);
  }
  const int32_t accs[] = {0, 1, 0x7F, 0x80, 0x8001, static_cast<int32_t>(0xFFFF),
                          static_cast<int32_t>(0x80000000), -1};
  const int32_t ops2[] = {0, 1, 5, 31, 0x80, -1};
  for (auto config : allArchs()) {
    config.customInstructions = customs;
    for (size_t index = 0; index < customs.size(); ++index) {
      for (const int32_t a : accs) {
        for (const int32_t b : ops2) {
          const auto prog = progOf({
              {Opcode::LdaImm, 32, a},
              {Opcode::LdoImm, 32, b},
              {Opcode::Custom, customs[index].width, static_cast<int32_t>(index)},
              {Opcode::Tret, 8, 0},
          });
          ASSERT_TRUE(diffRoutine(prog, 0, config, 7, "custom"));
          ASSERT_FALSE(::testing::Test::HasFailure())
              << "w" << config.dataWidth << " custom " << index << " a=" << a
              << " b=" << b;
        }
      }
    }
  }
}

// ----------------------------------------------------- tier-cache policy

TEST(TepJitTier, DispatchCompilesOnFirstRun) {
  SKIP_WITHOUT_BACKEND();
  const auto prog = progOf({
      {Opcode::LdaImm, 8, 1},
      {Opcode::Tret, 8, 0},
  });
  const auto config = archPlain8();
  jit::TierCache cache(&prog, &config, 1, &TimedHost::declaredPorts());
  EXPECT_EQ(cache.residency().nativeRoutines, 0);
  const jit::CompiledFn fn = cache.dispatch(0, 0);
  EXPECT_NE(fn, nullptr);
  EXPECT_EQ(cache.residency().nativeRoutines, 1);
  EXPECT_EQ(cache.dispatch(0, 0), fn);
}

TEST(TepJitTier, RejectedRoutineStaysInterpreted) {
  const auto prog = progOf({
      {Opcode::Add, 33, 0},  // invalid width: the emitter rejects
      {Opcode::Tret, 8, 0},
  });
  const auto config = archPlain8();
  jit::TierCache cache(&prog, &config, 1, &TimedHost::declaredPorts());
  std::string reason;
  EXPECT_EQ(cache.dispatch(0, 0, &reason), nullptr);
  EXPECT_FALSE(reason.empty());
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(cache.residency().rejectedRoutines, 1);
  }
  EXPECT_EQ(cache.dispatch(0, 0), nullptr);
}

// Native code indexes the register file unchecked, so the emitter rejects
// a register operand outside it and the routine stays on the interpreter,
// which reports the fault as a runtime diagnostic.
TEST(TepJitTier, RegisterOutsideTheFileStaysInterpreted) {
  for (const Opcode op : {Opcode::LdaReg, Opcode::LdoReg, Opcode::StaReg}) {
    for (const int32_t reg : {16, -1}) {
      SCOPED_TRACE(std::string(opcodeMnemonic(op)) + " r" + std::to_string(reg));
      const auto prog = progOf({{Opcode::LdaImm, 8, 1}, {op, 8, reg}, {Opcode::Tret, 8, 0}});
      if (jit::jitBackendAvailable()) {
        const jit::EmitResult em =
            jit::emitX64(prog, 0, archPlain8(), TimedHost::declaredPorts());
        EXPECT_FALSE(em.ok);
        EXPECT_EQ(em.error,
                  "isa 1: register " + std::to_string(reg) + " outside the register file");
      }
      TimedHost host;
      const TierRun run = runInterp(prog, 0, archPlain8(), host, 100);
      EXPECT_EQ(run.error, "TEP0: register " + std::to_string(reg) +
                               " outside the 16-entry register file at PC 1");
    }
  }
}

// The size bound counts reachable instructions: a routine of
// kMaxRoutineInstrs of them compiles whatever follows its Tret, one more
// stays on the interpreter and the tier names the limit.
TEST(TepJitTier, OversizedRoutineStaysInterpreted) {
  SKIP_WITHOUT_BACKEND();
  const auto config = archPlain8();
  for (const int reachable : {jit::kMaxRoutineInstrs, jit::kMaxRoutineInstrs + 1}) {
    SCOPED_TRACE(reachable);
    std::vector<Instr> code(static_cast<size_t>(reachable - 1), {Opcode::Add, 32, 0});
    code.push_back({Opcode::Tret, 8, 0});
    code.push_back({Opcode::Add, 32, 0});  // unreachable
    const AsmProgram prog = progOf(std::move(code));
    jit::TierCache cache(&prog, &config, 1, &TimedHost::declaredPorts());
    std::string reason;
    const jit::CompiledFn fn = cache.dispatch(0, 0, &reason);
    if (reachable == jit::kMaxRoutineInstrs) {
      EXPECT_NE(fn, nullptr) << reason;
      EXPECT_EQ(cache.residency().nativeRoutines, 1);
    } else {
      EXPECT_EQ(fn, nullptr);
      EXPECT_NE(reason.find("size limit"), std::string::npos) << reason;
      EXPECT_EQ(cache.residency().rejectedRoutines, 1);
    }
  }
}

// ------------------------------------------------- machine-level diffing

using machine::CycleStats;
using machine::PscpMachine;

/// What a diffMachines run saw on the machine under test.
struct DiffTotals {
  int64_t fired = 0;
  int64_t multiRoutineNative = 0;  ///< native runs in cycles firing >= 2
  int64_t busStalls = 0;
  int64_t decodeMemoHits = 0;
  int64_t scheduleReplays = 0;
};

/// Step `a` (reference tier) and `b` (tier under test) with the same
/// pseudo-random event script — each of `eventNames` joins a cycle with
/// probability `percent` — and require identical observable behaviour
/// every cycle. Both machines must also account every fired transition
/// to exactly one tier: native runs + interpreter runs == fired. When
/// `switchAt` >= 0, `b` switches to kAlways before that cycle.
DiffTotals diffMachines(PscpMachine& a, PscpMachine& b, uint32_t seed, int cycles,
                        const std::vector<const char*>& eventNames, int percent,
                        int switchAt = -1) {
  std::vector<int> eventIds;
  for (const char* name : eventNames) eventIds.push_back(a.eventId(name));
  Rng rng(seed);
  CycleStats sa, sb;
  DiffTotals totals;
  const int64_t firedBefore[2] = {a.jitNativeRuns() + a.jitInterpRuns(),
                                  b.jitNativeRuns() + b.jitInterpRuns()};
  const size_t writesBefore = a.portWrites().size();
  EXPECT_EQ(writesBefore, b.portWrites().size());
  for (int cyc = 0; cyc < cycles; ++cyc) {
    if (cyc == switchAt) b.setJitMode(jit::JitMode::kAlways);
    std::vector<int> events;
    for (const int id : eventIds)
      if (rng.chance(percent)) events.push_back(id);
    const int64_t nativeBefore = b.jitNativeRuns();
    a.configurationCycleIds(events, &sa);
    b.configurationCycleIds(events, &sb);
    EXPECT_EQ(sa.fired, sb.fired) << "cycle " << cyc;
    EXPECT_EQ(sa.cycles, sb.cycles) << "cycle " << cyc;
    EXPECT_EQ(sa.busStallCycles, sb.busStallCycles) << "cycle " << cyc;
    EXPECT_EQ(sa.quiescent, sb.quiescent) << "cycle " << cyc;
    EXPECT_TRUE(a.crBits() == b.crBits()) << "cycle " << cyc;
    EXPECT_EQ(a.pendingEvents(), b.pendingEvents()) << "cycle " << cyc;
    if (::testing::Test::HasFailure()) return totals;
    totals.fired += static_cast<int64_t>(sa.fired.size());
    totals.busStalls += sb.busStallCycles;
    totals.decodeMemoHits += sb.decodeMemoHits;
    totals.scheduleReplays += sb.scheduleReplays;
    if (sb.fired.size() >= 2) totals.multiRoutineNative += b.jitNativeRuns() - nativeBefore;
  }
  EXPECT_GT(totals.fired, 0);
  const PscpMachine* machines[2] = {&a, &b};
  for (int m = 0; m < 2; ++m)
    EXPECT_EQ(machines[m]->jitNativeRuns() + machines[m]->jitInterpRuns() - firedBefore[m],
              totals.fired)
        << "jit=" << jit::jitModeName(machines[m]->jitMode()) << " native "
        << machines[m]->jitNativeRuns() << " interp " << machines[m]->jitInterpRuns();
  EXPECT_EQ(a.totalCycles(), b.totalCycles());
  EXPECT_EQ(a.totalBusStalls(), b.totalBusStalls());
  EXPECT_EQ(a.activeNames(), b.activeNames());
  EXPECT_EQ(a.portWrites(), b.portWrites());
  return totals;
}

// The random script the SMD diffs have always used: power-up, command
// bytes and X/Y pulses, each in about a third of the cycles.
const std::vector<const char*> kSmdScript = {"POWER", "DATA_VALID", "X_PULSE", "Y_PULSE"};

TEST(TepJitMachine, SmdSingleTepJitMatchesInterpreter) {
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  diffMachines(interp, native, 0xC0FFEE, 300, kSmdScript, 35);
  EXPECT_EQ(interp.jitNativeRuns(), 0);
  if (jit::jitBackendAvailable()) {
    // The native tier must actually have run — this test is vacuous
    // otherwise.
    EXPECT_GT(native.jitNativeRuns(), 0);
    const jit::TierResidency res = native.tierResidency();
    EXPECT_GT(res.nativeRoutines, 0);
  }
}

// One machine that mixes tiers: it interprets until a mid-run switch to
// kAlways, after which its serial cycles run natively.
TEST(TepJitMachine, MidRunSwitchToNativeMatchesInterpreter) {
  SKIP_WITHOUT_BACKEND();
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/1);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine mixed(image);
  mixed.setJitMode(jit::JitMode::kOff);
  diffMachines(interp, mixed, 0xC0FFEE, 300, kSmdScript, 35, /*switchAt=*/150);
  EXPECT_GT(mixed.jitInterpRuns(), 0);
  EXPECT_GT(mixed.jitNativeRuns(), 0);
}

// Every SMD transition's routine lowers and emits: the whole workload can
// run on the native tier at either TEP count.
TEST(TepJitMachine, EverySmdRoutineCompilesNatively) {
  SKIP_WITHOUT_BACKEND();
  for (const int teps : {1, 2}) {
    const auto image = workloads::makeSmdFleetImage(teps);
    const int transitions = static_cast<int>(image->chart().transitions().size());
    ASSERT_EQ(transitions, 25);
    for (int t = 0; t < transitions; ++t) {
      std::string reason;
      EXPECT_NE(image->tierCache().dispatch(t, image->routineEntry(t), &reason),
                nullptr)
          << "teps=" << teps << " T" << t << ": " << reason;
    }
    const jit::TierResidency res = image->tierCache().residency();
    EXPECT_EQ(res.nativeRoutines, 25) << "teps=" << teps;
    EXPECT_EQ(res.rejectedRoutines, 0) << "teps=" << teps;
  }
}

TEST(TepJitMachine, SmdTwoTepMixedServiceMatchesInterpreter) {
  // The power-up/command script on two TEPs: single routines, pairs and
  // the three StartMotor routines of the Moving entry.
  const auto image = workloads::makeSmdFleetImage(/*numTeps=*/2);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  diffMachines(interp, native, 0xBEEF, 300, kSmdScript, 35);
}

// The paper's duty cycle at 2 and 3 TEPs: warmed into Moving, X/Y/PHI
// pulses land in the same cycles, so DeltaT routines run side by side and
// contend for the external bus. The replay must reproduce every stall,
// retire and port write, and it must actually be the replay that ran.
TEST(TepJitMachine, SmdPulsePairsReplayMatchesInterpreter) {
  // On the 8-bit datapath every 16-bit access takes two chunks.
  for (const auto& [teps, width] : {std::pair{2, 16}, {3, 16}, {2, 8}}) {
    SCOPED_TRACE("teps " + std::to_string(teps) + " width " + std::to_string(width));
    const auto image = workloads::makeSmdFleetImage(teps, width);
    PscpMachine interp(image);
    interp.setJitMode(jit::JitMode::kOff);
    PscpMachine native(image);
    native.setJitMode(jit::JitMode::kAlways);
    for (PscpMachine* m : {&interp, &native})
      ASSERT_TRUE(workloads::warmUpSmdInstance(*m, m->eventId("DATA_VALID")));
    const DiffTotals totals =
        diffMachines(interp, native, 0x5EED + static_cast<uint32_t>(teps), 400,
                     {"X_PULSE", "Y_PULSE", "PHI_PULSE"}, 70);
    EXPECT_GT(totals.busStalls, 0);
    EXPECT_GT(totals.decodeMemoHits, 0);
    if (jit::jitBackendAvailable()) {
      EXPECT_GT(totals.multiRoutineNative, 0);
      EXPECT_GT(totals.scheduleReplays, 0);
    }
  }
}

// ------------------------------------------------ replay edge cases

// Two AND states: Run = Left | Right, and Left holds Pair = P1 | P2, so a
// cycle can choose three routines for two TEPs. Right's transitions are
// the shallowest, so they take TEP 0 first. Both work routines move
// external globals (bus contention), write port Out, raise an event and
// leave a condition for the third routine to read from whichever cache
// it lands on; WorkB and Small share exclusion group g. ClashA/ClashB are
// a hazard pair (both write `shared`). Edge reads edge[] at a subscript
// from port Idx, so it may touch all of external RAM; Peek touches none,
// so the two are no hazard pair. The datapath holds the two
// conditions in one word: write-back costs one cycle, so a retire with
// nothing left to dispatch bumps the visit order by one.
const char* kReplayChart = R"chart(
chart Replay;
event GO; event A; event B; event C; event H; event Z; event Y; event W;
event DONE_A; event DONE_B; event F;
condition CA; condition CB;
port Out  data out width 16 address 0x40;
port Out2 data out width 16 address 0x42;
port Den  data in  width 16 address 0x44;
port Idx  data in  width 16 address 0x46;

orstate Top { contains Idle, Run; default Idle; }
basicstate Idle {
  transition { target Run; label "GO"; }
}
andstate Run {
  orstate Left { contains Pair; default Pair; }
  orstate Right { contains M; default M; }
}
andstate Pair {
  orstate P1 { contains A1; default A1; }
  orstate P2 { contains B1; default B1; }
}
basicstate M {
  transition { target M; label "C/Small()"; exclusion g; }
  transition { target M; label "Y/Small()"; }
  transition { target M; label "DONE_A/Tally()"; }
}
basicstate A1 {
  transition { target A1; label "A/WorkA()"; }
  transition { target A1; label "H/ClashA()"; }
  transition { target A1; label "Z/Divide()"; }
  transition { target A1; label "Y/DivideLate()"; }
  transition { target A1; label "W/Spin()"; }
  transition { target A1; label "F/Edge()"; }
}
basicstate B1 {
  transition { target B1; label "B/WorkB()"; exclusion g; }
  transition { target B1; label "DONE_B/WorkB()"; exclusion g; }
  transition { target B1; label "H/ClashB()"; }
  transition { target B1; label "Z/Divide()"; }
  transition { target B1; label "Y/Long()"; }
  transition { target B1; label "W/WorkB()"; }
  transition { target B1; label "F/Peek()"; }
}
)chart";

const char* kReplayActions = R"code(
int:16 a[4];
int:16 b[4];
int:16 shared;
int:16 tally;
int:8 pad;
int:16 edge[2];

void WorkA() {
  a[0] = a[0] + 1;
  a[1] = a[0] * 3;
  a[2] = a[1] - a[3];
  write_port(Out, a[2]);
  set_cond(CA, 1);
  raise(DONE_A);
  a[3] = a[3] + a[0];
}

void WorkB() {
  b[0] = b[0] + 5;
  write_port(Out, b[0]);
  b[1] = b[0] + b[2];
  raise(DONE_B);
  b[2] = b[1] - 1;
  write_port(Out2, b[2]);
}

void Small() {
  tally = tally + 1;
  write_port(Out, tally);
  set_cond(CB, test_cond(CA));
}

void Tally() { tally = tally + 10; }
void ClashA() { shared = shared + 1; }
void ClashB() { shared = shared * 2 + 1; }

void Divide() {
  int:16 q = 1000 / read_port(Den);
  write_port(Out2, q);
}

void DivideLate() {
  a[1] = a[1] + 1;
  a[2] = a[2] + a[1];
  a[0] = 1000 / read_port(Den);
}

void Long() {
  int:16 i = 0;
  while (i < 6) bound 6 {
    b[3] = b[3] + i;
    write_port(Out2, b[3]);
    i = i + 1;
  }
}

void Spin() {
  write_port(Out, 7);
  int:16 go = 0;
  while (go == 0) bound 1 { go = go * 2; }
}

void Edge() {
  write_port(Out, b[1]);
  write_port(Out, b[2] + b[3]);
  write_port(Out, edge[read_port(Idx)]);
}

void Peek() {
  write_port(Out2, 1);
  int:16 i = 0;
  while (i < 8) bound 8 {
    write_port(Out2, read_port(Den) + i);
    i = i + 1;
  }
}
)code";

struct ReplayChart {
  statechart::Chart chart = statechart::parseChart(kReplayChart);
  actionlang::Program actions = actionlang::parseActionSource(kReplayActions);

  /// On the 8-bit datapath every int:16 access takes two chunks.
  std::shared_ptr<const machine::ChartImage> image(int teps, int dataWidth = 16) const {
    hwlib::ArchConfig arch;
    arch.dataWidth = dataWidth;
    arch.numTeps = teps;
    arch.hasMulDiv = true;
    return std::make_shared<const machine::ChartImage>(chart, actions, arch);
  }
};

/// An interpreter machine and a native one over one image, both in Run.
struct TierPair {
  explicit TierPair(const std::shared_ptr<const machine::ChartImage>& image)
      : interp(image), native(image) {
    interp.setJitMode(jit::JitMode::kOff);
    native.setJitMode(jit::JitMode::kAlways);
    for (PscpMachine* m : {&interp, &native}) {
      m->configurationCycle({"GO"});
      m->clearPortWrites();
    }
  }

  /// Step both with `events`; returns each machine's error text ("" when
  /// the cycle completed).
  std::pair<std::string, std::string> step(const std::set<std::string>& events) {
    std::string errors[2];
    PscpMachine* machines[2] = {&interp, &native};
    for (int m = 0; m < 2; ++m) {
      try {
        machines[m]->configurationCycle(events);
      } catch (const Error& e) {
        errors[m] = e.what();
      }
    }
    return {errors[0], errors[1]};
  }

  /// What both tiers must agree on after a fault: the error, the counters,
  /// the CR and the port-write log (memory and port values may differ).
  void expectSameFault(const std::pair<std::string, std::string>& errors,
                       const std::string& expected) {
    EXPECT_EQ(errors.first, expected);
    EXPECT_EQ(errors.second, expected);
    EXPECT_EQ(interp.configurationCycles(), native.configurationCycles());
    EXPECT_EQ(interp.totalCycles(), native.totalCycles());
    EXPECT_EQ(interp.totalBusStalls(), native.totalBusStalls());
    EXPECT_EQ(interp.jitInterpRuns(), native.jitNativeRuns() + native.jitInterpRuns());
    EXPECT_TRUE(interp.crBits() == native.crBits());
    EXPECT_EQ(interp.pendingEvents(), native.pendingEvents());
    EXPECT_EQ(interp.portWrites(), native.portWrites());
  }

  PscpMachine interp;
  PscpMachine native;
};

// Random mixes of the work, exclusion-group, hazard and raise-driven
// transitions at 2 and 3 TEPs, and at 2 on the 8-bit datapath: every
// cycle must match the interpreter.
TEST(TepJitReplay, TwoAndStatesMatchInterpreter) {
  const ReplayChart rc;
  for (const auto& [teps, width] : {std::pair{2, 16}, {3, 16}, {2, 8}}) {
    SCOPED_TRACE("teps " + std::to_string(teps) + " width " + std::to_string(width));
    TierPair pair(rc.image(teps, width));
    const DiffTotals totals = diffMachines(pair.interp, pair.native, 0xA11 + teps, 300,
                                           {"A", "B", "C", "H"}, 50);
    EXPECT_GT(totals.busStalls, 0);
    EXPECT_GT(totals.decodeMemoHits, 0);
    if (jit::jitBackendAvailable()) {
      EXPECT_GT(totals.multiRoutineNative, 0);
    }
  }
}

// Three routines over two TEPs: Small takes TEP 0, WorkA TEP 1, WorkB
// waits on group g until Small retires, then runs on TEP 0 and reads
// TEP 0's condition cache. WorkA's retire finds nothing to dispatch, so
// the rest of that machine cycle visits TEP 1 again and skips TEP 0.
TEST(TepJitReplay, ThreeRoutinesOverTwoTepsRunNatively) {
  SKIP_WITHOUT_BACKEND();
  const ReplayChart rc;
  TierPair pair(rc.image(2));
  for (int round = 0; round < 3; ++round) {
    const int64_t native = pair.native.jitNativeRuns();
    const auto errors = pair.step({"A", "B", "C"});
    ASSERT_EQ(errors.first, "");
    ASSERT_EQ(errors.second, "");
    EXPECT_EQ(pair.native.jitNativeRuns() - native, 3) << "round " << round;
    EXPECT_TRUE(pair.interp.crBits() == pair.native.crBits()) << "round " << round;
    EXPECT_EQ(pair.interp.pendingEvents(), pair.native.pendingEvents()) << "round " << round;
    EXPECT_EQ(pair.interp.totalCycles(), pair.native.totalCycles()) << "round " << round;
    EXPECT_EQ(pair.interp.portWrites(), pair.native.portWrites()) << "round " << round;
    // The raises fire DONE_A/DONE_B routines in the next cycle.
    ASSERT_EQ(pair.step({}), std::make_pair(std::string(), std::string()));
    EXPECT_TRUE(pair.interp.crBits() == pair.native.crBits()) << "round " << round;
  }
  EXPECT_GT(pair.native.totalBusStalls(), 0);
  EXPECT_EQ(pair.interp.totalBusStalls(), pair.native.totalBusStalls());
  EXPECT_EQ(pair.interp.outputPort("Out"), pair.native.outputPort("Out"));
  EXPECT_EQ(pair.interp.outputPort("Out2"), pair.native.outputPort("Out2"));
  EXPECT_EQ(pair.interp.conditionValue("CB"), pair.native.conditionValue("CB"));
  for (const char* g : {"tally", "shared"})
    EXPECT_EQ(pair.interp.globalValue(g), pair.native.globalValue(g)) << g;
}

// ClashA and ClashB both write the external global `shared`: the cycle
// choosing both stays on the interpreter, routine for routine.
TEST(TepJitReplay, HazardPairStaysOnInterpreter) {
  const ReplayChart rc;
  const auto image = rc.image(2);
  const auto& transitions = rc.chart.transitions();
  auto idOf = [&](const char* label) {
    for (const statechart::Transition& t : transitions)
      if (t.label.raw == label) return static_cast<int>(t.id);
    ADD_FAILURE() << label;
    return 0;
  };
  EXPECT_TRUE(image->hazardPair(idOf("H/ClashA()"), idOf("H/ClashB()")));
  EXPECT_FALSE(image->hazardPair(idOf("A/WorkA()"), idOf("B/WorkB()")));
  EXPECT_FALSE(image->hazardPair(idOf("A/WorkA()"), idOf("C/Small()")));
  EXPECT_FALSE(rc.image(1)->hazardPair(idOf("H/ClashA()"), idOf("H/ClashB()")));

  TierPair pair(image);
  const int64_t native = pair.native.jitNativeRuns();
  const int64_t interp = pair.native.jitInterpRuns();
  const CycleStats stats = pair.native.configurationCycle({"H"});
  pair.interp.configurationCycle({"H"});
  ASSERT_EQ(stats.fired.size(), 2u);
  EXPECT_EQ(pair.native.jitInterpRuns() - interp, 2);
  EXPECT_EQ(pair.native.jitNativeRuns(), native);
  EXPECT_EQ(pair.interp.globalValue("shared"), pair.native.globalValue("shared"));
  if (jit::jitBackendAvailable()) {
    pair.native.configurationCycle({"A", "B"});
    EXPECT_EQ(pair.native.jitNativeRuns() - native, 2);
  }
}

// Both TEPs divide by zero in the same machine cycle: the first TEP the
// loop visits raises, with the interpreter's text.
TEST(TepJitReplay, DivisionByZeroOnBothTepsMatchesInterpreter) {
  const ReplayChart rc;
  TierPair pair(rc.image(2));
  pair.step({"A", "B"});  // some history in the log, the CR and the caches
  pair.interp.setInputPort("Den", 0);
  pair.native.setInputPort("Den", 0);
  const auto errors = pair.step({"Z"});
  ASSERT_NE(errors.first, "");
  EXPECT_NE(errors.first.find("division by zero"), std::string::npos) << errors.first;
  pair.expectSameFault(errors, errors.first);
}

// A fault latches the machine on either tier: every later step is refused
// with a diagnostic naming the faulted cycle, and leaves the counters, the
// CR and the port-write log as the fault left them.
TEST(TepJitReplay, FaultedMachineRefusesToStep) {
  const ReplayChart rc;
  TierPair pair(rc.image(2));
  pair.step({"A", "B"});
  for (PscpMachine* m : {&pair.interp, &pair.native}) {
    EXPECT_FALSE(m->faulted());
    m->setInputPort("Den", 0);
  }
  const auto errors = pair.step({"Z"});
  ASSERT_NE(errors.first.find("division by zero"), std::string::npos) << errors.first;
  pair.expectSameFault(errors, errors.first);
  const std::string latch =
      strfmt("PSCP: the machine faulted in configuration cycle %lld and steps no further",
             static_cast<long long>(pair.interp.configurationCycles() - 1));
  for (PscpMachine* m : {&pair.interp, &pair.native}) {
    SCOPED_TRACE(jit::jitModeName(m->jitMode()));
    EXPECT_TRUE(m->faulted());
    const int64_t cycles = m->totalCycles();
    const int64_t configCycles = m->configurationCycles();
    const int64_t stalls = m->totalBusStalls();
    const BitVec cr = m->crBits();
    const std::vector<machine::PortWrite> writes = m->portWrites();
    const std::vector<int> pending = m->pendingEvents();
    const std::vector<std::function<void()>> steps = {
        [&] { m->configurationCycle({}); },
        [&] { m->configurationCycle({"A", "B"}); },
        [&] { (void)m->configurationCycleIds(std::vector<int>{m->eventId("A")}); },
        [&] {
          CycleStats stats;
          m->configurationCycleIds({}, &stats, 4);
        },
        [&] { (void)m->runToQuiescence({"A"}); },
    };
    for (size_t i = 0; i < steps.size(); ++i) {
      try {
        steps[i]();
        ADD_FAILURE() << "step " << i << " was not refused";
      } catch (const Error& e) {
        EXPECT_EQ(e.what(), latch) << "step " << i;
      }
    }
    EXPECT_EQ(m->totalCycles(), cycles);
    EXPECT_EQ(m->configurationCycles(), configCycles);
    EXPECT_EQ(m->totalBusStalls(), stalls);
    EXPECT_TRUE(m->crBits() == cr);
    EXPECT_EQ(m->portWrites(), writes);
    EXPECT_EQ(m->pendingEvents(), pending);
  }
}

// DivideLate faults on TEP 1 while Long is mid-routine on TEP 0 (it took
// TEP 0 when Small retired there): Small's retire and the port writes
// Long made before the fault must match.
TEST(TepJitReplay, FaultWhileOtherTepIsMidRoutineMatchesInterpreter) {
  const ReplayChart rc;
  TierPair pair(rc.image(2));
  pair.interp.setInputPort("Den", 0);
  pair.native.setInputPort("Den", 0);
  const int64_t native = pair.native.jitNativeRuns();
  const auto errors = pair.step({"Y"});
  EXPECT_EQ(errors.first, "TEP1: division by zero at PC " +
                              errors.first.substr(errors.first.rfind(' ') + 1));
  pair.expectSameFault(errors, errors.first);
  EXPECT_FALSE(pair.interp.portWrites().empty());
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(pair.native.jitNativeRuns() - native, 1);
  }
}

// Edge reads edge[Idx] with Idx aimed at the last mapped byte, so the
// element's second byte is unmapped: on the 8-bit datapath the fault is
// on the access's second chunk. Peek writes Out2 on the other TEP while
// Edge runs; both run natively. (No WorkB may run first: it raises DONE_B
// every cycle, and DONE_B's WorkB outranks Peek and forms a hazard pair
// with Edge, which would put the cycle on the interpreter.)
TEST(TepJitReplay, FaultOnASecondChunkMatchesInterpreter) {
  const ReplayChart rc;
  for (const int width : {16, 8}) {
    SCOPED_TRACE(width);
    TierPair pair(rc.image(2, width));
    ASSERT_EQ(pair.step({"C"}), std::make_pair(std::string(), std::string()));
    const int32_t lastByte = kExternalBase + kExternalSize - 1;
    const int32_t edge = pair.native.app().globalPlacement.at("edge").address;
    ASSERT_EQ((lastByte - edge) % 2, 0) << "edge[] must start at an odd address";
    for (PscpMachine* m : {&pair.interp, &pair.native})
      m->setInputPort("Idx", static_cast<uint32_t>((lastByte - edge) / 2));
    const int64_t interp = pair.native.jitInterpRuns();
    const size_t writes = pair.interp.portWrites().size();
    const auto errors = pair.step({"F"});
    pair.expectSameFault(errors, "PSCP: data read from unmapped address 0x8000");
    // Edge's first two writes and some of Peek's land before the fault.
    EXPECT_GT(pair.interp.portWrites().size(), writes + 2);
    if (jit::jitBackendAvailable()) {
      EXPECT_EQ(pair.native.jitInterpRuns(), interp);
    }
  }
}

// Spin never ends: both tiers stop at the lockstep loop's guard with the
// same text, after WorkB retired on the other TEP.
TEST(TepJitReplay, MachineCycleGuardMatchesInterpreter) {
  const ReplayChart rc;
  TierPair pair(rc.image(2));
  const int64_t native = pair.native.jitNativeRuns();
  const auto errors = pair.step({"W"});
  pair.expectSameFault(errors, "PSCP configuration cycle exceeded 4000000 machine cycles");
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(pair.native.jitNativeRuns() - native, 1);
  }
}

// A chart whose one transition calls D0, which calls D1, and so on down to
// D<depth - 1>, which writes port Out: `depth` calls nested in the routine.
struct CallChain {
  explicit CallChain(int depth) {
    std::string code;
    for (int i = depth - 1; i >= 0; --i)
      code += i + 1 == depth ? strfmt("void D%d() { write_port(Out, %d); }\n", i, depth)
                             : strfmt("void D%d() { D%d(); }\n", i, i + 1);
    actions = actionlang::parseActionSource(code);
    hwlib::ArchConfig arch;
    arch.dataWidth = 16;
    arch.numTeps = 2;
    image = std::make_shared<const machine::ChartImage>(chart, actions, arch);
  }

  statechart::Chart chart = statechart::parseChart(R"chart(
chart Chain;
event GO;
port Out data out width 16 address 0x40;
orstate Top { contains S; default S; }
basicstate S { transition { target S; label "GO/D0()"; } }
)chart");
  actionlang::Program actions;
  std::shared_ptr<const machine::ChartImage> image;
};

// The thread's native-run context (one per thread, rewritten per run)
// carries nothing from one run into the next. Fresh machines run in turn on
// this thread, each against its interpreter twin: a fault on a later chunk
// (it sets the run's fault step), divisions by zero (each faults at its
// last step charged, not that step), the guard (it marks the run over
// budget), divisions by zero again (faults, not the guard), clean cycles,
// and last a routine that nests calls as deep as the call stack holds,
// after runs that faulted inside calls.
TEST(TepJitReplay, NativeRunInheritsNothingFromTheLastRun) {
  const ReplayChart rc;
  {
    TierPair pair(rc.image(2, 8));
    const int32_t lastByte = kExternalBase + kExternalSize - 1;
    const int32_t edge = pair.native.app().globalPlacement.at("edge").address;
    for (PscpMachine* m : {&pair.interp, &pair.native})
      m->setInputPort("Idx", static_cast<uint32_t>((lastByte - edge) / 2));
    pair.expectSameFault(pair.step({"F"}), "PSCP: data read from unmapped address 0x8000");
  }
  // Divide on both TEPs, then DivideLate while Long writes ports on the
  // other TEP, so the fault's step decides which of Long's writes land.
  const auto divideByZero = [&] {
    for (const char* event : {"Z", "Y"}) {
      TierPair pair(rc.image(2));
      pair.step({"A", "B"});
      pair.interp.setInputPort("Den", 0);
      pair.native.setInputPort("Den", 0);
      const auto errors = pair.step({event});
      EXPECT_NE(errors.first.find("division by zero"), std::string::npos) << errors.first;
      pair.expectSameFault(errors, errors.first);
    }
  };
  divideByZero();
  {
    TierPair pair(rc.image(2));
    pair.expectSameFault(pair.step({"W"}),
                         "PSCP configuration cycle exceeded 4000000 machine cycles");
  }
  divideByZero();
  {
    TierPair pair(rc.image(2));
    const int64_t native = pair.native.jitNativeRuns();
    for (int round = 0; round < 3; ++round) {
      for (const std::set<std::string>& events : {std::set<std::string>{"A", "B"}, {}}) {
        ASSERT_EQ(pair.step(events), std::make_pair(std::string(), std::string()));
        EXPECT_EQ(pair.interp.totalCycles(), pair.native.totalCycles());
        EXPECT_TRUE(pair.interp.crBits() == pair.native.crBits());
        EXPECT_EQ(pair.interp.portWrites(), pair.native.portWrites());
      }
    }
    if (jit::jitBackendAvailable()) {
      EXPECT_GT(pair.native.jitNativeRuns(), native);
    }
  }
  // 32 nested calls fill the call stack, a 33rd overflows it: on both
  // tiers, whatever depth the faulted runs above stopped at.
  for (const int depth : {32, 33}) {
    SCOPED_TRACE(depth);
    const CallChain chain(depth);
    PscpMachine interp(chain.image);
    PscpMachine native(chain.image);
    interp.setJitMode(jit::JitMode::kOff);
    native.setJitMode(jit::JitMode::kAlways);
    std::string errors[2];
    for (int m = 0; m < 2; ++m) {
      try {
        (m == 0 ? interp : native).configurationCycle({"GO"});
      } catch (const Error& e) {
        errors[m] = e.what();
      }
    }
    EXPECT_EQ(errors[0], depth == 32 ? "" : "TEP0: call stack overflow");
    EXPECT_EQ(errors[1], errors[0]);
    EXPECT_EQ(interp.portWrites(), native.portWrites());
    if (jit::jitBackendAvailable()) {
      EXPECT_EQ(native.jitInterpRuns(), 0);
    }
  }
}

// The schedule memo's key must hold each bus run's length and each port
// write's step. ShortBus, LongBus and EarlyWrite each take 44 steps with a
// bus run at step 14. ShortBus reads a 16-bit external global (a 2-step
// bus run) and writes port Out at step 39; LongBus reads a 32-bit one (4
// steps) and writes at step 39; EarlyWrite is ShortBus with the write at
// step 26. On the other TEP, Other's second bus run starts at step 16, so
// it contends with LongBus's run only. P, Q and S come in pairs: the
// second of a pair replays the first, and the first follows a TAT whose
// timing differs from its own in one bus length or one write step.
const char* kBusRunChart = R"chart(
chart BusRuns;
event P; event Q; event S;
port Out  data out width 16 address 0x40;
port Out2 data out width 16 address 0x42;
orstate Top { contains Run; default Run; }
andstate Run {
  orstate L { contains La; default La; }
  orstate R { contains Ra; default Ra; }
}
basicstate La {
  transition { target La; label "P/ShortBus()"; }
  transition { target La; label "Q/LongBus()"; }
  transition { target La; label "S/EarlyWrite()"; }
}
basicstate Ra {
  transition { target Ra; label "P/Other()"; }
  transition { target Ra; label "Q/Other()"; }
  transition { target Ra; label "S/Other()"; }
}
)chart";

const char* kBusRunActions = R"code(
int:16 narrow;
int:32 wide;
int:16 other;

void ShortBus() {
  int:32 k = 1;
  int:16 x = narrow;
  x = x + 1;
  write_port(Out, x);
}

void LongBus() {
  int:32 k = 1;
  int:32 y = wide;
  int:32 z = 1;
  write_port(Out, y);
}

void EarlyWrite() {
  int:32 k = 1;
  int:16 x = narrow;
  write_port(Out, x);
  x = x + 1;
}

void Other() {
  other = other + 1;
  write_port(Out2, other);
}
)code";

TEST(TepJitReplay, ScheduleMemoKeysBusLengthsAndEffectSteps) {
  const statechart::Chart chart = statechart::parseChart(kBusRunChart);
  const actionlang::Program actions = actionlang::parseActionSource(kBusRunActions);
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.numTeps = 2;
  arch.hasMulDiv = true;
  const auto image = std::make_shared<const machine::ChartImage>(chart, actions, arch);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  const std::vector<int> scripts[3] = {
      {native.eventId("P")}, {native.eventId("Q")}, {native.eventId("S")}};
  int64_t stalls[3] = {0, 0, 0};
  int64_t replays = 0;
  CycleStats sa, sb;
  for (int cycle = 0; cycle < 18; ++cycle) {
    const std::vector<int>& events = scripts[cycle / 2 % 3];
    interp.configurationCycleIds(events, &sa);
    native.configurationCycleIds(events, &sb);
    ASSERT_EQ(sa.fired, sb.fired) << "cycle " << cycle;
    ASSERT_EQ(sa.cycles, sb.cycles) << "cycle " << cycle;
    ASSERT_EQ(sa.busStallCycles, sb.busStallCycles) << "cycle " << cycle;
    ASSERT_EQ(interp.portWrites(), native.portWrites()) << "cycle " << cycle;
    stalls[cycle / 2 % 3] = sa.busStallCycles;
    replays += sb.scheduleReplays;
  }
  EXPECT_NE(stalls[0], stalls[1]) << "the two bus-run lengths must contend differently";
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(native.jitInterpRuns(), 0);
    EXPECT_GT(replays, 0);
  }
}

// The memo's key is matched in place, slot by slot, against the TAT's
// logged runs: a run's log must match whole, not as a prefix of the key's
// or with the key's prefix. RaiseTail and CondTail take the same steps and
// log the same entries, but RaiseTail's last step raises R (one more
// entry) where CondTail sets a condition (none). Other runs on the other
// TEP. Each TAT of P (RaiseTail) or Q (CondTail) follows one of the other
// kind or replays one of its own; S runs RaiseTail alone, so its key has
// an idle slot where the others have Other. (The first dispatch round
// fills TEPs from TEP 0, so two keys with the same start cycle never
// differ in which slot is idle.)
const char* kTailChart = R"chart(
chart Tails;
event P; event Q; event S; event R;
condition K;
port Out  data out width 16 address 0x40;
port Out2 data out width 16 address 0x42;
orstate Top { contains Run; default Run; }
andstate Run {
  orstate L { contains La; default La; }
  orstate Rr { contains Ra; default Ra; }
}
basicstate La {
  transition { target La; label "P/RaiseTail()"; }
  transition { target La; label "Q/CondTail()"; }
  transition { target La; label "S/RaiseTail()"; }
}
basicstate Ra {
  transition { target Ra; label "P/Other()"; }
  transition { target Ra; label "Q/Other()"; }
}
)chart";

const char* kTailActions = R"code(
int:16 v;
int:16 other;

void RaiseTail() {
  v = v + 1;
  write_port(Out, v);
  raise(R);
}

void CondTail() {
  v = v + 1;
  write_port(Out, v);
  set_cond(K, 1);
}

void Other() {
  other = other + 1;
  write_port(Out2, other);
}
)code";

TEST(TepJitReplay, ScheduleMemoMatchesWholeRunsOnly) {
  const statechart::Chart chart = statechart::parseChart(kTailChart);
  const actionlang::Program actions = actionlang::parseActionSource(kTailActions);
  hwlib::ArchConfig arch;
  arch.dataWidth = 16;
  arch.numTeps = 2;
  const auto image = std::make_shared<const machine::ChartImage>(chart, actions, arch);
  PscpMachine interp(image);
  interp.setJitMode(jit::JitMode::kOff);
  PscpMachine native(image);
  native.setJitMode(jit::JitMode::kAlways);
  const char* const script = "PPQQPQPSPSQSSQ";
  int64_t replays = 0;
  int64_t cyclesOf[2] = {0, 0};  // a P and a Q TAT
  for (const char* e = script; *e != '\0'; ++e) {
    SCOPED_TRACE(std::string("cycle ") + std::to_string(e - script) + " " + *e);
    // The TAT, then the cycle that samples what it raised.
    for (const std::vector<int>& events : {std::vector<int>{native.eventId(std::string(1, *e))},
                                           std::vector<int>{}}) {
      CycleStats sa, sb;
      interp.configurationCycleIds(events, &sa);
      native.configurationCycleIds(events, &sb);
      ASSERT_EQ(sa.fired, sb.fired);
      ASSERT_EQ(sa.cycles, sb.cycles);
      ASSERT_EQ(sa.busStallCycles, sb.busStallCycles);
      ASSERT_EQ(interp.portWrites(), native.portWrites());
      ASSERT_EQ(interp.pendingEvents(), native.pendingEvents());
      ASSERT_TRUE(interp.crBits() == native.crBits());
      replays += sb.scheduleReplays;
      if (!events.empty() && *e != 'S') cyclesOf[*e == 'Q' ? 1 : 0] = sa.cycles;
    }
  }
  EXPECT_EQ(cyclesOf[0], cyclesOf[1]) << "RaiseTail and CondTail must take the same steps";
  if (jit::jitBackendAvailable()) {
    EXPECT_EQ(native.jitInterpRuns(), 0);
    EXPECT_GT(replays, 0);
  }
}

// ------------------------------------------------ layout boundary

// Each instance's banks are sized from the layout, so a subscript read from
// a port can reach past it: Poke stores to and loads from ibuf[I] (an
// internal global) and PokeX the same on xbuf[I] (an external one), each
// reading the value back into a global and writing it to port Out.
const char* kLayoutChart = R"chart(
chart Layout;
event GO; event P; event Q;
port I   data in  width 16 address 0x10;
port V   data in  width 16 address 0x12;
port Out data out width 16 address 0x14;

orstate Top { contains Idle, Run; default Idle; }
basicstate Idle {
  transition { target Run; label "GO"; }
}
andstate Run {
  orstate L { contains A; default A; }
  orstate R { contains B; default B; }
}
basicstate A { transition { target A; label "P/Poke()"; } }
basicstate B { transition { target B; label "Q/PokeX()"; } }
)chart";

const char* kLayoutActions = R"code(
int:16 ibuf[4];
int:8 ipad;
int:16 xbuf[4];
int:8 xpad;
int:16 igot;
int:16 xgot;

void Poke() {
  ibuf[read_port(I)] = read_port(V);
  igot = ibuf[read_port(I)];
  write_port(Out, igot);
}

void PokeX() {
  xbuf[read_port(I)] = read_port(V) + 1;
  xgot = xbuf[read_port(I)];
  write_port(Out, xgot);
}
)code";

struct LayoutChart {
  statechart::Chart chart = statechart::parseChart(kLayoutChart);
  actionlang::Program actions = [] {
    actionlang::Program p = actionlang::parseActionSource(kLayoutActions);
    // ipad and xpad set each layout's parity: a straddling element then
    // starts on the layout's last byte.
    for (const char* name : {"ibuf", "ipad"})
      p.findGlobal(name)->storageClass = compiler::kStorageInternal;
    return p;
  }();

  std::shared_ptr<const machine::ChartImage> image(int teps) const {
    hwlib::ArchConfig arch;
    arch.dataWidth = 16;
    arch.numTeps = teps;
    return std::make_shared<const machine::ChartImage>(chart, actions, arch);
  }
};

/// The subscript that puts element I of the int:16 array at `base` on
/// byte address `target` (16-bit wrap, like the generated address).
uint32_t subscriptAt(int32_t base, int32_t target) {
  return static_cast<uint32_t>((target - base) / 2) & 0xFFFF;
}

// In layout, past it (the tail), straddling its end, and unmapped, at 1
// and 2 TEPs: every cycle matches the interpreter, the unmapped subscript
// fails with the same text on both tiers, and a tail write reads back.
TEST(TepJitLayout, SubscriptsAcrossTheLayoutMatchInterpreter) {
  const LayoutChart lc;
  for (const int teps : {1, 2}) {
    const auto image = lc.image(teps);
    const compiler::CompiledApp& app = image->app();
    const int32_t ibuf = app.globalPlacement.at("ibuf").address;
    const int32_t xbuf = app.globalPlacement.at("xbuf").address;
    const int32_t internalEnd = app.internalBytesUsed;
    const int32_t externalEnd = kExternalBase + app.externalBytesUsed;
    ASSERT_LT(internalEnd, 0x200);
    ASSERT_LT(externalEnd, kExternalBase + 0x200);
    // A straddling element starts on the layout's last byte.
    ASSERT_EQ((internalEnd - 1 - ibuf) % 2, 0) << "ibuf parity";
    ASSERT_EQ((externalEnd - 1 - xbuf) % 2, 0) << "xbuf parity";
    struct Case {
      const char* name;
      uint32_t internalIndex;
      uint32_t externalIndex;
    };
    const Case cases[] = {
        {"in layout", 1, 1},
        {"tail", subscriptAt(ibuf, 0x3000), subscriptAt(xbuf, 0x7000)},
        {"straddling", subscriptAt(ibuf, internalEnd - 1), subscriptAt(xbuf, externalEnd - 1)},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE("teps " + std::to_string(teps) + " " + c.name);
      for (const bool external : {false, true}) {
        PscpMachine interp(image);
        interp.setJitMode(jit::JitMode::kOff);
        PscpMachine native(image);
        native.setJitMode(jit::JitMode::kAlways);
        for (PscpMachine* m : {&interp, &native}) {
          m->configurationCycle({"GO"});
          m->setInputPort("I", external ? c.externalIndex : c.internalIndex);
          m->setInputPort("V", 0x1234);
        }
        diffMachines(interp, native, 0x1A + static_cast<uint32_t>(teps), 40,
                     {external ? "Q" : "P"}, 60);
        const char* got = external ? "xgot" : "igot";
        for (PscpMachine* m : {&interp, &native})
          EXPECT_EQ(m->globalValue(got), external ? 0x1235 : 0x1234) << got;
        if (jit::jitBackendAvailable()) {
          EXPECT_GT(native.jitNativeRuns(), 0);
        }
      }
    }
    // Unmapped: both subscripts land above external RAM. The store faults
    // first, on both tiers, with the interpreter's text.
    for (const bool external : {false, true}) {
      SCOPED_TRACE("teps " + std::to_string(teps) + (external ? " xbuf" : " ibuf"));
      TierPair pair(image);
      const int32_t base = external ? xbuf : ibuf;
      for (PscpMachine* m : {&pair.interp, &pair.native}) {
        m->setInputPort("I", subscriptAt(base, 0x9000));
        m->setInputPort("V", 7);
      }
      const auto errors = pair.step({external ? "Q" : "P"});
      pair.expectSameFault(errors, "PSCP: data write to unmapped address 0x9000");
    }
  }
}

// --------------------------------------------------- fleet-level diffing

// The fleet suites step the paper's two-TEP machine (busy pairs run
// ahead natively and replay in the lockstep loop) and the one-TEP side arm.

TEST(TepJitFleet, FleetJitMatchesInterpAcrossWorkers) {
  constexpr size_t kInstances = 12;
  constexpr int kEpochs = 20;
  for (const int teps : {1, 2}) {
    SCOPED_TRACE(teps);
    const auto image = workloads::makeSmdFleetImage(teps);
    auto runFleet = [&](jit::JitMode mode, int workers) {
      fleet::FleetConfig config;
      config.workerThreads = workers;
      config.jitMode = mode;
      fleet::Fleet fleet(image, config);
      const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
      EXPECT_TRUE(workloads::warmUpSmdFleet(fleet, kInstances, ids));
      for (int e = 0; e < kEpochs; ++e) {
        fleet.step(2);
        workloads::injectSmdPulses(fleet, ids);
      }
      fleet.step(2);
      std::vector<fleet::InstanceSnapshot> snaps;
      for (size_t i = 0; i < kInstances; ++i)
        snaps.push_back(fleet.snapshot(static_cast<fleet::InstanceId>(i)));
      return snaps;
    };

    const auto reference = runFleet(jit::JitMode::kOff, 1);
    for (const int workers : {1, 8}) {
      const auto got = runFleet(jit::JitMode::kAlways, workers);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].machineCycles, reference[i].machineCycles)
            << "instance " << i << " workers=" << workers;
        EXPECT_EQ(got[i].configCycles, reference[i].configCycles) << i;
        EXPECT_EQ(got[i].firedTransitions, reference[i].firedTransitions) << i;
        EXPECT_EQ(got[i].quiescentCycles, reference[i].quiescentCycles) << i;
        EXPECT_EQ(got[i].busStallCycles, reference[i].busStallCycles) << i;
        EXPECT_EQ(got[i].activeStates, reference[i].activeStates) << i;
      }
    }
  }
}

TEST(TepJitFleet, TierMetricsSurfaceInMergedMetrics) {
  SKIP_WITHOUT_BACKEND();
  for (const int teps : {1, 2}) {
    SCOPED_TRACE(teps);
    const auto image = workloads::makeSmdFleetImage(teps);
    fleet::FleetConfig config;
    config.jitMode = jit::JitMode::kAlways;
    fleet::Fleet fleet(image, config);
    const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
    ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 4, ids));
    for (int e = 0; e < 6; ++e) {
      fleet.step(2);
      workloads::injectSmdPulses(fleet, ids);
    }
    const obs::MetricsRegistry metrics = fleet.mergedMetrics();
    EXPECT_GT(metrics.value("fleet.jit_native_routines"), 0);
    EXPECT_GT(metrics.value("fleet.jit_compiled_routines"), 0);
  }
}

// The merged tier split counts the routine runs fleet.fired_transitions
// counts: epoch cycles only (not warm-up cycles) and retired instances
// too.
TEST(TepJitFleet, TierSplitAddsUpToFiredTransitions) {
  for (const int teps : {1, 2}) {
    const auto image = workloads::makeSmdFleetImage(teps);
    for (const jit::JitMode mode : {jit::JitMode::kOff, jit::JitMode::kAlways}) {
      SCOPED_TRACE(std::string(jit::jitModeName(mode)) + " teps=" + std::to_string(teps));
      fleet::FleetConfig config;
      config.jitMode = mode;
      fleet::Fleet fleet(image, config);
      const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
      ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 4, ids));
      for (int e = 0; e < 6; ++e) {
        fleet.step(2);
        workloads::injectSmdPulses(fleet, ids);
      }
      fleet.retire(1);
      fleet.step(2);
      const obs::MetricsRegistry metrics = fleet.mergedMetrics();
      const int64_t fired = metrics.value("fleet.fired_transitions");
      const int64_t native = metrics.value("fleet.jit_native_routines");
      EXPECT_GT(fired, 0);
      EXPECT_EQ(native + metrics.value("fleet.jit_interp_routines"), fired);
      if (mode == jit::JitMode::kOff || !jit::jitBackendAvailable()) {
        EXPECT_EQ(native, 0);
      } else {
        EXPECT_EQ(native, fired);  // every SMD pair is hazard-free
      }
    }
  }
}

// ------------------------------------------------ journal replay diffing

TEST(TepJitJournal, InterpreterRecordingVerifiesUnderJit) {
  // Record the SMD duty cycle under the interpreter, then verify the CR
  // digest checkpoints replaying with the native tier forced on — across
  // worker counts, on both machine shapes.
  for (const int teps : {1, 2}) {
    SCOPED_TRACE(teps);
    const auto image = workloads::makeSmdFleetImage(teps);
    fleet::FleetConfig config;
    config.journal = true;
    config.journalConfig.checkpointInterval = 4;
    config.jitMode = jit::JitMode::kOff;
    fleet::Fleet fleet(image, config);
    const workloads::SmdPulseIds ids = workloads::resolveSmdPulseIds(fleet);
    ASSERT_TRUE(workloads::warmUpSmdFleet(fleet, 8, ids));
    for (int e = 0; e < 16; ++e) {
      fleet.step(2);
      workloads::injectSmdPulses(fleet, ids);
    }
    fleet.step(2);

    obs::journal::Journal journal;
    std::string error;
    ASSERT_TRUE(
        obs::journal::Journal::parse(fleet.journal()->dumpJson(), &journal, &error))
        << error;

    const obs::journal::Replayer replayer(&journal, image);
    for (const int workers : {1, 8}) {
      obs::journal::ReplayOptions options;
      options.workerThreads = workers;
      options.jitMode = jit::JitMode::kAlways;
      const obs::journal::ReplayResult result = replayer.run(options);
      ASSERT_TRUE(result.ok) << result.error;
      EXPECT_TRUE(result.verified)
          << "workers=" << workers << " first mismatch at epoch "
          << result.firstMismatch.epoch;
      EXPECT_GT(result.checkpointsChecked, 0);
    }
  }
}

}  // namespace
}  // namespace pscp::tep
