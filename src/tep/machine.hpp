// Cycle-accurate TEP simulator (paper Fig. 3).
//
// The simulator executes microinstructions — one datapath state per clock —
// generated by microcodeFor() for the configured architecture, so the
// simulated cycle counts, the static WCET analysis, and the area model all
// derive from the same microprograms.
//
// The TEP communicates with the rest of the PSCP through a TepHost:
// shared data memory (main memory + register bank), the port architecture,
// and the CR (events / conditions / states). External-memory accesses take
// an extra wait state and must win the shared external bus for that cycle;
// with several TEPs this is where bus contention appears.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "obs/sink.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep {

/// Everything outside the TEP core: memory, ports, CR. One host is shared
/// by all TEPs of a PSCP instance.
class TepHost {
 public:
  virtual ~TepHost() = default;

  // Data memory, byte granularity (internal below kExternalBase).
  [[nodiscard]] virtual uint8_t readByte(int32_t addr) = 0;
  virtual void writeByte(int32_t addr, uint8_t value) = 0;

  // Shared register bank (storage-promotion target).
  [[nodiscard]] virtual uint32_t readReg(int index) = 0;
  virtual void writeReg(int index, uint32_t value) = 0;

  // Port architecture.
  [[nodiscard]] virtual uint32_t readPort(int address) = 0;
  virtual void writePort(int address, uint32_t value) = 0;
  /// Set a port's value without performing the write: the native tier
  /// runs a routine ahead of the machine cycle its write belongs to and
  /// replays the write there (pscp/machine.hpp), but the routine must read
  /// back its own write at once. Fails like writePort on a bad address.
  virtual void latchPort(int address, uint32_t value) = 0;

  // SLA / CR communication.
  virtual void raiseEvent(int index) = 0;
  virtual void setCondition(int index, bool value) = 0;
  [[nodiscard]] virtual bool testCondition(int index) = 0;
  [[nodiscard]] virtual bool testState(int index) = 0;

  /// External-bus arbitration: may TEP `tepId` drive the external data bus
  /// this cycle? Default: always (single-TEP hosts).
  [[nodiscard]] virtual bool acquireExternalBus(int tepId) {
    (void)tepId;
    return true;
  }
};

/// Self-contained host for unit tests and single-TEP runs.
class SimpleHost : public TepHost {
 public:
  SimpleHost();

  uint8_t readByte(int32_t addr) override;
  void writeByte(int32_t addr, uint8_t value) override;
  uint32_t readReg(int index) override;
  void writeReg(int index, uint32_t value) override;
  uint32_t readPort(int address) override;
  void writePort(int address, uint32_t value) override;
  void latchPort(int address, uint32_t value) override;
  void raiseEvent(int index) override;
  void setCondition(int index, bool value) override;
  bool testCondition(int index) override;
  bool testState(int index) override;

  /// Word-level helpers (little-endian, `bytes` in 1..4).
  [[nodiscard]] uint32_t readWord(int32_t addr, int bytes);
  void writeWord(int32_t addr, uint32_t value, int bytes);

  std::map<int, uint32_t> ports;
  std::vector<int> raisedEvents;
  std::map<int, bool> conditions;
  std::map<int, bool> states;

 private:
  std::vector<uint8_t> internal_;
  std::vector<uint8_t> external_;
  std::vector<uint32_t> regs_;
};

struct RunResult {
  int64_t cycles = 0;
  int64_t instructions = 0;
  bool completed = false;  ///< TRET reached
};

class Tep {
 public:
  Tep(const hwlib::ArchConfig& config, TepHost& host, int id = 0);

  /// Program memory and its microprogram table (built for this TEP's
  /// config) are shared between TEPs; the caller keeps both alive.
  void setProgram(const AsmProgram* program, const MicroTable* micro);

  /// Begin executing the routine at instruction index `entry`.
  void startRoutine(int entry);
  [[nodiscard]] bool busy() const { return busy_; }

  /// Advance one clock (one microinstruction, or a stall cycle).
  void stepCycle();

  /// Convenience: run a named routine to TRET on this TEP alone.
  RunResult run(const std::string& routine, int64_t maxCycles = 2'000'000);

  /// Attach an observability sink. `machineTime` (optional) points at the
  /// host's absolute machine clock so emitted timestamps are global; when
  /// null, the TEP's own cycle counter is used. Observation never alters
  /// the cycle/stall accounting.
  void attachObserver(obs::ObsSink* sink, const int64_t* machineTime = nullptr) {
    sink_ = sink;
    obsTime_ = machineTime;
  }

  // Introspection for tests and traces.
  [[nodiscard]] uint32_t acc() const { return acc_; }
  [[nodiscard]] uint32_t op() const { return op_; }
  [[nodiscard]] int pc() const { return pc_; }
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int64_t cyclesExecuted() const { return cycles_; }
  [[nodiscard]] int64_t instructionsExecuted() const { return instructions_; }
  [[nodiscard]] int64_t stallCycles() const { return stalls_; }
  [[nodiscard]] bool flagZ() const { return flagZ_; }
  [[nodiscard]] bool flagN() const { return flagN_; }
  [[nodiscard]] bool flagC() const { return flagC_; }

  /// Replace the architectural register/flag state. The native tier runs
  /// routines outside the microcode loop and writes the end-of-routine
  /// state back here, so interpreted and compiled routines can interleave
  /// on one core with the same ACC/OP/flag carry-over the interpreter has.
  void setArchState(uint32_t acc, uint32_t op, bool z, bool n, bool c) {
    acc_ = acc;
    op_ = op;
    flagZ_ = z;
    flagN_ = n;
    flagC_ = c;
  }

 private:
  void beginInstruction();
  void execMicroOp(const MicroInstr& mi);
  void aluExec(AluSub sub, bool last);
  void applyFlags(uint32_t result, int width);

  const hwlib::ArchConfig& config_;
  TepHost& host_;
  int id_ = 0;
  const AsmProgram* program_ = nullptr;
  const MicroTable* micro_ = nullptr;

  // Architectural state.
  uint32_t acc_ = 0;
  uint32_t op_ = 0;
  uint32_t mdr_ = 0;
  int32_t mar_ = 0;
  int pc_ = 0;
  bool flagZ_ = false;
  bool flagN_ = false;  ///< signed comparison / sign bit
  bool flagC_ = false;  ///< carry / unsigned borrow
  std::vector<int> callStack_;

  // Microprogram execution state.
  bool busy_ = false;
  const MicroInstr* microPc_ = nullptr;   ///< next state of current_
  const MicroInstr* microEnd_ = nullptr;  ///< one past its last state
  Instr current_;
  int extPhase_ = 0;  ///< 0 = idle, 1 = wait state pending for ext access

  // Statistics.
  int64_t cycles_ = 0;
  int64_t instructions_ = 0;
  int64_t stalls_ = 0;

  // Observability (null by default: no emission, identical timing).
  obs::ObsSink* sink_ = nullptr;
  const int64_t* obsTime_ = nullptr;
  [[nodiscard]] int64_t obsNow() const { return obsTime_ != nullptr ? *obsTime_ : cycles_; }
};

}  // namespace pscp::tep
