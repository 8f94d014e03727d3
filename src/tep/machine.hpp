// Cycle-accurate TEP simulator (paper Fig. 3).
//
// The simulator executes microinstructions — one datapath state per clock —
// generated by microcodeFor() for the configured architecture, so the
// simulated cycle counts, the static WCET analysis, and the area model all
// derive from the same microprograms.
//
// The TEP communicates with the rest of the PSCP through a TepHost: data
// memory (its register file, its internal bank and the shared external
// bank), the port architecture, and the CR (events / conditions /
// states). The core reads registers and in-layout memory in place through
// the host's MemView and calls the host only for the rest. External-memory
// accesses take an extra wait state and must win the shared external bus
// for that cycle; with several TEPs this is where bus contention appears.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hwlib/arch_config.hpp"
#include "obs/sink.hpp"
#include "support/diag.hpp"
#include "tep/microcode.hpp"

namespace pscp::tep {

/// What a TEP core, and the native code run on its behalf, read and write
/// in place: the TEP's register file, the in-layout prefix of its internal
/// bank, and that of the shared external bank. Raw pointers plus sizes,
/// valid for the lifetime of the DataMemory they view.
struct MemView {
  uint32_t* regs = nullptr;      ///< kRegisterCount entries
  uint8_t* internal = nullptr;   ///< addresses [0, internalSize)
  uint8_t* external = nullptr;   ///< addresses kExternalBase + [0, externalSize)
  uint64_t internalSize = 0;
  uint64_t externalSize = 0;

  /// The in-layout byte at `addr`, or null when the host serves it: a byte
  /// in a bank's tail, or an unmapped address.
  [[nodiscard]] uint8_t* byteAt(int32_t addr) const {
    const auto a = static_cast<uint32_t>(addr);
    if (a < internalSize) return internal + a;
    const uint32_t e = a - static_cast<uint32_t>(kExternalBase);
    return e < externalSize ? external + e : nullptr;
  }
};

/// A PSCP instance's TEP data memory, sized from its compiled layout
/// (CompiledApp::{internal,external}BytesUsed): per TEP a register file and
/// an internal bank, and one external bank all TEPs share, in a single
/// allocation. A mapped address past a bank's layout lives in that bank's
/// tail, allocated on the first write there; unwritten tail bytes read as
/// 0 and allocate nothing. The in-layout prefix never moves, so a view
/// stays valid for the memory's lifetime.
class DataMemory {
 public:
  DataMemory(int teps, int32_t internalBytes, int32_t externalBytes);

  /// True for an address in either bank's range, [0, kExternalBase +
  /// kExternalSize); every other address is unmapped.
  [[nodiscard]] static bool mapped(int32_t addr) {
    return addr >= 0 && addr < kExternalBase + kExternalSize;
  }

  /// TEP `tep`'s view: its register file and internal bank, the external
  /// bank. Inline: the native tier takes one per run.
  [[nodiscard]] MemView view(int tep) const {
    PSCP_ASSERT(tep >= 0 && tep < teps_);
    MemView v;
    v.regs = block_.get() + static_cast<size_t>(tep) * kRegisterCount;
    v.internal = internalBank(tep);
    v.external = externalBank();
    v.internalSize = static_cast<uint64_t>(internalBytes_);
    v.externalSize = static_cast<uint64_t>(externalBytes_);
    return v;
  }
  /// Mapped byte `addr` as TEP `tep` sees it (its own internal bank).
  [[nodiscard]] uint8_t read(int tep, int32_t addr) const;
  void write(int tep, int32_t addr, uint8_t value);
  [[nodiscard]] uint32_t reg(int tep, int index) const;
  void setReg(int tep, int index, uint32_t value);

 private:
  [[nodiscard]] uint8_t* internalBank(int tep) const {
    return reinterpret_cast<uint8_t*>(block_.get() +
                                      static_cast<size_t>(teps_) * kRegisterCount) +
           static_cast<size_t>(tep) * static_cast<size_t>(internalBytes_);
  }
  [[nodiscard]] uint8_t* externalBank() const { return internalBank(teps_); }
  /// Tail slot of mapped address `addr` past its bank's layout, for TEP
  /// `tep`: the bank (TEP index, or `teps_` for the external bank) and the
  /// byte's offset in that bank's tail.
  struct TailSlot {
    size_t bank;
    size_t offset;
  };
  [[nodiscard]] TailSlot tailSlot(int tep, int32_t addr) const;

  int teps_;
  int32_t internalBytes_;
  int32_t externalBytes_;
  /// The register files, then the internal banks, then the external bank.
  std::unique_ptr<uint32_t[]> block_;
  /// Per bank, its tail past the layout; null until written.
  std::vector<std::unique_ptr<uint8_t[]>> tails_;
};

/// The slot of port `address` in `portMap` (declared bus addresses, sorted
/// and unique), or -1 when none is declared there. A machine keeps one
/// port value per slot, and native code reads and latches it in place.
[[nodiscard]] int portSlotOf(const std::vector<int>& portMap, int64_t address);

/// Everything outside the TEP core: memory, ports, CR. One host is shared
/// by all TEPs of a PSCP instance.
class TepHost {
 public:
  virtual ~TepHost() = default;

  /// TEP `tepId`'s in-place view of its registers and in-layout memory.
  [[nodiscard]] virtual MemView memView(int tepId) = 0;

  // Data memory at byte granularity (internal below kExternalBase), for
  // what the view does not cover: tail bytes, unmapped addresses (a
  // runtime error) and the loader.
  [[nodiscard]] virtual uint8_t readByte(int32_t addr) = 0;
  virtual void writeByte(int32_t addr, uint8_t value) = 0;

  /// The loader's register writes (storage-promoted globals).
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

/// Self-contained host for unit tests and single-TEP runs. Its banks
/// default to the whole address range; smaller sizes model a compiled
/// layout, with tails past it.
class SimpleHost : public TepHost {
 public:
  explicit SimpleHost(int32_t internalBytes = kExternalBase,
                      int32_t externalBytes = kExternalSize);

  MemView memView(int tepId) override;
  uint8_t readByte(int32_t addr) override;
  void writeByte(int32_t addr, uint8_t value) override;
  void writeReg(int index, uint32_t value) override;
  [[nodiscard]] uint32_t readReg(int index) const;
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
  DataMemory memory_;
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
  /// Register `index` of this TEP's file; outside it, a runtime error.
  [[nodiscard]] uint32_t& reg(int index);

  const hwlib::ArchConfig& config_;
  TepHost& host_;
  int id_ = 0;
  MemView mem_;
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
