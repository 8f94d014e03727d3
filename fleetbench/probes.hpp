// The oracle check and the per-layer probes. Each probe calls one layer's
// public API from outside and times it under a span; none reaches into
// the fleet's batching internals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace fleetbench {

/// Host time and simulated cost of one class of configuration cycle.
struct ClassTally {
  int64_t count = 0;
  int64_t ns = 0;  ///< span durations, uncorrected
  int64_t machineCycles = 0;
  int64_t busStalls = 0;

  [[nodiscard]] bool operator==(const ClassTally& o) const {
    return count == o.count && machineCycles == o.machineCycles &&
           busStalls == o.busStalls;  // ns is host time, never compared
  }
};

/// Cycles split by how many routines they fired: >= 2 (lockstep), exactly
/// one (serial) or none (quiescent).
struct MirrorTally {
  ClassTally lockstep, serial, quiescent;
  [[nodiscard]] bool operator==(const MirrorTally&) const = default;
};

/// Span names for one tier setting of the mirror probe.
struct CycleNames {
  const char* lockstep;
  const char* serial;
  const char* quiescent;
};

/// Step a mirror through one epoch: `events` at the first cycle, none at
/// the rest. With `spans`, every configurationCycleIds call gets a span
/// named by its class and is added to `tally`.
void stepMirror(Mirror& mirror, const std::vector<int>& events, int cycles,
                Spans* spans, const CycleNames* names, MirrorTally* tally);

struct OracleResult {
  int64_t checked = 0;
  int64_t mismatches = 0;
  std::string firstError;
};

/// Compare each sampled fleet instance with a standalone mirror stepped
/// through epochs 0..lastEpoch of the script on the lockstep interpreter
/// (JIT off): CR words and every Fleet::snapshot counter.
[[nodiscard]] OracleResult checkOracle(const Setup& setup, const WorkloadSpec& spec,
                                       const Script& script,
                                       const std::vector<size_t>& sample,
                                       int64_t lastEpoch);

/// Per-class timing and simulated statistics from sampled mirrors fed
/// `epochs` epochs of the script, topped up with a synthetic stimulus for
/// any class the script leaves under-sampled.
struct MirrorProbe {
  MirrorTally tally;       ///< all timed cycles, script and top-up
  MirrorTally scriptOnly;  ///< the script's own cycles (its class mix)
};

[[nodiscard]] MirrorProbe probeMirrors(const Setup& setup, const WorkloadSpec& spec,
                                       const Script& script,
                                       const std::vector<size_t>& sample,
                                       int64_t epochs, pscp::tep::jit::JitMode mode,
                                       const CycleNames& names, Spans* spans);

/// The CRs the sampled instances' SLA decodes over `epochs` epochs of the
/// script, taken through an observer on an untimed mirror pass: an evenly
/// strided subset of at most about 4096.
[[nodiscard]] std::vector<pscp::BitVec> captureDecodedCrs(const Setup& setup,
                                                          const WorkloadSpec& spec,
                                                          const Script& script,
                                                          const std::vector<size_t>& sample,
                                                          int64_t epochs);

/// Sla::selectInto over the captured CRs: ns per call and transitions
/// selected per decode.
struct SelectProbe {
  double nsPerSelect = 0.0;
  double selectedPerDecode = 0.0;
};
[[nodiscard]] SelectProbe probeSelect(const pscp::machine::ChartImage& image,
                                      const std::vector<pscp::BitVec>& crs,
                                      Spans* spans);

/// Median Fleet::step(1) time on an empty fleet with `workers` workers.
[[nodiscard]] double probeBarrierUs(const Setup& setup, int workers, Spans* spans);

/// Heap growth from constructing one PscpMachine over the image and
/// warming it, in KB.
[[nodiscard]] double probeMachineHeapKb(const Setup& setup);

/// Observability cost: an armed (telemetry + journal) and a disarmed fleet
/// of the workload's shape stepped in interleaved rounds, then the armed
/// fleet's health snapshot, journal write and journal replay.
struct ObsProbe {
  double armedStepRatio = 0.0;
  double healthSnapshotUs = 0.0;
  double journalOpsPerEpoch = 0.0;
  double journalWriteMs = 0.0;
  double replayNsPerInstanceCycle = 0.0;
  int64_t failed = 0;
  std::string error;
};
[[nodiscard]] ObsProbe probeObs(const WorkloadSpec& spec, const Script& script,
                                const std::string& outDir, Spans* spans);

/// Replay a fleet's own journal at one worker with checkpoint
/// verification; empty string on success, the failure otherwise.
[[nodiscard]] std::string replayJournal(const Setup& setup);

}  // namespace fleetbench
