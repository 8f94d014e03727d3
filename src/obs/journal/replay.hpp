// Journal replay engine: re-execute a pscp-journal-v1 log and verify
// bit-identity against its recorded CR digests.
//
// Determinism contract (why replay at a different worker count is
// valid): a fleet instance's trajectory is a function of its
// delivered-event script alone — machines share only the immutable
// ChartImage and each instance is stepped by exactly one worker per epoch
// (the fleet test suite diffs 1/2/8 workers). The journal records the
// delivered script; the Replayer re-injects it on the control thread
// before each step, so injections happen-before step() and are delivered
// at that epoch's first cycle in recorded order. Any worker count and
// either execution tier must therefore reproduce the recorded CR digests
// exactly; a mismatch is a real divergence (or a damaged journal), never
// scheduling noise.
//
// Bisection: bisectDivergence() binary-searches the first divergent epoch
// by re-replaying journal *prefixes* (determinism makes from-scratch
// probes valid — the same prefix always reaches the same state). It
// distinguishes two kinds of divergence:
//   - "recorded-vs-replay": the journal's own checkpoints disagree with
//     any faithful replay (a damaged journal, or drift in the recording
//     environment). Resolution is checkpoint-granular — re-record with
//     checkpointInterval 1 for exact-epoch pinpointing.
//   - "config-divergence": the target configuration diverges from a
//     reference replay that does match the recording. Binary search over
//     per-epoch digests pins the exact first divergent epoch, regardless
//     of checkpoint spacing. (Divergence is persistent once states split,
//     which is what makes the binary search sound.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/journal/journal.hpp"
#include "obs/journal/spans.hpp"

namespace pscp::obs::journal {

using fleet::Fleet;
using fleet::FleetConfig;
using fleet::InstanceId;

struct ReplayOptions {
  int workerThreads = 1;
  /// Native-tier mode for the replay fleet. Tiered execution is inside the
  /// determinism contract (bit-identical to the interpreter), so a journal
  /// recorded under one mode must verify under any other — the JIT
  /// differential tests replay interpreter recordings with the native tier
  /// forced on.
  tep::jit::JitMode jitMode = tep::jit::jitModeFromEnv();
  /// Compare every checkpoint encountered; stop at the first mismatch.
  bool verifyCheckpoints = true;
  /// Replay only ops up to (and including) this epoch; -1 = the whole
  /// journal. Prefix probes for bisection use this.
  int64_t stopAfterEpoch = -1;
  /// Capture every live instance's CR words at the end of the replay.
  bool captureFinalCr = false;
  /// Optional tracing: attach `traceSink` to instance `traceInstance`'s
  /// machine at spawn (tee a TraceRecorder and the SpanTracker; see
  /// obs/tee.hpp). `spanTracker` is primed before every step with the
  /// spans delivered to that instance. Attaching a sink makes the traced
  /// instance decode every cycle (it bypasses the decode memo) — still
  /// bit-identical by the obs contract.
  ObsSink* traceSink = nullptr;
  SpanTracker* spanTracker = nullptr;
  int64_t traceInstance = -1;
};

/// One instance's CR at a comparison point.
struct InstanceCr {
  int64_t instance = 0;
  uint64_t digest = 0;
  std::vector<uint64_t> words;  ///< empty when the journal stored none
};

struct CheckpointMismatch {
  int64_t epoch = -1;
  size_t checkpointIndex = 0;
  uint64_t recordedDigest = 0;
  uint64_t replayedDigest = 0;
  std::vector<int64_t> divergingInstances;
  std::vector<InstanceCr> recorded;  ///< recorded side of diverging instances
  std::vector<InstanceCr> replayed;  ///< replayed side of diverging instances
};

struct ReplayResult {
  bool ok = false;        ///< ops applied cleanly (image matched, ids lined up, no step faulted)
  bool verified = true;   ///< every checked checkpoint matched
  std::string error;      ///< set when !ok
  int64_t epochsReplayed = 0;
  int64_t checkpointsChecked = 0;
  CheckpointMismatch firstMismatch;  ///< populated when !verified
  int64_t finalEpoch = 0;
  uint64_t finalDigest = 0;
  std::vector<InstanceCr> finalCr;  ///< when ReplayOptions::captureFinalCr
};

class Replayer {
 public:
  /// The journal and image must outlive the Replayer. Construction checks
  /// the image content hash against the journal header; run() refuses on
  /// mismatch.
  Replayer(const Journal* journal, Fleet::ChartImagePtr image);

  [[nodiscard]] ReplayResult run(const ReplayOptions& options) const;

 private:
  const Journal* journal_;
  Fleet::ChartImagePtr image_;
  bool imageMatches_ = false;
  uint64_t imageHash_ = 0;
  size_t maxInjectBurst_ = 0;  ///< largest per-(instance, epoch) inject run
};

struct BisectResult {
  bool ok = false;        ///< bisection ran (journal usable, image matched)
  bool diverged = false;  ///< false = target replay verified clean
  std::string error;
  /// "recorded-vs-replay" or "config-divergence" (see header comment).
  std::string kind;
  int64_t epoch = -1;      ///< first divergent epoch
  bool epochExact = true;  ///< false when checkpoint-granular only
  int64_t windowLo = -1;   ///< last epoch proven clean
  std::vector<int64_t> divergingInstances;
  std::vector<InstanceCr> expected;  ///< recorded / reference side
  std::vector<InstanceCr> actual;    ///< target side
  /// Inject ops delivered to diverging instances in (windowLo, epoch] —
  /// the causal spans that produced the delta.
  std::vector<Op> causalInjects;
  int64_t probes = 0;  ///< replays executed by the search
};

/// Locate the first divergent epoch of `target` against the journal (see
/// header comment for the algorithm). The reference configuration is one
/// worker.
[[nodiscard]] BisectResult bisectDivergence(const Journal& journal,
                                            Fleet::ChartImagePtr image,
                                            const ReplayOptions& target);

/// Human-readable decode of CR words against an image's layout: active
/// states by name, set condition bits, any set event bits.
[[nodiscard]] std::string describeCrWords(const machine::ChartImage& image,
                                          const std::vector<uint64_t>& words);

/// Multi-line report of a bisection for terminal output (both CR states
/// decoded via describeCrWords plus the causal spans).
[[nodiscard]] std::string formatBisectReport(const BisectResult& result,
                                             const machine::ChartImage& image);

}  // namespace pscp::obs::journal
