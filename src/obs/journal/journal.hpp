// Deterministic record/replay journal (the pscp-journal-v1 format).
//
// The trace recorder and the flight rings answer "what just happened";
// neither is a durable artifact another process can re-execute. The
// journal is: an append-only log of every control-plane operation a Fleet
// performed — spawns, retires, input-port/condition/timer setup, warm-up
// configuration cycles, every *delivered* external event with its arrival
// epoch, every step — plus periodic CR-word digests as checkpoints, all
// anchored to a content hash of the ChartImage it ran over. A replay
// engine (journal/replay.hpp) reconstructs the fleet from the log and
// verifies bit-identity against the recorded digests at any worker count.
//
// Why recording *delivery* (not injection) makes replay deterministic:
// producers inject from arbitrary threads at arbitrary times, racing the
// epoch barrier — whether an event lands in epoch N or N+1 is a race the
// journal must not have to reproduce. The fleet drains each instance's
// SPSC queue at its epoch's first cycle into per-instance scratch; the
// journal reads that scratch on the control thread after the barrier and
// logs exactly the events the machine consumed, stamped with the epoch
// that consumed them. Replay re-injects them from the control thread
// before stepping that epoch, hitting the same delivery point by the
// fleet's happens-before contract. Races and queue-full drops are thereby
// resolved at record time and never replayed.
//
// Causal spans: every delivered event gets a journal-wide monotonically
// increasing span id, assigned in delivery order (instances ascending,
// queue order within an instance). Replay walks the same log in the same
// order on one thread, so span ids are stable across record and replay —
// journal/spans.hpp threads them through ObsSink callbacks down to
// Chrome-trace flow arrows.
//
// Allocation contract (mirrors the telemetry plane): a disarmed fleet
// does no journal work at all; an armed fleet appends to grow-only
// vectors whose capacity is reserved at construction, only ever from
// the control thread between epochs. Steady state within the reserves is
// allocation-free — the counting-operator-new test armed with a journal
// holds the epoch loop to zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/bits.hpp"
#include "support/json.hpp"

namespace pscp::machine {
class ChartImage;
}

namespace pscp::obs::journal {

struct JournalConfig {
  /// Epochs between CR-digest checkpoints (1 = every epoch, which is what
  /// bisection to an exact epoch wants; sparser is cheaper to record).
  /// An epoch-0 checkpoint of the post-setup state is always taken.
  int64_t checkpointInterval = 16;
};

/// One logged control-plane operation. Fixed-width on purpose: the op
/// stream is the hot append path and the binary framing writes it as-is.
enum class OpKind : uint8_t {
  kSpawn = 1,        ///< instance
  kRetire = 2,       ///< instance
  kInject = 3,       ///< instance, a=event bit, b=arrival epoch, c=span id
  kStep = 4,         ///< a=epoch, b=cycles
  kCheckpoint = 5,   ///< a=epoch, b=combined digest (bit-cast), c=table index
  kSetPort = 6,      ///< instance, a=port bus address, b=value
  kSetCondition = 7, ///< instance, a=CR condition bit, b=value (0/1)
  kAddTimer = 8,     ///< instance, a=event bit, b=period
  kWarmCycle = 9,    ///< instance, a=warm-event arena offset, b=count
};

/// Stable wire name of an op kind ("spawn", "inject", ...); nullptr for an
/// out-of-range value.
[[nodiscard]] const char* opKindName(OpKind kind);
/// Inverse of opKindName; false when the name is unknown.
[[nodiscard]] bool opKindFromName(const std::string& name, OpKind* out);

struct Op {
  OpKind kind = OpKind::kSpawn;
  int64_t instance = -1;  ///< -1 for fleet-wide ops (step, checkpoint)
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
};

/// Flat per-instance checkpoint entry; CR words live in a shared arena so
/// checkpointing never allocates per instance.
struct CheckpointInstance {
  int64_t instance = 0;
  uint64_t digest = 0;
  uint32_t crOffset = 0;  ///< into the journal's CR-word arena
  uint32_t crWords = 0;   ///< 0 when a read-back entry carried no CR words
};

/// FNV-1a 64 over `len` bytes, chainable through `seed`.
[[nodiscard]] uint64_t fnv1a64(const void* data, size_t len,
                               uint64_t seed = 14695981039346656037ull);
/// Digest of one packed CR (the words, seeded with the bit width).
[[nodiscard]] uint64_t crDigest(const BitVec& cr);
/// Fold one instance's (id, digest) into a fleet-wide digest accumulator.
/// Start from kFleetDigestSeed and fold live instances in ascending id
/// order; the result is the journal's combined checkpoint digest.
inline constexpr uint64_t kFleetDigestSeed = 14695981039346656037ull;
[[nodiscard]] uint64_t foldInstanceDigest(uint64_t acc, uint64_t instanceId,
                                          uint64_t digest);

/// Content hash of a compiled ChartImage: chart name, CR layout (event /
/// condition bit assignments, state-field encodings), the SLA's compiled
/// product-term masks, and the encoded TEP program. Two images with equal
/// hashes decode and execute identically, so a journal recorded over one
/// replays over the other.
[[nodiscard]] uint64_t imageContentHash(const machine::ChartImage& image);

/// Why a recorded event_queue_capacity cannot size a replay fleet's
/// queues — it lies outside [0, fleet::kMaxEventQueueCapacity] — or ""
/// when it can. Both parsers and Replayer::run check it.
[[nodiscard]] std::string eventQueueCapacityError(int64_t capacity);

class Journal {
 public:
  explicit Journal(JournalConfig config = {});

  // ------------------------------------------------------------- header
  void setChartName(std::string name) { chartName_ = std::move(name); }
  void setImageHash(uint64_t hash) { imageHash_ = hash; }
  void setEventQueueCapacity(int64_t capacity) { eventQueueCapacity_ = capacity; }
  void setRecordedWorkers(int workers) { recordedWorkers_ = workers; }
  /// Free-form provenance annotation ("counterexample for property X of
  /// spec Y"). Carried by the JSON form only; the binary framing — a
  /// fixed-layout wire format — drops it. Never affects replay.
  void setNote(std::string note) { note_ = std::move(note); }

  [[nodiscard]] const std::string& chartName() const { return chartName_; }
  [[nodiscard]] uint64_t imageHash() const { return imageHash_; }
  [[nodiscard]] int64_t eventQueueCapacity() const { return eventQueueCapacity_; }
  [[nodiscard]] int recordedWorkers() const { return recordedWorkers_; }
  [[nodiscard]] const std::string& note() const { return note_; }
  [[nodiscard]] const JournalConfig& config() const { return config_; }

  // -------------------------------------------------- recording surface
  // All control-thread-only, called by Fleet between epochs.
  void recordSpawn(int64_t instance);
  void recordRetire(int64_t instance);
  /// One kInject op per event of the `count` delivered to `instance` in
  /// `epoch`, in order, each with the next span id (1-based, strictly
  /// increasing): one capacity check per batch and no call per event, for
  /// the fleet's per-epoch capture.
  void recordDeliveries(int64_t instance, const int* events, size_t count, int64_t epoch) {
    if (ops_.capacity() - ops_.size() < count)
      ops_.reserve(std::max(ops_.size() + count, 2 * ops_.capacity()));
    for (size_t i = 0; i < count; ++i)
      ops_.push_back({OpKind::kInject, instance, events[i], epoch,
                      static_cast<int64_t>(++nextSpan_)});
  }
  void recordStep(int64_t epoch, int cycles);
  void recordSetPort(int64_t instance, int portAddress, uint32_t value);
  void recordSetCondition(int64_t instance, int conditionBit, bool value);
  void recordAddTimer(int64_t instance, int eventBit, int64_t period);
  void recordWarmCycle(int64_t instance, const std::vector<int>& eventBits);
  /// Checkpoint protocol: begin, add every live instance in ascending id
  /// order, end (which appends the kCheckpoint op with the folded digest).
  void beginCheckpoint(int64_t epoch);
  void addCheckpointInstance(int64_t instance, const BitVec& cr);
  void endCheckpoint();

  // --------------------------------------------------------------- access
  [[nodiscard]] const std::vector<Op>& ops() const { return ops_; }
  /// Mutable op access for corruption/fault-injection tooling (the bisect
  /// tests deliberately damage a journal through this).
  [[nodiscard]] std::vector<Op>& mutableOps() { return ops_; }
  [[nodiscard]] uint64_t spanCount() const { return nextSpan_; }

  struct CheckpointView {
    int64_t epoch = 0;
    uint64_t digest = 0;
    const CheckpointInstance* instances = nullptr;
    size_t instanceCount = 0;
  };
  [[nodiscard]] size_t checkpointCount() const { return checkpointEpochs_.size(); }
  [[nodiscard]] CheckpointView checkpoint(size_t index) const;
  /// CR words recorded for one checkpoint entry (crWords of them).
  [[nodiscard]] const uint64_t* checkpointCr(const CheckpointInstance& entry) const;
  /// Event bits of a kWarmCycle op (op.b of them).
  [[nodiscard]] const int32_t* warmEvents(const Op& op) const;

  // -------------------------------------------------------- serialization
  [[nodiscard]] JsonValue toJson() const;
  [[nodiscard]] std::string dumpJson() const { return toJson().dump(1) + "\n"; }
  /// Compact binary framing: "PSCPJRN1" magic, little-endian fixed-width
  /// fields, arenas serialized whole. ~10x smaller than the JSON form.
  [[nodiscard]] std::string dumpBinary() const;
  bool writeFile(const std::string& path, bool binary,
                 std::string* error = nullptr) const;

  static bool fromJson(const JsonValue& doc, Journal* out, std::string* error);
  static bool parseBinary(const std::string& bytes, Journal* out,
                          std::string* error);
  /// Sniffs the binary magic, otherwise parses as JSON.
  static bool parse(const std::string& bytes, Journal* out, std::string* error);
  static bool readFile(const std::string& path, Journal* out,
                       std::string* error);

 private:
  JournalConfig config_;

  std::string chartName_;
  uint64_t imageHash_ = 0;
  int64_t eventQueueCapacity_ = 0;
  int recordedWorkers_ = 1;
  std::string note_;

  std::vector<Op> ops_;
  uint64_t nextSpan_ = 0;

  // Checkpoint tables (flat, arena-backed — see header comment).
  std::vector<int64_t> checkpointEpochs_;
  std::vector<uint64_t> checkpointDigests_;
  std::vector<std::pair<uint32_t, uint32_t>> checkpointRanges_;
  std::vector<CheckpointInstance> checkpointInstances_;
  std::vector<uint64_t> crWords_;
  std::vector<int32_t> warmEvents_;

  // In-flight checkpoint accumulator (between begin/end).
  int64_t openEpoch_ = -1;
  uint64_t openDigest_ = 0;
  uint32_t openBegin_ = 0;
};

}  // namespace pscp::obs::journal
