// Flight recorder: fixed-size, allocation-free per-shard ring buffers that
// keep the *recent* activity of a running fleet — epoch boundaries, per-
// instance drain/fire accounting, steal operations, port writes, drop
// deltas — so that a stall, a crash, or an operator request can produce a
// post-mortem dump without the fleet ever having paid for full tracing.
//
// Concurrency model (the part that matters):
//   - One FlightRing per shard, written ONLY by the worker that runs that
//     shard's epochs (work stealing does not change the writer: a stolen
//     chunk's records go into the thief's ring, attributed by payload).
//   - Any other thread may snapshot a ring AT ANY TIME, including while
//     the writer is mid-epoch. Every payload field is a relaxed atomic and
//     every slot carries a sequence word (2n+1 while record n is being
//     written, 2n+2 once it is published), so a concurrent reader never
//     sees a torn record: slots whose sequence does not match the expected
//     published value are simply skipped. The dump is therefore lock-free,
//     wait-free for the writer, and TSan-clean — the dump-while-stepping
//     race test runs under the ThreadSanitizer CI job.
//   - push() never allocates and costs a handful of relaxed stores; an
//     unarmed fleet does not construct rings at all (see FleetConfig).
//
// Dumps serialize as versioned `pscp-flight-v1` JSON (schema below) that
// round-trips through support/json, and can be lowered to a Chrome
// trace-event document so the existing trace-viewing stack (chrome://
// tracing / Perfetto, same consumer as obs/chrome_trace) can display the
// captured epochs per shard.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace pscp::obs {

/// Record kinds and their payload field meaning (a..d):
enum class FlightKind : uint8_t {
  kEpochBegin = 1,  ///< a=cycles requested, b=live instances
  kEpochEnd = 2,    ///< a=wall ns, b=machine cycles, c=instances stepped,
                    ///< d=events delivered (this worker, this epoch)
  /// a=instance id, b=machine cycles, c=fired, d=drained. Pushed only for
  /// an instance-epoch that drained an event or fired a transition: an
  /// idle instance leaves no record (kEpochEnd carries the shard totals),
  /// so a mostly idle shard keeps more than its last epoch in the ring.
  kInstance = 3,
  kSteal = 4,       ///< a=victim shard (its range), b=chunk begin as an
                    ///< index into the epoch's step list, c=chunk size
  kPortWrite = 5,   ///< a=instance id, b=port address, c=value, d=config cycle
  kDrops = 6,       ///< a=instance id, b=cumulative dropped injections
};

/// `name` is the wire spelling in pscp-flight-v1 ("epoch_begin", ...).
[[nodiscard]] const char* flightKindName(FlightKind kind);
[[nodiscard]] bool flightKindFromName(const std::string& name, FlightKind* out);

/// One decoded record (the plain, post-snapshot form).
struct FlightRecord {
  FlightKind kind = FlightKind::kEpochBegin;
  int32_t shard = 0;   ///< ring (== worker) the record was written by
  int64_t epoch = 0;   ///< fleet epoch index (1-based, Fleet::epochs())
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  int64_t d = 0;

  friend bool operator==(const FlightRecord&, const FlightRecord&) = default;
};

/// Single-writer / many-reader bounded ring of flight records. Capacity is
/// rounded up to a power of two. The writer overwrites the oldest record
/// once full — a flight recorder keeps the tail of history, not all of it.
class FlightRing {
 public:
  explicit FlightRing(size_t capacity);

  [[nodiscard]] size_t capacity() const { return mask_ + 1; }
  /// Total records ever pushed (monotonic; readers use it to find the live
  /// window).
  [[nodiscard]] uint64_t pushed() const {
    return next_.load(std::memory_order_acquire);
  }

  /// Writer side (exactly one thread). Never allocates, never blocks, and
  /// writes one cache line (inline: the armed fleet pushes per instance).
  void push(FlightKind kind, int64_t epoch, int64_t a, int64_t b, int64_t c,
            int64_t d) {
    const uint64_t n = next_.load(std::memory_order_relaxed);
    Slot& slot = slots_[static_cast<size_t>(n) & mask_];
    // Mark the slot in-progress before touching the payload, publish after:
    // a reader that races sees seq != 2n+2 and skips the slot.
    slot.seq.store(2 * n + 1, std::memory_order_release);
    slot.kind.store(static_cast<uint8_t>(kind), std::memory_order_relaxed);
    slot.epoch.store(epoch, std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.c.store(c, std::memory_order_relaxed);
    slot.d.store(d, std::memory_order_relaxed);
    slot.seq.store(2 * n + 2, std::memory_order_release);
    next_.store(n + 1, std::memory_order_release);
  }

  /// Append the published records still resident in the ring to `out`,
  /// oldest first, tagging each with `shard`. Safe from any thread at any
  /// time; records being overwritten concurrently are skipped, never torn.
  void snapshot(int32_t shard, std::vector<FlightRecord>* out) const;

 private:
  /// One record per cache line.
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  ///< 2n+1 writing, 2n+2 published
    std::atomic<uint8_t> kind{0};
    std::atomic<int64_t> epoch{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
    std::atomic<int64_t> d{0};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;
  alignas(64) std::atomic<uint64_t> next_{0};  ///< records pushed so far
};

/// The per-fleet bundle: one ring per shard plus the dump/ingest surface.
class FlightRecorder {
 public:
  FlightRecorder(size_t shardCount, size_t recordsPerShard);

  [[nodiscard]] size_t shardCount() const { return rings_.size(); }
  [[nodiscard]] size_t recordsPerShard() const { return recordsPerShard_; }
  [[nodiscard]] FlightRing& ring(size_t shard) { return *rings_[shard]; }
  [[nodiscard]] const FlightRing& ring(size_t shard) const {
    return *rings_[shard];
  }

  /// All shards' resident records, shard by shard, oldest first within a
  /// shard. Safe while the fleet is stepping.
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;

  // ------------------------------------------------------ pscp-flight-v1
  // {
  //   "schema": "pscp-flight-v1",
  //   "shards": N, "records_per_shard": C,
  //   "records": [ {"kind": "...", "shard": s, "epoch": e, <kind fields>} ]
  // }
  [[nodiscard]] JsonValue toJson() const;
  [[nodiscard]] std::string dumpJson() const { return toJson().dump(1); }
  /// Write dumpJson() to `path`; false (with *error set) on I/O failure.
  bool writeFile(const std::string& path, std::string* error = nullptr) const;

  /// Ingest a pscp-flight-v1 document back into decoded records (the
  /// replay/inspection path; round-trips snapshot() -> toJson() exactly).
  static bool parseJson(const JsonValue& doc, std::vector<FlightRecord>* out,
                        std::string* error);

  /// Serialize decoded records as pscp-flight-v1 (used by tools that edit
  /// or filter a dump before re-emitting it).
  [[nodiscard]] static JsonValue recordsToJson(
      const std::vector<FlightRecord>& records, size_t shardCount,
      size_t recordsPerShard);

  /// Lower a record set to a Chrome trace-event JSON document: one lane
  /// per shard, an "X" slice per captured epoch (duration = recorded wall
  /// ns), instant events for steals/port writes/drops inside it. Epochs
  /// are laid out back-to-back per shard on a synthetic timeline — the
  /// recorder stores durations, not absolute timestamps.
  [[nodiscard]] static std::string chromeTraceJson(
      const std::vector<FlightRecord>& records);

 private:
  std::vector<std::unique_ptr<FlightRing>> rings_;
  size_t recordsPerShard_ = 0;
};

}  // namespace pscp::obs
