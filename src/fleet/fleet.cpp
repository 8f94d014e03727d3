#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "pscp/sched_cost.hpp"
#include "support/diag.hpp"

namespace pscp::fleet {

namespace {
// Instances per work-stealing chunk: small enough to balance a range
// whose worker falls behind, large enough to keep cursor traffic low.
constexpr size_t kStealChunk = 8;
// Flight-ring records per shard when telemetry is armed: about the last
// few dozen epochs of a busy shard.
constexpr size_t kFlightRecordsPerShard = 1024;
/// A sleeper's wake cycle when no timer bounds its credit.
constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

/// The wake and awake bitmaps hold one bit per InstanceId.
constexpr size_t wordOf(InstanceId id) { return static_cast<size_t>(id / 64); }
constexpr uint64_t bitOf(InstanceId id) { return uint64_t{1} << (id % 64); }
}  // namespace

// ------------------------------------------------------- internal structs

struct Fleet::Instance {
  Instance(const ChartImagePtr& image, InstanceId instanceId, size_t queueCapacity)
      : id(instanceId), machine(image), queue(queueCapacity) {
    drained.reserve(queue.capacity());
  }

  InstanceId id;
  machine::PscpMachine machine;
  SpscQueue<int32_t> queue;
  // The fields below start on a 128-byte boundary, an aligned pair of
  // cache lines (the unit the L2 adjacent-line prefetcher fetches), so
  // where they land does not depend on sizeof(PscpMachine): an idle fleet
  // touches little else of an instance, and the placement the machine's
  // size happened to give stepped smd_idle up to 13% slower (EXPERIMENTS.md).
  alignas(128) std::atomic<int64_t> dropped{0};  ///< producer-side full-queue rejections

  // Worker-private per-epoch scratch (exactly one worker touches an
  // instance per epoch; the epoch barrier publishes writes between epochs).
  std::vector<int> drained;
  machine::CycleStats stats;  ///< reused; fired kept allocated across epochs
  int64_t droppedSeen = 0;    ///< last `dropped` value folded into telemetry

  // Lifetime accounting (read by snapshot() between epochs; a sleeper's
  // stands at `sleptAt` until creditSleeper brings it to the clock).
  int64_t machineCycles = 0;
  int64_t configCycles = 0;
  int64_t quiescentCycles = 0;
  int64_t firedTransitions = 0;
  int64_t busStallCycles = 0;
  int64_t eventsDelivered = 0;

  // Sleep state (control thread only, between epochs). A sleeper is not
  // stepped: its machine stands at fleet cycle `sleptAt`. One with a timer
  // has a calendar entry at the cycle its credit runs out.
  bool asleep = false;
  int64_t sleptAt = 0;
  int64_t calendarKey = kNever;  ///< wake cycle of its newest calendar entry

  std::vector<machine::PortWrite> portLog;  ///< when capturePortWrites
};

/// One worker's range of the step list: the next unclaimed index, which
/// its owner and any thief claim chunks from, and the end, on their own
/// cache line.
struct Fleet::RangeCursor {
  alignas(64) std::atomic<size_t> next{0};
  size_t end = 0;
};

/// A sleeper's calendar entry: the fleet cycle its credit runs out at.
struct Fleet::CalendarEntry {
  int64_t wakeAt = 0;
  InstanceId id = 0;
  /// Heap order: std heaps keep the greatest first, so the soonest wins.
  bool operator<(const CalendarEntry& other) const { return wakeAt > other.wakeAt; }
};

/// Per-epoch, per-worker accumulator: plain int64s bumped in the hot loop
/// and flushed into the worker's WorkerCounters once per epoch, so the
/// stepping path touches no map, no string and no allocator.
struct Fleet::WorkerLocal {
  int64_t machineCycles = 0;
  int64_t configCycles = 0;
  int64_t quiescentCycles = 0;
  int64_t firedTransitions = 0;
  int64_t jitNativeRuns = 0;
  int64_t busStallCycles = 0;
  int64_t decodes = 0;
  int64_t decodeMemoHits = 0;
  int64_t lockstepRuns = 0;
  int64_t scheduleReplays = 0;
  int64_t eventsDelivered = 0;
  int64_t stealChunks = 0;
  int64_t instancesStepped = 0;  ///< awake instances stepped

  // Telemetry (ring == nullptr when the plane is disarmed: the hot loop's
  // single predictable check).
  obs::FlightRing* ring = nullptr;
  int64_t epoch = 0;
  int64_t queueDepthHwm = 0;
  int64_t drops = 0;
  int64_t portWrites = 0;
};

/// One cacheline-aligned block of counters per worker, allocated whether
/// or not telemetry is armed. Only the owning worker writes (load + store
/// on relaxed atomics, no CAS needed), once per epoch; any thread reads at
/// any time. mergedMetrics() and healthSnapshot() both read these fields.
struct Fleet::WorkerCounters {
  alignas(64) std::atomic<int64_t> epochs{0};
  std::atomic<int64_t> machineCycles{0};
  std::atomic<int64_t> configCycles{0};
  std::atomic<int64_t> quiescentCycles{0};
  std::atomic<int64_t> firedTransitions{0};
  std::atomic<int64_t> jitNativeRuns{0};
  std::atomic<int64_t> busStallCycles{0};
  std::atomic<int64_t> decodes{0};          ///< configuration cycles that decoded
  std::atomic<int64_t> decodeMemoHits{0};   ///< of which the decode memo answered
  std::atomic<int64_t> lockstepRuns{0};     ///< configuration cycles that ran a TAT
  std::atomic<int64_t> scheduleReplays{0};  ///< of which the schedule memo replayed
  std::atomic<int64_t> eventsDelivered{0};
  std::atomic<int64_t> stealChunks{0};
  std::atomic<int64_t> instancesStepped{0};   ///< instances stepped (awake)
  std::atomic<int64_t> sleepingInstances{0};  ///< last epoch's sleepers (worker 0 only)
  // Written only when telemetry is armed.
  std::atomic<int64_t> epochStartNanos{0};  ///< 0 when no epoch in flight
  std::atomic<int64_t> lastEpochNanos{0};
  std::atomic<int64_t> ewmaEpochNanos{0};
  std::atomic<int64_t> minEpochNanos{0};
  std::atomic<int64_t> maxEpochNanos{0};
  std::atomic<int64_t> sumEpochNanos{0};
  std::atomic<int64_t> eventsDropped{0};  ///< drop deltas seen at drain time
  std::atomic<int64_t> queueDepthHwm{0};
  std::atomic<int64_t> portWrites{0};
  std::atomic<int64_t> epochNanosCounts[obs::kEpochNanosBucketCount] = {};
};

// ----------------------------------------------------------------- Fleet

Fleet::Fleet(ChartImagePtr image, FleetConfig config)
    : image_(std::move(image)), config_(config) {
  PSCP_ASSERT(image_ != nullptr);
  if (config_.eventQueueCapacity > kMaxEventQueueCapacity)
    fail("fleet: event queue capacity %zu exceeds the maximum of %zu",
         config_.eventQueueCapacity, kMaxEventQueueCapacity);
  if (config_.workerThreads > kMaxWorkerThreads)
    fail("fleet: %d worker threads exceeds the maximum of %d", config_.workerThreads,
         kMaxWorkerThreads);
  if (config_.workerThreads < 1) config_.workerThreads = 1;
  workerCount_ = static_cast<size_t>(config_.workerThreads);
  counters_ = std::make_unique<WorkerCounters[]>(workerCount_);
  cursors_ = std::make_unique<RangeCursor[]>(workerCount_);
  errors_.resize(workerCount_);
  if (config_.telemetry)
    flight_ = std::make_unique<obs::FlightRecorder>(workerCount_, kFlightRecordsPerShard);
  if (config_.journal) {
    journal_ = std::make_unique<obs::journal::Journal>(config_.journalConfig);
    journal_->setChartName(image_->chart().name());
    journal_->setImageHash(obs::journal::imageContentHash(*image_));
    journal_->setEventQueueCapacity(
        static_cast<int64_t>(config_.eventQueueCapacity));
    journal_->setRecordedWorkers(config_.workerThreads);
  }
  helpers_.reserve(workerCount_ - 1);
  try {
    for (size_t w = 1; w < workerCount_; ++w)
      helpers_.emplace_back([this, w] { helperLoop(w); });
  } catch (...) {
    joinHelpers();  // the ones that started, before the members go
    throw;
  }
}

Fleet::~Fleet() { joinHelpers(); }

void Fleet::joinHelpers() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

// -------------------------------------------------------------- lifecycle

InstanceId Fleet::spawn() {
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(
      std::make_unique<Instance>(image_, id, config_.eventQueueCapacity));
  instances_.back()->machine.setJitMode(config_.jitMode);
  if (wordOf(id) >= awakeBits_.size()) {
    awakeBits_.resize(wordOf(id) + 1, 0);
    wakeBits_.resize(wordOf(id) + 1, 0);
  }
  awakeBits_[wordOf(id)] |= bitOf(id);
  liveCount_.fetch_add(1, std::memory_order_relaxed);
  if (journal_ != nullptr) journal_->recordSpawn(static_cast<int64_t>(id));
  return id;
}

std::vector<InstanceId> Fleet::spawnMany(size_t count) {
  std::vector<InstanceId> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) ids.push_back(spawn());
  return ids;
}

void Fleet::retire(InstanceId id) {
  retiredDrops_ += liveInstance(id).dropped.load(std::memory_order_relaxed);
  instances_[static_cast<size_t>(id)].reset();
  liveCount_.fetch_sub(1, std::memory_order_relaxed);
  if (journal_ != nullptr) journal_->recordRetire(static_cast<int64_t>(id));
}

bool Fleet::isLive(InstanceId id) const {
  return id < instances_.size() && instances_[static_cast<size_t>(id)] != nullptr;
}

Fleet::Instance& Fleet::liveInstance(InstanceId id) {
  PSCP_ASSERT(isLive(id) && "unknown or retired fleet instance id");
  return *instances_[static_cast<size_t>(id)];
}

const Fleet::Instance& Fleet::liveInstance(InstanceId id) const {
  PSCP_ASSERT(isLive(id) && "unknown or retired fleet instance id");
  return *instances_[static_cast<size_t>(id)];
}

// -------------------------------------------------------------- injection

int Fleet::eventId(const std::string& eventName) const {
  return image_->layout().eventBit(eventName);
}

bool Fleet::inject(InstanceId id, int eventBit) {
  if (!isLive(id) || eventBit < 0 || eventBit >= image_->layout().eventCount())
    return false;
  Instance& inst = *instances_[static_cast<size_t>(id)];
  if (!inst.queue.tryPush(eventBit)) {
    inst.dropped.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Wake the instance after the push, on every push: the step that clears
  // this bit (acquire) then drains the event, so none waits in a sleeper.
  std::atomic_ref<uint64_t>(wakeBits_[wordOf(id)])
      .fetch_or(bitOf(id), std::memory_order_release);
  return true;
}

bool Fleet::injectByName(InstanceId id, const std::string& eventName) {
  return inject(id, eventId(eventName));
}

// --------------------------------------------------------------- stepping

int64_t Fleet::stepInstance(Instance& inst, int cycles, WorkerLocal& local) {
  // Deliver everything injected before this epoch at its first cycle.
  inst.drained.clear();
  int32_t event = 0;
  while (inst.queue.tryPop(&event)) inst.drained.push_back(event);
  const int64_t drainedCount = static_cast<int64_t>(inst.drained.size());
  inst.eventsDelivered += drainedCount;
  local.eventsDelivered += drainedCount;

  const int64_t nativeBefore = inst.machine.jitNativeRuns();
  inst.machine.configurationCycleIds(inst.drained, &inst.stats, cycles);
  const machine::CycleStats& stats = inst.stats;
  const int64_t epochFired = static_cast<int64_t>(stats.fired.size());
  inst.machineCycles += stats.cycles;
  inst.configCycles += cycles;
  inst.quiescentCycles += stats.quiescentCycles;
  inst.firedTransitions += epochFired;
  inst.busStallCycles += stats.busStallCycles;
  local.machineCycles += stats.cycles;
  local.configCycles += cycles;
  local.quiescentCycles += stats.quiescentCycles;
  local.firedTransitions += epochFired;
  local.jitNativeRuns += inst.machine.jitNativeRuns() - nativeBefore;
  local.busStallCycles += stats.busStallCycles;
  local.decodes += stats.decodes;
  local.decodeMemoHits += stats.decodeMemoHits;
  local.lockstepRuns += stats.lockstepRuns;
  local.scheduleReplays += stats.scheduleReplays;
  local.instancesStepped += 1;

  if (local.ring != nullptr) {  // telemetry armed: the one extra branch
    if (drainedCount > local.queueDepthHwm) local.queueDepthHwm = drainedCount;
    const int64_t droppedNow = inst.dropped.load(std::memory_order_relaxed);
    if (droppedNow != inst.droppedSeen) {
      local.drops += droppedNow - inst.droppedSeen;
      inst.droppedSeen = droppedNow;
      local.ring->push(obs::FlightKind::kDrops, local.epoch,
                       static_cast<int64_t>(inst.id), droppedNow, 0, 0);
    }
    // A busy instance-epoch's record and its first two port writes, when
    // they share a configuration cycle, take one slot; any other write one.
    const std::vector<machine::PortWrite>& writes = inst.machine.portWrites();
    const auto id = static_cast<int64_t>(inst.id);
    size_t pushed = 0;
    if (drainedCount > 0 || epochFired > 0) {
      if (writes.size() >= 2 && writes[0].configCycle == writes[1].configCycle &&
          obs::FlightRing::fitsInstanceWithWrites(epochFired, drainedCount)) {
        local.ring->pushInstanceWithWrites(local.epoch, id, stats.cycles, epochFired,
                                           drainedCount, writes[0].configCycle,
                                           writes[0].port, writes[0].value, writes[1].port,
                                           writes[1].value);
        pushed = 2;
      } else {
        local.ring->push(obs::FlightKind::kInstance, local.epoch, id, stats.cycles,
                         epochFired, drainedCount);
      }
    }
    for (size_t i = pushed; i < writes.size(); ++i)
      local.ring->push(obs::FlightKind::kPortWrite, local.epoch, id, writes[i].port,
                       static_cast<int64_t>(writes[i].value), writes[i].configCycle);
    local.portWrites += static_cast<int64_t>(writes.size());
  }

  if (config_.capturePortWrites) {
    const std::vector<machine::PortWrite>& writes = inst.machine.portWrites();
    inst.portLog.insert(inst.portLog.end(), writes.begin(), writes.end());
  }
  inst.machine.clearPortWrites();
  // An instance that fired is likely to fire again soon (a busy one fires
  // every epoch), so it sleeps only after an epoch that fired nothing.
  return epochFired == 0 ? inst.machine.quiescentCredit() : 0;
}

void Fleet::runWorkerEpoch(size_t worker, int cycles, int64_t epoch) noexcept {
  WorkerCounters& block = counters_[worker];
  WorkerLocal local;

  const bool armed = flight_ != nullptr;
  int64_t epochStart = 0;
  if (armed) {
    local.ring = &flight_->ring(worker);
    local.epoch = epoch;
    epochStart = obs::nowMonotonicNanos();
    block.epochStartNanos.store(epochStart, std::memory_order_relaxed);
    local.ring->push(obs::FlightKind::kEpochBegin, epoch, cycles,
                     static_cast<int64_t>(liveCount_.load(std::memory_order_relaxed)),
                     0, 0);
    // Fault injection sleeps *inside* the measured epoch so a snapshot
    // taken meanwhile sees it as in-flight time (the stall signal).
    if (config_.debugStallShard == static_cast<int>(worker) &&
        config_.debugStallMicros > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.debugStallMicros));
    }
  }

  // Own range first, then sweep the others stealing leftover chunks.
  try {
    size_t victim = worker;
    for (size_t offset = 0; offset < workerCount_; ++offset) {
      RangeCursor& range = cursors_[victim];
      for (;;) {
        const size_t begin = range.next.fetch_add(kStealChunk, std::memory_order_relaxed);
        if (begin >= range.end) break;
        const size_t end = std::min(begin + kStealChunk, range.end);
        for (size_t i = begin; i < end; ++i)
          credits_[i] = stepInstance(*stepList_[i], cycles, local);
        if (offset != 0) {
          ++local.stealChunks;
          if (local.ring != nullptr)
            local.ring->push(obs::FlightKind::kSteal, epoch,
                             static_cast<int64_t>(victim),
                             static_cast<int64_t>(begin),
                             static_cast<int64_t>(end - begin), 0);
        }
      }
      if (++victim == workerCount_) victim = 0;
    }
  } catch (...) {
    // The epoch ends where it threw; its counters stay unflushed, as the
    // fleet's clock stays where it was.
    block.epochStartNanos.store(0, std::memory_order_relaxed);
    errors_[worker] = std::current_exception();
    return;
  }

  // The sleepers ran `cycles` quiescent cycles each, which creditSleeper
  // gives their machines when they wake or are read; worker 0's counters
  // take them now, so the sums are exact after every epoch.
  const int64_t sleepers =
      worker == 0
          ? static_cast<int64_t>(liveCount_.load(std::memory_order_relaxed) - stepList_.size())
          : 0;
  local.configCycles += sleepers * cycles;
  local.quiescentCycles += sleepers * cycles;
  local.machineCycles += sleepers * cycles * machine::kSlaEvaluateCycles;

  // Single-writer block: load/compute/store on relaxed atomics is safe;
  // concurrent readers see any consistent-enough interleaving.
  const auto bump = [](std::atomic<int64_t>& a, int64_t delta) {
    a.store(a.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  };
  if (armed) {
    const int64_t durNanos = obs::nowMonotonicNanos() - epochStart;
    block.epochStartNanos.store(0, std::memory_order_relaxed);
    block.lastEpochNanos.store(durNanos, std::memory_order_relaxed);
    const int64_t prevEwma = block.ewmaEpochNanos.load(std::memory_order_relaxed);
    block.ewmaEpochNanos.store(
        prevEwma == 0 ? durNanos : prevEwma + (durNanos - prevEwma) / 8,
        std::memory_order_relaxed);
    const int64_t prevMin = block.minEpochNanos.load(std::memory_order_relaxed);
    if (block.epochs.load(std::memory_order_relaxed) == 0 || durNanos < prevMin)
      block.minEpochNanos.store(durNanos, std::memory_order_relaxed);
    if (durNanos > block.maxEpochNanos.load(std::memory_order_relaxed))
      block.maxEpochNanos.store(durNanos, std::memory_order_relaxed);
    bump(block.sumEpochNanos, durNanos);
    const std::vector<int64_t>& bounds = obs::epochNanosBounds();
    const size_t bucket = static_cast<size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), durNanos) -
        bounds.begin());
    bump(block.epochNanosCounts[bucket], 1);
    bump(block.eventsDropped, local.drops);
    if (local.queueDepthHwm > block.queueDepthHwm.load(std::memory_order_relaxed))
      block.queueDepthHwm.store(local.queueDepthHwm, std::memory_order_relaxed);
    bump(block.portWrites, local.portWrites);
    local.ring->push(obs::FlightKind::kEpochEnd, epoch, durNanos,
                     local.machineCycles, local.instancesStepped,
                     local.eventsDelivered);
  }
  bump(block.machineCycles, local.machineCycles);
  bump(block.configCycles, local.configCycles);
  bump(block.quiescentCycles, local.quiescentCycles);
  if (local.instancesStepped > 0) {
    // Only stepped instances feed these: an epoch whose instances all
    // sleep, the common idle case, leaves them as they are.
    bump(block.firedTransitions, local.firedTransitions);
    bump(block.jitNativeRuns, local.jitNativeRuns);
    bump(block.busStallCycles, local.busStallCycles);
    bump(block.decodes, local.decodes);
    bump(block.decodeMemoHits, local.decodeMemoHits);
    bump(block.lockstepRuns, local.lockstepRuns);
    bump(block.scheduleReplays, local.scheduleReplays);
    bump(block.eventsDelivered, local.eventsDelivered);
    bump(block.stealChunks, local.stealChunks);
    bump(block.instancesStepped, local.instancesStepped);
  }
  block.sleepingInstances.store(sleepers, std::memory_order_relaxed);
  bump(block.epochs, 1);
}

void Fleet::helperLoop(size_t worker) {
  // The constructor starts the helpers before any bump, so generation 0
  // is the one every helper has seen.
  for (uint32_t seen = 0;;) {
    generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (stop_) return;
    runWorkerEpoch(worker, epochCycles_, epochs_.load(std::memory_order_relaxed));
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) pending_.notify_one();
  }
}

void Fleet::step(int cycles) {
  if (cycles <= 0)
    fail("fleet: step(%d) runs no configuration cycle; an epoch runs 1 to %d",
         cycles, std::numeric_limits<int>::max());
  const int64_t epoch = epochs_.load(std::memory_order_relaxed) + 1;
  // Epoch-0 checkpoint: the post-setup state (after spawn/port/condition/
  // timer/warm-up ops, before any epoch) anchors replay verification.
  if (journal_ != nullptr && epoch == 1) takeCheckpoint(0);
  epochs_.store(epoch, std::memory_order_relaxed);
  buildStepLists(cycles);
  // Release the helpers into the epoch, run worker 0's share here, then
  // wait for every helper: the bump publishes the step list and its
  // ranges, and the last decrement publishes every worker's steps. With
  // no helpers there is no one to release, and pending_ stays 0.
  if (!helpers_.empty()) {
    epochCycles_ = cycles;
    pending_.store(static_cast<uint32_t>(helpers_.size()), std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
  }
  runWorkerEpoch(0, cycles, epoch);
  for (uint32_t left = pending_.load(std::memory_order_acquire); left != 0;
       left = pending_.load(std::memory_order_acquire))
    pending_.wait(left, std::memory_order_acquire);
  const auto failed = std::find_if(errors_.begin(), errors_.end(),
                                   [](const std::exception_ptr& e) { return bool(e); });
  if (failed != errors_.end()) {
    const std::exception_ptr error = *failed;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    std::rethrow_exception(error);
  }
  clock_ += cycles;
  finishEpoch(epoch, cycles);
}

// ------------------------------------------------------------- sleep/wake

void Fleet::creditSleeper(Instance& inst) const {
  if (!inst.asleep || inst.sleptAt == clock_) return;
  const int64_t cycles = clock_ - inst.sleptAt;
  // The calendar wakes a sleeper before its credit runs out.
  PSCP_ASSERT(cycles <= inst.machine.quiescentCredit());
  inst.machineCycles += inst.machine.creditQuiescent(cycles);
  inst.configCycles += cycles;
  inst.quiescentCycles += cycles;
  inst.sleptAt = clock_;
}

void Fleet::wake(Instance& inst) {
  creditSleeper(inst);
  if (!inst.asleep) return;
  inst.asleep = false;
  awakeBits_[wordOf(inst.id)] |= bitOf(inst.id);
}

void Fleet::fallAsleep(Instance& inst, int64_t credit) {
  inst.asleep = true;
  awakeBits_[wordOf(inst.id)] &= ~bitOf(inst.id);
  inst.sleptAt = clock_;
  const int64_t wakeAt = credit >= kNever - clock_ ? kNever : clock_ + credit;
  if (wakeAt == kNever || inst.calendarKey == wakeAt) return;
  if (calendar_.size() == calendar_.capacity()) {
    // Drop superseded entries (a later sleep or a retire replaced them).
    std::erase_if(calendar_, [&](const CalendarEntry& e) {
      return !isLive(e.id) ||
             instances_[static_cast<size_t>(e.id)]->calendarKey != e.wakeAt;
    });
    std::make_heap(calendar_.begin(), calendar_.end());
  }
  inst.calendarKey = wakeAt;
  calendar_.push_back({wakeAt, inst.id});
  std::push_heap(calendar_.begin(), calendar_.end());
}

void Fleet::buildStepLists(int cycles) {
  // Room for every live instance, and in the calendar for one entry per
  // instance plus as many superseded ones, so the calendar compacts
  // instead of growing in steady state. Only a fleet that grew reserves.
  const size_t live = liveCount_.load(std::memory_order_relaxed);
  if (stepList_.capacity() < live) {
    stepList_.reserve(live);
    credits_.reserve(live);
    calendar_.reserve(2 * live + 64);
  }
  // Sleepers whose credit runs out inside this epoch's cycles wake now;
  // stepInstance then credits the rest of their stretch and decodes the
  // cycle their timer matures in. Every entry is at or past the clock.
  while (!calendar_.empty() && calendar_.front().wakeAt - clock_ < cycles) {
    const CalendarEntry due = calendar_.front();
    std::pop_heap(calendar_.begin(), calendar_.end());
    calendar_.pop_back();
    if (!isLive(due.id)) continue;
    Instance& inst = *instances_[static_cast<size_t>(due.id)];
    if (inst.calendarKey != due.wakeAt) continue;  // superseded
    inst.calendarKey = kNever;
    wake(inst);
  }
  // Awake and woken instances in ascending id order. They stay awake
  // until finishEpoch puts them to sleep. Only a woken sleeper is touched
  // here; an awake instance's bit is all it takes.
  stepList_.clear();
  for (size_t w = 0; w < awakeBits_.size(); ++w) {
    const uint64_t awake = awakeBits_[w];
    std::atomic_ref<uint64_t> injected(wakeBits_[w]);
    if (injected.load(std::memory_order_relaxed) != 0)
      awakeBits_[w] |= injected.exchange(0, std::memory_order_acquire);
    for (uint64_t bits = awakeBits_[w]; bits != 0; bits &= bits - 1) {
      const InstanceId id = w * 64 + static_cast<InstanceId>(std::countr_zero(bits));
      if (!isLive(id)) {  // retired since it was last stepped
        awakeBits_[w] &= ~bitOf(id);
        continue;
      }
      Instance& inst = *instances_[static_cast<size_t>(id)];
      if ((awake & bitOf(id)) == 0) wake(inst);
      stepList_.push_back(&inst);
    }
  }
  credits_.resize(stepList_.size());
  // Worker w's range is [n*w/N, n*(w+1)/N): balanced by awake count. The
  // last range ends at n without a division, so one worker divides never.
  const size_t n = stepList_.size();
  for (size_t w = 0, begin = 0; w < workerCount_; ++w) {
    cursors_[w].next.store(begin, std::memory_order_relaxed);
    cursors_[w].end = w + 1 == workerCount_ ? n : n * (w + 1) / workerCount_;
    begin = cursors_[w].end;
  }
}

// ---------------------------------------------------------- record/replay

// Post-barrier capture over the stepped instances, in ascending id order
// (the step list's order, whichever worker stepped each). Each
// stepped instance's `drained` scratch still holds exactly the events its
// machine consumed this epoch (it is cleared at the *start* of its next
// stepped epoch, so a sleeper's is stale and never read), and the barrier
// happens-before this control-thread read. Logging delivery instead of
// injection is what makes the journal deterministic — whether a racing
// producer's event landed in this epoch or the next was decided by the
// drain, and the journal records the outcome. Span ids are assigned here
// in instance-ascending, queue order, the same order a replay re-injects,
// so they are stable across runs. The same walk puts each stepped
// instance whose machine can credit the coming cycles to sleep; the rest
// stay awake for the next epoch.
void Fleet::finishEpoch(int64_t epoch, int cycles) {
  for (size_t i = 0; i < stepList_.size(); ++i) {
    Instance& inst = *stepList_[i];
    if (journal_ != nullptr && !inst.drained.empty())
      journal_->recordDeliveries(static_cast<int64_t>(inst.id), inst.drained.data(),
                                 inst.drained.size(), epoch);
    if (credits_[i] > 0) fallAsleep(inst, credits_[i]);
  }
  if (journal_ == nullptr) return;
  journal_->recordStep(epoch, cycles);
  if (epoch % journal_->config().checkpointInterval == 0) takeCheckpoint(epoch);
}

void Fleet::takeCheckpoint(int64_t epoch) {
  journal_->beginCheckpoint(epoch);
  for (const auto& inst : instances_)
    if (inst != nullptr)
      journal_->addCheckpointInstance(static_cast<int64_t>(inst->id),
                                      inst->machine.crBits());
  journal_->endCheckpoint();
}

bool Fleet::writeJournal(const std::string& path, bool binary,
                         std::string* error) const {
  if (journal_ == nullptr) {
    if (error != nullptr) *error = "fleet journal is not armed";
    return false;
  }
  return journal_->writeFile(path, binary, error);
}

void Fleet::setInputPort(InstanceId id, const std::string& portName,
                         uint32_t value) {
  Instance& inst = liveInstance(id);
  setInputPort(id, inst.machine.portId(portName), value);
}

void Fleet::setInputPort(InstanceId id, int portAddress, uint32_t value) {
  Instance& inst = liveInstance(id);
  inst.machine.setInputPort(portAddress, value);
  if (journal_ != nullptr)
    journal_->recordSetPort(static_cast<int64_t>(id), portAddress, value);
}

void Fleet::setCondition(InstanceId id, const std::string& conditionName,
                         bool value) {
  Instance& inst = liveInstance(id);
  wake(inst);
  inst.machine.setCondition(conditionName, value);
  if (journal_ != nullptr)
    journal_->recordSetCondition(static_cast<int64_t>(id),
                                 image_->layout().conditionBit(conditionName),
                                 value);
}

void Fleet::addTimer(InstanceId id, const std::string& eventName,
                     int64_t period) {
  Instance& inst = liveInstance(id);
  wake(inst);  // first: the timer's first maturity is read off the machine clock
  inst.machine.addTimer(eventName, period);
  if (journal_ != nullptr)
    journal_->recordAddTimer(static_cast<int64_t>(id),
                             image_->layout().eventBit(eventName), period);
}

void Fleet::warmCycle(InstanceId id, const std::vector<int>& eventBits) {
  Instance& inst = liveInstance(id);
  wake(inst);
  inst.machine.configurationCycleIds(eventBits, &inst.stats);
  if (config_.capturePortWrites) {
    const std::vector<machine::PortWrite>& writes = inst.machine.portWrites();
    inst.portLog.insert(inst.portLog.end(), writes.begin(), writes.end());
  }
  inst.machine.clearPortWrites();
  if (journal_ != nullptr)
    journal_->recordWarmCycle(static_cast<int64_t>(id), eventBits);
}

// ------------------------------------------------------------- inspection

machine::PscpMachine& Fleet::machine(InstanceId id) {
  Instance& inst = liveInstance(id);
  wake(inst);
  return inst.machine;
}

const machine::PscpMachine& Fleet::machine(InstanceId id) const {
  return creditedInstance(id).machine;
}

Fleet::Instance& Fleet::creditedInstance(InstanceId id) const {
  PSCP_ASSERT(isLive(id) && "unknown or retired fleet instance id");
  Instance& inst = *instances_[static_cast<size_t>(id)];
  creditSleeper(inst);
  return inst;
}

InstanceSnapshot Fleet::snapshot(InstanceId id) const {
  const Instance& inst = creditedInstance(id);
  InstanceSnapshot s;
  s.id = inst.id;
  s.machineCycles = inst.machineCycles;
  s.configCycles = inst.configCycles;
  s.quiescentCycles = inst.quiescentCycles;
  s.firedTransitions = inst.firedTransitions;
  s.busStallCycles = inst.busStallCycles;
  s.eventsDelivered = inst.eventsDelivered;
  s.eventsDropped = inst.dropped.load(std::memory_order_relaxed);
  s.activeStates = inst.machine.activeNames();
  return s;
}

const std::vector<machine::PortWrite>& Fleet::portWrites(InstanceId id) const {
  return liveInstance(id).portLog;
}

void Fleet::clearPortWrites(InstanceId id) { liveInstance(id).portLog.clear(); }

obs::MetricsRegistry Fleet::mergedMetrics() const {
  // Each counter the workers flush, by name and block field.
  static constexpr std::pair<const char*, std::atomic<int64_t> WorkerCounters::*>
      kBlockCounters[] = {
          {"fleet.machine_cycles", &WorkerCounters::machineCycles},
          {"fleet.config_cycles", &WorkerCounters::configCycles},
          {"fleet.quiescent_cycles", &WorkerCounters::quiescentCycles},
          {"fleet.fired_transitions", &WorkerCounters::firedTransitions},
          {"fleet.jit_native_routines", &WorkerCounters::jitNativeRuns},
          {"fleet.bus_stall_cycles", &WorkerCounters::busStallCycles},
          {"fleet.decodes", &WorkerCounters::decodes},
          {"fleet.decode_memo_hits", &WorkerCounters::decodeMemoHits},
          {"fleet.lockstep_runs", &WorkerCounters::lockstepRuns},
          {"fleet.schedule_replays", &WorkerCounters::scheduleReplays},
          {"fleet.events_delivered", &WorkerCounters::eventsDelivered},
          {"fleet.steal_chunks", &WorkerCounters::stealChunks},
          {"fleet.epoch_tasks", &WorkerCounters::epochs},
          {"fleet.sleeping_instances", &WorkerCounters::sleepingInstances},
      };
  obs::MetricsRegistry merged;
  for (const auto& [name, field] : kBlockCounters) {
    int64_t& total = merged.counter(name);
    for (size_t w = 0; w < workerCount_; ++w)
      total += (counters_[w].*field).load(std::memory_order_relaxed);
  }
  // Producer-side drop counts live on the instances (they are bumped by
  // inject() callers, not workers): the live ones plus the retired total.
  int64_t& dropped = merged.counter("fleet.events_dropped");
  dropped = retiredDrops_;
  for (const auto& inst : instances_)
    if (inst != nullptr) dropped += inst->dropped.load(std::memory_order_relaxed);
  // Tier split over the epochs fleet.fired_transitions counts: the
  // workers count native runs, and every other fired routine ran on the
  // lockstep interpreter. Then the image-wide compile cache.
  merged.counter("fleet.jit_interp_routines") +=
      merged.value("fleet.fired_transitions") -
      merged.value("fleet.jit_native_routines");
  const tep::jit::TierResidency tier = image_->tierCache().residency();
  merged.counter("fleet.jit_compiled_routines") += tier.nativeRoutines;
  merged.counter("fleet.jit_rejected_routines") += tier.rejectedRoutines;
  merged.counter("fleet.jit_compile_micros") += tier.compileMicros;
  // The telemetry plane publishes its lock-free snapshot through the same
  // registry surface (epoch-latency histogram, queue high-water, ...).
  if (flight_ != nullptr) obs::healthToMetrics(healthSnapshot(), &merged);
  return merged;
}

tep::jit::TierResidency Fleet::tierResidency() const {
  return image_->tierCache().residency();
}

// -------------------------------------------------------------- telemetry

obs::FleetHealth Fleet::healthSnapshot() const {
  obs::FleetHealth h;
  h.telemetryEnabled = flight_ != nullptr;
  h.capturedAtNanos = obs::nowMonotonicNanos();
  h.epochs = epochs_.load(std::memory_order_relaxed);
  h.liveInstances =
      static_cast<int64_t>(liveCount_.load(std::memory_order_relaxed));
  h.workerThreads = static_cast<int>(workerCount_);
  if (!h.telemetryEnabled) return h;
  h.shards.resize(workerCount_);
  for (size_t w = 0; w < workerCount_; ++w) {
    const WorkerCounters& block = counters_[w];
    obs::ShardHealth& s = h.shards[w];
    const auto get = [](const std::atomic<int64_t>& a) {
      return a.load(std::memory_order_relaxed);
    };
    s.shard = static_cast<int>(w);
    s.epochs = get(block.epochs);
    s.lastEpochNanos = get(block.lastEpochNanos);
    s.ewmaEpochNanos = get(block.ewmaEpochNanos);
    s.minEpochNanos = get(block.minEpochNanos);
    s.maxEpochNanos = get(block.maxEpochNanos);
    s.sumEpochNanos = get(block.sumEpochNanos);
    const int64_t start = get(block.epochStartNanos);
    s.inFlightNanos = start > 0 ? h.capturedAtNanos - start : 0;
    s.machineCycles = get(block.machineCycles);
    s.configCycles = get(block.configCycles);
    s.firedTransitions = get(block.firedTransitions);
    s.eventsDelivered = get(block.eventsDelivered);
    s.eventsDropped = get(block.eventsDropped);
    s.stealChunks = get(block.stealChunks);
    s.queueDepthHwm = get(block.queueDepthHwm);
    s.instancesStepped = get(block.instancesStepped);
    s.sleepingInstances = get(block.sleepingInstances);
    s.decodes = get(block.decodes);
    s.decodeMemoHits = get(block.decodeMemoHits);
    s.lockstepRuns = get(block.lockstepRuns);
    s.scheduleReplays = get(block.scheduleReplays);
    s.portWrites = get(block.portWrites);
    s.epochNanosCounts.resize(obs::kEpochNanosBucketCount);
    for (size_t b = 0; b < obs::kEpochNanosBucketCount; ++b)
      s.epochNanosCounts[b] = get(block.epochNanosCounts[b]);
  }
  return h;
}

bool Fleet::writeFlightDump(const std::string& path, std::string* error) const {
  if (flight_ == nullptr) {
    if (error != nullptr) *error = "fleet telemetry is not armed";
    return false;
  }
  return flight_->writeFile(path, error);
}

}  // namespace pscp::fleet
