// Bounded single-producer / single-consumer ring queue.
//
// The fleet gives every instance one of these for event injection: the
// producer side is whatever thread calls Fleet::inject (one logical
// producer per instance — callers serialize per instance, not globally),
// the consumer side is the worker that steps the instance. Neither side
// ever takes a lock or allocates: push/pop are one load-acquire, one
// store-release and an array write each, so producers can feed thousands
// of instances without perturbing the stepping hot loop.
//
// Capacity is rounded up to a power of two so the head/tail indices wrap
// with a mask instead of a modulo. Indices are monotonically increasing
// uint64s (they never wrap in practice: 2^64 events is centuries), which
// keeps the full/empty distinction trivial: size == head - tail.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pscp::fleet {

/// The largest per-instance event queue a fleet builds: 4096 events,
/// 16 KB of int32 CR bits per instance. FleetConfig::eventQueueCapacity
/// above it is an error, and so is a journal's event_queue_capacity
/// outside [0, kMaxEventQueueCapacity].
inline constexpr size_t kMaxEventQueueCapacity = 4096;

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(size_t capacity) {
    size_t cap = 1;
    while (cap < capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  [[nodiscard]] size_t capacity() const { return slots_.size(); }

  /// Producer side. False = queue full (caller decides: retry or drop).
  bool tryPush(const T& value) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head - tail >= slots_.size()) return false;
    slots_[static_cast<size_t>(head) & mask_] = value;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False = queue empty.
  bool tryPop(T* out) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail == head) return false;
    *out = slots_[static_cast<size_t>(tail) & mask_];
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Snapshot size (exact from either end's own thread, approximate from
  /// anywhere else).
  [[nodiscard]] size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return static_cast<size_t>(head - tail);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  std::vector<T> slots_;
  size_t mask_ = 0;
  // Head and tail on separate cache lines so the producer's stores never
  // false-share with the consumer's.
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

}  // namespace pscp::fleet
