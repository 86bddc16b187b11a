// SpscRing<T>: a wait-free single-producer / single-consumer ring buffer.
//
// Used where exactly one thread produces and one consumes (the span tracer's
// per-worker rings, obs/trace.h). Unlike BoundedQueue it never takes a lock
// and never blocks: callers spin or poll.
//
// Correctness: head_ is written only by the consumer, tail_ only by the
// producer. Each side reads the other's index with acquire ordering and
// publishes its own with release ordering, the standard Lamport ring
// construction. Capacity is rounded up to a power of two so index wrapping is
// a mask, and one slot is kept empty to distinguish full from empty.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/assert.h"

namespace numastream {

template <typename T>
class SpscRing {
 public:
  /// `min_capacity` usable slots (rounded up to 2^k - 1 usable).
  explicit SpscRing(std::size_t min_capacity) {
    NS_CHECK(min_capacity > 0, "SpscRing capacity must be positive");
    const std::size_t size = std::bit_ceil(min_capacity + 1);
    mask_ = size - 1;
    slots_.resize(size);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full (item is untouched — the caller
  /// keeps ownership and retries).
  bool try_push(T& item) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_.load(std::memory_order_acquire)) {
      return false;  // full
    }
    slots_[tail] = std::move(item);
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. nullopt when empty.
  std::optional<T> try_pop() {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_.load(std::memory_order_acquire)) {
      return std::nullopt;  // empty
    }
    std::optional<T> item(std::move(slots_[head]));
    head_.store((head + 1) & mask_, std::memory_order_release);
    return item;
  }

  /// Approximate occupancy (exact if called from either endpoint thread).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::size_t head = head_.load(std::memory_order_acquire);
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return mask_; }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> head_{0};  // consumer-owned
  alignas(64) std::atomic<std::size_t> tail_{0};  // producer-owned
};

}  // namespace numastream
