// BoundedQueue<T>: the thread-safe queue at the heart of the paper's pipeline
// (Fig. 2): compressors push into it, senders pop from it; receivers push,
// decompressors pop.
//
// Semantics chosen for pipeline use:
//  * bounded: a full queue blocks producers, providing backpressure so a slow
//    stage throttles the stages upstream of it instead of buffering unboundedly;
//  * closeable: when a stage finishes it closes the queue; consumers drain the
//    remaining items and then observe kUnavailable, which is the pipeline's
//    end-of-stream signal;
//  * MPMC: any number of producer and consumer threads.
//
// Implementation: mutex + two condition variables. For the chunk sizes this
// runtime moves (11 MiB), queue synchronization is nanoseconds against
// milliseconds of work per item, so a lock-free MPMC queue would add risk for
// no measurable gain. (The lock-free SpscRing backs the span tracer's
// per-worker rings; see obs/trace.h.)
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "common/assert.h"
#include "common/status.h"
#include "concurrency/cancel.h"

namespace numastream {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    NS_CHECK(capacity > 0, "BoundedQueue capacity must be positive");
  }

  ~BoundedQueue() { bind_cancel(nullptr); }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Binds a CancelSignal: raise() then notifies this queue's condition
  /// variables, so waits whose `cancel` pointer is the signal's flag() block
  /// fully instead of polling. This is the fix for the teardown busy-poll —
  /// before, a blocked worker under a raised cancel flag woke every 1 ms
  /// (hundreds of spurious wakeups per parked worker per second of drain).
  /// Waits passed any other atomic keep the legacy poll-slice behaviour.
  /// Pass nullptr to unbind.
  void bind_cancel(CancelSignal* signal) {
    CancelSignal* old = nullptr;
    std::uint64_t old_token = 0;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      old = bound_signal_;
      old_token = waker_token_;
      bound_signal_ = nullptr;
    }
    if (old != nullptr) {
      // Serializes with a raise() in flight; after this the old waker can
      // never run again (see CancelSignal::raise).
      old->remove_waker(old_token);
    }
    if (signal == nullptr) {
      return;
    }
    const std::uint64_t token = signal->add_waker([this] {
      // Lock before notifying: a waiter that tested the flag just before
      // raise() is either still holding mu_ (we wait until it parks) or
      // already parked (notify wakes it). Without the lock that window is a
      // lost wakeup.
      const std::lock_guard<std::mutex> lock(mu_);
      not_full_.notify_all();
      not_empty_.notify_all();
    });
    const std::lock_guard<std::mutex> lock(mu_);
    bound_signal_ = signal;
    waker_token_ = token;
  }

  /// Blocks until space is available or the queue is closed.
  /// Returns kUnavailable if the queue was closed (the item is dropped; the
  /// pipeline is shutting down).
  ///
  /// `cancel`, when supplied, bounds the wait: a raised flag (e.g.
  /// StreamRegistry::cancel_flag() after a watchdog trip or a forced drain)
  /// aborts the push with kUnavailable even if nobody ever closes the queue,
  /// so pipeline teardown can never hang on a full queue. When the flag is
  /// the bound CancelSignal's (see bind_cancel), the wait blocks fully on
  /// the condition variable — raise() notifies it. An unbound flag has no
  /// notification channel, so those waits fall back to 1 ms poll slices.
  Status push(T item, const std::atomic<bool>* cancel = nullptr) {
    return push_until(std::move(item), kNoDeadline, cancel);
  }

  /// push() with a deadline: returns kDeadlineExceeded if neither space nor
  /// closure materialized in time (the item is dropped).
  Status push_until(T item, std::chrono::steady_clock::time_point deadline,
                    const std::atomic<bool>* cancel = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!wait_on(not_full_, lock, deadline, cancel,
                 [&] { return closed_ || items_.size() < capacity_; })) {
      return cancelled(cancel) ? unavailable_error("queue push cancelled")
                               : deadline_exceeded_error("queue push timed out");
    }
    if (closed_) {
      return unavailable_error("queue closed");
    }
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return Status::ok();
  }

  /// Non-blocking push; kResourceExhausted when full, kUnavailable when closed.
  Status try_push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        return unavailable_error("queue closed");
      }
      if (items_.size() >= capacity_) {
        return resource_exhausted_error("queue full");
      }
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return Status::ok();
  }

  /// Blocks until an item is available or the queue is closed AND drained.
  /// nullopt means end-of-stream: no item will ever arrive again.
  ///
  /// A raised `cancel` flag also yields nullopt — for a pipeline worker,
  /// cancellation and end-of-stream demand the same reaction (stop), and the
  /// caller holding the flag can distinguish the cases if it must.
  std::optional<T> pop(const std::atomic<bool>* cancel = nullptr) {
    return pop_until(kNoDeadline, cancel);
  }

  /// pop() with a deadline: nullopt when the deadline passes (or on cancel /
  /// end-of-stream). Callers distinguish a drained queue from a timeout via
  /// closed()/size() — the drain path only cares that it never blocks past
  /// its budget.
  std::optional<T> pop_until(std::chrono::steady_clock::time_point deadline,
                             const std::atomic<bool>* cancel = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!wait_on(not_empty_, lock, deadline, cancel,
                 [&] { return closed_ || !items_.empty(); })) {
      return std::nullopt;  // cancelled or timed out
    }
    if (items_.empty()) {
      return std::nullopt;  // closed and drained
    }
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Non-blocking pop; nullopt when currently empty (not necessarily closed).
  std::optional<T> try_pop() {
    std::optional<T> item;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (items_.empty()) {
        return std::nullopt;
      }
      item = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return item;
  }

  /// Ends the stream. Idempotent. Producers' pending pushes fail; consumers
  /// drain remaining items then see end-of-stream.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Number of times a blocked wait woke on its condition variable (all wait
  /// kinds). The busy-poll regression test pins this down: a cancellable
  /// wait bound to a CancelSignal that blocks for N ms must wake O(1) times,
  /// where the old poll loop woke ~N times.
  [[nodiscard]] std::uint64_t cv_wakeups() const {
    return cv_wakeups_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  static bool cancelled(const std::atomic<bool>* cancel) {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// Waits for `ready` on `cv` under `lock`; false when the cancel flag or
  /// deadline cut the wait short. The uncancellable, undeadlined wait and
  /// any wait whose cancel flag belongs to the bound CancelSignal block
  /// fully on the condition variable (raise() notifies us). Only waits
  /// cancellable through a foreign atomic — one with no notification
  /// channel — still poll in 1 ms slices.
  template <typename Ready>
  bool wait_on(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
               std::chrono::steady_clock::time_point deadline,
               const std::atomic<bool>* cancel, Ready ready) {
    const bool cancel_notifies =
        cancel == nullptr ||
        (bound_signal_ != nullptr && cancel == bound_signal_->flag());
    if (cancel_notifies && deadline == kNoDeadline) {
      while (!ready()) {
        if (cancelled(cancel)) {
          return false;
        }
        cv.wait(lock);
        cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }
    while (!ready()) {
      if (cancelled(cancel)) {
        return false;
      }
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        return false;
      }
      if (cancel_notifies) {
        cv.wait_until(lock, deadline);
      } else {
        const auto slice = std::min<std::chrono::steady_clock::duration>(
            std::chrono::milliseconds(1), deadline - now);
        cv.wait_for(lock, slice);
      }
      cv_wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  std::atomic<std::uint64_t> cv_wakeups_{0};
  CancelSignal* bound_signal_ = nullptr;
  std::uint64_t waker_token_ = 0;
};

}  // namespace numastream
