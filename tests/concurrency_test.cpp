#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "concurrency/bounded_queue.h"
#include "concurrency/cancel.h"
#include "concurrency/spsc_ring.h"

namespace numastream {
namespace {

// ---------------------------------------------------------------- queue

TEST(BoundedQueueTest, FifoSingleThread) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1).is_ok());
  ASSERT_TRUE(q.push(2).is_ok());
  ASSERT_TRUE(q.push(3).is_ok());
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(BoundedQueueTest, TryPushFullAndTryPopEmpty) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.try_push(1).is_ok());
  ASSERT_TRUE(q.try_push(2).is_ok());
  EXPECT_EQ(q.try_push(3).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(q.try_pop().value(), 1);
  EXPECT_EQ(q.try_pop().value(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEndOfStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7).is_ok());
  q.close();
  EXPECT_TRUE(q.closed());
  // Items pushed before close are still delivered.
  EXPECT_EQ(q.pop().value(), 7);
  // Then end-of-stream.
  EXPECT_FALSE(q.pop().has_value());
  // Pushing after close fails.
  EXPECT_EQ(q.push(8).code(), StatusCode::kUnavailable);
  EXPECT_EQ(q.try_push(8).code(), StatusCode::kUnavailable);
}

TEST(BoundedQueueTest, CloseIsIdempotent) {
  BoundedQueue<int> q(1);
  q.close();
  q.close();
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  // Give the consumer time to block.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(BoundedQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  std::thread producer([&] { EXPECT_EQ(q.push(2).code(), StatusCode::kUnavailable); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
}

TEST(BoundedQueueTest, BackpressureBlocksProducerUntilPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2).is_ok());
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // still blocked on the full queue
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

// ---- cancel / deadline variants (used by the overload drain paths) ----

TEST(BoundedQueueTest, CancelFlagAbortsBlockedPush) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  std::atomic<bool> cancel{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2, &cancel).code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel = true;
  producer.join();
  // The cancelled item was dropped, not enqueued.
  EXPECT_EQ(q.size(), 1U);
}

TEST(BoundedQueueTest, CancelFlagAbortsBlockedPop) {
  BoundedQueue<int> q(1);
  std::atomic<bool> cancel{false};
  std::thread consumer([&] { EXPECT_FALSE(q.pop(&cancel).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel = true;
  consumer.join();
}

TEST(BoundedQueueTest, PreRaisedCancelStillDeliversAvailableItems) {
  // A raised flag aborts *waits*; ready items and free slots are still used,
  // which is what lets the drain path flush whatever is already queued.
  BoundedQueue<int> q(2);
  std::atomic<bool> cancel{true};
  ASSERT_TRUE(q.push(1, &cancel).is_ok());
  EXPECT_EQ(q.pop(&cancel).value(), 1);
  EXPECT_FALSE(q.pop(&cancel).has_value());
}

TEST(BoundedQueueTest, PushUntilTimesOutOnFullQueue) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_EQ(q.push_until(2, deadline).code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  EXPECT_EQ(q.size(), 1U);
}

TEST(BoundedQueueTest, PopUntilTimesOutOnEmptyQueue) {
  BoundedQueue<int> q(1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  EXPECT_FALSE(q.pop_until(deadline).has_value());
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
  EXPECT_FALSE(q.closed());  // timeout, not end-of-stream
}

TEST(BoundedQueueTest, PushUntilSucceedsWhenSpaceOpensBeforeDeadline) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(q.pop().value(), 1);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_TRUE(q.push_until(2, deadline).is_ok());
  consumer.join();
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueueTest, TryPopWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1).is_ok());
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2).is_ok());
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.try_pop(), std::optional<int>(1));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.try_pop(), std::optional<int>(2));
}

// Property: with multiple producers and consumers, every pushed item is
// popped exactly once, and items from one producer arrive in that producer's
// order (FIFO-per-producer).
class BoundedQueueMpmc : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BoundedQueueMpmc, ExactlyOnceAndPerProducerFifo) {
  const int n_producers = std::get<0>(GetParam());
  const int n_consumers = std::get<1>(GetParam());
  const int items_per_producer = 500;
  BoundedQueue<std::pair<int, int>> q(8);  // (producer, sequence)

  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  for (int p = 0; p < n_producers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < items_per_producer; ++i) {
        ASSERT_TRUE(q.push({p, i}).is_ok());
      }
    });
  }

  std::mutex mu;
  std::vector<std::vector<int>> received(n_producers);
  std::vector<std::thread> consumers;
  consumers.reserve(n_consumers);
  for (int c = 0; c < n_consumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        const std::lock_guard<std::mutex> lock(mu);
        received[item->first].push_back(item->second);
      }
    });
  }

  for (auto& t : producers) {
    t.join();
  }
  q.close();
  for (auto& t : consumers) {
    t.join();
  }

  for (int p = 0; p < n_producers; ++p) {
    ASSERT_EQ(received[p].size(), static_cast<std::size_t>(items_per_producer));
    if (n_consumers == 1) {
      // With a single consumer, per-producer order is preserved end-to-end.
      for (int i = 0; i < items_per_producer; ++i) {
        EXPECT_EQ(received[p][i], i);
      }
    } else {
      // With several consumers, delivery interleaves; exactly-once still holds.
      std::vector<int> sorted = received[p];
      std::sort(sorted.begin(), sorted.end());
      for (int i = 0; i < items_per_producer; ++i) {
        EXPECT_EQ(sorted[i], i);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BoundedQueueMpmc,
                         ::testing::Values(std::make_tuple(1, 1), std::make_tuple(4, 1),
                                           std::make_tuple(1, 4), std::make_tuple(4, 4),
                                           std::make_tuple(8, 2)));

TEST(BoundedQueueTest, MoveOnlyPayload) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  ASSERT_TRUE(q.push(std::make_unique<int>(5)).is_ok());
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 5);
}

// ---------------------------------------------------------------- spsc

TEST(SpscRingTest, CapacityRoundsUp) {
  SpscRing<int> ring(5);
  EXPECT_GE(ring.capacity(), 5U);
}

TEST(SpscRingTest, PushPopSingleThread) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 3; ++round) {  // exercise wrap-around
    for (int i = 0; i < 4; ++i) {
      int v = i;
      ASSERT_TRUE(ring.try_push(v));
    }
    for (int i = 0; i < 4; ++i) {
      auto v = ring.try_pop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(ring.try_pop().has_value());
  }
}

TEST(SpscRingTest, FullRejectsAndKeepsItem) {
  SpscRing<int> ring(2);
  int a = 1;
  int b = 2;
  while (true) {
    int v = 9;
    if (!ring.try_push(v)) {
      break;
    }
  }
  int rejected = 42;
  EXPECT_FALSE(ring.try_push(rejected));
  EXPECT_EQ(rejected, 42);  // untouched
  (void)a;
  (void)b;
}

TEST(SpscRingTest, TwoThreadStressPreservesOrder) {
  SpscRing<int> ring(64);
  const int kItems = 200000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (!ring.try_push(v)) {
        std::this_thread::yield();
      }
    }
  });
  int expected = 0;
  while (expected < kItems) {
    if (auto v = ring.try_pop()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_FALSE(ring.try_pop().has_value());
}

TEST(SpscRingTest, SizeApprox) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.size_approx(), 0U);
  int v = 1;
  ASSERT_TRUE(ring.try_push(v));
  v = 2;
  ASSERT_TRUE(ring.try_push(v));
  EXPECT_EQ(ring.size_approx(), 2U);
  ring.try_pop();
  EXPECT_EQ(ring.size_approx(), 1U);
}

// ---------------------------------------------------------------- cancel

TEST(CancelSignalTest, RaisePublishesFlagAndRunsWakers) {
  CancelSignal cancel;
  EXPECT_FALSE(cancel.raised());
  std::atomic<int> woken{0};
  const auto token = cancel.add_waker([&] { woken.fetch_add(1); });
  cancel.raise();
  EXPECT_TRUE(cancel.raised());
  EXPECT_TRUE(cancel.flag()->load());
  EXPECT_EQ(woken.load(), 1);
  cancel.remove_waker(token);
  cancel.raise();  // idempotent; removed waker must not run again
  EXPECT_EQ(woken.load(), 1);
}

TEST(CancelSignalTest, AddWakerAfterRaiseRunsImmediately) {
  CancelSignal cancel;
  cancel.raise();
  std::atomic<bool> woken{false};
  (void)cancel.add_waker([&] { woken.store(true); });
  EXPECT_TRUE(woken.load());
}

TEST(CancelSignalTest, RemoveWakerSerializesWithRaise) {
  // remove_waker must block out a raise() in flight, so after it returns
  // the waker never runs again — racing the two many times under TSan is
  // the point of this test.
  for (int round = 0; round < 200; ++round) {
    CancelSignal cancel;
    std::atomic<bool> removed{false};
    const auto token = cancel.add_waker([&] {
      EXPECT_FALSE(removed.load());  // never after remove_waker returned
    });
    std::thread raiser([&] { cancel.raise(); });
    cancel.remove_waker(token);
    removed.store(true);
    raiser.join();
  }
}

// ------------------------------------------------- busy-poll regression

TEST(BoundedQueueTest, BoundCancelWaitDoesNotBusyPoll) {
  // The bug this guards against: cancellable waits used to poll in 1 ms
  // slices, so a 300 ms block meant ~300 wakeups per waiter. With the
  // queue bound to a CancelSignal the wait must park on the CV and wake
  // only for the raise — a handful of wakeups at most.
  CancelSignal cancel;
  BoundedQueue<int> queue(4);
  queue.bind_cancel(&cancel);
  std::thread consumer([&] {
    EXPECT_FALSE(queue.pop(cancel.flag()).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t wakeups_before_raise = queue.cv_wakeups();
  cancel.raise();
  consumer.join();
  // A 1 ms poll loop would have burned ~300 wakeups while we slept; the
  // parked wait takes none (the consumer's single block predates the
  // counter read). Allow a generous handful for spurious CV wakeups.
  EXPECT_LE(queue.cv_wakeups() - wakeups_before_raise, 5U);
  EXPECT_LE(wakeups_before_raise, 5U);
}

TEST(BoundedQueueTest, ForeignAtomicStillCancelsViaBackstop) {
  // Legacy callers pass an atomic the queue has never seen; those waits
  // must still notice a raise, just on the slower poll path.
  BoundedQueue<int> queue(4);
  std::atomic<bool> cancel{false};
  std::thread consumer([&] { EXPECT_FALSE(queue.pop(&cancel).has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel.store(true);
  consumer.join();
}

}  // namespace
}  // namespace numastream
