// MemoryBudget: a process-wide ledger for bytes held in flight by streaming
// pipelines.
//
// The bounded queues inside one pipeline cap the *count* of buffered frames,
// but nothing bounds the *bytes* a process commits across many pipelines and
// many streams — a gateway accepting dozens of bursty senders dies from
// resource exhaustion long before any link fault. MemoryBudget converts that
// would-be OOM into deterministic admission decisions: every in-flight chunk
// is charged against a hard cap when it enters the process (generated on the
// sender, received off the wire on the receiver) and released when it leaves
// (send completed, delivered to the sink, or shed). The ledger accounts per
// stream, so a release of more than a stream holds is caught (debug builds)
// instead of silently freeing another stream's charge.
//
// One MemoryBudget is typically shared by every pipeline in the process
// (passed through OverloadHooks, core/pipeline.h); a pipeline whose config
// sets a budget but receives no shared ledger creates a private one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace numastream {

class MemoryBudget {
 public:
  /// `cap_bytes` is the hard ceiling on concurrently held bytes. A single
  /// charge larger than the cap is rejected outright (INVALID_ARGUMENT) —
  /// it could never be admitted, and blocking on it would deadlock.
  explicit MemoryBudget(std::uint64_t cap_bytes);

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Non-blocking admission: charges `bytes` to `stream_id`, or returns
  /// RESOURCE_EXHAUSTED when the charge would exceed the cap (the caller
  /// sheds or stalls — its policy, not the ledger's).
  Status try_acquire(std::uint32_t stream_id, std::uint64_t bytes);

  /// Blocking admission: waits for releases to make room. A raised `cancel`
  /// flag (watchdog trip, forced drain) aborts with UNAVAILABLE so an
  /// admission wait can never outlive its pipeline. `stalled`, when
  /// supplied, is incremented once if the call had to wait at all (feeds
  /// OverloadCounters::budget_stalls).
  Status acquire(std::uint32_t stream_id, std::uint64_t bytes,
                 const std::atomic<bool>* cancel = nullptr,
                 std::atomic<std::uint64_t>* stalled = nullptr);

  /// Returns a charge. Releasing more than `stream_id` holds is a bug the
  /// ledger clamps and reports via NS_DCHECK in debug builds.
  void release(std::uint32_t stream_id, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t cap() const noexcept { return cap_; }

  /// Bytes currently held across all streams.
  [[nodiscard]] std::uint64_t used() const;

  /// High-water mark of used() over the ledger's lifetime. The overload
  /// acceptance invariant: peak() <= cap(), always.
  [[nodiscard]] std::uint64_t peak() const;

  /// Bytes currently held by one stream (0 for unknown streams).
  [[nodiscard]] std::uint64_t stream_bytes(std::uint32_t stream_id) const;

  struct StreamUsage {
    std::uint32_t stream_id = 0;
    std::uint64_t bytes = 0;
    friend bool operator==(const StreamUsage&, const StreamUsage&) = default;
  };

  /// Per-stream holdings, sorted by stream id (streams at zero are elided).
  [[nodiscard]] std::vector<StreamUsage> per_stream() const;

 private:
  const std::uint64_t cap_;
  mutable std::mutex mu_;
  std::condition_variable released_;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
  std::map<std::uint32_t, std::uint64_t> by_stream_;
};

}  // namespace numastream
