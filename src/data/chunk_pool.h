// ChunkPool: NUMA-local recycling of large chunk buffers.
//
// The pool keeps a bounded shelf of retired buffers per NUMA domain and
// hands them back out on the same domain, so a caller that recycles every
// buffer it leases allocates each one once. A buffer recycled on a foreign
// domain merely seeds that domain's shelf with once-remote pages, never a
// correctness problem.
//
// Shelves are bounded (`buffers_per_domain`): a recycle into a full shelf
// frees the buffer, so the pool can cap memory but never leak it. Leases are
// plain Bytes buffers, so an owner that drops one frees it through ~vector
// like any other allocation.
//
// The streaming pipeline does not use the pool: it allocates a fresh buffer
// per chunk (DESIGN.md §15). The class stays as the real-runtime benchmark's
// lease-vs-fresh-allocation layer probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.h"

namespace numastream {

class ChunkPool {
 public:
  /// `domains` shelves (domain indices 0..domains-1; lease/recycle clamp a
  /// -1 "unknown" domain to shelf 0), each holding at most
  /// `buffers_per_domain` retired buffers.
  ChunkPool(std::size_t domains, std::size_t buffers_per_domain);

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  /// Returns a buffer of exactly `size` bytes, reusing a shelved buffer's
  /// capacity when the domain has one (the resize never reallocates when
  /// the shelved capacity suffices — the common case, since a pipeline's
  /// chunks are uniformly sized).
  [[nodiscard]] Bytes lease(int domain, std::size_t size);

  /// Shelves `buffer` on `domain` for future leases, or frees it when the
  /// shelf is full (or the buffer is empty). Safe from any thread.
  void recycle(int domain, Bytes&& buffer);

  [[nodiscard]] std::size_t domains() const noexcept { return shelves_.size(); }

  /// Buffers currently shelved on `domain` (test/diagnostic use).
  [[nodiscard]] std::size_t shelved(int domain) const;

 private:
  // Each shelf owns its own mutex and lives on its own cache line so
  // domains never contend with each other.
  struct alignas(64) Shelf {
    mutable std::mutex mu;
    std::vector<Bytes> buffers;
  };

  [[nodiscard]] std::size_t shelf_index(int domain) const noexcept;

  const std::size_t buffers_per_domain_;
  std::vector<Shelf> shelves_;
};

}  // namespace numastream
