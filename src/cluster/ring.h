// Consistent-hash gateway ring (DESIGN.md §12).
//
// A federated deployment runs N gateways; every stream id must map to
// exactly one of them (its *primary*) with a deterministic fallback order
// when gateways die. The classic consistent-hash construction does both:
// each gateway contributes `vnodes` points to a 32-bit ring (hashing
// (gateway, vnode)), a stream id hashes to a point, and its preference
// order is the distinct gateways met walking clockwise from there. The
// first is the primary, the second is the *buddy* — the gateway that
// receives the primary's replicated journal and adopts its streams on
// failover. Virtual nodes smooth the shards so no gateway owns a wildly
// oversized arc.
//
// Everything here is pure arithmetic on the configured (gateways, vnodes)
// pair: two processes that agree on the cluster config agree on every
// placement without exchanging a byte, and the same stream id resolves
// identically on every run — the determinism the bit-identical failover
// fingerprints rest on.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace numastream {
namespace cluster {

class GatewayRing {
 public:
  /// `gateways` must be >= 2 (simrt::run_experiment checks a ClusterConfig
  /// for it); `vnodes` >= 1 points per gateway.
  GatewayRing(std::uint32_t gateways, std::uint32_t vnodes = 16);

  [[nodiscard]] std::uint32_t gateways() const noexcept { return gateways_; }

  /// The gateway that owns `stream_id` when everyone is alive.
  [[nodiscard]] std::uint32_t primary(std::uint32_t stream_id) const;

  /// The next distinct gateway clockwise from the stream's point: the
  /// replication target and first failover candidate.
  [[nodiscard]] std::uint32_t buddy(std::uint32_t stream_id) const;

  /// All gateways in failover order for `stream_id`: primary first, then
  /// each distinct gateway met walking the ring. Every gateway appears
  /// exactly once.
  [[nodiscard]] std::vector<std::uint32_t> preference(
      std::uint32_t stream_id) const;

  /// First gateway in preference order whose `live` entry is true.
  /// UNAVAILABLE when the whole ring is dead.
  [[nodiscard]] Result<std::uint32_t> resolve(
      std::uint32_t stream_id, const std::vector<bool>& live) const;

 private:
  [[nodiscard]] std::size_t start_index(std::uint32_t stream_id) const;

  std::uint32_t gateways_;
  /// Sorted (point, gateway) pairs; ties broken by gateway id so the walk
  /// order is total and platform-independent.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> points_;
};

}  // namespace cluster
}  // namespace numastream
