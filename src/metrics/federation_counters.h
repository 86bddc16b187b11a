// FederationCounters: one gateway cluster's replication-and-failover ledger.
//
// The fifth ledger next to FaultCounters, OverloadCounters, HealthCounters
// and ResumeCounters: this one accounts for what the federation layer did —
// journal records shipped to the buddy and acked back, heartbeats exchanged,
// peer failures detected, whole-gateway failovers orchestrated, streams
// re-resolved through the ring, and the epoch fence doing its job (stale
// primaries whose appends were rejected after a takeover). Failure
// detection and kill points are seeded, so in simulation these counters
// double as the bit-identity fingerprint of a failover run: same seed,
// same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Incident order: steady-state replication, the heartbeats that notice a
// death, the takeover itself, and the fence that keeps the dead primary
// from un-deciding it.
#define NS_FEDERATION_COUNTERS(X)                                             \
  /* Replication traffic (primary -> standby). */                            \
  X(repl_records_shipped)    /**< journal records sent to buddy */            \
  X(repl_appends_acked)      /**< append frames acked durable */              \
  X(repl_lag_records_max)    /**< peak shipped-minus-acked depth */           \
  /* Liveness. */                                                            \
  X(heartbeats_sent)         /**< probes emitted toward peers */              \
  X(peer_failures_detected)  /**< detector breaches latched */                \
  X(degraded_peers_detected) /**< gray-failure episodes latched */            \
  /* Failover orchestration. */                                              \
  X(failovers)               /**< whole-gateway takeovers */                  \
  X(streams_reresolved)      /**< streams re-homed via the ring */            \
  X(failover_wall_ms)        /**< death-to-first-resumed-delivery */          \
  X(epoch)                   /**< highest epoch reached (max, not sum) */     \
  /* The fence. */                                                           \
  X(fenced_appends_rejected) /**< stale-epoch writes refused */               \
  /* Planned handoffs (load-driven rebalancing, DESIGN.md §13). */           \
  X(rebalance_triggers)      /**< controller decided to move load */          \
  X(handoffs_planned)        /**< three-phase transfers started */            \
  X(handoffs_completed)      /**< transfers committed (fence up) */           \
  X(handoffs_aborted)        /**< transfers abandoned mid-flight */           \
  X(handoff_streams_moved)   /**< streams re-homed by handoff */              \
  X(handoff_wall_ms)         /**< freeze-to-resumed-delivery */

/// Plain-value copy of FederationCounters, comparable and printable.
struct FederationCountersSnapshot {
  NS_LEDGER_SNAPSHOT(FederationCountersSnapshot, NS_FEDERATION_COUNTERS)
};

/// Thread-safe counter set shared by the replication link, the failure
/// detector, and the failover coordinator.
class FederationCounters {
  NS_LEDGER_LIVE(FederationCounters, FederationCountersSnapshot,
                 NS_FEDERATION_COUNTERS)

  /// Raises `repl_lag_records_max` to `lag` if it is higher than the
  /// current peak (monotone max, not a sum).
  void note_repl_lag(std::uint64_t lag);

  /// Raises `epoch` to `value` if it is higher (monotone max).
  void note_epoch(std::uint64_t value);
};

}  // namespace numastream
