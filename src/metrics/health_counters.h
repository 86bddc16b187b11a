// HealthCounters: one pipeline's self-healing ledger.
//
// The third ledger next to FaultCounters (injected transport faults) and
// OverloadCounters (pressure): this one accounts for what the health
// monitor saw and what the runtime did about it — degradations detected,
// resources declared failed, recoveries observed, placements recomputed and
// workers live-migrated, plus how long the pipeline spent below its
// baseline. The self-healing path is deterministic in simulation, so these
// counters double as the bit-identity fingerprint of a recovery scenario:
// same seed, same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Incident order: what was detected, then what the runtime did, then how
// long the incident lasted.
#define NS_HEALTH_COUNTERS(X)                                                 \
  /* State-machine transitions (core/health.h HealthMonitor). */             \
  X(degraded_detections) /**< healthy -> degraded transitions */             \
  X(failure_detections)  /**< degraded -> failed transitions */              \
  X(recoveries)          /**< returns to healthy after a demotion */         \
  /* What the runtime did about it. */                                       \
  X(replans)             /**< placements recomputed against a health mask */ \
  X(migrations)          /**< workers re-pinned at a chunk boundary */       \
  /* How long the incident lasted. */                                        \
  X(time_in_degraded_ms) /**< virtual/wall ms any resource spent not-healthy */

/// Plain-value copy of HealthCounters, comparable and printable.
struct HealthCountersSnapshot {
  NS_LEDGER_SNAPSHOT(HealthCountersSnapshot, NS_HEALTH_COUNTERS)
};

/// Thread-safe counter set shared by a pipeline's workers and its health
/// monitor.
class HealthCounters {
  NS_LEDGER_LIVE(HealthCounters, HealthCountersSnapshot, NS_HEALTH_COUNTERS)
};

}  // namespace numastream
