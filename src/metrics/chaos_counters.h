// ChaosCounters: one ledger for the link cuts and the invariant explorer.
//
// The seventh ledger next to FaultCounters, OverloadCounters,
// HealthCounters, ResumeCounters, FederationCounters and ScrubCounters:
// this one accounts for what the directed link cuts *did to* the chaos
// harness — partitions cut and healed, request frames dropped on a cut
// link, replication acks eaten by one-way cuts — and what the checker
// layer *found out about* it: episodes
// explored, invariant probes fired, violations caught, and how many
// delta-debugging steps it took to shrink each failing schedule to its
// minimal reproducer. Everything downstream of one seed, so in a
// deterministic run these counters are the bit-identity fingerprint of a
// chaos campaign: same seed, same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Causal order: the cuts the schedule injected, then what the explorer
// learned from running schedules through them.
#define NS_CHAOS_COUNTERS(X)                                                  \
  /* Cuts: what the link partitions did (LinkCuts in msg/faulty.h). */       \
  X(partitions_cut)    /**< directed links severed */                         \
  X(partitions_healed) /**< directed links restored */                        \
  X(frames_dropped)    /**< frames lost to a cut link */                      \
  X(acks_dropped)      /**< replies eaten by a one-way cut */                 \
  /* Explorer: what the checker found (check/explorer.h). */                 \
  X(episodes_run)      /**< schedules executed end to end */                  \
  X(events_injected)   /**< schedule events applied */                        \
  X(probes_fired)      /**< invariant checks evaluated */                     \
  X(violations_found)  /**< probes that caught a violation */                 \
  X(shrink_steps)      /**< ddmin re-executions spent */                      \
  X(schedules_shrunk)  /**< failures reduced to minimal form */

/// Plain-value copy of ChaosCounters, comparable and printable.
struct ChaosCountersSnapshot {
  NS_LEDGER_SNAPSHOT(ChaosCountersSnapshot, NS_CHAOS_COUNTERS)
};

/// Thread-safe counter set shared by the link cuts, the chaos harness, the
/// invariant monitor and the explorer.
class ChaosCounters {
  NS_LEDGER_LIVE(ChaosCounters, ChaosCountersSnapshot, NS_CHAOS_COUNTERS)
};

}  // namespace numastream
