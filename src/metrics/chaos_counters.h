// ChaosCounters: one ledger for the chaos mesh and the invariant explorer.
//
// The seventh ledger next to FaultCounters, OverloadCounters,
// HealthCounters, ResumeCounters, FederationCounters and ScrubCounters:
// this one accounts for what the deterministic chaos layer *did to* the
// system — partitions cut and healed, frames dropped, delayed, duplicated
// and reordered at NSM1 granularity, replication acks eaten by one-way
// cuts — and what the checker layer *found out about* it: episodes
// explored, invariant probes fired, violations caught, and how many
// delta-debugging steps it took to shrink each failing schedule to its
// minimal reproducer. Everything downstream of one seed, so in a
// deterministic run these counters are the bit-identity fingerprint of a
// chaos campaign: same seed, same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Causal order: the weather the mesh injected, then what the explorer
// learned from running schedules through it.
#define NS_CHAOS_COUNTERS(X)                                                  \
  /* Mesh: what the network weather did (msg/chaosnet.h). */                 \
  X(partitions_cut)    /**< directed links severed */                         \
  X(partitions_healed) /**< directed links restored */                        \
  X(frames_dropped)    /**< frames lost to a cut link */                      \
  X(frames_delayed)    /**< frames held for a link delay */                   \
  X(frames_duplicated) /**< frames delivered twice */                         \
  X(frames_reordered)  /**< adjacent frames swapped */                        \
  X(acks_dropped)      /**< replies eaten by a one-way cut */                 \
  X(virtual_micros)    /**< virtual time the mesh advanced */                 \
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

/// Thread-safe counter set shared by the chaos mesh, the invariant monitor
/// and the explorer.
class ChaosCounters {
  NS_LEDGER_LIVE(ChaosCounters, ChaosCountersSnapshot, NS_CHAOS_COUNTERS)
};

}  // namespace numastream
