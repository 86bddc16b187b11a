// FaultCounters: one pipeline's fault-injection and recovery ledger.
//
// Every fault the one fault-injection layer (msg/faulty.h) injects and
// every recovery action the pipeline takes (core/pipeline.cpp) increments
// exactly one counter here, so a fault-tolerance run is fully accountable: chunks are
// either delivered, or their loss shows up in a counter — never silent.
// Hot paths touch these at chunk granularity, ~11 MiB apart. Two runs of
// the same seeded FaultPlan must produce equal snapshots — the determinism
// property tests/fault_test.cpp asserts. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Injected faults first, then the recovery actions they provoked.
#define NS_FAULT_COUNTERS(X)                                                 \
  /* Faults injected by the chaos transport layer. */                       \
  X(injected_disconnects)     /**< writes failed, nothing delivered */       \
  X(injected_torn_writes)     /**< corrupted prefix delivered, then failed */ \
  X(injected_bitflips)        /**< silent single-bit payload corruption */   \
  X(injected_short_writes)    /**< write delivered in fragments */           \
  X(injected_stalls)          /**< write delayed by the injector */          \
  X(injected_throttles)       /**< write slow-dripped at a byte rate */      \
  X(injected_crashes)         /**< whole-endpoint deaths (kill -9) */        \
  X(injected_accept_failures) /**< listener accepts that failed */          \
  /* Recovery actions taken by the pipeline. */                             \
  X(reconnects)               /**< sender re-dialed a dead connection */     \
  X(dial_retries)             /**< backoff retries inside dials */           \
  X(connections_recycled)     /**< receiver replaced a dead connection */    \
  X(corrupt_frames)           /**< frames failing checksum/decode */         \
  X(duplicate_frames)         /**< resent frames deduplicated by sequence */ \
  X(degraded_chunks)          /**< chunks sent passthrough under backlog */  \
  X(watchdog_trips)           /**< stalled stages forcibly cancelled */

/// Plain-value copy of FaultCounters, comparable and printable.
struct FaultCountersSnapshot {
  NS_LEDGER_SNAPSHOT(FaultCountersSnapshot, NS_FAULT_COUNTERS)
};

/// Thread-safe counter set shared by a pipeline's workers and its fault
/// injectors.
class FaultCounters {
  NS_LEDGER_LIVE(FaultCounters, FaultCountersSnapshot, NS_FAULT_COUNTERS)
};

}  // namespace numastream
