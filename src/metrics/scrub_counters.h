// ScrubCounters: one node's anti-entropy ledger.
//
// The sixth ledger next to FaultCounters, OverloadCounters, HealthCounters,
// ResumeCounters and FederationCounters: this one accounts for what the
// background scrubber and the cross-gateway repair protocol did — durable
// records re-verified, latent corruption found and quarantined, digest
// rounds exchanged with the ring buddy, divergent ranges repaired from
// whichever side verified clean, and the injection/failover audit trail
// (records deliberately rotted by a test, records whose durable evidence a
// failover would have lost). Rot injection is seeded, so in simulation
// these counters double as the bit-identity fingerprint of a scrub run:
// same seed, same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Incident order: the local sweep that notices rot, the cross-gateway
// digest exchange that localizes it, the repair that closes it, and the
// injection/failover audit that proves what was at stake.
#define NS_SCRUB_COUNTERS(X)                                                  \
  /* Local scrubber (core/scrub.h). */                                       \
  X(records_scanned)        /**< durable records re-verified */               \
  X(scrub_passes)           /**< full journal sweeps completed */             \
  X(corrupt_records_found)  /**< checksum failures on re-read */              \
  X(ranges_quarantined)     /**< ranges latched as corrupt */                 \
  X(ranges_repaired)        /**< quarantines lifted after repair */           \
  X(ranges_unrepairable)    /**< neither side verified clean */               \
  /* Anti-entropy protocol (cluster/antientropy.h). */                       \
  X(digest_rounds)          /**< digest exchanges with the buddy */           \
  X(ranges_compared)        /**< ranges digest-checked */                     \
  X(ranges_diverged)        /**< digest mismatches found */                   \
  X(records_pulled)         /**< records fetched from the buddy */            \
  X(records_pushed)         /**< records installed at the buddy */            \
  X(repair_verify_failures) /**< repairs refused on checksum */               \
  X(fenced_scrubs_rejected) /**< stale-epoch scrubs refused */                \
  /* Injection / failover audit (tests, sim, bench). */                      \
  X(records_rotted)         /**< records deliberately corrupted */            \
  X(stale_records_dropped)  /**< replica tail records dropped */              \
  X(failover_lost_records)  /**< ledger holes a takeover hit */

/// Plain-value copy of ScrubCounters, comparable and printable.
struct ScrubCountersSnapshot {
  NS_LEDGER_SNAPSHOT(ScrubCountersSnapshot, NS_SCRUB_COUNTERS)
};

/// Thread-safe counter set shared by the journal scrubber, the anti-entropy
/// exchange, and the fault injectors.
class ScrubCounters {
  NS_LEDGER_LIVE(ScrubCounters, ScrubCountersSnapshot, NS_SCRUB_COUNTERS)
};

}  // namespace numastream
