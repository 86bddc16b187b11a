// ResumeCounters: one pipeline's crash-recovery ledger.
//
// The fourth ledger next to FaultCounters (injected transport faults),
// OverloadCounters (pressure) and HealthCounters (self-healing): this one
// accounts for what the durability layer did across endpoint restarts —
// crashes observed, journal records written and replayed on recovery, torn
// records truncated by the recovery scan, RESUME handshakes exchanged,
// duplicate chunks suppressed on both sides of the wire, and the re-work the
// crash actually cost. Crash points and restart delays are seeded, so in
// simulation these counters double as the bit-identity fingerprint of a
// recovery run: same seed, same snapshot. Renders through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Incident order: the crash, the journal's part in recovering from it, the
// duplicates the ledgers caught, and what it cost.
#define NS_RESUME_COUNTERS(X)                                                 \
  /* Crash lifecycle. */                                                     \
  X(crashes_observed)         /**< endpoint deaths seen (either side) */      \
  X(resume_handshakes)        /**< RESUME frames accepted by a sender */      \
  /* Journal activity. */                                                    \
  X(journal_records_written)  /**< appended + flushed records */              \
  X(journal_records_replayed) /**< records read back on recovery */           \
  X(torn_records_truncated)   /**< corrupt tail records dropped */            \
  /* Exactly-once enforcement. */                                            \
  X(duplicates_suppressed)    /**< sender skipped <= watermark */             \
  X(duplicate_deliveries_suppressed) /**< receiver ledger hits */             \
  /* What the crash cost. */                                                 \
  X(replayed_chunks)          /**< chunks re-sent after a restart */          \
  X(rework_bytes)             /**< wire bytes of those replays */             \
  X(recovery_wall_ms)         /**< crash-to-first-resumed-send time */

/// Plain-value copy of ResumeCounters, comparable and printable.
struct ResumeCountersSnapshot {
  NS_LEDGER_SNAPSHOT(ResumeCountersSnapshot, NS_RESUME_COUNTERS)
};

/// Thread-safe counter set shared by a pipeline's workers and the journal.
class ResumeCounters {
  NS_LEDGER_LIVE(ResumeCounters, ResumeCountersSnapshot, NS_RESUME_COUNTERS)
};

}  // namespace numastream
