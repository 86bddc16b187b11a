// OverloadCounters: one pipeline's overload-protection ledger.
//
// The complement of FaultCounters: where that ledger accounts for injected
// transport faults and the recovery they provoked, this one accounts for
// *pressure* — admission decisions the budget made, frames shed=drop_newest
// dropped, credit stalls the flow-control window imposed, and how the
// graceful drain ended. Same accountability rule: a chunk that entered an
// overloaded pipeline is either delivered or shows up in exactly one counter
// here — never silently gone. Counters are touched at chunk granularity and
// render through counter_table().
#pragma once

#include "metrics/ledger.h"

namespace numastream {

// Pressure order: shedding first, then the flow control and admission
// machinery that prevented worse, then the gauges.
#define NS_OVERLOAD_COUNTERS(X)                                               \
  /* Load shedding (core/pipeline.cpp, shed=drop_newest). */                 \
  X(shed_newest)          /**< incoming frames dropped at admission */        \
  /* Credit-based flow control (msg/socket.h credit frames). */              \
  X(credit_stalls)        /**< times a sender ran dry and had to wait */      \
  X(credit_grants)        /**< credit frames issued by the receiver */        \
  /* Memory budget admission (core/budget.h). */                             \
  X(budget_stalls)        /**< admissions that had to wait for releases */    \
  X(budget_rejections)    /**< admissions denied outright (shed instead) */   \
  /* Graceful drain (core/drain.h). */                                       \
  X(drain_requests)       /**< coordinated flushes started */                 \
  X(drain_timeouts)       /**< flushes that hit the deadline and forced */    \
  /* Gauges. */                                                              \
  X(peak_bytes_in_flight) /**< high-water mark of bytes charged to budget */

/// Plain-value copy of OverloadCounters, comparable and printable.
struct OverloadCountersSnapshot {
  NS_LEDGER_SNAPSHOT(OverloadCountersSnapshot, NS_OVERLOAD_COUNTERS)
};

/// Thread-safe counter set shared by a pipeline's workers.
class OverloadCounters {
  NS_LEDGER_LIVE(OverloadCounters, OverloadCountersSnapshot,
                 NS_OVERLOAD_COUNTERS)

  /// Raises peak_bytes_in_flight to at least `bytes` (monotonic gauge).
  void record_peak(std::uint64_t bytes);
};

}  // namespace numastream
