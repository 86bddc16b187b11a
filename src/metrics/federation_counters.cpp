#include "metrics/federation_counters.h"

namespace numastream {

void FederationCounters::note_repl_lag(std::uint64_t lag) {
  std::uint64_t seen = repl_lag_records_max.load(std::memory_order_relaxed);
  while (lag > seen &&
         !repl_lag_records_max.compare_exchange_weak(
             seen, lag, std::memory_order_relaxed, std::memory_order_relaxed)) {
  }
}

void FederationCounters::note_epoch(std::uint64_t value) {
  std::uint64_t seen = epoch.load(std::memory_order_relaxed);
  while (value > seen &&
         !epoch.compare_exchange_weak(seen, value, std::memory_order_relaxed,
                                      std::memory_order_relaxed)) {
  }
}

}  // namespace numastream
