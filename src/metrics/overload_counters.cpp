#include "metrics/overload_counters.h"

namespace numastream {

void OverloadCounters::record_peak(std::uint64_t bytes) {
  std::uint64_t seen = peak_bytes_in_flight.load(std::memory_order_relaxed);
  while (seen < bytes && !peak_bytes_in_flight.compare_exchange_weak(
                             seen, bytes, std::memory_order_relaxed)) {
  }
}

}  // namespace numastream
