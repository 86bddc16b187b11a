// One end-to-end run of the real runtime: StreamSender -> TCP loopback ->
// StreamReceiver in this process, fed by a RingSource and drained into a
// VerifyingSink, with the workload's configs and counters passed to run().
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/overload_counters.h"
#include "metrics/resume_counters.h"
#include "ring.h"
#include "trace.h"

namespace rtbench {

struct RunSpec {
  const Workload* workload = nullptr;
  const Ring* ring = nullptr;
  std::uint64_t seed = 0;  ///< names the resume session
  Ledger::StopRule stop;
  /// Traced run: spans around every call into a layer. Null for the
  /// untraced runs that give the end-to-end metrics.
  SpanStore* spans = nullptr;
  /// Set-up repetition: time accept() returns so setup_s can be measured
  /// (streams pass through unwrapped).
  bool time_setup = false;
};

struct RunResult {
  numastream::Status status = numastream::Status::ok();
  numastream::SenderStats tx;
  numastream::ReceiverStats rx;
  numastream::FaultCountersSnapshot tx_faults;
  numastream::FaultCountersSnapshot rx_faults;
  numastream::OverloadCountersSnapshot overload;
  numastream::ResumeCountersSnapshot resume;
  Ledger::Report delivery;
  std::vector<double> latencies_ms;
  std::uint64_t delivered_bytes = 0;
  /// First source pull to last sink delivery.
  double wall_s = 0;
  /// Start of topology discovery until every connection is accepted and the
  /// first chunk is pulled (time_setup runs only).
  double setup_s = 0;
  /// Process user+sys CPU while the pipeline threads ran.
  double cpu_s = 0;
  /// Peak resident set of the process while the pipeline threads ran (the
  /// ring included), sampled from a heap trimmed before the run.
  double peak_rss_mib = 0;

  [[nodiscard]] double raw_gbps() const {
    return wall_s > 0 ? static_cast<double>(delivered_bytes) * 8 / wall_s / 1e9 : 0;
  }
  /// Recovery events a fault-free run must not show: corrupt frames,
  /// deduplicated resends and reconnects, as the runtime counted them.
  [[nodiscard]] std::uint64_t runtime_faults() const {
    return rx.corrupt_frames + tx_faults.duplicate_frames + rx_faults.duplicate_frames +
           tx_faults.reconnects + rx_faults.reconnects;
  }
};

RunResult run_pipeline(const RunSpec& spec);

}  // namespace rtbench
