// BottleneckAdvisor: the paper's future-work feature ("adjust the allocation
// of cores to streaming software processes in response to real-time resource
// utilization", §6), implemented as an observe-analyze-refine loop.
//
// The advisor consumes per-stage observations of a running pipeline — how
// many bytes each stage moved and how busy its threads were — identifies the
// bottleneck stage, and proposes a new WorkloadSpec that shifts thread budget
// toward it (never exceeding the core budgets the ConfigGenerator enforces).
// Iterating advisor -> generator -> run converges from a bad configuration
// (e.g. Table 3's config A at 37 Gbps) to the neighbourhood of the best one
// without any a-priori knowledge of the workload; the ablation bench
// `ablation_adaptive` demonstrates exactly that on the simulated gateway.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/config_generator.h"
#include "core/health.h"
#include "core/placement.h"
#include "obs/histogram.h"

namespace numastream {

/// One stage's measurements over an observation window.
struct StageObservation {
  int threads = 0;
  /// Mean utilization of the stage's threads in [0, 1]: busy time divided by
  /// (window x threads). A saturated stage reads ~1.
  double utilization = 0;
};

/// Overload pressure observed over a window (metrics/overload_counters.h
/// condensed to what the advisor can reason about). All-zero means the run
/// never hit its overload protections.
struct OverloadObservation {
  std::uint64_t shed_chunks = 0;        ///< frames dropped by shed=drop_newest
  std::uint64_t credit_stalls = 0;      ///< sender dry spells (flow control bit)
  std::uint64_t budget_stalls = 0;      ///< admissions that had to wait
  std::uint64_t peak_bytes_in_flight = 0;

  [[nodiscard]] bool any() const noexcept {
    return shed_chunks != 0 || credit_stalls != 0 || budget_stalls != 0;
  }
};

/// Per-stage latency distributions observed over a window (obs/histogram.h
/// condensed to the four pipeline stages). All-zero counts mean the run did
/// not record latency (the observe directive was off) — utilization alone
/// then drives the advisor, exactly as before the observability subsystem.
struct LatencyObservation {
  obs::LatencySnapshot compress;
  obs::LatencySnapshot send;
  obs::LatencySnapshot receive;
  obs::LatencySnapshot decompress;

  [[nodiscard]] bool any() const noexcept {
    return compress.count != 0 || send.count != 0 || receive.count != 0 ||
           decompress.count != 0;
  }
};

/// Crash-recovery activity observed over a window (metrics/resume_counters.h
/// condensed). All-zero means no endpoint restarted — or resume was off.
/// The advisor treats rework as externally-imposed load, not a bottleneck:
/// a window dominated by replays is reported, never "fixed" with threads.
struct ResumeObservation {
  std::uint64_t resume_handshakes = 0;  ///< RESUME frames exchanged
  std::uint64_t duplicates_suppressed = 0;   ///< sender-side replay skips
  std::uint64_t duplicate_deliveries_suppressed = 0;  ///< receiver ledger hits
  std::uint64_t replayed_chunks = 0;    ///< chunks re-sent after a restart
  std::uint64_t rework_bytes = 0;       ///< wire bytes of those replays

  [[nodiscard]] bool any() const noexcept {
    return resume_handshakes != 0 || duplicates_suppressed != 0 ||
           duplicate_deliveries_suppressed != 0 || replayed_chunks != 0;
  }
};

/// A pipeline observation window. Throughputs are bytes/second of RAW data
/// (the common currency across stages: compression input, decompression
/// output), so stages are directly comparable.
struct PipelineObservation {
  double raw_throughput = 0;  ///< delivered end-to-end rate (bytes/sec raw)
  StageObservation compress;
  StageObservation send;
  StageObservation receive;
  StageObservation decompress;
  OverloadObservation overload;
  LatencyObservation latency;
  ResumeObservation resume;
};

enum class StageKind { kCompress, kSend, kReceive, kDecompress, kNone };

std::string to_string(StageKind stage);

/// The advisor's verdict for one window.
struct AdvisorReport {
  StageKind bottleneck = StageKind::kNone;
  /// Estimated per-thread capacity of the bottleneck stage (raw bytes/sec),
  /// i.e. throughput / (threads x utilization).
  double bottleneck_per_thread = 0;
  /// Threads the bottleneck stage would need to stop limiting the pipeline.
  int recommended_threads = 0;
  std::string rationale;
};

struct AdvisorOptions {
  /// A stage whose mean utilization is above this is considered saturated.
  double saturation_threshold = 0.80;
  /// Headroom factor applied when sizing the bottleneck stage up, so the
  /// next iteration lands past the knee instead of exactly on it.
  double headroom = 1.25;
  /// Never recommend more threads than this per stage (safety rail; the
  /// generator additionally clamps to physical core budgets).
  int max_threads_per_stage = 64;
};

class BottleneckAdvisor {
 public:
  explicit BottleneckAdvisor(AdvisorOptions options = {}) : options_(options) {}

  /// Analyzes one window: which stage limits throughput, and how many
  /// threads would relieve it. Reports kNone when no stage is saturated
  /// (the pipeline is externally limited: source rate, NIC, link).
  [[nodiscard]] AdvisorReport analyze(const PipelineObservation& observation) const;

  /// Applies a report to a WorkloadSpec: bumps the bottleneck stage's thread
  /// count, leaving everything else untouched. Returns the refined spec
  /// (idempotent when report.bottleneck == kNone).
  [[nodiscard]] WorkloadSpec refine(const WorkloadSpec& spec,
                                    const AdvisorReport& report) const;

  /// Recomputes a node's placement against a resource-health mask: every
  /// task group's bindings are rewritten off the failed domains
  /// (rebind_excluding), and — the paper's Observation 1 run in reverse —
  /// when the mask fails a NIC, receive groups are re-pinned to the
  /// surviving NIC's attachment domain with their thread counts clamped to
  /// that domain's cores, while decompress groups prefer the remaining
  /// domains so they do not contend with packet processing. Returns the
  /// config unchanged for an empty mask; FAILED (as kFailedPrecondition-like
  /// invalid_argument) when no usable NIC or domain survives.
  [[nodiscard]] Result<NodeConfig> replan(const NodeConfig& config,
                                          const MachineTopology& topo,
                                          const ResourceHealthMask& mask) const;

 private:
  AdvisorOptions options_;
};

}  // namespace numastream
