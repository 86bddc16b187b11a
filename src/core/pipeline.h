// The executable streaming pipeline (Fig. 2 of the paper), on real threads.
//
// StreamSender:   ChunkSource -> {C} compression threads -> bounded queue ->
//                 {S} sending threads -> one ByteStream each.
// StreamReceiver: {R} receiving threads (one accepted connection each) ->
//                 bounded queue -> {D} decompression threads -> ChunkSink.
//
// Thread counts and NUMA bindings come from a NodeConfig (hand-written or
// produced by the ConfigGenerator), so the same code runs the paper's
// NUMA-aware placement and the OS baseline. Transports are pluggable: tests
// run the full pipeline over in-process pipes, the examples over TCP
// loopback, and a deployment would run it host-to-host — the pipeline code
// is identical in all three.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <optional>

#include "core/budget.h"
#include "core/config.h"
#include "core/drain.h"
#include "core/health.h"
#include "data/chunk.h"
#include "data/tomo.h"
#include "metrics/fault_counters.h"
#include "metrics/health_counters.h"
#include "metrics/overload_counters.h"
#include "msg/socket.h"
#include "msg/transport.h"

namespace numastream::obs {
class Tracer;
class StageLatencies;
class MetricsRegistry;
}  // namespace numastream::obs

namespace numastream {

class SenderJournal;
class ReceiverJournal;
class ResumeCounters;
struct ResumeCountersSnapshot;

/// Optional overload-protection collaborators for one pipeline run. All
/// pointers are borrowed and may be null; the pipeline consults them only
/// when `config.overload` enables the corresponding mechanism, so a
/// default-constructed OverloadHooks with a default OverloadConfig is
/// exactly the pre-overload pipeline.
struct OverloadHooks {
  /// Shared in-flight byte ledger. When null but config.overload sets
  /// budget_bytes, the pipeline creates a private ledger for the run; pass
  /// one MemoryBudget here to enforce a process-wide cap across pipelines.
  MemoryBudget* budget = nullptr;
  /// Accumulates shed/stall/drain accounting when supplied.
  OverloadCounters* counters = nullptr;
  /// Operator-initiated graceful drain: when supplied, ingest stages watch
  /// the controller and stop pulling new work once it is requested.
  DrainController* drain = nullptr;
};

/// Optional self-healing collaborators for one pipeline run (DESIGN.md §9).
/// Borrowed, may be null; default hooks are exactly the pre-health pipeline.
struct HealthHooks {
  /// Accumulates detection/migration accounting when supplied.
  HealthCounters* counters = nullptr;
  /// Live-migration handshake, on iff supplied: workers poll it at chunk
  /// boundaries and re-pin themselves (via apply_binding) for their task
  /// type. Typically driven by a HealthMonitor loop outside the run.
  MigrationCoordinator* migrations = nullptr;
};

/// Optional observability collaborators for one pipeline run (DESIGN.md
/// §10). Borrowed, may be null; consulted only when `config.observe` turns
/// the matching knob on, so default hooks with a default ObserveConfig are
/// exactly the pre-observability pipeline — workers take no timestamps and
/// touch no rings. Observability is measurement-only: none of these hooks
/// ever changes what happens to a chunk.
struct ObsHooks {
  /// Per-chunk lifecycle spans, used when `config.observe.trace` is on.
  /// Size its rings for the node's worker-id layout: sender spans use ids
  /// [0, compress_threads) for compress and [compress_threads,
  /// compress_threads + send_threads) for send; receivers analogously with
  /// receive before decompress. Out-of-range ids count as dropped spans.
  obs::Tracer* tracer = nullptr;
  /// Per-stage latency histograms, used when `config.observe.latency` is on.
  obs::StageLatencies* latencies = nullptr;
  /// Queue-depth / credit-occupancy / budget gauges are registered here for
  /// the duration of the run when `config.observe` is enabled (and
  /// unregistered on exit, whatever knob enabled it).
  obs::MetricsRegistry* registry = nullptr;
};

/// Optional crash-resumption collaborators for one pipeline run (DESIGN.md
/// §11). Borrowed, may be null; consulted only when `config.resume` is
/// enabled, so default hooks with a default ResumeConfig are exactly the
/// pre-resume pipeline — no journal writes, no RESUME frames on the wire.
///
/// The journals carry the durable state across restarts: construct them over
/// the same JournalMedia before every run of the same session, call
/// recover(), then pass them here. A sender run requires `sender_journal`, a
/// receiver run `receiver_journal`; the other pointer is ignored.
struct ResumeHooks {
  /// Sender-side write-ahead journal (recovered before the run).
  SenderJournal* sender_journal = nullptr;
  /// Receiver-side committed-delivery ledger (recovered before the run).
  ReceiverJournal* receiver_journal = nullptr;
  /// Accumulates handshake/suppression/re-work accounting when supplied.
  ResumeCounters* counters = nullptr;
};

/// Produces the chunks a sender streams. Implementations must be
/// thread-safe: every compression thread pulls from the same source.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;
  /// Next chunk, or nullopt when the dataset is exhausted.
  virtual std::optional<Chunk> next() = 0;
};

/// Serves `count` synthetic projections for stream `stream_id`.
class TomoChunkSource final : public ChunkSource {
 public:
  TomoChunkSource(TomoConfig config, std::uint32_t stream_id, std::uint64_t count);
  std::optional<Chunk> next() override;

 private:
  TomoGenerator generator_;
  std::uint32_t stream_id_;
  std::uint64_t count_;
  std::atomic<std::uint64_t> issued_{0};
};

/// Receives decompressed chunks. Must be thread-safe.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;
  virtual void deliver(Chunk chunk) = 0;
};

/// Counts chunks/bytes and records the highest sequence per stream.
class CountingSink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override;
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_.load(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_.load(); }

 private:
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Routes chunks to per-stream sinks by Chunk::stream_id — the receiver-side
/// demultiplexer of a multi-stream gateway (Fig. 13): one StreamReceiver can
/// accept connections from several senders and this sink keeps their chunks
/// apart. Chunks for unregistered stream ids go to the fallback sink (or are
/// counted as dropped when none is set).
class DemuxSink final : public ChunkSink {
 public:
  /// Routes `stream_id` to `sink` (not owned; must outlive the pipeline).
  void route(std::uint32_t stream_id, ChunkSink* sink);

  /// Receives chunks whose stream id has no route; optional.
  void set_fallback(ChunkSink* sink);

  void deliver(Chunk chunk) override;

  /// Chunks that had neither a route nor a fallback.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_.load(); }

 private:
  std::map<std::uint32_t, ChunkSink*> routes_;  // set up before run(); read-only after
  ChunkSink* fallback_ = nullptr;
  std::atomic<std::uint64_t> dropped_{0};
};

struct SenderStats {
  std::uint64_t chunks = 0;
  std::uint64_t raw_bytes = 0;   ///< uncompressed bytes consumed
  std::uint64_t wire_bytes = 0;  ///< bytes actually written to the transport
  double elapsed_seconds = 0;
  // Per-stage accounting for the adaptive advisor (core/advisor.h): how much
  // wall time the stage's workers spent actively processing (vs blocked on
  // queues/sockets), and how many workers ran.
  double compress_busy_seconds = 0;
  double send_busy_seconds = 0;
  int compress_threads = 0;
  int send_threads = 0;

  [[nodiscard]] double raw_rate() const noexcept {
    return elapsed_seconds > 0 ? static_cast<double>(raw_bytes) / elapsed_seconds : 0;
  }
  [[nodiscard]] double compression_ratio() const noexcept {
    return wire_bytes > 0
               ? static_cast<double>(raw_bytes) / static_cast<double>(wire_bytes)
               : 0;
  }
};

struct ReceiverStats {
  std::uint64_t chunks = 0;
  std::uint64_t raw_bytes = 0;   ///< decompressed bytes delivered to the sink
  std::uint64_t wire_bytes = 0;  ///< bytes read off the transport
  std::uint64_t corrupt_frames = 0;
  double elapsed_seconds = 0;
  double receive_busy_seconds = 0;
  double decompress_busy_seconds = 0;
  int receive_threads = 0;
  int decompress_threads = 0;

  [[nodiscard]] double raw_rate() const noexcept {
    return elapsed_seconds > 0 ? static_cast<double>(raw_bytes) / elapsed_seconds : 0;
  }
};

/// One transport connection per sending thread.
using ConnectFn = std::function<Result<std::unique_ptr<ByteStream>>()>;

class StreamSender {
 public:
  /// `config` must be a sender config that validates against `topo`.
  StreamSender(const MachineTopology& topo, NodeConfig config);

  /// Drains `source` through the pipeline; blocks until every thread
  /// finishes. `connect` is invoked once per sending thread — and again on
  /// every reconnect when `config.recovery.reconnect` is on, in which case
  /// transient dial failures are retried per `config.recovery.retry` and the
  /// in-flight message is re-sent on the fresh connection. `faults`, when
  /// supplied, accumulates recovery accounting (reconnects, retries,
  /// degraded chunks, watchdog trips). `overload` supplies the optional
  /// budget/counters/drain collaborators used when `config.overload` turns
  /// on overload protection (admission, shedding, credit flow control,
  /// bounded drain).
  Result<SenderStats> run(ChunkSource& source, const ConnectFn& connect,
                          PlacementRecorder* recorder = nullptr,
                          FaultCounters* faults = nullptr,
                          OverloadHooks overload = {},
                          HealthHooks health = {},
                          ObsHooks obs_hooks = {},
                          ResumeHooks resume = {});

 private:
  const MachineTopology& topo_;
  NodeConfig config_;
};

class StreamReceiver {
 public:
  /// `config` must be a receiver config that validates against `topo`.
  StreamReceiver(const MachineTopology& topo, NodeConfig config);

  /// Accepts one connection per receiving thread from `listener`, then
  /// drains them all into `sink`; blocks until every peer finishes. With
  /// `config.recovery.reconnect` on, a worker whose connection breaks or
  /// carries a corrupt message returns to accept() and keeps serving
  /// re-dialed peers, and resent messages are deduplicated by (stream,
  /// sequence). The pipeline ends once every expected end-of-stream marker
  /// (one per receiving thread's peer) has arrived. `faults` accumulates
  /// recovery accounting when supplied; `overload` supplies the optional
  /// budget/counters/drain collaborators for overload protection (credit
  /// grants, bounded drain).
  Result<ReceiverStats> run(Listener& listener, ChunkSink& sink,
                            PlacementRecorder* recorder = nullptr,
                            FaultCounters* faults = nullptr,
                            OverloadHooks overload = {},
                            HealthHooks health = {},
                            ObsHooks obs_hooks = {},
                            ResumeHooks resume = {});

 private:
  const MachineTopology& topo_;
  NodeConfig config_;
};

/// Combines one run's sender and receiver stats into the advisor's
/// observation format (core/advisor.h), enabling the observe-analyze-refine
/// loop on the real pipeline exactly as on the simulated one. Utilization is
/// active processing time over (elapsed x threads). `overload`, when
/// supplied, folds the run's overload counters into the observation so the
/// advisor can tell a compute bottleneck from an overload-protection one.
/// `latencies`, when supplied, folds the run's per-stage latency snapshots
/// into the observation (observation.latency), giving the advisor tail
/// latency next to utilization. `resume`, when supplied, folds the run's
/// crash-recovery counters in (observation.resume) so the advisor can tell
/// replay re-work from genuine new load.
struct PipelineObservation;  // forward declared in core/advisor.h
PipelineObservation make_observation(
    const SenderStats& sender, const ReceiverStats& receiver,
    const OverloadCountersSnapshot* overload = nullptr,
    const obs::StageLatencies* latencies = nullptr,
    const ResumeCountersSnapshot* resume = nullptr);

}  // namespace numastream
