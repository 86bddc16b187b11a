// StreamPipeline: the simulated counterpart of core/pipeline.h.
//
// One StreamPipeline is one data stream of Fig. 2: compression workers on
// the sender host, symmetric send/receive workers forming one TCP connection
// each, and decompression workers on the receiver host, coupled by bounded
// queues exactly like the real runtime. Worker-to-core assignments are
// explicit core lists (produced by assign_pinned / OsScheduler, or written
// directly by a figure bench that sweeps placements).
//
// The simulated stages and their costs come from simrt/calibration.h; the
// hardware they contend on comes from simhw. Turning `compress` off gives
// the network-only pipeline of §3.4 (Figs. 5 and 11).
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "core/config.h"
#include "metrics/resume_counters.h"
#include "metrics/timeline.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/queue.h"
#include "simhw/machine.h"
#include "simhw/network.h"
#include "simrt/calibration.h"

namespace numastream::simrt {

/// A chunk in flight: only its sizes and current memory home matter to the
/// performance model.
struct SimChunk {
  double raw_bytes = 0;
  double wire_bytes = 0;
  int data_domain = 0;  ///< domain whose DRAM holds the (current) payload
  std::uint64_t sequence = 0;  ///< source order, for lifecycle spans
  bool replay = false;  ///< journal-driven re-send after an endpoint crash
  /// Which receiver-gateway incarnation DMA'd the bytes. A crash takeover
  /// bumps the pipeline's incarnation, so chunks still queued in the dead
  /// gateway's RAM are dropped on pop (their bytes died with the host) and
  /// re-driven by the journal replay. Planned handoffs do NOT bump it: the
  /// drain delivers the queue before ownership moves.
  std::uint32_t receiver_epoch = 0;
};

class StreamPipeline {
 public:
  /// One worker thread: the core it runs on and whether the runtime pinned
  /// it there (unpinned workers pay the OS-migration overhead).
  struct Worker {
    int core = 0;
    bool pinned = true;
  };

  /// Convenience: wraps plain core ids as pinned workers.
  static std::vector<Worker> pinned_workers(const std::vector<int>& cores);

  struct Spec {
    std::uint32_t stream_id = 0;
    std::uint64_t chunks = 0;
    /// Raw bytes per chunk (the sender config's chunk_bytes).
    double chunk_bytes = static_cast<double>(kProjectionChunkBytes);

    bool compress = true;  ///< false = network-only (§3.4)

    SimHost* sender_host = nullptr;
    SimHost* receiver_host = nullptr;
    SimLink* link = nullptr;
    int sender_nic = -1;           ///< SimHost::nic_resource on the sender
    int receiver_nic = -1;         ///< SimHost::nic_resource on the receiver
    int receiver_nic_domain = 0;   ///< domain the receiver NIC DMAs into

    /// Source dataset home on the sender (Table 1's "Memory Domain").
    int source_data_domain = 0;

    std::vector<Worker> compress_workers;    ///< sender host
    std::vector<Worker> send_workers;        ///< sender host, one per connection
    std::vector<Worker> receive_workers;     ///< receiver host, one per connection
    std::vector<Worker> decompress_workers;  ///< receiver host

    /// Per-connection TCP throughput ceiling (bytes/sec); 1e18 = none.
    double per_connection_cap = 1e18;

    /// Aggregate rate at which the instrument/dataset yields raw bytes
    /// (the paper's "senders exclusively generate data chunks at a fixed
    /// rate"). 1e18 = source never limits.
    double source_bytes_per_sec = 1e18;

    std::size_t send_queue_capacity = 8;        ///< sender's queue_capacity
    std::size_t decompress_queue_capacity = 8;  ///< receiver's queue_capacity
    std::size_t connection_window_chunks = 4;  ///< socket-buffer depth

    /// Overload protection (mirrors core/pipeline.cpp; default off):
    ///  * credit_window: a token queue per connection seeded with the window;
    ///    the receiver returns a token per chunk it consumes.
    ///  * budget_bytes: floor(budget / wire_chunk_bytes) tokens for the whole
    ///    pipeline, taken when a chunk enters and returned at delivery.
    ///  * shed=drop_newest at the compress->send queue: sheds while depth >=
    ///    high_watermark until depth <= low_watermark. Requires `compress`.
    /// drain_deadline_ms is not modelled.
    OverloadConfig overload;

    // ---- crash resumption (mirrors core/journal.h; DESIGN.md §11) ----

    /// Mirrors the durable-journal machinery on virtual time: a sender WAL
    /// of sent-but-unacked sequences, a receiver committed-delivery ledger,
    /// and duplicate suppression on both sides. Required by crash_endpoint().
    /// All mirror state lives in ordered containers driven by virtual time,
    /// so two same-seed runs produce bit-identical resume counters.
    bool resume_enabled = false;

    /// Optional: record delivered raw bytes into this timeline (owned by the
    /// caller; must outlive the simulation run).
    RateTimeline* e2e_timeline = nullptr;

    // ---- observability (DESIGN.md §10; null = off) ----

    /// Per-chunk lifecycle spans stamped with *virtual* time, so two
    /// same-seed runs emit byte-identical traces. Borrowed; must outlive the
    /// run. Worker ids are trace_worker_base + the stream's stage-major
    /// worker offset (compress, then send, receive, decompress).
    obs::Tracer* tracer = nullptr;
    /// Per-stage latency histograms on virtual durations. Borrowed.
    obs::StageLatencies* latencies = nullptr;
    /// First worker id this stream's spans use; a multi-stream driver packs
    /// streams consecutively so their ids stay disjoint.
    std::uint32_t trace_worker_base = 0;
  };

  /// INVALID_ARGUMENT naming why `spec` cannot run under `calib`; the
  /// constructor aborts on it, so a driver calls it first.
  [[nodiscard]] static Status check(const Spec& spec, const Calibration& calib);

  /// Validates the spec and prepares queues; launch() spawns the workers.
  StreamPipeline(sim::Simulation& sim, const Calibration& calib, Spec spec);

  StreamPipeline(const StreamPipeline&) = delete;
  StreamPipeline& operator=(const StreamPipeline&) = delete;

  /// Spawns all worker coroutines on the simulation. Call once.
  void launch();

  // ---- live re-placement (DESIGN.md §9) ----
  //
  // Workers re-read their placement from the spec at every chunk boundary,
  // so a monitor coroutine (simrt/driver.cpp) can call these mid-run: the
  // chunk in hand finishes on the old core/NIC, the next one uses the new
  // placement. Single-threaded simulation — no synchronization needed.

  /// Moves one receive worker to `core` (stays pinned). The simulated
  /// equivalent of MigrationCoordinator + apply_binding on the real pipeline.
  void migrate_receive_worker(std::size_t connection, int core);

  /// Moves one decompress worker to `core` (stays pinned).
  void migrate_decompress_worker(std::size_t index, int core);

  /// Re-routes the stream through a different receiver NIC: subsequent
  /// chunks transfer over `nic_resource` and DMA into `nic_domain`. The
  /// NIC-failover half of a re-plan.
  void retarget_receiver_nic(int nic_resource, int nic_domain);

  /// Kills and restarts one endpoint mid-run (DESIGN.md §11). Requires
  /// Spec::resume_enabled. The chunk-atomic crash model: durable journal
  /// state (the WAL and the delivery ledger) survives; the restarted side
  /// replays its journal, re-handshakes, and the sender re-sends exactly the
  /// sent-but-unacked window after `restart_seconds` of blackout. Chunks
  /// whose delivery committed before the death are never re-delivered — the
  /// receiver ledger suppresses their replays — so exactly-once holds and
  /// re-work is bounded by the unacked window. A crash monitor coroutine
  /// (simrt/driver.cpp) calls this on virtual time; single-threaded
  /// simulation, so no synchronization needed.
  void crash_endpoint(bool sender_side, double restart_seconds);

  /// Whole-gateway failover (DESIGN.md §12). The receiver gateway hosting
  /// this stream died; the consistent-hash ring re-resolved the stream to
  /// `new_host` (the buddy), which holds a replicated copy of the receiver
  /// journal. Requires Spec::resume_enabled. Semantically this is
  /// crash_endpoint(receiver) plus a re-target: the buddy recovers the
  /// replica ledger (so committed deliveries stay committed), the RESUME
  /// handshake replays exactly the sent-but-unacked window after
  /// `failover_seconds` of blackout, and every subsequent chunk rides the
  /// buddy's NIC onto the buddy's cores. The caller migrates the receive
  /// and decompress workers onto buddy cores separately
  /// (migrate_receive_worker / migrate_decompress_worker), exactly like a
  /// re-plan. Single-threaded simulation — no synchronization needed.
  void fail_over_receiver(SimHost* new_host, int nic_resource, int nic_domain,
                          double failover_seconds);

  /// Planned stream handoff (DESIGN.md §13). Unlike fail_over_receiver, the
  /// old gateway is alive and cooperating: the source freezes at a chunk
  /// boundary, the in-flight window *drains to delivery* during the
  /// `handoff_seconds` blackout (freeze + drain + journal ship + commit),
  /// and the target resumes from the RESUME watermarks — so nothing is
  /// re-sent. Zero replays by construction is the whole point: the planned
  /// path's re-work is strictly less than the crash path's unacked-window
  /// replay on the same schedule. Requires Spec::resume_enabled.
  void hand_off_receiver(SimHost* new_host, int nic_resource, int nic_domain,
                         double handoff_seconds);

  /// True once every produced chunk is accounted for: delivered or shed.
  /// The zero-chunk-loss invariant a recovery scenario asserts.
  [[nodiscard]] bool all_chunks_accounted() const noexcept {
    return chunks_delivered_ + shed_chunks_ == spec_.chunks;
  }

  // ---- results (valid after sim.run() completes) ----
  [[nodiscard]] std::uint64_t chunks_delivered() const noexcept {
    return chunks_delivered_;
  }
  [[nodiscard]] double wire_bytes_received() const noexcept {
    return wire_bytes_received_;
  }
  [[nodiscard]] double raw_bytes_delivered() const noexcept {
    return raw_bytes_delivered_;
  }
  /// Virtual time of the last delivery. Streams run a fixed chunk count, so
  /// a fast stream finishes early; its rate must be computed over its own
  /// active window, not the whole simulation.
  [[nodiscard]] double finished_at() const noexcept { return finished_at_; }

  /// Per-stage CPU accounting for the adaptive advisor (core/advisor.h):
  /// total busy seconds burned by all workers of one stage.
  struct StageBusy {
    double compress = 0;
    double send = 0;
    double receive = 0;
    double decompress = 0;
  };
  [[nodiscard]] const StageBusy& stage_busy() const noexcept { return stage_busy_; }
  [[nodiscard]] const Spec& spec() const noexcept { return spec_; }

  // ---- overload accounting (mirrors metrics/overload_counters.h) ----
  [[nodiscard]] std::uint64_t shed_chunks() const noexcept { return shed_chunks_; }
  [[nodiscard]] std::uint64_t credit_stalls() const noexcept {
    return credit_stalls_;
  }
  [[nodiscard]] std::uint64_t budget_stalls() const noexcept {
    return budget_stalls_;
  }
  /// High-water mark of wire bytes concurrently charged to the budget
  /// (0 when no budget is configured). Invariant: <= overload.budget_bytes.
  [[nodiscard]] double peak_bytes_in_flight() const noexcept {
    return static_cast<double>(peak_inflight_chunks_) *
           wire_chunk_bytes(spec_, calib_);
  }

  // ---- resume accounting (mirrors metrics/resume_counters.h) ----

  /// The stream's resume ledger. In simulation this is the bit-identity
  /// fingerprint of a recovery run: same seed, same snapshot.
  [[nodiscard]] ResumeCountersSnapshot resume_snapshot() const;

  /// Wire bytes a journal-less restart would have re-sent: on every crash,
  /// everything sent so far (delivered or not) is charged, because without
  /// the WAL the transfer restarts from sequence zero. The ablation bench
  /// compares this against the journal's bounded rework_bytes.
  [[nodiscard]] double restart_from_zero_bytes() const noexcept {
    return restart_from_zero_bytes_;
  }

  // ---- planned-handoff accounting (DESIGN.md §13) ----
  [[nodiscard]] std::uint64_t handoffs_completed() const noexcept {
    return handoffs_completed_;
  }
  [[nodiscard]] std::uint64_t handoff_wall_ms() const noexcept {
    return handoff_wall_ms_;
  }

 private:
  sim::SimProc compressor_worker(std::size_t index);
  sim::SimProc sender_worker(std::size_t connection);
  sim::SimProc receiver_worker(std::size_t connection);
  sim::SimProc decompressor_worker(std::size_t index);
  /// Seeds a token queue with its initial tokens at t=0.
  sim::SimProc token_filler(sim::SimQueue<int>& tokens, std::size_t count);

  [[nodiscard]] bool observing() const noexcept {
    return spec_.tracer != nullptr || spec_.latencies != nullptr;
  }
  /// Records one stage's handling of one chunk on virtual time.
  /// `worker_offset` is the stream-local stage-major worker index.
  void observe(obs::Stage stage, std::size_t worker_offset, int domain,
               double start_seconds, double end_seconds, std::uint64_t sequence);

  [[nodiscard]] static double wire_chunk_bytes(const Spec& spec,
                                               const Calibration& calib) noexcept {
    return spec.compress ? spec.chunk_bytes / calib.compression_ratio
                         : spec.chunk_bytes;
  }

  /// Takes the next chunk off the synthetic dataset; nullopt when done.
  std::optional<SimChunk> draw_source_chunk();

  sim::Simulation& sim_;
  Calibration calib_;
  Spec spec_;

  std::uint64_t source_remaining_ = 0;
  std::uint64_t next_sequence_ = 0;  ///< source order stamped on SimChunks
  double source_ready_time_ = 0;  ///< virtual time the next chunk is generated
  int live_compressors_ = 0;
  int live_receivers_ = 0;

  // compressors -> senders (or drawn directly when !compress)
  std::unique_ptr<sim::SimQueue<SimChunk>> send_queue_;
  // one per connection: sender i -> receiver i (models the socket buffer)
  std::vector<std::unique_ptr<sim::SimQueue<SimChunk>>> connection_queues_;
  // receivers -> decompressors
  std::unique_ptr<sim::SimQueue<SimChunk>> decompress_queue_;

  // Overload mirrors: token queues model the credit window (one per
  // connection, seeded with the initial grant) and the chunk-granular
  // memory budget (seeded with the whole cap); a pop is an acquire, a push
  // a release, and waiting in pop is the stall.
  std::vector<std::unique_ptr<sim::SimQueue<int>>> credit_tokens_;
  std::unique_ptr<sim::SimQueue<int>> budget_tokens_;
  std::size_t budget_chunk_cap_ = 0;

  std::uint64_t shed_chunks_ = 0;
  std::uint64_t credit_stalls_ = 0;
  std::uint64_t budget_stalls_ = 0;
  std::uint64_t inflight_chunks_ = 0;
  std::uint64_t peak_inflight_chunks_ = 0;
  bool shedding_ = false;

  std::uint64_t chunks_delivered_ = 0;
  double wire_bytes_received_ = 0;
  double raw_bytes_delivered_ = 0;
  double finished_at_ = 0;
  StageBusy stage_busy_;

  // Resume mirror (spec_.resume_enabled): ordered containers so iteration —
  // and therefore every counter — is deterministic across same-seed runs.
  std::set<std::uint64_t> unacked_;        ///< sender WAL: sent, not delivered
  std::set<std::uint64_t> delivered_set_;  ///< receiver ledger: committed
  std::set<std::uint64_t> replays_;        ///< sequences awaiting re-send
  std::uint64_t sent_records_ = 0;         ///< kSent records in the sender WAL
  std::uint64_t delivered_records_ = 0;    ///< kDelivered records in the ledger
  std::uint64_t crashes_observed_ = 0;
  std::uint64_t resume_handshakes_ = 0;
  std::uint64_t journal_records_written_ = 0;
  std::uint64_t journal_records_replayed_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;
  std::uint64_t duplicate_deliveries_suppressed_ = 0;
  std::uint64_t replayed_chunks_ = 0;
  double rework_bytes_ = 0;
  std::uint64_t recovery_wall_ms_ = 0;
  double restart_from_zero_bytes_ = 0;
  std::uint64_t handoffs_completed_ = 0;
  std::uint64_t handoff_wall_ms_ = 0;
  /// Receiver-gateway incarnation (see SimChunk::receiver_epoch). Bumped by
  /// fail_over_receiver only — a crash loses the dead host's queued chunks;
  /// a planned handoff drains them first.
  std::uint32_t receiver_epoch_ = 0;
};

}  // namespace numastream::simrt
