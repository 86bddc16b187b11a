#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "codec/codec.h"
#include "codec/frame.h"
#include "common/assert.h"
#include "common/retry.h"
#include "concurrency/bounded_queue.h"
#include "concurrency/thread_pool.h"
#include "core/advisor.h"
#include "core/journal.h"
#include "core/watchdog.h"
#include "metrics/resume_counters.h"
#include "metrics/throughput.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace numastream {

static_assert(kMaxFrameRawSize <= kMaxMessageBody,
              "a frame never declares more raw bytes than a message may carry");

namespace {

/// CPU time consumed by the calling thread so far — the honest "busy"
/// metric for stage utilization: blocking on queues or sockets costs no CPU,
/// so utilization = cpu_time / (elapsed x threads) reads ~1 only for stages
/// that are genuinely compute-saturated.
double thread_cpu_seconds() {
  timespec ts{};
  if (::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Accumulates per-stage CPU seconds from many workers (stored in
/// microseconds so a plain atomic integer suffices).
class BusyCounter {
 public:
  void add_seconds(double seconds) {
    micros_.fetch_add(static_cast<std::uint64_t>(seconds * 1e6),
                      std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(micros_.load(std::memory_order_relaxed)) * 1e-6;
  }

 private:
  std::atomic<std::uint64_t> micros_{0};
};

/// First-error-wins collector shared by a pipeline's worker threads.
class ErrorCollector {
 public:
  void record(const Status& status) {
    if (status.is_ok()) {
      return;
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (first_.is_ok()) {
      first_ = status;
    }
  }

  [[nodiscard]] Status first() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  mutable std::mutex mu_;
  Status first_;
};

/// Aggregates a config's task groups of one type into a single worker pool
/// description (total count + concatenated bindings).
struct GroupSpec {
  int count = 0;
  std::vector<NumaBinding> bindings;
};

GroupSpec collect_group(const NodeConfig& config, TaskType type) {
  GroupSpec spec;
  for (const auto& group : config.tasks) {
    if (group.type != type) {
      continue;
    }
    spec.count += group.count;
    for (const auto& binding : group.bindings) {
      spec.bindings.push_back(binding);
    }
  }
  if (spec.bindings.empty()) {
    spec.bindings.push_back(NumaBinding{});
  }
  return spec;
}

/// Resolves a run's overload collaborators against its config: the caller's
/// shared ledger/counters when supplied, otherwise run-local scratch. With
/// the overload directive absent, budget() is null and every mechanism stays
/// off, keeping the run identical to the pre-overload pipeline.
class OverloadRun {
 public:
  OverloadRun(const OverloadConfig& config, const OverloadHooks& hooks)
      : config_(config), hooks_(hooks) {
    if (config_.enabled()) {
      budget_ = hooks_.budget;
      if (budget_ == nullptr && config_.budget_bytes > 0) {
        owned_budget_ = std::make_unique<MemoryBudget>(config_.budget_bytes);
        budget_ = owned_budget_.get();
      }
    }
  }

  [[nodiscard]] bool on() const noexcept { return config_.enabled(); }
  [[nodiscard]] MemoryBudget* budget() const noexcept { return budget_; }
  [[nodiscard]] OverloadCounters& counters() const noexcept {
    return hooks_.counters != nullptr ? *hooks_.counters : scratch_;
  }
  [[nodiscard]] bool credit_on() const noexcept {
    return on() && config_.credit_window > 0;
  }
  [[nodiscard]] bool drain_requested() const noexcept {
    return hooks_.drain != nullptr && hooks_.drain->requested();
  }

  /// Counts the first observation of an operator-requested drain.
  void note_drain_request() {
    if (!drain_noted_.exchange(true, std::memory_order_acq_rel)) {
      counters().drain_requests.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Returns a frame's charge to the ledger (a no-op without one).
  void release(std::uint32_t stream_id, std::uint64_t bytes) const {
    if (budget_ != nullptr) {
      budget_->release(stream_id, bytes);
    }
  }

  /// Copies the ledger's high-water mark into the counters (end of run).
  void record_budget_peak() {
    if (budget_ != nullptr) {
      counters().record_peak(budget_->peak());
    }
  }

  /// Discards frames abandoned in `queue` at teardown and releases their
  /// charges, so a shared ledger is not leaked dry by an aborted run.
  void settle_abandoned(BoundedQueue<Message>& queue) {
    while (auto leftover = queue.try_pop()) {
      release(leftover->stream_id, leftover->wire_body_size());
    }
  }

  /// Messages of credit currently held across a sender's send workers;
  /// maintained only under credit flow control, read by the
  /// credit-occupancy gauge.
  std::atomic<std::int64_t> credit_held{0};

 private:
  const OverloadConfig& config_;
  OverloadHooks hooks_;
  std::unique_ptr<MemoryBudget> owned_budget_;
  MemoryBudget* budget_ = nullptr;
  mutable OverloadCounters scratch_;
  std::atomic<bool> drain_noted_{false};
};

/// Chunk-boundary live-migration poll, one instance per worker thread (the
/// epoch cursor is the worker's private state). Disabled — a single branch —
/// unless a MigrationCoordinator was supplied; enabled, the fast path is one
/// atomic load per chunk. When a request arrives the worker re-pins *itself*
/// through the affinity layer: the chunk in hand finished first, so migration
/// never drops or reorders work, and every queue/credit/budget invariant is
/// untouched.
class MigrationPoller {
 public:
  MigrationPoller(const MachineTopology& topo, const HealthHooks& hooks,
                  TaskType type, std::string task_name,
                  PlacementRecorder* recorder)
      : topo_(topo),
        hooks_(hooks),
        type_(type),
        task_name_(std::move(task_name)),
        recorder_(recorder) {}

  void poll() {
    if (hooks_.migrations == nullptr) {
      return;
    }
    const std::optional<NumaBinding> target =
        hooks_.migrations->poll(type_, &last_seen_);
    if (!target) {
      return;
    }
    // The pin itself is best-effort (the recorder logs the outcome): the
    // migration is counted when the request is consumed, so same-scenario
    // counter snapshots do not depend on the machine the test runs on.
    (void)apply_binding(topo_, *target, task_name_, recorder_);
    if (hooks_.counters != nullptr) {
      hooks_.counters->migrations.fetch_add(1, std::memory_order_relaxed);
    }
  }

 private:
  const MachineTopology& topo_;
  HealthHooks hooks_;
  TaskType type_;
  std::string task_name_;
  PlacementRecorder* recorder_;
  std::uint64_t last_seen_ = 0;
};

/// Resolves a run's observability collaborators against its config
/// (DESIGN.md §10). With the observe directive absent (or the hooks null)
/// every query below is a cached false and workers take no timestamps — the
/// run is bit-identical to the pre-observability pipeline. Gauges registered
/// through this object are unregistered in the destructor, which runs before
/// the queue and counters they read are torn down (declaration order).
class ObsRun {
 public:
  ObsRun(const ObserveConfig& config, const ObsHooks& hooks)
      : trace_on_(config.trace && hooks.tracer != nullptr),
        latency_on_(config.latency && hooks.latencies != nullptr),
        registry_on_(config.enabled() && hooks.registry != nullptr),
        hooks_(hooks),
        epoch_(std::chrono::steady_clock::now()) {}

  ~ObsRun() {
    for (const auto& name : gauges_) {
      hooks_.registry->unregister(name);
    }
  }
  ObsRun(const ObsRun&) = delete;
  ObsRun& operator=(const ObsRun&) = delete;

  /// True when any per-chunk measurement is on; workers gate every
  /// timestamp on this so the disabled path costs one branch.
  [[nodiscard]] bool observing() const noexcept { return trace_on_ || latency_on_; }

  /// Wall nanoseconds since this run's epoch.
  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Records one stage's handling of one chunk into whichever sinks are on.
  void note(obs::Stage stage, std::uint32_t stream, std::uint64_t sequence,
            std::uint32_t worker, int domain, std::uint64_t start_ns,
            std::uint64_t end_ns) const noexcept {
    if (trace_on_) {
      obs::Span span;
      span.stream_id = stream;
      span.sequence = sequence;
      span.stage = stage;
      span.worker = worker;
      span.domain = domain;
      span.start_ns = start_ns;
      span.end_ns = end_ns;
      hooks_.tracer->record(span);
    }
    if (latency_on_) {
      hooks_.latencies->record(stage, domain,
                               end_ns >= start_ns ? end_ns - start_ns : 0);
    }
  }

  /// Registers a gauge for the run's duration (no-op when the registry hook
  /// is off; a name collision loses quietly — observability never fails a
  /// run).
  void gauge(const std::string& name, std::function<double()> read) {
    if (!registry_on_) {
      return;
    }
    if (hooks_.registry->register_gauge(name, std::move(read)).is_ok()) {
      gauges_.push_back(name);
    }
  }

 private:
  bool trace_on_;
  bool latency_on_;
  bool registry_on_;
  ObsHooks hooks_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::string> gauges_;
};

/// Corrupt frames in a row on one decompress worker that fail the run.
constexpr int kMaxConsecutiveCorrupt = 8;

/// Reconstructs a received data message's chunk. A frame body decodes from
/// its header and payload, and a stored payload becomes the chunk's buffer
/// without a copy and without a second hash: the PullSocket that received
/// the message already checked its seal (message_body_intact). A body that
/// arrived whole (it does not open with a frame header) takes the joined
/// decode. Consumes the message's body.
Result<Bytes> decode_content(Message& message) {
  if (message.frame_header) {
    return decode_frame_split(*message.frame_header, std::move(message.body),
                              SealCheck::kAlreadyVerified);
  }
  return decode_frame_content(message.body);
}

// ---------------------------------------------------------------- run frame

/// One stage worker as its stage loop sees it (see RunFrame::start).
struct StageWorker {
  int index;               ///< 0..count-1 within the stage
  std::uint32_t trace_id;  ///< the worker's id in the trace (ObsHooks::tracer)
  int domain;              ///< execution domain, for spans and histograms
  MigrationPoller migrate;
};

/// Times one step of a stage loop and notes it as the chunk's span; the
/// clock is read only when the run observes.
class StepTimer {
 public:
  StepTimer(const ObsRun& obs, const StageWorker& worker)
      : obs_(obs), worker_(worker), start_ns_(obs.observing() ? obs.now_ns() : 0) {}

  void note(obs::Stage stage, std::uint32_t stream, std::uint64_t sequence) const {
    if (obs_.observing()) {
      obs_.note(stage, stream, sequence, worker_.trace_id, worker_.domain,
                start_ns_, obs_.now_ns());
    }
  }

 private:
  const ObsRun& obs_;
  const StageWorker& worker_;
  std::uint64_t start_ns_;
};

/// One of a pipeline end's two stages: its task type, its watchdog name and
/// its worker-thread name prefix.
struct StageSpec {
  TaskType type;
  const char* name;
  const char* threads;
};

/// What tells the two pipeline ends apart to the run frame. The ingest stage
/// fills the queue and takes the low trace worker ids; the egress stage
/// drains it.
struct Side {
  StageSpec ingest;
  StageSpec egress;
  const char* gauge_prefix;
  const char* missing_tasks;  ///< the error for a config without both stages
};

constexpr Side kSenderSide{{TaskType::kCompress, "compress", "comp"},
                           {TaskType::kSend, "send", "send"},
                           "sender",
                           "sender config needs compress and send tasks"};
constexpr Side kReceiverSide{{TaskType::kReceive, "receive", "recv"},
                             {TaskType::kDecompress, "decompress", "decomp"},
                             "receiver",
                             "receiver config needs receive and decompress tasks"};

/// A run's borrowed collaborators, as run() receives them.
struct RunHooks {
  PlacementRecorder* recorder;
  FaultCounters* faults;
  OverloadHooks overload;
  HealthHooks health;
  ObsHooks obs;
  ResumeCounters* resume_counters;
};

/// The scaffold both pipeline ends share (DESIGN.md §18): what a run sets
/// up, watches and tears down around its two stages. A run checks its
/// config, constructs the frame, establishes its connections, starts the
/// clocks with begin(), starts both stages, joins them, and returns
/// finish()'s verdict. Declaration order keeps teardown safe: ObsRun's
/// gauges read members declared before it, and the watchdog and drain
/// deadline, whose teardowns touch everything, are destroyed first.
class RunFrame {
  FaultCounters fault_scratch_;  // keeps the worker code null-free
  ResumeCounters resume_scratch_;

 public:
  /// One stage's task group and tallies.
  struct Stage {
    GroupSpec group;
    BusyCounter busy;                        ///< the workers' CPU seconds
    std::atomic<std::uint64_t> progress{0};  ///< work done; the watchdog's view
  };

  /// The config errors that keep a run from starting.
  static Status check(const MachineTopology& topo, const NodeConfig& config,
                      const Side& side) {
    NS_RETURN_IF_ERROR(config.validate(topo));
    if (config.thread_count(side.ingest.type) <= 0 ||
        config.thread_count(side.egress.type) <= 0) {
      return invalid_argument_error(side.missing_tasks);
    }
    return Status::ok();
  }

  /// `config` must have passed check().
  RunFrame(const MachineTopology& topo_in, const NodeConfig& config_in,
           const Side& side, const RunHooks& hooks)
      : topo(topo_in),
        config(config_in),
        fc(hooks.faults != nullptr ? *hooks.faults : fault_scratch_),
        rc(hooks.resume_counters != nullptr ? *hooks.resume_counters
                                            : resume_scratch_),
        ovr(config_in.overload, hooks.overload),
        qcancel(ovr.on() ? registry.cancel_flag() : nullptr),
        queue(config_in.queue_capacity),
        ingest{collect_group(config_in, side.ingest.type)},
        egress{collect_group(config_in, side.egress.type)},
        obr(config_in.observe, hooks.obs),
        side_(side),
        hooks_(hooks),
        live_ingest_(ingest.group.count) {
    // Teardown wakes parked queue waiters through the CV instead of leaving
    // them to poll the raised flag.
    queue.bind_cancel(registry.cancel_signal());
  }
  RunFrame(const RunFrame&) = delete;
  RunFrame& operator=(const RunFrame&) = delete;

  /// Starts the run's clocks once its connections are up: the drain
  /// deadline, the watchdog over both stages' progress, and the throughput
  /// meter. Either teardown first runs `stop_intake` (a receiver stops
  /// accepting).
  void begin(std::function<void()> stop_intake = [] {}) {
    stop_intake_ = std::move(stop_intake);
    obr.gauge(std::string(side_.gauge_prefix) + ".queue_depth",
              [this] { return static_cast<double>(queue.size()); });
    if (MemoryBudget* budget = ovr.budget(); budget != nullptr) {
      obr.gauge(std::string(side_.gauge_prefix) + ".budget_bytes_in_flight",
                [budget] { return static_cast<double>(budget->used()); });
    }
    // The flush timer of the graceful drain: armed when the last ingest
    // worker stops (source exhausted or drain requested); if the queued
    // frames don't leave inside the grace window, force the teardown the
    // watchdog would have applied — but report it as a drain timeout.
    const OverloadConfig& ov = config.overload;
    if (ovr.on() && ov.drain_deadline_ms > 0) {
      drain_deadline_ = std::make_unique<DrainDeadline>(
          std::chrono::milliseconds(ov.drain_deadline_ms), [this] {
            ovr.counters().drain_timeouts.fetch_add(1, std::memory_order_relaxed);
            stop_intake_();
            registry.cancel_all();
            queue.close();
            // A raised cancel flag only aborts *waits* — frames already
            // queued would still trickle out. A forced drain drops them.
            ovr.settle_abandoned(queue);
          });
    }
    // The watchdog trips only when both stages stall for the full deadline;
    // it cancels every registered stream and its teardown closes the queue,
    // so workers blocked in push/pop/read/write all wake with clean errors.
    if (config.recovery.watchdog_ms > 0) {
      watchdog_ = std::make_unique<Watchdog>(
          std::chrono::milliseconds(config.recovery.watchdog_ms), &registry, [this] {
            fc.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
            stop_intake_();
            queue.close();
          });
      watchdog_->watch(side_.ingest.name, &ingest.progress);
      watchdog_->watch(side_.egress.name, &egress.progress);
      watchdog_->start();
    }
    meter.start();
  }

  /// Starts `stage`'s pinned workers, each running `body`. When a body
  /// returns, the last ingest worker out closes the queue and arms the drain
  /// deadline (the flush clock starts when ingest ends), and every worker
  /// adds its CPU time to the stage's busy counter.
  PinnedThreadGroup start(Stage& stage, std::function<void(StageWorker&)> body) {
    const bool is_ingest = &stage == &ingest;
    const StageSpec& spec = is_ingest ? side_.ingest : side_.egress;
    const int trace_base = is_ingest ? 0 : ingest.group.count;
    return PinnedThreadGroup(
        topo, spec.threads, static_cast<std::size_t>(stage.group.count),
        stage.group.bindings,
        [this, &stage, &spec, is_ingest, trace_base,
         body = std::move(body)](const PinnedThreadGroup::WorkerContext& ctx) {
          StageWorker worker{
              ctx.worker_index,
              static_cast<std::uint32_t>(trace_base + ctx.worker_index),
              ctx.binding.execution_domain,
              MigrationPoller(topo, hooks_.health, spec.type,
                              std::string(spec.threads) + "-" +
                                  std::to_string(ctx.worker_index) + "-migrate",
                              hooks_.recorder)};
          body(worker);
          if (is_ingest && live_ingest_.fetch_sub(1) == 1) {
            queue.close();  // the last ingest worker ends the stream
            if (drain_deadline_ != nullptr) {
              drain_deadline_->arm();  // the flush clock starts now
            }
          }
          stage.busy.add_seconds(thread_cpu_seconds());
        },
        hooks_.recorder);
  }

  /// The run's verdict, once both stages have joined. Abandoned frames
  /// settle and the budget peak is recorded first, so the counters are
  /// final whatever the verdict. A watchdog trip, then a drain timeout,
  /// explains every downstream failure it provoked and is reported instead
  /// of them; otherwise the first worker error, if any.
  Status finish() {
    ovr.settle_abandoned(queue);
    ovr.record_budget_peak();
    if (watchdog_ != nullptr) {
      watchdog_->stop();
    }
    if (drain_deadline_ != nullptr) {
      drain_deadline_->complete();
    }
    if (watchdog_ != nullptr && watchdog_->tripped()) {
      return watchdog_->trip_status();
    }
    if (drain_deadline_ != nullptr && drain_deadline_->expired()) {
      return deadline_exceeded_error(
          "graceful drain exceeded its " +
          std::to_string(config.overload.drain_deadline_ms) +
          "ms deadline; in-flight frames were forcibly dropped");
    }
    return errors.first();
  }

  const MachineTopology& topo;
  const NodeConfig& config;
  FaultCounters& fc;
  ResumeCounters& rc;
  OverloadRun ovr;
  StreamRegistry registry;
  /// Queue waits become cancellable only under overload protection; the
  /// default config keeps the pure blocking wait of the original pipeline.
  const std::atomic<bool>* qcancel;
  BoundedQueue<Message> queue;
  ErrorCollector errors;
  Stage ingest;
  Stage egress;
  std::atomic<std::uint64_t> raw_bytes{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  ObsRun obr;
  ThroughputMeter meter;

 private:
  const Side& side_;
  RunHooks hooks_;
  std::atomic<int> live_ingest_;
  std::function<void()> stop_intake_;
  std::unique_ptr<DrainDeadline> drain_deadline_;
  std::unique_ptr<Watchdog> watchdog_;
};

// ------------------------------------------------------------------- sender

/// A sender's run: the frame plus its two stage loops and what they share.
class SenderRun : public RunFrame {
 public:
  SenderRun(const MachineTopology& topo, const NodeConfig& config,
            const RunHooks& hooks, ChunkSource& source, const ConnectFn& connect,
            SenderJournal* journal_in)
      : RunFrame(topo, config, kSenderSide, hooks),
        journal(journal_in),
        source_(source),
        connect_(connect),
        codec_(codec_by_name(config.codec_name)),
        passthrough_(codec_by_id(CodecId::kNull)) {
    NS_CHECK(codec_ != nullptr, "validate() checked the codec");
    NS_CHECK(passthrough_ != nullptr, "null codec is always registered");
  }

  /// One connection to the receiver; with reconnect on, transient dial
  /// failures are retried per the retry policy.
  Result<std::unique_ptr<ByteStream>> dial() {
    if (!config.recovery.reconnect) {
      return connect_();
    }
    const std::uint64_t seed =
        0x5EEDD1A1ULL + dial_seq_.fetch_add(1, std::memory_order_relaxed);
    return with_retry(config.recovery.retry, seed, connect_, &fc.dial_retries,
                      registry.cancel_flag());
  }

  /// Compression: pull chunks, frame them, enqueue them for sending.
  void compress(StageWorker& worker);
  /// Sending: drain the queue into this worker's session.
  void send(StageWorker& worker);

  SenderJournal* const journal;
  std::vector<std::unique_ptr<ByteStream>> streams;  ///< one per send worker

 private:
  const Codec* pick_codec();
  bool shed();

  ChunkSource& source_;
  const ConnectFn& connect_;
  const Codec* codec_;
  const Codec* passthrough_;
  std::atomic<std::uint64_t> dial_seq_{0};
  std::atomic<bool> degraded_{false};  ///< the degrade latch (DESIGN.md §6)
  std::atomic<bool> shedding_{false};  ///< the shedding latch (DESIGN.md §8)
};

/// One send worker's connection (DESIGN.md §6, §8, §11): the socket, the
/// credit it holds, the peer's RESUME watermarks and the retransmission
/// window of frames the peer has not acknowledged. A reconnect replaces the
/// socket and its credit and keeps the window. The send stage loop only
/// asks it to admit, send and retain frames, and to finish the stream.
class SendSession {
 public:
  SendSession(SenderRun& run, std::unique_ptr<ByteStream> first)
      : run_(run), journal_(run.journal), resume_on_(run.config.resume.enabled()) {
    adopt(std::move(first));
  }
  ~SendSession() { retire(); }
  SendSession(const SendSession&) = delete;
  SendSession& operator=(const SendSession&) = delete;

  /// The resume handshake must land before the first frame; a peer that
  /// dies mid-handshake recycles through the same redial path as a failed
  /// send.
  Status open() {
    Status ready = handshake();
    while (!ready.is_ok() && retryable(ready)) {
      ready = redial();
    }
    return ready;
  }

  /// Whether `message` goes on the wire; always true without resume. A
  /// reconnect handshake that left retained frames unacked flushes them
  /// first, so the peer's missing window refills before new work. Replay
  /// suppression: the peer already committed everything below its
  /// watermark, so a replayed chunk under it never touches the wire — it
  /// counts as progress, but spends no credit. Anything else is journaled
  /// before the wire sees it (write-ahead: a crash between the two must not
  /// lose it untracked); a chunk already journaled-but-unacked is crash
  /// re-work.
  Result<bool> admit(const Message& message, std::uint32_t body_hash) {
    if (!resume_on_) {
      return true;
    }
    NS_RETURN_IF_ERROR(flush_replays());
    if (message.sequence < journal_->acked_watermark(message.stream_id)) {
      run_.rc.duplicates_suppressed.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::uint64_t size = message.wire_body_size();
    const bool rework = journal_->sent_unacked(message.stream_id, message.sequence);
    NS_RETURN_IF_ERROR(journal_->record_sent(message.stream_id, message.sequence,
                                             0, body_hash,
                                             static_cast<std::uint32_t>(size)));
    if (rework) {
      run_.rc.replayed_chunks.fetch_add(1, std::memory_order_relaxed);
      run_.rc.rework_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    return true;
  }

  /// Sends one message, reconnecting and re-sending on UNAVAILABLE. With
  /// credit flow control on, each attempt first waits for window on
  /// whatever connection is current (a redial resets credit, and the fresh
  /// receiver worker grants a fresh window).
  Status send_message(const Message& message, std::uint32_t body_hash) {
    while (true) {
      if (run_.ovr.credit_on()) {
        NS_RETURN_IF_ERROR(wait_for_credit());
      }
      const Status status = socket_->send(message, body_hash);
      if (status.is_ok()) {
        if (run_.ovr.credit_on()) {
          --credit_;
          run_.ovr.credit_held.fetch_sub(1, std::memory_order_relaxed);
        }
        return status;
      }
      if (!retryable(status)) {
        return status;
      }
      NS_RETURN_IF_ERROR(redial());
    }
  }

  /// Keeps a sent frame's payload until the peer's watermark passes it: the
  /// journal holds only the hash, and a receiver restart will ask for the
  /// bytes again. A no-op without resume.
  void retain(Message message) {
    if (resume_on_) {
      retained_.push_back(std::move(message));
    }
  }

  /// Sends the end-of-stream marker. It matters: without it the receiver
  /// never learns this peer is done, so it is re-sent on fresh connections
  /// until it lands (bounded by the retry policy, since a fresh connection
  /// can itself be faulted). Retained frames a reconnect handshake reported
  /// missing flush ahead of the marker — EOS after a gap would let the
  /// receiver finish with chunks permanently lost.
  Status finish() {
    const auto flush_then_mark = [&]() -> Status {
      NS_RETURN_IF_ERROR(flush_replays());
      if (socket_ == nullptr) {
        // A failed redial leaves no socket at all; report UNAVAILABLE so the
        // retry loop dials a fresh one instead of crashing.
        return unavailable_error("send: no connection for end-of-stream");
      }
      NS_RETURN_IF_ERROR(socket_->finish(0));
      return await_echo();
    };
    Status status = flush_then_mark();
    for (int attempt = 0; !status.is_ok() && retryable(status) &&
                          attempt < run_.config.recovery.retry.max_attempts;
         ++attempt) {
      status = redial();
      if (status.is_ok()) {
        status = flush_then_mark();
      }
    }
    return status;
  }

 private:
  /// A failure the session heals by redialing: a broken connection in
  /// reconnect mode, while the run is not being torn down.
  [[nodiscard]] bool retryable(const Status& status) const {
    return run_.config.recovery.reconnect &&
           status.code() == StatusCode::kUnavailable &&
           !run_.registry.cancelled();
  }

  void adopt(std::unique_ptr<ByteStream> stream) {
    raw_ = stream.get();
    socket_ = std::make_unique<PushSocket>(std::move(stream));
    run_.registry.add(raw_);
    // Every connection starts at zero credit: the receiver grants the
    // initial window on accept, so a sender that dials a pre-credit receiver
    // simply blocks — the mismatch is visible, not silently unprotected.
    // Return what this worker still held to the occupancy gauge.
    run_.ovr.credit_held.fetch_sub(static_cast<std::int64_t>(credit_),
                                   std::memory_order_relaxed);
    credit_ = 0;
  }

  void retire() {
    if (socket_ != nullptr) {
      run_.wire_bytes.fetch_add(socket_->bytes_sent(), std::memory_order_relaxed);
      run_.registry.remove(raw_);
      socket_.reset();
      raw_ = nullptr;
    }
  }

  /// Replaces the connection. A fresh connection that breaks during its
  /// handshake is replaced in turn, like any other broken connection.
  Status redial() {
    while (true) {
      retire();
      auto fresh = run_.dial();
      if (!fresh.ok()) {
        return fresh.status();
      }
      adopt(std::move(fresh).value());
      run_.fc.reconnects.fetch_add(1, std::memory_order_relaxed);
      const Status ready = handshake();
      if (ready.is_ok() || !retryable(ready)) {
        return ready;
      }
    }
  }

  /// Folds the peer's RESUME watermarks into the journal: every point is a
  /// monotone ack, so stale or repeated handshakes are harmless no-ops.
  Status merge_resume(const Message& resume) {
    auto info = parse_resume_body(ByteSpan(resume.body.data(), resume.body.size()));
    if (!info.ok()) {
      return info.status();
    }
    if (info.value().session_id != journal_->session_id()) {
      return data_loss_error("resume: peer session " +
                             std::to_string(info.value().session_id) +
                             " does not match local session " +
                             std::to_string(journal_->session_id()));
    }
    for (const ResumePoint& point : info.value().points) {
      NS_RETURN_IF_ERROR(journal_->record_acked(point.stream_id, point.watermark));
    }
    // Every ack releases retransmission memory: frames under the peer's
    // watermark are committed and will never be asked for.
    std::erase_if(retained_, [&](const Message& kept) {
      return kept.sequence < journal_->acked_watermark(kept.stream_id);
    });
    run_.rc.resume_handshakes.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
  }

  /// Dispatches one reverse-channel message: credit into the window, RESUME
  /// into the journal. Without resume, a RESUME frame means the peer has the
  /// directive on and this sender does not — a config mismatch worth
  /// failing loudly on.
  Status absorb_control(const Message& control) {
    if (control.kind == MessageKind::kCredit) {
      credit_ += control.sequence;
      run_.ovr.credit_held.fetch_add(static_cast<std::int64_t>(control.sequence),
                                     std::memory_order_relaxed);
      return Status::ok();
    }
    if (!resume_on_) {
      return data_loss_error(
          "resume frame from peer, but this sender has no resume directive");
    }
    return merge_resume(control);
  }

  /// The next reverse-channel message. A corrupt one ends this connection,
  /// not the run, as a receiver ends a connection at its first corrupt
  /// message: in reconnect mode its DATA_LOSS comes back as UNAVAILABLE, so
  /// every caller redials as it does for a broken connection. A fault in a
  /// well-formed message (merge_resume's session mismatch) stays fatal.
  Result<Message> recv_control() {
    auto control = socket_->recv_control();
    if (!control.ok() && control.status().code() == StatusCode::kDataLoss &&
        run_.config.recovery.reconnect) {
      return unavailable_error("reverse channel corrupt: " + control.status().message());
    }
    return control;
  }

  /// Blocks until the current connection's RESUME handshake has been merged
  /// (credit grants arriving first are banked, not lost). A no-op without
  /// resume: the receiver then never sends one.
  Status handshake() {
    if (!resume_on_) {
      return Status::ok();
    }
    while (true) {
      auto control = recv_control();
      if (!control.ok()) {
        return control.status();
      }
      NS_RETURN_IF_ERROR(absorb_control(control.value()));
      if (control.value().kind == MessageKind::kResume) {
        // Whatever the merge did not prune, the peer lost: schedule the
        // survivors for retransmission on this connection.
        replay_pending_ = !retained_.empty();
        return Status::ok();
      }
    }
  }

  /// Blocks until the current connection has credit. The stall *is* the
  /// flow control: an out-of-credit sender parks on the reverse channel
  /// until the receiver's consumption frees window. Broken connections
  /// recycle exactly like send failures.
  Status wait_for_credit() {
    if (credit_ > 0) {
      return Status::ok();
    }
    run_.ovr.counters().credit_stalls.fetch_add(1, std::memory_order_relaxed);
    while (credit_ == 0) {
      auto control = recv_control();
      if (!control.ok()) {
        if (retryable(control.status())) {
          NS_RETURN_IF_ERROR(redial());
          continue;
        }
        return control.status();
      }
      NS_RETURN_IF_ERROR(absorb_control(control.value()));
    }
    return Status::ok();
  }

  /// In reconnect mode the marker has landed only once the receiver echoes
  /// it. A receiver cuts a connection at its first corrupt message and
  /// never reads the marker behind it, so a connection that closes without
  /// the echo is re-dialed: the handshake replays what the cut lost, and
  /// the marker goes again.
  Status await_echo() {
    if (!run_.config.recovery.reconnect) {
      return Status::ok();
    }
    while (true) {
      auto control = recv_control();
      if (!control.ok()) {
        return control.status();
      }
      if (control.value().end_of_stream) {
        return Status::ok();
      }
      NS_RETURN_IF_ERROR(absorb_control(control.value()));
    }
  }

  /// Re-sends every retained frame the latest reconnect handshake left
  /// unacked. A send in here can itself redial — the nested handshake prunes
  /// the window and re-raises the flag, so each scan restarts from the
  /// front whenever that happens; re-sending a frame twice is harmless (the
  /// receiver's ledgers dedup).
  Status flush_replays() {
    while (replay_pending_) {
      replay_pending_ = false;
      for (std::size_t i = 0; i < retained_.size() && !replay_pending_;) {
        if (retained_[i].sequence <
            journal_->acked_watermark(retained_[i].stream_id)) {
          retained_.erase(retained_.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        // A redial inside send_message prunes the window under us; send a
        // copy so the frame outlives any mid-send erase.
        const Message frame = retained_[i];
        run_.rc.replayed_chunks.fetch_add(1, std::memory_order_relaxed);
        run_.rc.rework_bytes.fetch_add(frame.wire_body_size(),
                                       std::memory_order_relaxed);
        NS_RETURN_IF_ERROR(send_message(frame, message_body_hash(frame)));
        ++i;
      }
    }
    return Status::ok();
  }

  SenderRun& run_;
  SenderJournal* journal_;
  const bool resume_on_;
  std::unique_ptr<PushSocket> socket_;
  ByteStream* raw_ = nullptr;  // registry handle; owned by socket_
  std::uint64_t credit_ = 0;   // messages of credit left on this connection
  /// Retransmission window: payload copies of every journaled-but-unacked
  /// frame this worker has put on the wire. The journal records only
  /// hashes, so when a receiver restart discards frames that reached its
  /// memory but never its sink, the bytes must come from here. Memory is
  /// bounded by the unacked window — the receiver's ack cadence prunes it
  /// through merge_resume — which is exactly the re-work bound the resume
  /// contract quotes.
  std::deque<Message> retained_;
  /// Raised by a reconnect handshake whose watermarks left retained frames
  /// unacked: the peer never committed them, so they are re-sent before any
  /// new work touches the fresh connection's window.
  bool replay_pending_ = false;
};

void SenderRun::compress(StageWorker& worker) {
  MemoryBudget* budget = ovr.budget();
  const ShedPolicy policy = config.overload.shed_policy;
  while (true) {
    worker.migrate.poll();
    if (ovr.drain_requested()) {
      ovr.note_drain_request();
      break;  // stop ingesting; queued frames flush under the deadline
    }
    const StepTimer generate(obr, worker);
    auto chunk = source_.next();
    if (!chunk) {
      break;
    }
    generate.note(obs::Stage::kGenerate, chunk->stream_id, chunk->sequence);
    const Codec* active = pick_codec();
    // The chunk's buffer moves into the frame: a stored payload rides to
    // the socket as the chunk's own bytes, hashed in place.
    raw_bytes.fetch_add(chunk->size(), std::memory_order_relaxed);
    Message message;
    message.stream_id = chunk->stream_id;
    message.sequence = chunk->sequence;
    const StepTimer encode(obr, worker);
    SplitFrame split = encode_frame_split(*active, std::move(chunk->payload));
    message.frame_header = split.header;
    message.body = std::move(split.payload);
    encode.note(obs::Stage::kCompress, chunk->stream_id, chunk->sequence);
    ingest.progress.fetch_add(1, std::memory_order_relaxed);
    if (shed()) {
      continue;
    }
    // Budget admission: the charge is the encoded body, released when the
    // frame leaves through the send stage. Blocking policies wait for
    // releases (backpressure); shedding policies convert a full ledger
    // into a shed instead of a stall.
    const std::uint64_t charge = message.wire_body_size();
    OverloadCounters& oc = ovr.counters();
    if (budget != nullptr) {
      if (policy == ShedPolicy::kBlock) {
        if (!budget
                 ->acquire(message.stream_id, charge,
                           registry.cancel_flag(), &oc.budget_stalls)
                 .is_ok()) {
          break;  // cancelled mid-admission: pipeline is tearing down
        }
      } else if (!budget->try_acquire(message.stream_id, charge).is_ok()) {
        oc.budget_rejections.fetch_add(1, std::memory_order_relaxed);
        oc.shed_newest.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    }
    const StepTimer enqueue(obr, worker);
    if (!queue.push(std::move(message), qcancel).is_ok()) {
      ovr.release(chunk->stream_id, charge);
      break;  // pipeline shutting down (peer failure)
    }
    // The enqueue span's duration is pure backpressure: how long the
    // frame waited for space in the compress->send queue.
    enqueue.note(obs::Stage::kEnqueue, chunk->stream_id, chunk->sequence);
  }
}

void SenderRun::send(StageWorker& worker) {
  SendSession session(*this, std::move(streams[static_cast<std::size_t>(worker.index)]));
  const Status ready = session.open();
  if (!ready.is_ok()) {
    errors.record(ready);
    queue.close();  // unblock the rest of the pipeline
  }
  while (ready.is_ok()) {
    auto message = queue.pop(qcancel);
    if (!message) {
      break;
    }
    worker.migrate.poll();
    const std::uint64_t charge = message->wire_body_size();
    const std::uint32_t charged_stream = message->stream_id;
    // One digest per data frame: the resume journal records it and the
    // wire header carries it.
    const std::uint32_t body_hash = message_body_hash(*message);
    const Result<bool> admitted = session.admit(*message, body_hash);
    Status status = admitted.status();
    if (admitted.ok() && admitted.value()) {
      const StepTimer step(obr, worker);
      status = session.send_message(*message, body_hash);
      step.note(obs::Stage::kSend, message->stream_id, message->sequence);
    }
    ovr.release(charged_stream, charge);  // the frame left the queue
    if (!status.is_ok()) {
      errors.record(status);
      queue.close();  // unblock the rest of the pipeline
      break;
    }
    if (admitted.value()) {
      session.retain(std::move(*message));
    }
    egress.progress.fetch_add(1, std::memory_order_relaxed);
  }
  if (ready.is_ok()) {
    errors.record(session.finish());
  }
}

/// Under backlog (send stage slower than compress), degrade to the
/// passthrough codec until the queue drains to half the watermark —
/// shipping bigger frames beats stalling the source when the bottleneck
/// is compression.
const Codec* SenderRun::pick_codec() {
  const std::size_t watermark = config.recovery.degrade_watermark;
  if (watermark == 0) {
    return codec_;
  }
  const std::size_t depth = queue.size();
  if (depth >= watermark) {
    degraded_.store(true, std::memory_order_relaxed);
  } else if (depth <= watermark / 2) {
    degraded_.store(false, std::memory_order_relaxed);
  }
  if (!degraded_.load(std::memory_order_relaxed)) {
    return codec_;
  }
  fc.degraded_chunks.fetch_add(1, std::memory_order_relaxed);
  return passthrough_;
}

/// Load shedding: between the watermarks (a hysteresis latch, like the
/// degrade latch) shed=drop_newest drops the incoming frame. True when the
/// incoming frame is shed.
bool SenderRun::shed() {
  const OverloadConfig& ov = config.overload;
  if (!ovr.on() || ov.high_watermark == 0 ||
      ov.shed_policy == ShedPolicy::kBlock) {
    return false;
  }
  const std::size_t depth = queue.size();
  if (depth >= ov.high_watermark) {
    shedding_.store(true, std::memory_order_relaxed);
  } else if (depth <= ov.low_watermark) {
    shedding_.store(false, std::memory_order_relaxed);
  }
  if (!shedding_.load(std::memory_order_relaxed)) {
    return false;
  }
  ovr.counters().shed_newest.fetch_add(1, std::memory_order_relaxed);
  return true;  // the incoming frame is the casualty
}

// ----------------------------------------------------------------- receiver

/// A receiver's run: the frame plus its two stage loops and what they share.
class ReceiverRun : public RunFrame {
 public:
  ReceiverRun(const MachineTopology& topo, const NodeConfig& config,
              const RunHooks& hooks, Listener& listener_in, ChunkSink& sink,
              ReceiverJournal* journal_in)
      : RunFrame(topo, config, kReceiverSide, hooks),
        listener(listener_in),
        journal(journal_in),
        sink_(sink) {}

  /// Receiving: admit each data frame off this worker's session, charge it
  /// to the budget and queue it for decompression.
  void receive(StageWorker& worker);
  /// Decompression: decode each queued frame, deliver its chunk to the sink
  /// and, with resume on, journal the delivery.
  void decompress(StageWorker& worker);

  Listener& listener;
  ReceiverJournal* const journal;
  std::vector<std::unique_ptr<ByteStream>> streams;  ///< one per receive worker
  /// Every peer ends its stream with one end-of-stream marker. In reconnect
  /// mode the run is complete when one marker per pre-established
  /// connection has arrived; whichever worker collects the last one raises
  /// `done` and closes the listener, so workers parked in accept() exit too.
  std::atomic<int> eos_seen{0};
  std::atomic<bool> done{false};
  /// Receive-time dedup (reconnect mode): a re-sent in-flight message may
  /// repeat one that did arrive (the break was reported after delivery).
  std::mutex received_mu;
  SequenceLedger received;
  std::atomic<std::uint64_t> corrupt_frames{0};

 private:
  bool admit(const Message& message);

  ChunkSink& sink_;
};

/// One receive worker's connection (DESIGN.md §6, §8, §11). A fresh
/// connection opens with this receiver's RESUME watermarks and the peer's
/// initial credit window; consumed frames replenish the window and
/// piggyback watermarks. When a connection ends — broken in reconnect mode,
/// or finished with its end-of-stream marker — the session moves the worker
/// onto the next accepted connection, until every peer's marker is in.
class ReceiveSession {
 public:
  ReceiveSession(ReceiverRun& run, std::unique_ptr<ByteStream> first)
      : run_(run), resume_on_(run.config.resume.enabled()) {
    adopt(std::move(first));
  }
  ~ReceiveSession() { retire(); }
  ReceiveSession(const ReceiveSession&) = delete;
  ReceiveSession& operator=(const ReceiveSession&) = delete;

  /// The next data message, or nullopt once this worker is done: a drain
  /// was requested, every marker arrived, the run is being torn down, or a
  /// connection failed for good (the failure is recorded).
  std::optional<Message> next(StageWorker& worker) {
    while (true) {
      worker.migrate.poll();
      if (run_.ovr.drain_requested()) {
        run_.ovr.note_drain_request();
        return std::nullopt;  // stop ingesting; queued frames flush under the deadline
      }
      const StepTimer step(run_.obr, worker);
      auto message = socket_->recv();
      if (!message.ok()) {
        if (!end_connection(message.status())) {
          return std::nullopt;
        }
        continue;
      }
      run_.ingest.progress.fetch_add(1, std::memory_order_relaxed);
      if (message.value().end_of_stream) {
        // A marker whose echo cannot be written counts as not received:
        // the sender re-dials and sends it again, so it is counted once.
        if (!recycle(/*got_eos=*/socket_->echo_end_of_stream().is_ok())) {
          return std::nullopt;
        }
        continue;
      }
      step.note(obs::Stage::kReceive, message.value().stream_id,
                message.value().sequence);
      return std::move(message).value();
    }
  }

  /// Counts one consumed data frame, replenishes the peer's window once
  /// half of it has been drained, and piggybacks a watermark RESUME every
  /// ack_interval frames so the peer's journal can prune. Every consumed
  /// frame counts — duplicates included — because the peer spent credit to
  /// send it; skipping any would leak window and eventually wedge the
  /// connection.
  void consume_credit() {
    const OverloadConfig& ov = run_.config.overload;
    if (run_.ovr.credit_on()) {
      ++consumed_;
      const std::uint64_t batch = std::max<std::uint64_t>(1, ov.credit_window / 2);
      if (consumed_ >= batch) {
        if (socket_->send_credit(consumed_).is_ok()) {
          run_.ovr.counters().credit_grants.fetch_add(1, std::memory_order_relaxed);
        }
        consumed_ = 0;
      }
    }
    const std::uint64_t interval = run_.config.resume.ack_interval;
    if (resume_on_ && interval > 0 && ++resume_tick_ >= interval) {
      resume_tick_ = 0;
      (void)socket_->send_resume(run_.journal->session_id(), resume_points());
    }
  }

 private:
  /// The current committed watermarks as a RESUME payload.
  [[nodiscard]] std::vector<ResumePoint> resume_points() const {
    std::vector<ResumePoint> points;
    for (const auto& [stream_id, mark] : run_.journal->watermarks()) {
      points.push_back(ResumePoint{stream_id, mark});
    }
    return points;
  }

  void adopt(std::unique_ptr<ByteStream> stream) {
    raw_ = stream.get();
    socket_ = std::make_unique<PullSocket>(std::move(stream));
    run_.registry.add(raw_);
    consumed_ = 0;
    resume_tick_ = 0;
    if (resume_on_ &&
        socket_->send_resume(run_.journal->session_id(), resume_points()).is_ok()) {
      // The handshake goes first: the peer sender blocks on it before its
      // first frame, so the resume point always precedes data.
      run_.rc.resume_handshakes.fetch_add(1, std::memory_order_relaxed);
    }
    if (run_.ovr.credit_on() &&
        socket_->send_credit(run_.config.overload.credit_window).is_ok()) {
      // The initial window: the peer sender starts at zero credit and blocks
      // until this grant lands.
      run_.ovr.counters().credit_grants.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void retire() {
    if (socket_ != nullptr) {
      run_.wire_bytes.fetch_add(socket_->bytes_received(), std::memory_order_relaxed);
      run_.registry.remove(raw_);
      socket_.reset();
      raw_ = nullptr;
    }
  }

  /// Handles a failed recv. In reconnect mode a broken connection, or one
  /// that carried a corrupt message, recycles; otherwise the worker stops,
  /// recording why the stream ended when that is an error. Without
  /// reconnect a peer disconnect is fatal (RecoveryConfig): a connection
  /// that ends before its end-of-stream marker may have lost chunks. A local watchdog, drain deadline or
  /// cancel raised the cancel latch first and keeps its own verdict.
  bool end_connection(const Status& status) {
    const bool reconnect = run_.config.recovery.reconnect;
    const bool cancelled = run_.registry.cancelled();
    const StatusCode code = status.code();
    if (reconnect && !cancelled &&
        (code == StatusCode::kUnavailable || code == StatusCode::kDataLoss)) {
      return recycle(/*got_eos=*/false);
    }
    if (code != StatusCode::kUnavailable) {
      run_.errors.record(status);
    } else if (!reconnect && !cancelled) {
      run_.errors.record(unavailable_error(
          "receive: connection ended before its end-of-stream marker (" +
          status.message() + ")"));
    }
    return false;
  }

  /// Retires the ended connection and, in reconnect mode, serves the next
  /// one: a peer's re-dial, or a later peer's stream after this one's
  /// marker. Injected accept failures are transient — accept retries until
  /// the listener closes. False when the worker is done.
  bool recycle(bool got_eos) {
    retire();
    if (!run_.config.recovery.reconnect ||
        run_.done.load(std::memory_order_acquire) || run_.registry.cancelled()) {
      return false;
    }
    if (got_eos && run_.eos_seen.fetch_add(1, std::memory_order_acq_rel) + 1 >=
                       run_.ingest.group.count) {
      run_.done.store(true, std::memory_order_release);
      run_.listener.close();  // wake workers parked in accept()
      return false;
    }
    while (true) {
      auto next = run_.listener.accept();
      if (next.ok()) {
        adopt(std::move(next).value());
        if (!got_eos) {
          run_.fc.connections_recycled.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
      }
      if (run_.done.load(std::memory_order_acquire) || run_.registry.cancelled() ||
          next.status().code() != StatusCode::kUnavailable) {
        return false;
      }
    }
  }

  ReceiverRun& run_;
  const bool resume_on_;
  std::unique_ptr<PullSocket> socket_;
  ByteStream* raw_ = nullptr;  // registry handle; owned by socket_
  /// Data frames consumed off the current connection since the last credit
  /// grant; replenished in batches of half the window so grant frames stay
  /// rare relative to data frames.
  std::uint64_t consumed_ = 0;
  std::uint64_t resume_tick_ = 0;  // data frames since the last RESUME piggyback
};

void ReceiverRun::receive(StageWorker& worker) {
  ReceiveSession session(*this,
                         std::move(streams[static_cast<std::size_t>(worker.index)]));
  MemoryBudget* budget = ovr.budget();
  while (auto message = session.next(worker)) {
    if (!admit(*message)) {
      session.consume_credit();
      continue;
    }
    const std::uint32_t stream = message->stream_id;
    const std::uint64_t sequence = message->sequence;
    // Charge the frame to the in-flight ledger before it occupies queue
    // memory; released when the decompress stage disposes of it (delivery
    // or corruption drop).
    const std::uint64_t charge = message->wire_body_size();
    if (budget != nullptr &&
        !budget
             ->acquire(stream, charge, registry.cancel_flag(),
                       &ovr.counters().budget_stalls)
             .is_ok()) {
      break;  // cancelled mid-admission: pipeline is tearing down
    }
    const StepTimer enqueue(obr, worker);
    if (!queue.push(std::move(*message), qcancel).is_ok()) {
      ovr.release(stream, charge);
      break;  // pipeline shutting down
    }
    // Pure backpressure: the wait for receive->decompress space.
    enqueue.note(obs::Stage::kEnqueue, stream, sequence);
    session.consume_credit();
  }
}

/// Whether a received data frame goes on to the queue. Dropped and counted
/// here: a repeat within this run, and a replay of a chunk committed in an
/// earlier process lifetime.
bool ReceiverRun::admit(const Message& message) {
  if (config.recovery.reconnect) {
    const std::lock_guard<std::mutex> lock(received_mu);
    if (!received.insert(message.stream_id, message.sequence)) {
      fc.duplicate_frames.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  // The durable half of exactly-once: a replay of a chunk this receiver
  // committed in a *previous* process lifetime is invisible to the
  // receive-time ledger but recorded in the journal's delivery ledger.
  if (config.resume.enabled() &&
      journal->seen(message.stream_id, message.sequence)) {
    rc.duplicate_deliveries_suppressed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void ReceiverRun::decompress(StageWorker& worker) {
  int consecutive_corrupt = 0;
  while (auto message = queue.pop(qcancel)) {
    worker.migrate.poll();
    // Whatever happens to this frame below — delivery or corruption drop —
    // its ledger charge is returned exactly once.
    const std::uint64_t charge = message->wire_body_size();
    const std::uint32_t stream = message->stream_id;
    const std::uint64_t sequence = message->sequence;
    const StepTimer decode(obr, worker);
    auto content = decode_content(*message);
    if (!content.ok()) {
      corrupt_frames.fetch_add(1, std::memory_order_relaxed);
      fc.corrupt_frames.fetch_add(1, std::memory_order_relaxed);
      ovr.release(stream, charge);
      // Isolated corruption is dropped and counted; a run of it means the
      // stream itself is bad — give up with the real error.
      if (++consecutive_corrupt >= kMaxConsecutiveCorrupt) {
        errors.record(data_loss_error(std::to_string(consecutive_corrupt) +
                                            " consecutive corrupt frames: " +
                                            content.status().message()));
        queue.close();
        break;
      }
      continue;  // drop the frame; keep the stream alive
    }
    decode.note(obs::Stage::kDecompress, stream, sequence);
    consecutive_corrupt = 0;
    Chunk chunk;
    chunk.stream_id = stream;
    chunk.sequence = sequence;
    chunk.payload = std::move(content).value();
    raw_bytes.fetch_add(chunk.size(), std::memory_order_relaxed);
    egress.progress.fetch_add(1, std::memory_order_relaxed);
    const StepTimer deliver(obr, worker);
    sink_.deliver(std::move(chunk));
    deliver.note(obs::Stage::kSink, stream, sequence);
    // Deliver-then-journal: under the chunk-atomic crash model a death
    // between the two re-delivers this chunk on resume rather than losing
    // it — the sink sees at-least-once, the ledger converts it to
    // exactly-once for every chunk it managed to record.
    if (config.resume.enabled()) {
      const Status committed = journal->record_delivered(stream, sequence);
      if (!committed.is_ok()) {
        errors.record(committed);
        ovr.release(stream, charge);
        queue.close();
        break;
      }
    }
    ovr.release(stream, charge);
  }
}

}  // namespace

TomoChunkSource::TomoChunkSource(TomoConfig config, std::uint32_t stream_id,
                                 std::uint64_t count)
    : generator_(config), stream_id_(stream_id), count_(count) {}

std::optional<Chunk> TomoChunkSource::next() {
  const std::uint64_t index = issued_.fetch_add(1, std::memory_order_relaxed);
  if (index >= count_) {
    return std::nullopt;
  }
  return generator_.chunk(stream_id_, index);
}

void CountingSink::deliver(Chunk chunk) {
  chunks_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(chunk.size(), std::memory_order_relaxed);
}

void DemuxSink::route(std::uint32_t stream_id, ChunkSink* sink) {
  NS_CHECK(sink != nullptr, "DemuxSink route needs a sink");
  routes_[stream_id] = sink;
}

void DemuxSink::set_fallback(ChunkSink* sink) { fallback_ = sink; }

void DemuxSink::deliver(Chunk chunk) {
  const auto it = routes_.find(chunk.stream_id);
  if (it != routes_.end()) {
    it->second->deliver(std::move(chunk));
    return;
  }
  if (fallback_ != nullptr) {
    fallback_->deliver(std::move(chunk));
    return;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
}

StreamSender::StreamSender(const MachineTopology& topo, NodeConfig config)
    : topo_(topo), config_(std::move(config)) {
  NS_CHECK(config_.role == NodeRole::kSender, "StreamSender needs a sender config");
}

Result<SenderStats> StreamSender::run(ChunkSource& source, const ConnectFn& connect,
                                      PlacementRecorder* recorder,
                                      FaultCounters* faults,
                                      OverloadHooks overload,
                                      HealthHooks health,
                                      ObsHooks obs_hooks,
                                      ResumeHooks resume) {
  NS_RETURN_IF_ERROR(RunFrame::check(topo_, config_, kSenderSide));
  // Crash resumption (DESIGN.md §11): with the resume directive on, every
  // chunk is journaled before it reaches the wire, and each fresh connection
  // starts with the receiver's RESUME handshake telling this sender which
  // sequences the peer already committed — those are suppressed, bounding a
  // restart's re-work to the unacked window.
  if (config_.resume.enabled() && resume.sender_journal == nullptr) {
    return invalid_argument_error(
        "resume config needs a recovered SenderJournal in ResumeHooks");
  }
  SenderRun sender(topo_, config_,
                {recorder, faults, overload, health, obs_hooks, resume.counters},
                source, connect, resume.sender_journal);

  // Establish every connection before starting the clock, mirroring the
  // paper's measurement of steady-state streaming (not connection setup).
  for (int i = 0; i < sender.egress.group.count; ++i) {
    auto stream = sender.dial();
    if (!stream.ok()) {
      return stream.status();
    }
    sender.streams.push_back(std::move(stream).value());
  }
  if (sender.ovr.credit_on()) {
    sender.obr.gauge("sender.credit_available", [&sender] {
      return static_cast<double>(sender.ovr.credit_held.load(std::memory_order_relaxed));
    });
  }
  if (config_.resume.enabled()) {
    SenderJournal* journal = sender.journal;
    sender.obr.gauge("sender.journal_unacked_chunks", [journal] {
      return static_cast<double>(journal->unacked_count());
    });
    sender.obr.gauge("sender.journal_unacked_bytes", [journal] {
      return static_cast<double>(journal->unacked_bytes());
    });
  }
  sender.begin();

  PinnedThreadGroup send_workers = sender.start(
      sender.egress, [&sender](StageWorker& worker) { sender.send(worker); });
  PinnedThreadGroup compress_workers = sender.start(
      sender.ingest, [&sender](StageWorker& worker) { sender.compress(worker); });
  compress_workers.join();
  send_workers.join();
  NS_RETURN_IF_ERROR(sender.finish());

  SenderStats stats;
  stats.chunks = sender.ingest.progress.load();
  stats.raw_bytes = sender.raw_bytes.load();
  stats.wire_bytes = sender.wire_bytes.load();
  stats.elapsed_seconds = sender.meter.elapsed_seconds();
  stats.compress_busy_seconds = sender.ingest.busy.seconds();
  stats.send_busy_seconds = sender.egress.busy.seconds();
  stats.compress_threads = sender.ingest.group.count;
  stats.send_threads = sender.egress.group.count;
  return stats;
}

StreamReceiver::StreamReceiver(const MachineTopology& topo, NodeConfig config)
    : topo_(topo), config_(std::move(config)) {
  NS_CHECK(config_.role == NodeRole::kReceiver, "StreamReceiver needs a receiver config");
}

Result<ReceiverStats> StreamReceiver::run(Listener& listener, ChunkSink& sink,
                                          PlacementRecorder* recorder,
                                          FaultCounters* faults,
                                          OverloadHooks overload,
                                          HealthHooks health,
                                          ObsHooks obs_hooks,
                                          ResumeHooks resume) {
  NS_RETURN_IF_ERROR(RunFrame::check(topo_, config_, kReceiverSide));
  // Crash resumption (DESIGN.md §11): with the resume directive on, every
  // accepted connection opens with a RESUME handshake carrying this
  // receiver's committed watermarks, the journal's delivery ledger backs the
  // receive-time ledger across restarts, and each delivery is journaled
  // after the sink commits it.
  if (config_.resume.enabled() && resume.receiver_journal == nullptr) {
    return invalid_argument_error(
        "resume config needs a recovered ReceiverJournal in ResumeHooks");
  }
  ReceiverRun receiver(topo_, config_,
                  {recorder, faults, overload, health, obs_hooks, resume.counters},
                  listener, sink, resume.receiver_journal);

  // One accepted connection per receiving thread, before the clock starts.
  for (int i = 0; i < receiver.ingest.group.count; ++i) {
    auto stream = listener.accept();
    if (!stream.ok()) {
      return stream.status();
    }
    receiver.streams.push_back(std::move(stream).value());
  }
  if (config_.resume.enabled()) {
    ReceiverJournal* journal = receiver.journal;
    receiver.obr.gauge("receiver.journal_streams", [journal] {
      return static_cast<double>(journal->watermarks().size());
    });
  }
  receiver.begin([&receiver] {
    receiver.done.store(true, std::memory_order_release);
    receiver.listener.close();
  });

  PinnedThreadGroup receive_workers = receiver.start(
      receiver.ingest, [&receiver](StageWorker& worker) { receiver.receive(worker); });
  PinnedThreadGroup decompress_workers = receiver.start(
      receiver.egress, [&receiver](StageWorker& worker) { receiver.decompress(worker); });
  receive_workers.join();
  decompress_workers.join();
  NS_RETURN_IF_ERROR(receiver.finish());

  ReceiverStats stats;
  stats.chunks = receiver.egress.progress.load();
  stats.raw_bytes = receiver.raw_bytes.load();
  stats.wire_bytes = receiver.wire_bytes.load();
  stats.corrupt_frames = receiver.corrupt_frames.load();
  stats.elapsed_seconds = receiver.meter.elapsed_seconds();
  stats.receive_busy_seconds = receiver.ingest.busy.seconds();
  stats.decompress_busy_seconds = receiver.egress.busy.seconds();
  stats.receive_threads = receiver.ingest.group.count;
  stats.decompress_threads = receiver.egress.group.count;
  return stats;
}

PipelineObservation make_observation(const SenderStats& sender,
                                     const ReceiverStats& receiver,
                                     const OverloadCountersSnapshot* overload,
                                     const obs::StageLatencies* latencies,
                                     const ResumeCountersSnapshot* resume) {
  const auto stage = [](double busy, int threads, double elapsed) {
    StageObservation observation;
    observation.threads = threads;
    observation.utilization =
        threads > 0 && elapsed > 0
            ? std::min(1.0, busy / (elapsed * static_cast<double>(threads)))
            : 0.0;
    return observation;
  };
  PipelineObservation observation;
  observation.raw_throughput = receiver.raw_rate();
  observation.compress = stage(sender.compress_busy_seconds, sender.compress_threads,
                               sender.elapsed_seconds);
  observation.send =
      stage(sender.send_busy_seconds, sender.send_threads, sender.elapsed_seconds);
  observation.receive = stage(receiver.receive_busy_seconds, receiver.receive_threads,
                              receiver.elapsed_seconds);
  observation.decompress =
      stage(receiver.decompress_busy_seconds, receiver.decompress_threads,
            receiver.elapsed_seconds);
  if (overload != nullptr) {
    observation.overload.shed_chunks = overload->shed_newest;
    observation.overload.credit_stalls = overload->credit_stalls;
    observation.overload.budget_stalls = overload->budget_stalls;
    observation.overload.peak_bytes_in_flight = overload->peak_bytes_in_flight;
  }
  if (latencies != nullptr) {
    observation.latency.compress = latencies->stage_snapshot(obs::Stage::kCompress);
    observation.latency.send = latencies->stage_snapshot(obs::Stage::kSend);
    observation.latency.receive = latencies->stage_snapshot(obs::Stage::kReceive);
    observation.latency.decompress =
        latencies->stage_snapshot(obs::Stage::kDecompress);
  }
  if (resume != nullptr) {
    observation.resume.resume_handshakes = resume->resume_handshakes;
    observation.resume.duplicates_suppressed = resume->duplicates_suppressed;
    observation.resume.duplicate_deliveries_suppressed =
        resume->duplicate_deliveries_suppressed;
    observation.resume.replayed_chunks = resume->replayed_chunks;
    observation.resume.rework_bytes = resume->rework_bytes;
  }
  return observation;
}

}  // namespace numastream
