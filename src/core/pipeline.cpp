#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/xxhash.h"
#include "common/assert.h"
#include "common/retry.h"
#include "concurrency/thread_pool.h"
#include "core/advisor.h"
#include "core/journal.h"
#include "core/stage_channel.h"
#include "core/watchdog.h"
#include "data/chunk_pool.h"
#include "metrics/fastpath_counters.h"
#include "metrics/resume_counters.h"
#include "metrics/throughput.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace numastream {
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

  /// Copies the ledger's high-water mark into the counters (end of run).
  void record_budget_peak() {
    if (budget_ != nullptr) {
      counters().record_peak(budget_->peak());
    }
  }

  /// Discards frames abandoned in `queue` at teardown and releases their
  /// charges, so a shared ledger is not leaked dry by an aborted run.
  void settle_abandoned(StageChannel<Message>& queue) {
    while (auto leftover = queue.try_pop_any()) {
      if (budget_ != nullptr) {
        budget_->release(leftover->stream_id, leftover->body.size());
      }
    }
  }

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
/// unless the config's health directive is on and a MigrationCoordinator was
/// supplied; enabled, the fast path is one atomic load per chunk. When a
/// request arrives the worker re-pins *itself* through the affinity layer:
/// the chunk in hand finished first, so migration never drops or reorders
/// work, and every queue/credit/budget invariant is untouched.
class MigrationPoller {
 public:
  MigrationPoller(const MachineTopology& topo, const HealthHooks& hooks,
                  bool enabled, TaskType type, std::string task_name,
                  PlacementRecorder* recorder)
      : topo_(topo),
        hooks_(hooks),
        on_(enabled && hooks.migrations != nullptr),
        type_(type),
        task_name_(std::move(task_name)),
        recorder_(recorder) {}

  void poll() {
    if (!on_) {
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
  bool on_;
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
  NS_RETURN_IF_ERROR(config_.validate(topo_));
  const Codec* codec = codec_by_name(config_.codec_name);
  NS_CHECK(codec != nullptr, "validate() checked the codec");
  const Codec* passthrough = codec_by_id(CodecId::kNull);
  NS_CHECK(passthrough != nullptr, "null codec is always registered");

  const GroupSpec compress = collect_group(config_, TaskType::kCompress);
  const GroupSpec send = collect_group(config_, TaskType::kSend);
  if (compress.count <= 0 || send.count <= 0) {
    return invalid_argument_error("sender config needs compress and send tasks");
  }

  const RecoveryConfig& recovery = config_.recovery;
  FaultCounters scratch_counters;  // keeps the worker code null-free
  FaultCounters& fc = faults != nullptr ? *faults : scratch_counters;
  const OverloadConfig& ov = config_.overload;
  OverloadRun ovr(ov, overload);
  OverloadCounters& oc = ovr.counters();
  MemoryBudget* budget = ovr.budget();
  const bool health_on = config_.health.enabled();
  // Crash resumption (DESIGN.md §11): with the resume directive on, every
  // chunk is journaled before it reaches the wire, and each fresh connection
  // starts with the receiver's RESUME handshake telling this sender which
  // sequences the peer already committed — those are suppressed, bounding a
  // restart's re-work to the unacked window.
  const ResumeConfig& rs = config_.resume;
  SenderJournal* journal = resume.sender_journal;
  if (rs.enabled() && journal == nullptr) {
    return invalid_argument_error(
        "resume config needs a recovered SenderJournal in ResumeHooks");
  }
  const bool resume_on = rs.enabled();
  ResumeCounters resume_scratch;
  ResumeCounters& rc =
      resume.counters != nullptr ? *resume.counters : resume_scratch;
  StreamRegistry registry;
  // Queue waits become cancellable only under overload protection; the
  // default config keeps the pure blocking wait of the original pipeline.
  const std::atomic<bool>* qcancel = ovr.on() ? registry.cancel_flag() : nullptr;
  std::atomic<std::uint64_t> dial_seq{0};
  const auto dial = [&]() -> Result<std::unique_ptr<ByteStream>> {
    if (!recovery.reconnect) {
      return connect();
    }
    const std::uint64_t seed =
        0x5EEDD1A1ULL + dial_seq.fetch_add(1, std::memory_order_relaxed);
    return with_retry(recovery.retry, seed, connect, &fc.dial_retries,
                      registry.cancel_flag());
  };

  // Establish every connection before starting the clock, mirroring the
  // paper's measurement of steady-state streaming (not connection setup).
  std::vector<std::unique_ptr<ByteStream>> streams;
  streams.reserve(static_cast<std::size_t>(send.count));
  for (int i = 0; i < send.count; ++i) {
    auto stream = dial();
    if (!stream.ok()) {
      return stream.status();
    }
    streams.push_back(std::move(stream).value());
  }

  // The fastpath directive (DESIGN.md §15): rings swaps the handoff below
  // for per-consumer lock-free MPSC rings; pool_buffers keeps retired chunk
  // buffers on NUMA-local shelves so steady state allocates each one once.
  const FastPathConfig& fp = config_.fastpath;
  FastPathCounters fastpath_counters;
  std::unique_ptr<ChunkPool> pool;
  if (fp.pool_buffers > 0) {
    pool = std::make_unique<ChunkPool>(
        std::max<std::size_t>(1, topo_.domain_count()), fp.pool_buffers,
        &fastpath_counters);
  }
  StageChannel<Message> queue(config_.queue_capacity,
                              static_cast<std::size_t>(send.count), fp.rings,
                              &fastpath_counters);
  // Teardown wakes parked queue waiters through the CV instead of leaving
  // them to poll the raised flag (the old 1 ms busy-poll).
  queue.bind_cancel(registry.cancel_signal());
  ErrorCollector errors;
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> raw_bytes{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<int> live_compressors{compress.count};
  std::atomic<bool> degraded{false};
  std::atomic<bool> shedding{false};
  std::atomic<std::uint64_t> sent_messages{0};
  // Messages of credit currently held across all send workers; maintained
  // only under credit flow control, read by the credit-occupancy gauge.
  std::atomic<std::int64_t> credit_held{0};

  ObsRun obr(config_.observe, obs_hooks);
  obr.gauge("sender.queue_depth",
            [&queue] { return static_cast<double>(queue.size()); });
  if (ovr.credit_on()) {
    obr.gauge("sender.credit_available", [&credit_held] {
      return static_cast<double>(credit_held.load(std::memory_order_relaxed));
    });
  }
  if (budget != nullptr) {
    obr.gauge("sender.budget_bytes_in_flight",
              [budget] { return static_cast<double>(budget->used()); });
  }
  if (resume_on) {
    obr.gauge("sender.journal_unacked_chunks", [journal] {
      return static_cast<double>(journal->unacked_count());
    });
    obr.gauge("sender.journal_unacked_bytes", [journal] {
      return static_cast<double>(journal->unacked_bytes());
    });
  }

  // The flush timer of the graceful drain: armed when the last compressor
  // stops ingesting (source exhausted or drain requested); if the queued
  // frames don't reach the wire inside the grace window, force the teardown
  // the watchdog would have applied — but report it as a drain timeout.
  std::unique_ptr<DrainDeadline> drain_deadline;
  if (ovr.on() && ov.drain_deadline_ms > 0) {
    drain_deadline = std::make_unique<DrainDeadline>(
        std::chrono::milliseconds(ov.drain_deadline_ms), [&] {
          oc.drain_timeouts.fetch_add(1, std::memory_order_relaxed);
          registry.cancel_all();
          queue.close();
          // A raised cancel flag only aborts *waits* — frames already queued
          // would still trickle out. A forced drain means dropping them. On
          // the ring path this early drain would make the timer thread a
          // second consumer (forbidden); the cancelled workers exit at once
          // and the post-join settle below releases the charges instead.
          if (!queue.lock_free()) {
            ovr.settle_abandoned(queue);
          }
        });
  }

  // The watchdog trips only when both stages stall for the full deadline;
  // its teardown closes the queue and cancels every registered stream, so
  // workers blocked in push/pop/write_all all wake with clean errors.
  std::unique_ptr<Watchdog> watchdog;
  if (recovery.watchdog_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        std::chrono::milliseconds(recovery.watchdog_ms), &registry, [&] {
          fc.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
          queue.close();
        });
    watchdog->watch("compress", &chunks);
    watchdog->watch("send", &sent_messages);
    watchdog->start();
  }

  ThroughputMeter meter;
  meter.start();

  // Sending threads: drain the queue into their private connection. With
  // recovery on, a failed send re-dials and re-sends the in-flight message.
  BusyCounter send_busy;
  PinnedThreadGroup senders(
      topo_, "send", static_cast<std::size_t>(send.count), send.bindings,
      [&](const PinnedThreadGroup::WorkerContext& ctx) {
        std::unique_ptr<PushSocket> socket;
        ByteStream* raw = nullptr;  // registry handle; owned by `socket`
        // Messages of credit remaining on the current connection. Every
        // connection starts at zero: the receiver grants the initial window
        // on accept, so a sender that dials a pre-credit receiver simply
        // blocks — the mismatch is visible, not silently unprotected.
        std::uint64_t credit = 0;
        const auto adopt = [&](std::unique_ptr<ByteStream> stream) {
          raw = stream.get();
          socket = std::make_unique<PushSocket>(std::move(stream));
          registry.add(raw);
          // Credit never survives a connection; return what this worker
          // still held to the occupancy gauge before zeroing it.
          credit_held.fetch_sub(static_cast<std::int64_t>(credit),
                                std::memory_order_relaxed);
          credit = 0;
        };
        const auto retire = [&] {
          if (socket != nullptr) {
            wire_bytes.fetch_add(socket->bytes_sent(), std::memory_order_relaxed);
            registry.remove(raw);
            socket.reset();
            raw = nullptr;
          }
        };
        // Retransmission window: payload copies of every journaled-but-unacked
        // frame this worker has put on the wire. The journal records only
        // hashes, so when a receiver restart discards frames that reached its
        // memory but never its sink, the bytes must come from here. Memory is
        // bounded by the unacked window — the receiver's ack cadence prunes it
        // through merge_resume — which is exactly the re-work bound the resume
        // contract quotes.
        std::deque<Message> retained;
        // Raised by a reconnect handshake whose watermarks left retained
        // frames unacked: the peer never committed them, so they must be
        // re-sent before any new work touches the fresh connection's window.
        bool replay_pending = false;
        // Folds the peer's RESUME watermarks into the journal: every point is
        // a monotone ack, so stale or repeated handshakes are harmless no-ops.
        const auto merge_resume = [&](const Message& frame) -> Status {
          auto info =
              parse_resume_body(ByteSpan(frame.body.data(), frame.body.size()));
          if (!info.ok()) {
            return info.status();
          }
          if (info.value().session_id != journal->session_id()) {
            return data_loss_error(
                "resume: peer session " +
                std::to_string(info.value().session_id) +
                " does not match local session " +
                std::to_string(journal->session_id()));
          }
          for (const ResumePoint& point : info.value().points) {
            NS_RETURN_IF_ERROR(
                journal->record_acked(point.stream_id, point.watermark));
          }
          // Every ack releases retransmission memory: frames under the
          // peer's watermark are committed and will never be asked for.
          std::erase_if(retained, [&](const Message& kept) {
            return kept.sequence < journal->acked_watermark(kept.stream_id);
          });
          rc.resume_handshakes.fetch_add(1, std::memory_order_relaxed);
          return Status::ok();
        };
        // Dispatches one reverse-channel message: credit into the window,
        // RESUME into the journal. Without resume, a RESUME frame means the
        // peer has the directive on and this sender does not — a config
        // mismatch worth failing loudly on.
        const auto absorb_control = [&](const Message& ctrl) -> Status {
          if (ctrl.credit) {
            credit += ctrl.sequence;
            credit_held.fetch_add(static_cast<std::int64_t>(ctrl.sequence),
                                  std::memory_order_relaxed);
            return Status::ok();
          }
          if (!resume_on) {
            return data_loss_error(
                "resume frame from peer, but this sender has no resume "
                "directive");
          }
          return merge_resume(ctrl);
        };
        // Blocks until the current connection's RESUME handshake has been
        // merged (credit grants arriving first are banked, not lost). A
        // no-op without resume: the receiver then never sends one.
        const auto handshake = [&]() -> Status {
          if (!resume_on) {
            return Status::ok();
          }
          while (true) {
            auto ctrl = socket->recv_control();
            if (!ctrl.ok()) {
              return ctrl.status();
            }
            NS_RETURN_IF_ERROR(absorb_control(ctrl.value()));
            if (ctrl.value().resume) {
              // Whatever the merge did not prune, the peer lost: schedule
              // the survivors for retransmission on this connection.
              replay_pending = !retained.empty();
              return Status::ok();
            }
          }
        };
        const auto redial = [&]() -> Status {
          retire();
          auto fresh = dial();
          if (!fresh.ok()) {
            return fresh.status();
          }
          adopt(std::move(fresh).value());
          fc.reconnects.fetch_add(1, std::memory_order_relaxed);
          return handshake();
        };
        // Blocks until the current connection has credit. The stall *is*
        // the flow control: an out-of-credit sender parks on the reverse
        // channel until the receiver's consumption frees window. Broken
        // connections recycle exactly like send failures.
        const auto wait_for_credit = [&]() -> Status {
          if (credit > 0) {
            return Status::ok();
          }
          oc.credit_stalls.fetch_add(1, std::memory_order_relaxed);
          while (credit == 0) {
            auto ctrl = socket->recv_control();
            if (!ctrl.ok()) {
              if (recovery.reconnect &&
                  ctrl.status().code() == StatusCode::kUnavailable &&
                  !registry.cancelled()) {
                NS_RETURN_IF_ERROR(redial());
                continue;
              }
              return ctrl.status();
            }
            NS_RETURN_IF_ERROR(absorb_control(ctrl.value()));
          }
          return Status::ok();
        };
        // Sends one message, reconnecting and re-sending on UNAVAILABLE.
        // With credit flow control on, each attempt first waits for window
        // on whatever connection is current (a redial resets credit, and
        // the fresh receiver worker grants a fresh window).
        const auto send_message = [&](const Message& message) -> Status {
          while (true) {
            if (ovr.credit_on()) {
              NS_RETURN_IF_ERROR(wait_for_credit());
            }
            const Status status = socket->send(message);
            if (status.is_ok()) {
              if (ovr.credit_on()) {
                --credit;
                credit_held.fetch_sub(1, std::memory_order_relaxed);
              }
              return status;
            }
            if (!recovery.reconnect ||
                status.code() != StatusCode::kUnavailable ||
                registry.cancelled()) {
              return status;
            }
            NS_RETURN_IF_ERROR(redial());
          }
        };
        // Re-sends every retained frame the latest reconnect handshake left
        // unacked. A send in here can itself redial — the nested handshake
        // prunes `retained` and re-raises `replay_pending`, so each scan
        // restarts from the front whenever that happens; re-sending a frame
        // twice is harmless (the receiver's delivery ledger dedups).
        const auto flush_replays = [&]() -> Status {
          while (replay_pending) {
            replay_pending = false;
            for (std::size_t i = 0; i < retained.size() && !replay_pending;) {
              if (retained[i].sequence <
                  journal->acked_watermark(retained[i].stream_id)) {
                retained.erase(retained.begin() +
                               static_cast<std::ptrdiff_t>(i));
                continue;
              }
              // A redial inside send_message prunes `retained` under us;
              // send a copy so the frame outlives any mid-send erase.
              const Message frame = retained[i];
              rc.replayed_chunks.fetch_add(1, std::memory_order_relaxed);
              rc.rework_bytes.fetch_add(frame.body.size(),
                                        std::memory_order_relaxed);
              NS_RETURN_IF_ERROR(send_message(frame));
              ++i;
            }
          }
          return Status::ok();
        };
        adopt(std::move(streams[static_cast<std::size_t>(ctx.worker_index)]));
        MigrationPoller migrate(
            topo_, health, health_on, TaskType::kSend,
            "send-" + std::to_string(ctx.worker_index) + "-migrate", recorder);
        // Retired bodies go back to this worker's home shelf; under the
        // paper's aligned placement that is also the compressors' domain.
        const int pool_domain = ctx.binding.memory_domain;
        // Send workers come after the compress workers in the trace's
        // worker-id space (see ObsHooks::tracer).
        const auto trace_worker =
            static_cast<std::uint32_t>(compress.count + ctx.worker_index);
        const int obs_domain = ctx.binding.execution_domain;
        // The resume handshake must land before the first frame; a peer that
        // dies mid-handshake recycles through the same redial path as a
        // failed send.
        Status ready = handshake();
        while (!ready.is_ok() && recovery.reconnect &&
               ready.code() == StatusCode::kUnavailable &&
               !registry.cancelled()) {
          ready = redial();
        }
        if (!ready.is_ok()) {
          errors.record(ready);
          queue.close();  // unblock the rest of the pipeline
        }
        while (ready.is_ok()) {
          auto message =
              queue.pop(static_cast<std::size_t>(ctx.worker_index), qcancel);
          if (!message) {
            break;
          }
          migrate.poll();
          const std::uint64_t charge = message->body.size();
          const std::uint32_t charged_stream = message->stream_id;
          if (resume_on && replay_pending) {
            // A reconnect handshake left retained frames unacked; flush the
            // gap before new work so the peer's missing window refills.
            const Status replay = flush_replays();
            if (!replay.is_ok()) {
              errors.record(replay);
              if (budget != nullptr) {
                budget->release(charged_stream, charge);
              }
              queue.close();
              break;
            }
          }
          if (resume_on) {
            // Replay suppression: the peer already committed everything
            // below its watermark, so a replayed chunk under it never
            // touches the wire — its charge settles and it counts as
            // progress, but spends no credit.
            if (message->sequence <
                journal->acked_watermark(message->stream_id)) {
              rc.duplicates_suppressed.fetch_add(1, std::memory_order_relaxed);
              if (budget != nullptr) {
                budget->release(charged_stream, charge);
              }
              if (pool != nullptr) {
                pool->recycle(pool_domain, std::move(message->body));
              }
              sent_messages.fetch_add(1, std::memory_order_relaxed);
              continue;
            }
            // Write-ahead: the journal must know the chunk before the wire
            // does, else a crash between the two loses it untracked. A
            // chunk already journaled-but-unacked is crash re-work.
            const bool rework =
                journal->sent_unacked(message->stream_id, message->sequence);
            const Status wal = journal->record_sent(
                message->stream_id, message->sequence, 0,
                xxhash32(message->body),
                static_cast<std::uint32_t>(message->body.size()));
            if (!wal.is_ok()) {
              errors.record(wal);
              if (budget != nullptr) {
                budget->release(charged_stream, charge);
              }
              queue.close();
              break;
            }
            if (rework) {
              rc.replayed_chunks.fetch_add(1, std::memory_order_relaxed);
              rc.rework_bytes.fetch_add(charge, std::memory_order_relaxed);
            }
          }
          const std::uint64_t send_t0 = obr.observing() ? obr.now_ns() : 0;
          const Status status = send_message(*message);
          if (obr.observing()) {
            obr.note(obs::Stage::kSend, message->stream_id, message->sequence,
                     trace_worker, obs_domain, send_t0, obr.now_ns());
          }
          if (budget != nullptr) {
            budget->release(charged_stream, charge);  // frame left the queue
          }
          if (!status.is_ok()) {
            errors.record(status);
            queue.close();  // unblock the rest of the pipeline
            break;
          }
          if (resume_on) {
            // Keep the payload until the peer's watermark passes it: the
            // journal holds only the hash, and a receiver restart will ask
            // for the bytes again.
            retained.push_back(std::move(*message));
          } else if (pool != nullptr) {
            // The frame left the wire; its buffer goes back on the shelf for
            // the next chunk compressed on this domain.
            pool->recycle(pool_domain, std::move(message->body));
          }
          sent_messages.fetch_add(1, std::memory_order_relaxed);
        }
        if (ready.is_ok()) {
          // The end-of-stream marker matters: without it the receiver never
          // learns this peer is done. Re-send it on fresh connections until
          // it lands (bounded by the retry policy, since a fresh connection
          // can itself be faulted). Retained frames a reconnect handshake
          // reported missing flush ahead of the marker — EOS after a gap
          // would let the receiver finish with chunks permanently lost.
          // A failed redial leaves no socket at all; report UNAVAILABLE so
          // the retry loop below dials a fresh one instead of crashing.
          const auto finish_eos = [&]() -> Status {
            if (socket == nullptr) {
              return unavailable_error("send: no connection for end-of-stream");
            }
            return socket->finish(0);
          };
          Status finish = replay_pending ? flush_replays() : Status::ok();
          finish = finish.is_ok() ? finish_eos() : finish;
          for (int attempt = 0;
               !finish.is_ok() && recovery.reconnect &&
               finish.code() == StatusCode::kUnavailable &&
               !registry.cancelled() && attempt < recovery.retry.max_attempts;
               ++attempt) {
            const Status redialed = redial();
            finish = redialed.is_ok() && replay_pending ? flush_replays()
                                                        : redialed;
            finish = finish.is_ok() ? finish_eos() : finish;
          }
          errors.record(finish);
        }
        retire();
        send_busy.add_seconds(thread_cpu_seconds());
      },
      recorder);

  // Compression threads: pull chunks, frame them, enqueue for sending. Under
  // backlog (send stage slower than compress), degrade to the passthrough
  // codec until the queue drains to half the watermark — shipping bigger
  // frames beats stalling the source when the bottleneck is compression.
  BusyCounter compress_busy;
  PinnedThreadGroup compressors(
      topo_, "comp", static_cast<std::size_t>(compress.count), compress.bindings,
      [&](const PinnedThreadGroup::WorkerContext& ctx) {
        MigrationPoller migrate(
            topo_, health, health_on, TaskType::kCompress,
            "comp-" + std::to_string(ctx.worker_index) + "-migrate", recorder);
        const auto trace_worker = static_cast<std::uint32_t>(ctx.worker_index);
        const int obs_domain = ctx.binding.execution_domain;
        const int pool_domain = ctx.binding.memory_domain;
        // Disposal for frames this worker sheds before they reach the queue:
        // the body goes back on the shelf instead of through the allocator.
        const auto recycle_body = [&](Message& dead) {
          if (pool != nullptr) {
            pool->recycle(pool_domain, std::move(dead.body));
          }
        };
        // Keep frames newer (higher sequence) over older, and — for the
        // priority policy — higher-priority streams over lower, newer over
        // older within a priority class.
        const auto newer = [](const Message& a, const Message& b) {
          return a.sequence > b.sequence;
        };
        const auto outranks = [&](const Message& a, const Message& b) {
          const int pa = ov.priority_of(a.stream_id);
          const int pb = ov.priority_of(b.stream_id);
          return pa != pb ? pa > pb : a.sequence > b.sequence;
        };
        while (true) {
          migrate.poll();
          if (ovr.drain_requested()) {
            ovr.note_drain_request();
            break;  // stop ingesting; queued frames flush under the deadline
          }
          const std::uint64_t generate_t0 = obr.observing() ? obr.now_ns() : 0;
          auto chunk = source.next();
          if (!chunk) {
            break;
          }
          if (obr.observing()) {
            obr.note(obs::Stage::kGenerate, chunk->stream_id, chunk->sequence,
                     trace_worker, obs_domain, generate_t0, obr.now_ns());
          }
          const Codec* active = codec;
          if (recovery.degrade_watermark > 0) {
            const std::size_t depth = queue.size();
            if (depth >= recovery.degrade_watermark) {
              degraded.store(true, std::memory_order_relaxed);
            } else if (depth <= recovery.degrade_watermark / 2) {
              degraded.store(false, std::memory_order_relaxed);
            }
            if (degraded.load(std::memory_order_relaxed)) {
              active = passthrough;
              fc.degraded_chunks.fetch_add(1, std::memory_order_relaxed);
            }
          }
          Message message;
          message.stream_id = chunk->stream_id;
          message.sequence = chunk->sequence;
          const std::uint64_t compress_t0 = obr.observing() ? obr.now_ns() : 0;
          if (pool != nullptr) {
            // Lease a recycled buffer and compress straight into it — the
            // steady state reuses the same NUMA-local allocation per slot.
            Bytes body = pool->lease(pool_domain, 0);
            encode_frame_into(*active, chunk->payload, body);
            message.body = std::move(body);
          } else {
            message.body = encode_frame(*active, chunk->payload);
          }
          if (obr.observing()) {
            obr.note(obs::Stage::kCompress, chunk->stream_id, chunk->sequence,
                     trace_worker, obs_domain, compress_t0, obr.now_ns());
          }
          raw_bytes.fetch_add(chunk->size(), std::memory_order_relaxed);
          chunks.fetch_add(1, std::memory_order_relaxed);

          // Load shedding: between the watermarks (hysteresis latch, like
          // `degraded` above) the configured policy decides which frame
          // pays for the overload — the incoming one, the oldest queued
          // one, or the lowest-priority queued one.
          if (ovr.on() && ov.high_watermark > 0 &&
              ov.shed_policy != ShedPolicy::kBlock) {
            const std::size_t depth = queue.size();
            if (depth >= ov.high_watermark) {
              shedding.store(true, std::memory_order_relaxed);
            } else if (depth <= ov.low_watermark) {
              shedding.store(false, std::memory_order_relaxed);
            }
            if (shedding.load(std::memory_order_relaxed)) {
              if (ov.shed_policy == ShedPolicy::kDropNewest) {
                oc.shed_newest.fetch_add(1, std::memory_order_relaxed);
                recycle_body(message);
                continue;  // the incoming frame is the casualty
              }
              if (ov.shed_policy == ShedPolicy::kDropOldest) {
                if (auto evicted = queue.try_evict_worst(newer)) {
                  oc.shed_oldest.fetch_add(1, std::memory_order_relaxed);
                  if (budget != nullptr) {
                    budget->release(evicted->stream_id, evicted->body.size());
                  }
                  recycle_body(*evicted);
                }
                // fall through: admit the incoming frame
              } else {  // kPriorityEvict
                if (auto evicted = queue.try_evict_if_worse(message, outranks)) {
                  oc.priority_evictions.fetch_add(1, std::memory_order_relaxed);
                  if (budget != nullptr) {
                    budget->release(evicted->stream_id, evicted->body.size());
                  }
                  recycle_body(*evicted);
                } else {
                  // The incoming frame is the least valuable — shed it.
                  oc.shed_newest.fetch_add(1, std::memory_order_relaxed);
                  recycle_body(message);
                  continue;
                }
              }
            }
          }

          // Budget admission: the charge is the encoded body, released when
          // the frame leaves through the send stage. Blocking policies wait
          // for releases (backpressure); shedding policies convert a full
          // ledger into a shed instead of a stall.
          const std::uint64_t charge = message.body.size();
          if (budget != nullptr) {
            if (ov.shed_policy == ShedPolicy::kBlock) {
              if (!budget
                       ->acquire(message.stream_id, charge,
                                 registry.cancel_flag(), &oc.budget_stalls)
                       .is_ok()) {
                break;  // cancelled mid-admission: pipeline is tearing down
              }
            } else if (!budget->try_acquire(message.stream_id, charge).is_ok()) {
              oc.budget_rejections.fetch_add(1, std::memory_order_relaxed);
              oc.shed_newest.fetch_add(1, std::memory_order_relaxed);
              recycle_body(message);
              continue;
            }
          }
          const std::uint64_t enqueue_t0 = obr.observing() ? obr.now_ns() : 0;
          if (!queue.push(std::move(message), qcancel).is_ok()) {
            if (budget != nullptr) {
              budget->release(chunk->stream_id, charge);
            }
            break;  // pipeline shutting down (peer failure)
          }
          if (obr.observing()) {
            // The enqueue span's duration is pure backpressure: how long the
            // frame waited for space in the compress->send queue.
            obr.note(obs::Stage::kEnqueue, chunk->stream_id, chunk->sequence,
                     trace_worker, obs_domain, enqueue_t0, obr.now_ns());
          }
        }
        if (live_compressors.fetch_sub(1) == 1) {
          queue.close();  // last compressor ends the stream
          if (drain_deadline != nullptr) {
            drain_deadline->arm();  // the flush clock starts now
          }
        }
        compress_busy.add_seconds(thread_cpu_seconds());
      },
      recorder);

  compressors.join();
  senders.join();
  ovr.settle_abandoned(queue);
  ovr.record_budget_peak();
  if (watchdog != nullptr) {
    watchdog->stop();
    if (watchdog->tripped()) {
      // The trip explains every downstream failure; report it, not them.
      return watchdog->trip_status();
    }
  }
  if (drain_deadline != nullptr) {
    drain_deadline->complete();
    if (drain_deadline->expired()) {
      // Like a watchdog trip, the forced drain explains the downstream
      // errors it provoked; report the drain, not them.
      return deadline_exceeded_error(
          "graceful drain exceeded its " + std::to_string(ov.drain_deadline_ms) +
          "ms deadline; in-flight frames were forcibly dropped");
    }
  }

  const Status first_error = errors.first();
  if (!first_error.is_ok()) {
    return first_error;
  }
  SenderStats stats;
  stats.chunks = chunks.load();
  stats.raw_bytes = raw_bytes.load();
  stats.wire_bytes = wire_bytes.load();
  stats.elapsed_seconds = meter.elapsed_seconds();
  stats.compress_busy_seconds = compress_busy.seconds();
  stats.send_busy_seconds = send_busy.seconds();
  stats.compress_threads = compress.count;
  stats.send_threads = send.count;
  queue.flush_parks();
  stats.fastpath = fastpath_counters.snapshot();
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
  NS_RETURN_IF_ERROR(config_.validate(topo_));

  const GroupSpec receive = collect_group(config_, TaskType::kReceive);
  const GroupSpec decompress = collect_group(config_, TaskType::kDecompress);
  if (receive.count <= 0 || decompress.count <= 0) {
    return invalid_argument_error("receiver config needs receive and decompress tasks");
  }

  const RecoveryConfig& recovery = config_.recovery;
  FaultCounters scratch_counters;
  FaultCounters& fc = faults != nullptr ? *faults : scratch_counters;
  const OverloadConfig& ov = config_.overload;
  OverloadRun ovr(ov, overload);
  OverloadCounters& oc = ovr.counters();
  MemoryBudget* budget = ovr.budget();
  const bool health_on = config_.health.enabled();
  // Crash resumption (DESIGN.md §11): with the resume directive on, every
  // accepted connection opens with a RESUME handshake carrying this
  // receiver's committed watermarks, the durable ledger backs the in-memory
  // dedup set across restarts, and each delivery is journaled after the sink
  // commits it.
  const ResumeConfig& rs = config_.resume;
  ReceiverJournal* journal = resume.receiver_journal;
  if (rs.enabled() && journal == nullptr) {
    return invalid_argument_error(
        "resume config needs a recovered ReceiverJournal in ResumeHooks");
  }
  const bool resume_on = rs.enabled();
  ResumeCounters resume_scratch;
  ResumeCounters& rc =
      resume.counters != nullptr ? *resume.counters : resume_scratch;
  StreamRegistry registry;
  const std::atomic<bool>* qcancel = ovr.on() ? registry.cancel_flag() : nullptr;

  // One accepted connection per receiving thread, before the clock starts.
  std::vector<std::unique_ptr<ByteStream>> streams;
  streams.reserve(static_cast<std::size_t>(receive.count));
  for (int i = 0; i < receive.count; ++i) {
    auto stream = listener.accept();
    if (!stream.ok()) {
      return stream.status();
    }
    streams.push_back(std::move(stream).value());
  }

  // Fastpath (DESIGN.md §15), receiver half: rings for the receive ->
  // decompress handoff; the pool additionally backs PullSocket's zero-copy
  // recv — bodies land in pool-leased buffers, decompressors return them.
  const FastPathConfig& fp = config_.fastpath;
  FastPathCounters fastpath_counters;
  std::unique_ptr<ChunkPool> pool;
  if (fp.pool_buffers > 0) {
    pool = std::make_unique<ChunkPool>(
        std::max<std::size_t>(1, topo_.domain_count()), fp.pool_buffers,
        &fastpath_counters);
  }
  StageChannel<Message> queue(config_.queue_capacity,
                              static_cast<std::size_t>(decompress.count),
                              fp.rings, &fastpath_counters);
  queue.bind_cancel(registry.cancel_signal());
  ErrorCollector errors;
  std::atomic<std::uint64_t> chunks{0};
  std::atomic<std::uint64_t> raw_bytes{0};
  std::atomic<std::uint64_t> wire_bytes{0};
  std::atomic<std::uint64_t> corrupt_frames{0};
  std::atomic<int> live_receivers{receive.count};
  std::atomic<std::uint64_t> received_messages{0};

  ObsRun obr(config_.observe, obs_hooks);
  obr.gauge("receiver.queue_depth",
            [&queue] { return static_cast<double>(queue.size()); });
  if (budget != nullptr) {
    obr.gauge("receiver.budget_bytes_in_flight",
              [budget] { return static_cast<double>(budget->used()); });
  }
  if (resume_on) {
    obr.gauge("receiver.journal_streams", [journal] {
      return static_cast<double>(journal->watermarks().size());
    });
  }

  // Reconnect-mode shared state. Every peer ends its stream with one
  // end-of-stream marker; the pipeline is complete when one marker per
  // pre-established connection has arrived — whichever worker collects the
  // last one closes the listener so workers parked in accept() exit too.
  const int expected_eos = receive.count;
  std::atomic<int> eos_seen{0};
  std::atomic<bool> done{false};
  // A re-sent in-flight message may duplicate one that did arrive (e.g. the
  // break was reported after delivery); (stream, sequence) filters those.
  std::mutex dedup_mu;
  std::set<std::pair<std::uint32_t, std::uint64_t>> delivered;

  // Slow-consumer protection: per-stream progress sampled by a monitor
  // thread. A stream with a standing backlog that delivers fewer than
  // slow_stream_floor chunks per grace window is evicted — its frames are
  // dropped (and counted) so one stalled sink cannot hoard the queue and
  // budget that every other stream needs.
  struct StreamProgress {
    std::uint64_t received = 0;
    std::uint64_t delivered_chunks = 0;
  };
  const bool slow_monitor_on = ovr.on() && ov.slow_stream_floor > 0;
  std::mutex progress_mu;
  std::map<std::uint32_t, StreamProgress> progress;
  std::set<std::uint32_t> evicted_streams;
  const auto note_received = [&](std::uint32_t stream_id) {
    if (slow_monitor_on) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      ++progress[stream_id].received;
    }
  };
  const auto note_delivered = [&](std::uint32_t stream_id) {
    if (slow_monitor_on) {
      const std::lock_guard<std::mutex> lock(progress_mu);
      ++progress[stream_id].delivered_chunks;
    }
  };
  const auto stream_evicted = [&](std::uint32_t stream_id) {
    if (!slow_monitor_on) {
      return false;
    }
    const std::lock_guard<std::mutex> lock(progress_mu);
    return evicted_streams.count(stream_id) > 0;
  };

  std::unique_ptr<DrainDeadline> drain_deadline;
  if (ovr.on() && ov.drain_deadline_ms > 0) {
    drain_deadline = std::make_unique<DrainDeadline>(
        std::chrono::milliseconds(ov.drain_deadline_ms), [&] {
          oc.drain_timeouts.fetch_add(1, std::memory_order_relaxed);
          done.store(true, std::memory_order_release);
          listener.close();
          registry.cancel_all();
          queue.close();
          // A raised cancel flag only aborts *waits* — frames already queued
          // would still trickle out. A forced drain means dropping them. On
          // the ring path this early drain would make the timer thread a
          // second consumer (forbidden); the cancelled workers exit at once
          // and the post-join settle below releases the charges instead.
          if (!queue.lock_free()) {
            ovr.settle_abandoned(queue);
          }
        });
  }

  std::unique_ptr<Watchdog> watchdog;
  if (recovery.watchdog_ms > 0) {
    watchdog = std::make_unique<Watchdog>(
        std::chrono::milliseconds(recovery.watchdog_ms), &registry, [&] {
          fc.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
          done.store(true, std::memory_order_release);
          listener.close();
          queue.close();
        });
    watchdog->watch("receive", &received_messages);
    watchdog->watch("decompress", &chunks);
    watchdog->start();
  }

  std::atomic<bool> monitor_stop{false};
  std::mutex monitor_mu;
  std::condition_variable monitor_wake;
  std::thread slow_monitor;
  if (slow_monitor_on) {
    slow_monitor = std::thread([&] {
      std::map<std::uint32_t, std::uint64_t> last_delivered;
      std::unique_lock<std::mutex> lock(monitor_mu);
      while (!monitor_stop.load(std::memory_order_acquire)) {
        monitor_wake.wait_for(lock,
                              std::chrono::milliseconds(ov.slow_grace_ms));
        if (monitor_stop.load(std::memory_order_acquire)) {
          return;
        }
        const std::lock_guard<std::mutex> plock(progress_mu);
        for (const auto& [stream_id, p] : progress) {
          if (evicted_streams.count(stream_id) > 0) {
            continue;
          }
          const std::uint64_t delta = p.delivered_chunks - last_delivered[stream_id];
          last_delivered[stream_id] = p.delivered_chunks;
          const bool backlog = p.received > p.delivered_chunks;
          if (backlog && delta < ov.slow_stream_floor) {
            evicted_streams.insert(stream_id);
            oc.slow_streams_evicted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  ThroughputMeter meter;
  meter.start();

  BusyCounter receive_busy;
  BusyCounter decompress_busy;
  const auto on_corruption = recovery.reconnect
                                 ? MessageDecoder::OnCorruption::kResync
                                 : MessageDecoder::OnCorruption::kFail;
  PinnedThreadGroup receivers(
      topo_, "recv", static_cast<std::size_t>(receive.count), receive.bindings,
      [&](const PinnedThreadGroup::WorkerContext& ctx) {
        std::unique_ptr<PullSocket> socket;
        ByteStream* raw = nullptr;  // registry handle; owned by `socket`
        // Data frames consumed off the current connection since the last
        // credit grant; replenished in batches of half the window so grant
        // frames stay rare relative to data frames.
        std::uint64_t consumed = 0;
        // Data frames since the last watermark RESUME piggyback.
        std::uint64_t resume_tick = 0;
        // The current committed watermarks as a RESUME payload.
        const auto resume_points = [&] {
          std::vector<ResumePoint> points;
          for (const auto& [stream_id, mark] : journal->watermarks()) {
            points.push_back(ResumePoint{stream_id, mark});
          }
          return points;
        };
        const auto adopt = [&](std::unique_ptr<ByteStream> stream) {
          raw = stream.get();
          socket = std::make_unique<PullSocket>(std::move(stream), 256 * 1024,
                                                on_corruption);
          // Zero-copy recv: in strict mode message bodies are read straight
          // into their own buffers — leased from this worker's home shelf
          // when pooling is on, freshly allocated otherwise — instead of
          // being reassembled in the decoder's scan buffer (resync needs that
          // buffer; see PullSocket::recv). Reassembly costs a copy per
          // message, and its growing buffer sharing the allocator arena with
          // chunk-sized bodies made page-fault load, and so throughput,
          // differ from run to run.
          if (on_corruption == MessageDecoder::OnCorruption::kFail) {
            if (pool != nullptr) {
              ChunkPool* shelf = pool.get();
              const int dom = ctx.binding.memory_domain;
              socket->set_buffer_lease(
                  [shelf, dom](std::size_t n) { return shelf->lease(dom, n); });
            } else {
              socket->set_buffer_lease([](std::size_t n) { return Bytes(n); });
            }
          }
          registry.add(raw);
          consumed = 0;
          resume_tick = 0;
          if (resume_on &&
              socket->send_resume(journal->session_id(), resume_points())
                  .is_ok()) {
            // The handshake goes first: the peer sender blocks on it before
            // its first frame, so the resume point always precedes data.
            rc.resume_handshakes.fetch_add(1, std::memory_order_relaxed);
          }
          if (ovr.credit_on() &&
              socket->send_credit(ov.credit_window).is_ok()) {
            // The initial window: the peer sender starts at zero credit and
            // blocks until this grant lands.
            oc.credit_grants.fetch_add(1, std::memory_order_relaxed);
          }
        };
        // Counts one consumed data frame, replenishes the peer's window once
        // half of it has been drained, and piggybacks a watermark RESUME
        // every ack_interval frames so the peer's journal can prune. Every
        // consumed frame counts — including duplicates and evicted-stream
        // drops — because the peer spent credit to send it; skipping any
        // would leak window and eventually wedge the connection.
        const auto consume_credit = [&] {
          if (socket == nullptr) {
            return;
          }
          if (ovr.credit_on()) {
            ++consumed;
            const std::uint64_t batch =
                std::max<std::uint64_t>(1, ov.credit_window / 2);
            if (consumed >= batch) {
              if (socket->send_credit(consumed).is_ok()) {
                oc.credit_grants.fetch_add(1, std::memory_order_relaxed);
              }
              consumed = 0;
            }
          }
          if (resume_on && rs.ack_interval > 0 &&
              ++resume_tick >= rs.ack_interval) {
            resume_tick = 0;
            (void)socket->send_resume(journal->session_id(), resume_points());
          }
        };
        const auto retire = [&] {
          if (socket != nullptr) {
            wire_bytes.fetch_add(socket->bytes_received(),
                                 std::memory_order_relaxed);
            fc.message_resyncs.fetch_add(socket->resyncs(),
                                         std::memory_order_relaxed);
            registry.remove(raw);
            socket.reset();
            raw = nullptr;
          }
        };
        adopt(std::move(streams[static_cast<std::size_t>(ctx.worker_index)]));
        MigrationPoller migrate(
            topo_, health, health_on, TaskType::kReceive,
            "recv-" + std::to_string(ctx.worker_index) + "-migrate", recorder);
        const auto trace_worker = static_cast<std::uint32_t>(ctx.worker_index);
        const int obs_domain = ctx.binding.execution_domain;
        bool running = true;
        while (running) {
          // Drain the current connection to its end.
          bool got_eos = false;
          while (socket != nullptr) {
            migrate.poll();
            if (ovr.drain_requested()) {
              ovr.note_drain_request();
              running = false;
              break;  // stop ingesting; queued frames flush under the deadline
            }
            const std::uint64_t receive_t0 = obr.observing() ? obr.now_ns() : 0;
            auto message = socket->recv();
            if (!message.ok()) {
              const StatusCode code = message.status().code();
              if (recovery.reconnect &&
                  (code == StatusCode::kUnavailable ||
                   code == StatusCode::kDataLoss) &&
                  !registry.cancelled()) {
                break;  // broken connection: recycle it below
              }
              if (code != StatusCode::kUnavailable) {
                errors.record(message.status());
              }
              running = false;
              break;
            }
            received_messages.fetch_add(1, std::memory_order_relaxed);
            if (message.value().end_of_stream) {
              got_eos = true;
              break;
            }
            if (obr.observing()) {
              obr.note(obs::Stage::kReceive, message.value().stream_id,
                       message.value().sequence, trace_worker, obs_domain,
                       receive_t0, obr.now_ns());
            }
            if (recovery.reconnect) {
              const std::lock_guard<std::mutex> lock(dedup_mu);
              if (!delivered
                       .emplace(message.value().stream_id,
                                message.value().sequence)
                       .second) {
                fc.duplicate_frames.fetch_add(1, std::memory_order_relaxed);
                consume_credit();
                continue;
              }
            }
            // The durable half of exactly-once: a replay of a chunk this
            // receiver committed in a *previous* process lifetime is invisible
            // to the in-memory set but recorded in the delivery ledger.
            if (resume_on && journal->seen(message.value().stream_id,
                                           message.value().sequence)) {
              rc.duplicate_deliveries_suppressed.fetch_add(
                  1, std::memory_order_relaxed);
              consume_credit();
              continue;
            }
            if (stream_evicted(message.value().stream_id)) {
              oc.evicted_chunks.fetch_add(1, std::memory_order_relaxed);
              consume_credit();
              continue;  // the stream was cut for falling behind
            }
            note_received(message.value().stream_id);
            // Charge the frame to the in-flight ledger before it occupies
            // queue memory; released when the decompress stage disposes of
            // it (delivery, corruption drop, or eviction).
            const std::uint64_t charge = message.value().body.size();
            const std::uint32_t charged_stream = message.value().stream_id;
            const std::uint64_t charged_sequence = message.value().sequence;
            if (budget != nullptr &&
                !budget
                     ->acquire(charged_stream, charge, registry.cancel_flag(),
                               &oc.budget_stalls)
                     .is_ok()) {
              running = false;
              break;  // cancelled mid-admission: pipeline is tearing down
            }
            const std::uint64_t enqueue_t0 = obr.observing() ? obr.now_ns() : 0;
            if (!queue.push(std::move(message).value(), qcancel).is_ok()) {
              if (budget != nullptr) {
                budget->release(charged_stream, charge);
              }
              running = false;
              break;  // pipeline shutting down
            }
            if (obr.observing()) {
              // Pure backpressure: the wait for receive->decompress space.
              obr.note(obs::Stage::kEnqueue, charged_stream, charged_sequence,
                       trace_worker, obs_domain, enqueue_t0, obr.now_ns());
            }
            consume_credit();
          }
          retire();
          if (!recovery.reconnect || done.load(std::memory_order_acquire) ||
              registry.cancelled()) {
            break;
          }
          if (got_eos &&
              eos_seen.fetch_add(1, std::memory_order_acq_rel) + 1 >=
                  expected_eos) {
            done.store(true, std::memory_order_release);
            listener.close();  // wake workers parked in accept()
            break;
          }
          if (!running) {
            break;
          }
          // Recycle: serve the next connection (a peer's re-dial, or a later
          // peer's stream after this one's EOS). Injected accept failures
          // are transient — retry until the listener closes.
          while (true) {
            auto next = listener.accept();
            if (next.ok()) {
              adopt(std::move(next).value());
              if (!got_eos) {
                fc.connections_recycled.fetch_add(1, std::memory_order_relaxed);
              }
              break;
            }
            if (done.load(std::memory_order_acquire) || registry.cancelled() ||
                next.status().code() != StatusCode::kUnavailable) {
              running = false;
              break;
            }
          }
        }
        retire();
        if (live_receivers.fetch_sub(1) == 1) {
          queue.close();
          if (drain_deadline != nullptr) {
            drain_deadline->arm();  // the flush clock starts now
          }
        }
        receive_busy.add_seconds(thread_cpu_seconds());
      },
      recorder);

  PinnedThreadGroup decompressors(
      topo_, "decomp", static_cast<std::size_t>(decompress.count), decompress.bindings,
      [&](const PinnedThreadGroup::WorkerContext& ctx) {
        MigrationPoller migrate(
            topo_, health, health_on, TaskType::kDecompress,
            "decomp-" + std::to_string(ctx.worker_index) + "-migrate", recorder);
        // Decompress workers come after the receive workers in the trace's
        // worker-id space (see ObsHooks::tracer).
        const auto trace_worker =
            static_cast<std::uint32_t>(receive.count + ctx.worker_index);
        const int obs_domain = ctx.binding.execution_domain;
        const int pool_domain = ctx.binding.memory_domain;
        const auto recycle_body = [&](Message& done_with) {
          if (pool != nullptr) {
            pool->recycle(pool_domain, std::move(done_with.body));
          }
        };
        int consecutive_corrupt = 0;
        while (auto message = queue.pop(
                   static_cast<std::size_t>(ctx.worker_index), qcancel)) {
          migrate.poll();
          // Whatever happens to this frame below — delivery, corruption
          // drop, or eviction — its ledger charge is returned exactly once.
          const std::uint64_t charge = message->body.size();
          const std::uint32_t charged_stream = message->stream_id;
          const auto settle = [&] {
            if (budget != nullptr) {
              budget->release(charged_stream, charge);
            }
          };
          if (stream_evicted(charged_stream)) {
            oc.evicted_chunks.fetch_add(1, std::memory_order_relaxed);
            settle();
            recycle_body(*message);
            continue;  // the stream was cut for falling behind
          }
          bool resynced = false;
          const std::uint64_t decompress_t0 = obr.observing() ? obr.now_ns() : 0;
          auto content =
              recovery.reconnect
                  ? decode_frame_content_resync(message->body, &resynced)
                  : decode_frame_content(message->body);
          // The decode copied out everything it needed; whatever happens to
          // the frame below, its wire buffer can go back on the shelf now.
          recycle_body(*message);
          if (obr.observing() && content.ok()) {
            obr.note(obs::Stage::kDecompress, message->stream_id,
                     message->sequence, trace_worker, obs_domain, decompress_t0,
                     obr.now_ns());
          }
          if (!content.ok()) {
            corrupt_frames.fetch_add(1, std::memory_order_relaxed);
            fc.corrupt_frames.fetch_add(1, std::memory_order_relaxed);
            fc.dropped_frames.fetch_add(1, std::memory_order_relaxed);
            settle();
            // Isolated corruption is dropped and counted; a run of it means
            // the stream itself is bad — give up with the real error.
            if (++consecutive_corrupt >= recovery.max_consecutive_corrupt) {
              errors.record(data_loss_error(
                  std::to_string(consecutive_corrupt) +
                  " consecutive corrupt frames: " + content.status().message()));
              queue.close();
              break;
            }
            continue;  // drop the frame; keep the stream alive
          }
          consecutive_corrupt = 0;
          if (resynced) {
            fc.frame_resyncs.fetch_add(1, std::memory_order_relaxed);
          }
          Chunk chunk;
          chunk.stream_id = message->stream_id;
          chunk.sequence = message->sequence;
          chunk.payload = std::move(content).value();
          raw_bytes.fetch_add(chunk.size(), std::memory_order_relaxed);
          chunks.fetch_add(1, std::memory_order_relaxed);
          const std::uint64_t sink_t0 = obr.observing() ? obr.now_ns() : 0;
          sink.deliver(std::move(chunk));
          if (obr.observing()) {
            obr.note(obs::Stage::kSink, message->stream_id, message->sequence,
                     trace_worker, obs_domain, sink_t0, obr.now_ns());
          }
          // Deliver-then-journal: under the chunk-atomic crash model a death
          // between the two re-delivers this chunk on resume rather than
          // losing it — the sink sees at-least-once, the ledger converts it
          // to exactly-once for every chunk it managed to record.
          if (resume_on) {
            const Status committed =
                journal->record_delivered(message->stream_id, message->sequence);
            if (!committed.is_ok()) {
              errors.record(committed);
              settle();
              queue.close();
              break;
            }
          }
          note_delivered(charged_stream);
          settle();
        }
        decompress_busy.add_seconds(thread_cpu_seconds());
      },
      recorder);

  receivers.join();
  decompressors.join();
  if (slow_monitor.joinable()) {
    monitor_stop.store(true, std::memory_order_release);
    monitor_wake.notify_all();
    slow_monitor.join();
  }
  ovr.settle_abandoned(queue);
  ovr.record_budget_peak();
  if (watchdog != nullptr) {
    watchdog->stop();
    if (watchdog->tripped()) {
      return watchdog->trip_status();
    }
  }
  if (drain_deadline != nullptr) {
    drain_deadline->complete();
    if (drain_deadline->expired()) {
      return deadline_exceeded_error(
          "graceful drain exceeded its " + std::to_string(ov.drain_deadline_ms) +
          "ms deadline; in-flight frames were forcibly dropped");
    }
  }

  const Status first_error = errors.first();
  if (!first_error.is_ok()) {
    return first_error;
  }
  ReceiverStats stats;
  stats.chunks = chunks.load();
  stats.raw_bytes = raw_bytes.load();
  stats.wire_bytes = wire_bytes.load();
  stats.corrupt_frames = corrupt_frames.load();
  stats.elapsed_seconds = meter.elapsed_seconds();
  stats.receive_busy_seconds = receive_busy.seconds();
  stats.decompress_busy_seconds = decompress_busy.seconds();
  stats.receive_threads = receive.count;
  stats.decompress_threads = decompress.count;
  queue.flush_parks();
  stats.fastpath = fastpath_counters.snapshot();
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
    observation.overload.shed_chunks = overload->total_shed();
    observation.overload.credit_stalls = overload->credit_stalls;
    observation.overload.budget_stalls = overload->budget_stalls;
    observation.overload.evicted_chunks = overload->evicted_chunks;
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
