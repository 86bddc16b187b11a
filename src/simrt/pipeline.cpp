#include "simrt/pipeline.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace numastream::simrt {
namespace {

/// Virtual seconds -> integer nanoseconds. llround (not a cast) so the trace
/// bytes do not depend on how a compiler truncates 1e9 * t.
std::uint64_t to_ns(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

/// Credit and budget windows are token queues seeded one token per chunk; a
/// deeper window (a wrapped negative budget, say) would only exhaust memory.
constexpr double kMaxWindowChunks = 1 << 20;

}  // namespace

std::vector<StreamPipeline::Worker> StreamPipeline::pinned_workers(
    const std::vector<int>& cores) {
  std::vector<Worker> workers;
  workers.reserve(cores.size());
  for (const int core : cores) {
    workers.push_back(Worker{.core = core, .pinned = true});
  }
  return workers;
}

Status StreamPipeline::check(const Spec& spec, const Calibration& calib) {
  const auto require = [](bool holds, const char* what) {
    return holds ? Status::ok()
                 : invalid_argument_error(std::string("pipeline: ") + what);
  };
  NS_RETURN_IF_ERROR(require(!spec.send_workers.empty(),
                             "needs at least one send worker"));
  NS_RETURN_IF_ERROR(require(
      spec.send_workers.size() == spec.receive_workers.size(),
      "the paper's pipeline is symmetric: one receive thread per send thread"));
  NS_RETURN_IF_ERROR(require(!spec.compress || (!spec.compress_workers.empty() &&
                                                !spec.decompress_workers.empty()),
                             "compression needs compress and decompress workers"));
  const OverloadConfig& overload = spec.overload;
  NS_RETURN_IF_ERROR(require(overload.shed_policy == ShedPolicy::kBlock ||
                                 spec.compress,
                             "shedding guards the compress->send queue; "
                             "enable compress"));
  const double wire_chunk = wire_chunk_bytes(spec, calib);
  const auto budget = static_cast<double>(overload.budget_bytes);
  NS_RETURN_IF_ERROR(require(budget == 0 || budget >= wire_chunk,
                             "a budget smaller than one wire chunk would "
                             "deadlock admission"));
  return require(
      static_cast<double>(overload.credit_window) <= kMaxWindowChunks &&
          budget <= kMaxWindowChunks * wire_chunk,
      "credit windows and budgets deeper than 2^20 chunks are not modelled");
}

StreamPipeline::StreamPipeline(sim::Simulation& sim, const Calibration& calib,
                               Spec spec)
    : sim_(sim), calib_(calib), spec_(std::move(spec)) {
  NS_CHECK(spec_.sender_host != nullptr && spec_.receiver_host != nullptr &&
               spec_.link != nullptr,
           "pipeline needs sender, receiver and link");
  NS_CHECK(spec_.sender_nic >= 0 && spec_.receiver_nic >= 0,
           "pipeline needs NIC resources");
  const Status runnable = check(spec_, calib_);
  NS_CHECK(runnable.is_ok(), runnable.message().c_str());

  source_remaining_ = spec_.chunks;
  send_queue_ =
      std::make_unique<sim::SimQueue<SimChunk>>(sim_, spec_.send_queue_capacity);
  decompress_queue_ = std::make_unique<sim::SimQueue<SimChunk>>(
      sim_, spec_.decompress_queue_capacity);
  for (std::size_t i = 0; i < spec_.send_workers.size(); ++i) {
    connection_queues_.push_back(std::make_unique<sim::SimQueue<SimChunk>>(
        sim_, spec_.connection_window_chunks));
  }
  if (spec_.overload.credit_window > 0) {
    for (std::size_t i = 0; i < spec_.send_workers.size(); ++i) {
      credit_tokens_.push_back(std::make_unique<sim::SimQueue<int>>(
          sim_, spec_.overload.credit_window));
    }
  }
  if (spec_.overload.budget_bytes > 0) {
    budget_chunk_cap_ = static_cast<std::size_t>(
        static_cast<double>(spec_.overload.budget_bytes) /
        wire_chunk_bytes(spec_, calib_));
    budget_tokens_ =
        std::make_unique<sim::SimQueue<int>>(sim_, budget_chunk_cap_);
  }
}

sim::SimProc StreamPipeline::token_filler(sim::SimQueue<int>& tokens,
                                          std::size_t count) {
  // The queue's capacity equals `count`, so seeding never suspends; this is
  // a coroutine only because SimQueue::push is an awaitable.
  for (std::size_t i = 0; i < count; ++i) {
    co_await tokens.push(1);
  }
}

std::optional<SimChunk> StreamPipeline::draw_source_chunk() {
  // Journal-driven replays first: the chunk is re-read from the sender's
  // spool, not regenerated, so it spends no instrument time — but it does
  // respect the post-crash blackout via source_ready_time_.
  if (!replays_.empty()) {
    SimChunk chunk;
    chunk.raw_bytes = spec_.chunk_bytes;
    chunk.wire_bytes = wire_chunk_bytes(spec_, calib_);
    chunk.data_domain = spec_.source_data_domain;
    chunk.sequence = *replays_.begin();
    chunk.replay = true;
    replays_.erase(replays_.begin());
    return chunk;
  }
  if (source_remaining_ == 0) {
    return std::nullopt;
  }
  --source_remaining_;
  // Fixed-rate generation: the chunk becomes available once the instrument
  // has produced it. The drawing worker waits out the difference.
  if (spec_.source_bytes_per_sec < 1e17) {
    const double start = std::max(sim_.now(), source_ready_time_);
    source_ready_time_ = start + spec_.chunk_bytes / spec_.source_bytes_per_sec;
  }
  SimChunk chunk;
  chunk.raw_bytes = spec_.chunk_bytes;
  chunk.wire_bytes = wire_chunk_bytes(spec_, calib_);
  chunk.data_domain = spec_.source_data_domain;
  chunk.sequence = next_sequence_++;
  return chunk;
}

void StreamPipeline::observe(obs::Stage stage, std::size_t worker_offset,
                             int domain, double start_seconds,
                             double end_seconds, std::uint64_t sequence) {
  const std::uint64_t start_ns = to_ns(start_seconds);
  const std::uint64_t end_ns = to_ns(end_seconds);
  if (spec_.tracer != nullptr) {
    obs::Span span;
    span.stream_id = spec_.stream_id;
    span.sequence = sequence;
    span.stage = stage;
    span.worker =
        spec_.trace_worker_base + static_cast<std::uint32_t>(worker_offset);
    span.domain = domain;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spec_.tracer->record(span);
  }
  if (spec_.latencies != nullptr) {
    spec_.latencies->record(stage, domain,
                            end_ns >= start_ns ? end_ns - start_ns : 0);
  }
}

void StreamPipeline::launch() {
  if (spec_.resume_enabled) {
    // Each endpoint's journal opens with a session record (core/journal.h:
    // kSession is always the first record of a recoverable journal).
    journal_records_written_ += 2;
  }
  // Seed the overload token pools first so the initial credit grant and the
  // full budget are in place before any worker runs.
  for (auto& tokens : credit_tokens_) {
    sim_.spawn(token_filler(*tokens, spec_.overload.credit_window));
  }
  if (budget_tokens_ != nullptr) {
    sim_.spawn(token_filler(*budget_tokens_, budget_chunk_cap_));
  }
  if (spec_.compress) {
    live_compressors_ = static_cast<int>(spec_.compress_workers.size());
    for (std::size_t i = 0; i < spec_.compress_workers.size(); ++i) {
      sim_.spawn(compressor_worker(i));
    }
  }
  live_receivers_ = static_cast<int>(spec_.receive_workers.size());
  for (std::size_t i = 0; i < spec_.send_workers.size(); ++i) {
    sim_.spawn(sender_worker(i));
    sim_.spawn(receiver_worker(i));
  }
  if (spec_.compress) {
    for (std::size_t i = 0; i < spec_.decompress_workers.size(); ++i) {
      sim_.spawn(decompressor_worker(i));
    }
  }
}

void StreamPipeline::migrate_receive_worker(std::size_t connection, int core) {
  NS_CHECK(connection < spec_.receive_workers.size(), "no such receive worker");
  spec_.receive_workers[connection] = Worker{.core = core, .pinned = true};
}

void StreamPipeline::migrate_decompress_worker(std::size_t index, int core) {
  NS_CHECK(index < spec_.decompress_workers.size(), "no such decompress worker");
  spec_.decompress_workers[index] = Worker{.core = core, .pinned = true};
}

void StreamPipeline::retarget_receiver_nic(int nic_resource, int nic_domain) {
  NS_CHECK(nic_resource >= 0, "NIC resource must be valid");
  spec_.receiver_nic = nic_resource;
  spec_.receiver_nic_domain = nic_domain;
}

void StreamPipeline::crash_endpoint(bool sender_side, double restart_seconds) {
  NS_CHECK(spec_.resume_enabled,
           "crash events need Spec::resume_enabled (the journal mirror)");
  ++crashes_observed_;
  ++resume_handshakes_;
  // The restarted side scans its journal back: the session record plus every
  // record it had written before the death.
  journal_records_replayed_ +=
      1 + (sender_side ? sent_records_ : delivered_records_);
  recovery_wall_ms_ +=
      static_cast<std::uint64_t>(std::llround(restart_seconds * 1e3));
  // Without a journal the whole transfer restarts: everything sent so far —
  // delivered or not — crosses the wire again. Charged here so the ablation
  // bench can compare it against the journal's bounded replay window.
  restart_from_zero_bytes_ +=
      static_cast<double>(delivered_set_.size() + unacked_.size()) *
      wire_chunk_bytes(spec_, calib_);
  // Journal-driven recovery replays exactly the sent-but-unacked window.
  replays_.insert(unacked_.begin(), unacked_.end());
  // Blackout: nothing leaves the source until the restart completes.
  source_ready_time_ =
      std::max(source_ready_time_, sim_.now() + restart_seconds);
}

void StreamPipeline::fail_over_receiver(SimHost* new_host, int nic_resource,
                                        int nic_domain,
                                        double failover_seconds) {
  NS_CHECK(spec_.resume_enabled,
           "gateway failover needs Spec::resume_enabled (the journal mirror)");
  NS_CHECK(new_host != nullptr, "failover needs the buddy gateway host");
  NS_CHECK(nic_resource >= 0, "failover needs a valid buddy NIC resource");
  ++crashes_observed_;
  ++resume_handshakes_;
  // The buddy scans the *replicated* journal back: the session record plus
  // every receiver-side record the dead gateway had shipped before dying
  // (the replication ordering invariant guarantees the replica is a
  // superset of what the primary had made durable).
  journal_records_replayed_ += 1 + delivered_records_;
  recovery_wall_ms_ +=
      static_cast<std::uint64_t>(std::llround(failover_seconds * 1e3));
  // Counterfactual: without replication the whole transfer restarts against
  // a cold gateway — everything sent so far crosses the wire again.
  restart_from_zero_bytes_ +=
      static_cast<double>(delivered_set_.size() + unacked_.size()) *
      wire_chunk_bytes(spec_, calib_);
  // The replica ledger survives on the buddy, so the RESUME handshake
  // replays only the sent-but-unacked window; the ledger suppresses any
  // replay whose delivery had already committed.
  replays_.insert(unacked_.begin(), unacked_.end());
  // The dead gateway's RAM is gone: chunks DMA'd into it but not yet
  // delivered are lost and must come from the replay above, not from the
  // ghost of the victim's queues. The incarnation bump makes the receive
  // stages drop them on pop.
  ++receiver_epoch_;
  // Blackout: failure detection + handshake + replica scan.
  source_ready_time_ =
      std::max(source_ready_time_, sim_.now() + failover_seconds);
  // Re-target: workers re-read the spec every chunk, so the chunk in hand
  // finishes against the dead gateway's model state and the next one lands
  // on the buddy.
  spec_.receiver_host = new_host;
  spec_.receiver_nic = nic_resource;
  spec_.receiver_nic_domain = nic_domain;
}

void StreamPipeline::hand_off_receiver(SimHost* new_host, int nic_resource,
                                       int nic_domain,
                                       double handoff_seconds) {
  NS_CHECK(spec_.resume_enabled,
           "planned handoff needs Spec::resume_enabled (the journal mirror)");
  NS_CHECK(new_host != nullptr, "handoff needs the target gateway host");
  NS_CHECK(nic_resource >= 0, "handoff needs a valid target NIC resource");
  ++handoffs_completed_;
  // The target adopts the stream through the same RESUME handshake a
  // failover uses (one journal scan of the replica to recover the ledger) —
  // but nothing enters replays_: the source froze at a chunk boundary and
  // the in-flight window drains to delivery during the blackout, so the
  // re-work a crash would have paid (the unacked window) is exactly zero.
  ++resume_handshakes_;
  journal_records_replayed_ += 1 + delivered_records_;
  handoff_wall_ms_ +=
      static_cast<std::uint64_t>(std::llround(handoff_seconds * 1e3));
  // Freeze: the source pauses for the three phases (drain, journal ship,
  // commit); in-flight chunks keep flowing and deliver exactly once.
  source_ready_time_ =
      std::max(source_ready_time_, sim_.now() + handoff_seconds);
  // Re-target: workers re-read the spec every chunk, so the next chunk —
  // and every drained in-flight one still upstream of the wire — lands on
  // the target gateway under the bumped epoch.
  spec_.receiver_host = new_host;
  spec_.receiver_nic = nic_resource;
  spec_.receiver_nic_domain = nic_domain;
}

sim::SimProc StreamPipeline::compressor_worker(std::size_t index) {
  SimHost& host = *spec_.sender_host;
  while (true) {
    // Re-read the placement every chunk: a live migration lands here.
    const Worker worker = spec_.compress_workers[index];
    const int core = worker.core;
    const double generate_t0 = sim_.now();
    auto chunk = draw_source_chunk();
    if (!chunk.has_value()) {
      break;
    }
    if (source_ready_time_ > sim_.now()) {
      co_await sim_.delay(source_ready_time_ - sim_.now());
    }
    if (observing()) {
      // The generate span is the wait for the instrument to produce the
      // chunk (virtual time, so same-seed traces are byte-identical).
      observe(obs::Stage::kGenerate, index, host.domain_of_core(core),
              generate_t0, sim_.now(), chunk->sequence);
    }
    // Compress: read raw from the dataset's domain, write the compressed
    // buffer into the worker's own domain (first touch).
    SimHost::StepSpec step;
    step.core = core;
    step.work_bytes = chunk->raw_bytes;
    step.cpu_seconds_per_byte = 1.0 / calib_.compress_bytes_per_sec;
    step.pinned = worker.pinned;
    step.accesses = {
        {.data_domain = chunk->data_domain,
         .bytes_per_work = calib_.compress_mem_read_per_raw_byte},
        {.data_domain = host.domain_of_core(core),
         .bytes_per_work = calib_.compress_mem_write_per_raw_byte},
    };
    sim::JobSpec job = host.step_job(step);
    const double cpu_cost = job.demands.demands[0].units_per_work * step.work_bytes;
    const double compress_t0 = sim_.now();
    co_await sim_.job(std::move(job));
    stage_busy_.compress += cpu_cost;
    if (observing()) {
      observe(obs::Stage::kCompress, index, host.domain_of_core(core),
              compress_t0, sim_.now(), chunk->sequence);
    }

    chunk->data_domain = host.domain_of_core(core);

    // Load shedding (drop-newest with the real pipeline's hysteresis latch):
    // between the watermarks the freshly compressed chunk is the casualty.
    // Replays are exempt: they are recovery traffic whose originals are
    // already counted in flight, so shedding one would double-charge the
    // loss ledger and break all_chunks_accounted().
    if (spec_.overload.shed_policy == ShedPolicy::kDropNewest &&
        spec_.overload.high_watermark > 0 && !chunk->replay) {
      const std::size_t depth = send_queue_->size();
      if (depth >= spec_.overload.high_watermark) {
        shedding_ = true;
      } else if (depth <= spec_.overload.low_watermark) {
        shedding_ = false;
      }
      if (shedding_) {
        ++shed_chunks_;
        continue;
      }
    }
    // Budget admission: one token per in-flight chunk, returned at delivery.
    if (budget_tokens_ != nullptr) {
      if (budget_tokens_->size() == 0) {
        ++budget_stalls_;
      }
      const auto token = co_await budget_tokens_->pop();
      if (!token.has_value()) {
        break;
      }
      ++inflight_chunks_;
      peak_inflight_chunks_ = std::max(peak_inflight_chunks_, inflight_chunks_);
    }
    const double enqueue_t0 = sim_.now();
    const bool accepted = co_await send_queue_->push(*chunk);
    if (!accepted) {
      break;
    }
    if (observing()) {
      // Pure backpressure: the wait for compress->send queue space.
      observe(obs::Stage::kEnqueue, index, host.domain_of_core(core),
              enqueue_t0, sim_.now(), chunk->sequence);
    }
  }
  if (--live_compressors_ == 0) {
    send_queue_->close();
  }
}

sim::SimProc StreamPipeline::sender_worker(std::size_t connection) {
  SimHost& sender = *spec_.sender_host;
  sim::SimQueue<SimChunk>& out = *connection_queues_[connection];
  // Stage-major worker id: send workers follow the compress workers.
  const std::size_t trace_offset =
      (spec_.compress ? spec_.compress_workers.size() : 0) + connection;
  while (true) {
    const Worker worker = spec_.send_workers[connection];
    const int core = worker.core;
    // Re-read the receiver host every chunk: a gateway failover re-targets
    // it mid-run (fail_over_receiver), and the wire job below must charge
    // the *current* gateway's NIC and memory.
    SimHost& receiver = *spec_.receiver_host;
    std::optional<SimChunk> chunk;
    if (spec_.compress) {
      chunk = co_await send_queue_->pop();
    } else {
      const double generate_t0 = sim_.now();
      chunk = draw_source_chunk();
      if (chunk.has_value() && source_ready_time_ > sim_.now()) {
        co_await sim_.delay(source_ready_time_ - sim_.now());
      }
      if (chunk.has_value() && observing()) {
        observe(obs::Stage::kGenerate, trace_offset,
                sender.domain_of_core(core), generate_t0, sim_.now(),
                chunk->sequence);
      }
    }
    if (!chunk.has_value()) {
      break;
    }

    // Budget admission for the network-only pipeline (with compression on,
    // the compressor already charged this chunk).
    if (!spec_.compress && budget_tokens_ != nullptr) {
      if (budget_tokens_->size() == 0) {
        ++budget_stalls_;
      }
      const auto token = co_await budget_tokens_->pop();
      if (!token.has_value()) {
        break;
      }
      ++inflight_chunks_;
      peak_inflight_chunks_ = std::max(peak_inflight_chunks_, inflight_chunks_);
    }
    // Resume mirror (core/pipeline.cpp's sender): a replay the handshake
    // already reported delivered is suppressed before it spends credit or
    // wire time; everything else is WAL'd as sent, and replayed chunks are
    // charged to the re-work ledger.
    if (spec_.resume_enabled) {
      if (chunk->replay && delivered_set_.count(chunk->sequence) != 0) {
        ++duplicates_suppressed_;
        if (budget_tokens_ != nullptr) {
          --inflight_chunks_;
          co_await budget_tokens_->push(1);
        }
        continue;
      }
      ++journal_records_written_;  // kSent
      ++sent_records_;
      unacked_.insert(chunk->sequence);
      if (chunk->replay) {
        ++replayed_chunks_;
        rework_bytes_ += chunk->wire_bytes;
      }
    }
    // The send span mirrors the real pipeline's send_message: it covers the
    // credit wait plus protocol work and wire transfer.
    const double send_t0 = sim_.now();
    // Credit flow control: one token per chunk on the wire; the receiver
    // returns tokens as it consumes, so an empty pool is the sender stalled
    // on its peer — exactly the real pipeline's wait_for_credit().
    if (!credit_tokens_.empty()) {
      auto& tokens = *credit_tokens_[connection];
      if (tokens.size() == 0) {
        ++credit_stalls_;
      }
      const auto token = co_await tokens.pop();
      if (!token.has_value()) {
        break;
      }
    }

    // One combined job for protocol work + wire transfer: the real stack
    // overlaps send() processing with transmission, so the step and the
    // transfer share a demand vector rather than running back to back.
    SimHost::StepSpec step;
    step.core = core;
    step.work_bytes = chunk->wire_bytes;
    step.cpu_seconds_per_byte = 1.0 / calib_.send_cpu_bytes_per_sec;
    step.pinned = worker.pinned;
    step.accesses = {
        {.data_domain = chunk->data_domain,
         .bytes_per_work = calib_.send_mem_read_per_wire_byte},
    };
    sim::JobSpec job = sender.step_job(step);
    const sim::JobSpec wire = spec_.link->transfer_job(
        receiver, spec_.sender_nic, spec_.receiver_nic, spec_.receiver_nic_domain,
        chunk->wire_bytes, spec_.per_connection_cap);
    for (const auto& demand : wire.demands.demands) {
      job.demands.demands.push_back(demand);
    }
    job.demands.rate_cap = std::min(job.demands.rate_cap, wire.demands.rate_cap);
    const double cpu_cost = job.demands.demands[0].units_per_work * step.work_bytes;
    co_await sim_.job(std::move(job));
    stage_busy_.send += cpu_cost;
    if (observing()) {
      observe(obs::Stage::kSend, trace_offset, sender.domain_of_core(core),
              send_t0, sim_.now(), chunk->sequence);
    }

    // DMA landed the bytes in the receiver's NIC domain (§2.2), on the
    // current gateway incarnation — if that gateway later dies, the bytes
    // die with it.
    chunk->data_domain = spec_.receiver_nic_domain;
    chunk->receiver_epoch = receiver_epoch_;
    const bool accepted = co_await out.push(*chunk);
    if (!accepted) {
      break;
    }
  }
  out.close();
}

sim::SimProc StreamPipeline::receiver_worker(std::size_t connection) {
  sim::SimQueue<SimChunk>& in = *connection_queues_[connection];
  // Stage-major worker id: receive workers follow compress + send.
  const std::size_t trace_offset =
      (spec_.compress ? spec_.compress_workers.size() : 0) +
      spec_.send_workers.size() + connection;
  while (true) {
    // The receive span includes the wait for bytes, mirroring the real
    // worker blocked inside socket->recv().
    const double receive_t0 = sim_.now();
    auto chunk = co_await in.pop();
    if (!chunk.has_value()) {
      break;
    }
    // Bytes queued in a crashed gateway's RAM never reach the adopter: the
    // journal replay re-sends them. Return the chunk's credit and budget
    // tokens so the sender's window is whole, then drop it.
    if (chunk->receiver_epoch != receiver_epoch_) {
      if (budget_tokens_ != nullptr) {
        --inflight_chunks_;
        co_await budget_tokens_->push(1);
      }
      if (!credit_tokens_.empty()) {
        co_await credit_tokens_[connection]->push(1);
      }
      continue;
    }
    const Worker worker = spec_.receive_workers[connection];
    const int core = worker.core;
    // Re-read the receiver host every chunk: a gateway failover re-targets
    // it mid-run, and this chunk's packet processing runs on the gateway
    // that actually received it.
    SimHost& host = *spec_.receiver_host;
    // Packet processing: read the DMA'd packets (remote if this core is not
    // in the NIC domain - the crux of Observation 1), reassemble into a
    // buffer in the worker's own domain.
    const bool local_packets = chunk->data_domain == host.domain_of_core(core);
    SimHost::StepSpec step;
    step.core = core;
    step.work_bytes = chunk->wire_bytes;
    step.cpu_seconds_per_byte = 1.0 / calib_.receive_cpu_bytes_per_sec;
    step.pinned = worker.pinned;
    step.latency_sensitive = true;  // packet processing chases fresh DMA data
    step.accesses = {
        {.data_domain = chunk->data_domain,
         .bytes_per_work = local_packets ? calib_.receive_local_read_per_wire_byte
                                         : calib_.receive_remote_read_per_wire_byte},
        {.data_domain = host.domain_of_core(core),
         .bytes_per_work = calib_.receive_mem_write_per_wire_byte},
    };
    sim::JobSpec job = host.step_job(step);
    const double cpu_cost = job.demands.demands[0].units_per_work * step.work_bytes;
    co_await sim_.job(std::move(job));
    stage_busy_.receive += cpu_cost;
    if (observing()) {
      observe(obs::Stage::kReceive, trace_offset, host.domain_of_core(core),
              receive_t0, sim_.now(), chunk->sequence);
    }

    wire_bytes_received_ += chunk->wire_bytes;
    finished_at_ = sim_.now();
    chunk->data_domain = host.domain_of_core(core);

    if (spec_.compress) {
      const double enqueue_t0 = sim_.now();
      const bool accepted = co_await decompress_queue_->push(*chunk);
      if (!accepted) {
        break;
      }
      if (observing()) {
        observe(obs::Stage::kEnqueue, trace_offset, host.domain_of_core(core),
                enqueue_t0, sim_.now(), chunk->sequence);
      }
    } else {
      // Resume mirror: the committed-delivery ledger converts the crash
      // model's at-least-once arrivals into exactly-once deliveries.
      const bool duplicate =
          spec_.resume_enabled && delivered_set_.count(chunk->sequence) != 0;
      if (duplicate) {
        ++duplicate_deliveries_suppressed_;
      } else {
        if (spec_.resume_enabled) {
          delivered_set_.insert(chunk->sequence);
          unacked_.erase(chunk->sequence);
          ++journal_records_written_;  // kDelivered
          ++delivered_records_;
        }
        raw_bytes_delivered_ += chunk->raw_bytes;
        ++chunks_delivered_;
        if (observing()) {
          // Network-only: delivery happens here; a zero-length sink span
          // marks the chunk leaving the pipeline.
          observe(obs::Stage::kSink, trace_offset, host.domain_of_core(core),
                  sim_.now(), sim_.now(), chunk->sequence);
        }
        if (spec_.e2e_timeline != nullptr) {
          spec_.e2e_timeline->record(sim_.now(), chunk->raw_bytes);
        }
      }
      if (budget_tokens_ != nullptr) {
        --inflight_chunks_;
        co_await budget_tokens_->push(1);
      }
    }
    // Consumption replenishes the sender's window: the chunk has left the
    // connection, so its credit goes back. With the decompress queue full
    // this line is never reached, and the sender starves — by design.
    if (!credit_tokens_.empty()) {
      co_await credit_tokens_[connection]->push(1);
    }
  }
  if (!credit_tokens_.empty()) {
    credit_tokens_[connection]->close();  // unblock a sender mid-wait
  }
  if (--live_receivers_ == 0) {
    decompress_queue_->close();
  }
}

sim::SimProc StreamPipeline::decompressor_worker(std::size_t index) {
  // Stage-major worker id: decompress workers come last (only spawned when
  // compression is on, so all three predecessor stages exist).
  const std::size_t trace_offset = spec_.compress_workers.size() +
                                   spec_.send_workers.size() +
                                   spec_.receive_workers.size() + index;
  while (true) {
    auto chunk = co_await decompress_queue_->pop();
    if (!chunk.has_value()) {
      break;
    }
    // Same incarnation check as the receive stage: a chunk that reached the
    // decompress queue before its gateway died is lost with that gateway
    // (its credit was already returned by the receive stage).
    if (chunk->receiver_epoch != receiver_epoch_) {
      if (budget_tokens_ != nullptr) {
        --inflight_chunks_;
        co_await budget_tokens_->push(1);
      }
      continue;
    }
    const Worker worker = spec_.decompress_workers[index];
    const int core = worker.core;
    // Re-read the receiver host every chunk (gateway failover re-targets it).
    SimHost& host = *spec_.receiver_host;
    SimHost::StepSpec step;
    step.core = core;
    step.work_bytes = chunk->raw_bytes;
    step.cpu_seconds_per_byte = 1.0 / calib_.decompress_bytes_per_sec;
    step.pinned = worker.pinned;
    step.accesses = {
        {.data_domain = chunk->data_domain,
         .bytes_per_work = calib_.decompress_mem_read_per_raw_byte},
        {.data_domain = host.domain_of_core(core),
         .bytes_per_work = calib_.decompress_mem_write_per_raw_byte},
    };
    sim::JobSpec job = host.step_job(step);
    const double cpu_cost = job.demands.demands[0].units_per_work * step.work_bytes;
    const double decompress_t0 = sim_.now();
    co_await sim_.job(std::move(job));
    stage_busy_.decompress += cpu_cost;
    if (observing()) {
      observe(obs::Stage::kDecompress, trace_offset, host.domain_of_core(core),
              decompress_t0, sim_.now(), chunk->sequence);
    }

    // Resume mirror: the committed-delivery ledger converts the crash
    // model's at-least-once arrivals into exactly-once deliveries. A
    // duplicate still paid the decompress cost above — the real pipeline
    // dedups earlier, so this models the conservative bound.
    const bool duplicate =
        spec_.resume_enabled && delivered_set_.count(chunk->sequence) != 0;
    if (duplicate) {
      ++duplicate_deliveries_suppressed_;
    } else {
      if (spec_.resume_enabled) {
        delivered_set_.insert(chunk->sequence);
        unacked_.erase(chunk->sequence);
        ++journal_records_written_;  // kDelivered
        ++delivered_records_;
      }
      if (observing()) {
        // Zero-length sink span: the chunk leaves the pipeline here.
        observe(obs::Stage::kSink, trace_offset, host.domain_of_core(core),
                sim_.now(), sim_.now(), chunk->sequence);
      }
      raw_bytes_delivered_ += chunk->raw_bytes;
      ++chunks_delivered_;
      finished_at_ = sim_.now();
      if (spec_.e2e_timeline != nullptr) {
        spec_.e2e_timeline->record(sim_.now(), chunk->raw_bytes);
      }
    }
    if (budget_tokens_ != nullptr) {
      --inflight_chunks_;
      co_await budget_tokens_->push(1);
    }
  }
}

ResumeCountersSnapshot StreamPipeline::resume_snapshot() const {
  ResumeCountersSnapshot snapshot;
  snapshot.crashes_observed = crashes_observed_;
  snapshot.resume_handshakes = resume_handshakes_;
  snapshot.journal_records_written = journal_records_written_;
  snapshot.journal_records_replayed = journal_records_replayed_;
  snapshot.torn_records_truncated = 0;  // the sim's crash model is chunk-atomic
  snapshot.duplicates_suppressed = duplicates_suppressed_;
  snapshot.duplicate_deliveries_suppressed = duplicate_deliveries_suppressed_;
  snapshot.replayed_chunks = replayed_chunks_;
  snapshot.rework_bytes =
      static_cast<std::uint64_t>(std::llround(rework_bytes_));
  snapshot.recovery_wall_ms = recovery_wall_ms_;
  return snapshot;
}

}  // namespace numastream::simrt
