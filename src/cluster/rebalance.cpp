#include "cluster/rebalance.h"

#include <algorithm>

#include "common/assert.h"

namespace numastream {
namespace cluster {

Message handoff_frame(const HandoffInfo& info, std::uint64_t handoff_sequence) {
  Message m;
  m.kind = MessageKind::kHandoff;
  m.sequence = handoff_sequence;
  m.body.reserve(kHandoffBodySize);
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(info.phase));
  w.u64(info.session_id);
  w.u64(info.epoch);
  w.u32(info.stream_id);
  w.u32(info.source_gateway);
  w.u32(info.target_gateway);
  w.u64(info.watermark);
  NS_CHECK(m.body.size() == kHandoffBodySize,
           "handoff frame body must be exactly kHandoffBodySize");
  return m;
}

Result<HandoffInfo> parse_handoff_body(ByteSpan body) {
  if (body.size() != kHandoffBodySize) {
    return invalid_argument_error(
        "handoff frame: body must be exactly " +
        std::to_string(kHandoffBodySize) + " bytes, got " +
        std::to_string(body.size()));
  }
  ByteReader r(body);
  HandoffInfo info;
  std::uint32_t phase = 0;
  NS_RETURN_IF_ERROR(r.u32(phase));
  if (phase < static_cast<std::uint32_t>(HandoffPhase::kPrepare) ||
      phase > static_cast<std::uint32_t>(HandoffPhase::kAbort)) {
    return invalid_argument_error("handoff frame: unknown phase " +
                                  std::to_string(phase));
  }
  info.phase = static_cast<HandoffPhase>(phase);
  NS_RETURN_IF_ERROR(r.u64(info.session_id));
  NS_RETURN_IF_ERROR(r.u64(info.epoch));
  NS_RETURN_IF_ERROR(r.u32(info.stream_id));
  NS_RETURN_IF_ERROR(r.u32(info.source_gateway));
  NS_RETURN_IF_ERROR(r.u32(info.target_gateway));
  NS_RETURN_IF_ERROR(r.u64(info.watermark));
  return info;
}

double GatewayLoad::score() const {
  return static_cast<double>(inflight_bytes) / (1024.0 * 1024.0) +
         static_cast<double>(queue_depth) +
         static_cast<double>(repl_lag_records) + gbps;
}

RebalanceController::RebalanceController(const RebalanceConfig& config,
                                         std::uint32_t gateways,
                                         FederationCounters* counters)
    : config_(config), gateways_(gateways), counters_(counters) {
  NS_CHECK(config.enabled(), "RebalanceController needs rebalance enabled");
  NS_CHECK(gateways >= 2, "rebalancing needs at least two gateways");
}

std::optional<RebalanceDecision> RebalanceController::observe_window(
    const std::vector<GatewayLoad>& loads,
    const std::vector<PeerHealth>& health) {
  NS_CHECK(loads.size() == gateways_ && health.size() == gateways_,
           "one load sample and one verdict per gateway");
  if (cooldown_ > 0) {
    --cooldown_;
  }

  // Pick the candidate source: a degraded (gray-failed) peer outranks load
  // skew — it is the stronger signal that streams should leave.
  int source = -1;
  bool degraded_drain = false;
  if (config_.drain_degraded) {
    for (std::uint32_t g = 0; g < gateways_; ++g) {
      // An already-drained degraded peer (no streams queued on it) has
      // nothing left to move; re-triggering on it would burn the cooldown
      // for no work.
      if (health[g] == PeerHealth::kDegraded && loads[g].queue_depth > 0) {
        source = static_cast<int>(g);
        degraded_drain = true;
        break;
      }
    }
  }
  if (source < 0) {
    double sum = 0.0;
    int live = 0;
    int hottest = -1;
    double hottest_score = 0.0;
    for (std::uint32_t g = 0; g < gateways_; ++g) {
      if (health[g] == PeerHealth::kDead) {
        continue;
      }
      const double score = loads[g].score();
      sum += score;
      ++live;
      if (hottest < 0 || score > hottest_score) {
        hottest = static_cast<int>(g);
        hottest_score = score;
      }
    }
    const double mean = live > 0 ? sum / live : 0.0;
    if (live >= 2 && mean > 0.0 &&
        hottest_score > config_.imbalance_ratio * mean) {
      source = hottest;
    }
  }

  // Hysteresis: the same source must breach for hysteresis_windows
  // consecutive windows before a move engages. A calm window (or the hot
  // spot moving) resets the streak, so one spike never migrates a stream.
  if (source < 0) {
    streak_ = 0;
    armed_source_ = -1;
    return std::nullopt;
  }
  if (armed_source_ == source) {
    ++streak_;
  } else {
    armed_source_ = source;
    streak_ = 1;
  }
  if (streak_ < config_.hysteresis_windows) {
    return std::nullopt;
  }
  if (cooldown_ > 0 || in_flight_ >= config_.max_concurrent) {
    return std::nullopt;
  }

  // Target: the coolest healthy gateway other than the source. Degraded
  // peers are never targets (moving load onto a slow box helps nobody),
  // dead ones belong to crash failover.
  int target = -1;
  double target_score = 0.0;
  for (std::uint32_t g = 0; g < gateways_; ++g) {
    if (static_cast<int>(g) == source || health[g] != PeerHealth::kHealthy) {
      continue;
    }
    const double score = loads[g].score();
    if (target < 0 || score < target_score) {
      target = static_cast<int>(g);
      target_score = score;
    }
  }
  if (target < 0) {
    return std::nullopt;
  }

  cooldown_ = config_.cooldown_windows;
  ++in_flight_;
  streak_ = 0;
  armed_source_ = -1;
  if (counters_ != nullptr) {
    counters_->rebalance_triggers.fetch_add(1, std::memory_order_relaxed);
  }
  return RebalanceDecision{.source = static_cast<std::uint32_t>(source),
                           .target = static_cast<std::uint32_t>(target),
                           .degraded_drain = degraded_drain};
}

void RebalanceController::handoff_finished() {
  NS_CHECK(in_flight_ > 0, "no handoff in flight to finish");
  --in_flight_;
}

HandoffTarget::HandoffTarget(StandbySession& standby, std::uint64_t session_id,
                             std::uint32_t self, FederationCounters* counters)
    : standby_(standby),
      session_id_(session_id),
      self_(self),
      counters_(counters) {}

Result<Message> HandoffTarget::handle(const Message& frame) {
  if (frame.kind != MessageKind::kHandoff) {
    return invalid_argument_error("handoff target: not a handoff frame");
  }
  auto parsed = parse_handoff_body(ByteSpan(frame.body.data(), frame.body.size()));
  if (!parsed.ok()) {
    return parsed.status();
  }
  const HandoffInfo info = parsed.value();
  if (info.session_id != session_id_) {
    return invalid_argument_error(
        "handoff target: wrong session " + std::to_string(info.session_id) +
        " (serving " + std::to_string(session_id_) + ")");
  }
  if (info.target_gateway != self_ && info.phase != HandoffPhase::kAbort) {
    return invalid_argument_error(
        "handoff target: frame addressed to gateway " +
        std::to_string(info.target_gateway) + ", this is " +
        std::to_string(self_));
  }

  HandoffInfo ack = info;
  ack.phase = HandoffPhase::kAck;
  ack.epoch = standby_.epoch();

  switch (info.phase) {
    case HandoffPhase::kPrepare:
      // A fresh PREPARE supersedes any stale half-finished handoff: the
      // source only sends it after freeze+drain, so whatever we remembered
      // was abandoned on its side.
      pending_ = info;
      phase_ = Phase::kPrepared;
      return handoff_frame(ack, frame.sequence);
    case HandoffPhase::kJournal:
      if (phase_ != Phase::kPrepared || info.stream_id != pending_.stream_id) {
        return invalid_argument_error(
            "handoff target: JOURNAL without a matching PREPARE");
      }
      pending_ = info;  // adopt the declared freeze watermark
      phase_ = Phase::kJournaled;
      return handoff_frame(ack, frame.sequence);
    case HandoffPhase::kCommit: {
      if (phase_ != Phase::kJournaled || info.stream_id != pending_.stream_id) {
        return invalid_argument_error(
            "handoff target: COMMIT without a matching JOURNAL");
      }
      // The promotion *is* the ownership transfer: the epoch bump fences
      // the source's replication session exactly as a crash takeover
      // would, so from this ack on only we can deliver the stream.
      ack.epoch = standby_.promote();
      committed_ = true;
      committed_watermark_ = pending_.watermark;
      phase_ = Phase::kIdle;
      if (counters_ != nullptr) {
        counters_->handoffs_completed.fetch_add(1, std::memory_order_relaxed);
        counters_->handoff_streams_moved.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
      return handoff_frame(ack, frame.sequence);
    }
    case HandoffPhase::kAbort:
      phase_ = Phase::kIdle;
      if (counters_ != nullptr) {
        counters_->handoffs_aborted.fetch_add(1, std::memory_order_relaxed);
      }
      return handoff_frame(ack, frame.sequence);
    case HandoffPhase::kAck:
      return invalid_argument_error("handoff target: unexpected ack");
  }
  return invalid_argument_error("handoff target: unreachable phase");
}

HandoffSource::HandoffSource(PeerLink& link, std::uint64_t session_id,
                             FederationCounters* counters)
    : link_(link), session_id_(session_id), counters_(counters) {}

Result<std::uint64_t> HandoffSource::exchange_phase(const HandoffInfo& info) {
  auto reply = link_.exchange(handoff_frame(info, next_sequence_++));
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().kind != MessageKind::kHandoff) {
    return invalid_argument_error("handoff source: reply is not a handoff frame");
  }
  auto parsed = parse_handoff_body(
      ByteSpan(reply.value().body.data(), reply.value().body.size()));
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (parsed.value().phase != HandoffPhase::kAck ||
      parsed.value().stream_id != info.stream_id) {
    return invalid_argument_error("handoff source: peer rejected phase " +
                                  std::to_string(static_cast<std::uint32_t>(
                                      info.phase)));
  }
  return parsed.value().epoch;
}

Status HandoffSource::run(std::uint32_t stream_id, std::uint32_t source,
                          std::uint32_t target, std::uint64_t epoch,
                          std::uint64_t watermark, const Hooks& hooks) {
  if (counters_ != nullptr) {
    counters_->handoffs_planned.fetch_add(1, std::memory_order_relaxed);
  }
  HandoffInfo info;
  info.session_id = session_id_;
  info.epoch = epoch;
  info.stream_id = stream_id;
  info.source_gateway = source;
  info.target_gateway = target;
  info.watermark = watermark;

  // On any pre-COMMIT failure the source still owns the stream. Tell the
  // target (best effort — it may be dead, which is fine: a dead target is
  // crash failover's problem, and its half-open state dies with it), count
  // the abort, and surface the original error.
  const auto abort_with = [&](Status why) {
    info.phase = HandoffPhase::kAbort;
    (void)link_.exchange(handoff_frame(info, next_sequence_++));
    if (counters_ != nullptr) {
      counters_->handoffs_aborted.fetch_add(1, std::memory_order_relaxed);
    }
    return why;
  };

  // PREPARE: local freeze+drain first — the frame promises the stream is
  // quiescent at `watermark`, so the promise must be true before it is made.
  if (hooks.freeze_and_drain) {
    Status frozen = hooks.freeze_and_drain();
    if (!frozen.is_ok()) {
      return abort_with(std::move(frozen));
    }
  }
  info.phase = HandoffPhase::kPrepare;
  if (auto ack = exchange_phase(info); !ack.ok()) {
    return abort_with(ack.status());
  }

  // JOURNAL: flush + replicate the tail, then declare the watermark.
  if (hooks.flush_and_replicate) {
    Status flushed = hooks.flush_and_replicate();
    if (!flushed.is_ok()) {
      return abort_with(std::move(flushed));
    }
  }
  info.phase = HandoffPhase::kJournal;
  if (auto ack = exchange_phase(info); !ack.ok()) {
    return abort_with(ack.status());
  }

  // COMMIT: the point of no return. A lost ack after the target promoted
  // is indistinguishable from a lost frame before it — but safe either
  // way: we abort (keep serving) and the target's higher epoch fences our
  // next replication exchange, converting the race into the crash-failover
  // path rather than a double delivery.
  info.phase = HandoffPhase::kCommit;
  auto ack = exchange_phase(info);
  if (!ack.ok()) {
    return abort_with(ack.status());
  }
  if (ack.value() <= epoch) {
    return abort_with(data_loss_error(
        "handoff source: commit ack did not advance the epoch"));
  }
  if (hooks.fenced) {
    hooks.fenced(ack.value());
  }
  return Status::ok();
}

}  // namespace cluster
}  // namespace numastream
