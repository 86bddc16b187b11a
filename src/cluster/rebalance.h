// Load-driven cross-gateway rebalancing: the planned-handoff protocol and
// the controller that decides when to use it (DESIGN.md §13).
//
// PR 6's federation reacts to *death*: a gateway must stop heartbeating
// before its streams move. Most production incidents are softer — a gray
// failure (a gateway that answers every probe, slowly) or plain load skew.
// This layer moves streams off hot or degraded gateways while everyone is
// still alive, with a three-phase planned transfer that is zero-loss and
// exactly-once by construction:
//
//   PREPARE  source freezes the stream at a chunk boundary and drains its
//            in-flight work (core/drain.h DrainController semantics); the
//            target acknowledges it is ready to adopt.
//   JOURNAL  source flushes its session journal and ships the tail to the
//            target over the existing REPL channel (the target is normally
//            the ring buddy and already holds a replica); the frame
//            declares the freeze watermark.
//   COMMIT   target promotes its standby session — the epoch bump fences
//            the source exactly as a crash takeover would, so the old
//            owner can never double-deliver — and the target resumes the
//            stream from the RESUME watermarks.
//
// A crash of either side mid-handoff degrades cleanly to PR 6 crash
// failover: before COMMIT the source still owns the stream (an abort or a
// dead target leaves it frozen-then-resumed at the source); after COMMIT
// the target owns it and the source is fenced. There is no window in which
// both (or neither) own the stream.
//
// RebalanceController is the policy half: clockless and deterministic like
// HealthMonitor, it is fed one per-gateway load sample per observation
// window plus the PeerFailureDetector's verdicts, and decides at most one
// move at a time — imbalance must exceed `imbalance_ratio` for
// `hysteresis_windows` consecutive windows, every trigger starts a
// `cooldown_windows` quiet period, and at most `max_concurrent` handoffs
// may be in flight. Everything defaults off behind RebalanceConfig below.
//
// HANDOFF frame (NSM1 flag bit 4, mask 16, msg/message.h). The message's
// sequence field is the handoff sequence number and the body is fixed-size:
//
//   0   4  phase (1 prepare, 2 journal, 3 commit, 4 ack, 5 abort)
//   4   8  session id
//   12  8  epoch
//   20  4  stream id
//   24  4  source gateway
//   28  4  target gateway
//   32  8  watermark (sequence the stream is frozen at)
//
// HANDOFF frames only appear when rebalancing is on; without it the wire
// stays bit-identical to NSM1 v1.3.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cluster/failover.h"
#include "cluster/replication.h"
#include "common/status.h"
#include "metrics/federation_counters.h"
#include "msg/message.h"

namespace numastream {

/// Load-driven rebalancing policy for a federated gateway (DESIGN.md §13).
/// Everything defaults to off, matching failure-only federation behavior
/// byte for byte: no load windows, no HANDOFF frames on the wire, streams
/// move only when a gateway dies. Turning it on means setting `window_ms`
/// (the load-observation window); the controller then watches per-gateway
/// load gauges and plans lossless handoffs off hot or degraded gateways.
struct RebalanceConfig {
  /// Load-observation window in milliseconds (virtual time in simulation,
  /// wall time on a real pipeline). 0 disables the whole subsystem.
  std::uint64_t window_ms = 0;
  /// A handoff is considered when the hottest gateway's load exceeds the
  /// cluster mean by this factor. Must be finite and > 1.
  double imbalance_ratio = 1.5;
  /// Consecutive over-threshold windows before a handoff engages, and
  /// consecutive calm windows before the controller re-arms (hysteresis
  /// against transient spikes). Must be >= 1.
  int hysteresis_windows = 2;
  /// Windows after a triggered handoff during which no further handoff may
  /// start (migration-storm guard). Must be >= 1.
  int cooldown_windows = 5;
  /// Handoffs allowed in flight at once across the cluster. Must be >= 1.
  int max_concurrent = 1;
  /// Also drain streams off a peer classified *degraded* (gray failure),
  /// not just off an overloaded-but-healthy one.
  bool drain_degraded = true;

  [[nodiscard]] bool is_default() const { return *this == RebalanceConfig{}; }

  /// Rebalancing is on iff any knob moved; a default section keeps the wire
  /// and the federation bit-identical to the failure-only runtime.
  [[nodiscard]] bool enabled() const { return !is_default(); }

  friend bool operator==(const RebalanceConfig&,
                         const RebalanceConfig&) = default;
};

namespace cluster {

/// Exact size of a HANDOFF body: phase + session + epoch + stream +
/// source gateway + target gateway + watermark. HANDOFF frames are always
/// exactly this long; any other length is corruption.
inline constexpr std::size_t kHandoffBodySize = 40;
static_assert(kHandoffBodySize == message_kind_rule(MessageKind::kHandoff).min_body &&
                  kHandoffBodySize == message_kind_rule(MessageKind::kHandoff).max_body,
              "the NSM1 header check admits exactly the HANDOFF body size");

/// HANDOFF frame phases: the planned-transfer sub-protocol between
/// gateways (source drives prepare/journal/commit; the target answers each
/// with an ack or an abort).
enum class HandoffPhase : std::uint32_t {
  kPrepare = 1,  ///< source -> target: stream frozen at `watermark`, drained
  kJournal = 2,  ///< source -> target: journal tail flushed and replicated
  kCommit = 3,   ///< source -> target: transfer ownership (epoch bump fences us)
  kAck = 4,      ///< target -> source: phase accepted
  kAbort = 5,    ///< either: abandon; fall back to crash-failover rules
};

/// Decoded payload of a HANDOFF frame.
struct HandoffInfo {
  HandoffPhase phase = HandoffPhase::kAbort;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t source_gateway = 0;
  std::uint32_t target_gateway = 0;
  /// Sequence the stream is frozen at: everything below is drained and
  /// replicated before commit, so the target resumes exactly here.
  std::uint64_t watermark = 0;

  friend bool operator==(const HandoffInfo&, const HandoffInfo&) = default;
};

/// Planned-handoff frame. `handoff_sequence` lands in the message's
/// sequence field; the fixed-size body carries the rest of `info`.
[[nodiscard]] Message handoff_frame(const HandoffInfo& info,
                                    std::uint64_t handoff_sequence = 0);

/// Parses a HANDOFF frame body. INVALID_ARGUMENT when the phase is unknown
/// or the body is not exactly kHandoffBodySize bytes.
Result<HandoffInfo> parse_handoff_body(ByteSpan body);

/// One gateway's load sample for one observation window. The components
/// are folded into a dimensionless pressure index; only *relative* scores
/// across gateways matter to the controller.
struct GatewayLoad {
  std::uint64_t inflight_bytes = 0;   ///< bytes admitted but not delivered
  std::size_t queue_depth = 0;        ///< frames queued between stages
  std::uint64_t repl_lag_records = 0; ///< journal records behind the buddy
  double gbps = 0.0;                  ///< delivered throughput this window

  /// Dimensionless pressure index: one unit per MiB in flight, per queued
  /// frame, per lagging record, per delivered Gbps. The mix is coarse by
  /// design — the controller compares gateways against each other, not
  /// against an absolute scale.
  [[nodiscard]] double score() const;

  friend bool operator==(const GatewayLoad&, const GatewayLoad&) = default;
};

/// One planned move decided by the controller: drain a stream off `source`
/// onto `target`.
struct RebalanceDecision {
  std::uint32_t source = 0;
  std::uint32_t target = 0;
  /// True when the trigger was the source's gray-failure (degraded)
  /// classification rather than load skew.
  bool degraded_drain = false;

  friend bool operator==(const RebalanceDecision&,
                         const RebalanceDecision&) = default;
};

/// Windowed, clockless rebalancing policy. Not thread-safe; drive it from
/// the monitor loop that owns the cluster view (same contract as
/// FailoverCoordinator).
class RebalanceController {
 public:
  /// `config` must be enabled (rebalance.enabled()); knobs are read once.
  RebalanceController(const RebalanceConfig& config, std::uint32_t gateways,
                      FederationCounters* counters = nullptr);

  /// Feeds one observation window: `loads[g]` and `health[g]` describe
  /// gateway g (both sized `gateways`). Returns a decision when a handoff
  /// should start now — the caller must later report its end via
  /// handoff_finished(). Degraded peers outrank load skew as sources; dead
  /// peers are never sources or targets (that is crash failover's job).
  std::optional<RebalanceDecision> observe_window(
      const std::vector<GatewayLoad>& loads,
      const std::vector<PeerHealth>& health);

  /// Reports one in-flight handoff finished (committed or aborted), freeing
  /// its max_concurrent slot.
  void handoff_finished();

  [[nodiscard]] int handoffs_in_flight() const noexcept { return in_flight_; }

 private:
  const RebalanceConfig config_;
  const std::uint32_t gateways_;
  FederationCounters* counters_;

  int cooldown_ = 0;   ///< windows until the next trigger is allowed
  int in_flight_ = 0;  ///< handoffs started but not yet finished
  int streak_ = 0;     ///< consecutive windows the armed source breached
  int armed_source_ = -1;  ///< gateway the breach streak is accumulating on
};

/// The target gateway's side of one handoff link: a state machine over the
/// three phases, promoting the standby session on COMMIT. Drive it from
/// the thread that serves the link (same contract as StandbySession —
/// handle() itself is not re-entrant, but promote() under the hood is
/// thread-safe against the crash-failover path).
class HandoffTarget final : public PeerHandler {
 public:
  /// Borrows `standby` (the replica session for the handoff's streams);
  /// it must outlive the target. `self` is this gateway's ring slot.
  HandoffTarget(StandbySession& standby, std::uint64_t session_id,
                std::uint32_t self, FederationCounters* counters = nullptr);

  /// Handles one decoded HANDOFF frame and returns the reply to send back
  /// (an ack, echoing our epoch). Errors are protocol violations (wrong
  /// session, wrong target, out-of-order phase, malformed body) — the link
  /// should drop, and the source treats that as an abort.
  Result<Message> handle(const Message& frame) override;

  /// True once a COMMIT has been applied (the standby was promoted and
  /// this gateway owns the stream).
  [[nodiscard]] bool committed() const noexcept { return committed_; }

  /// Watermark declared by the last committed handoff's JOURNAL phase.
  [[nodiscard]] std::uint64_t committed_watermark() const noexcept {
    return committed_watermark_;
  }

 private:
  enum class Phase { kIdle, kPrepared, kJournaled };

  StandbySession& standby_;
  const std::uint64_t session_id_;
  const std::uint32_t self_;
  FederationCounters* counters_;

  Phase phase_ = Phase::kIdle;
  HandoffInfo pending_;  ///< the in-flight handoff (kPrepared/kJournaled)
  bool committed_ = false;
  std::uint64_t committed_watermark_ = 0;
};

/// The source gateway's side: drives PREPARE → JOURNAL → COMMIT over a
/// peer link, calling back into the pipeline for the local work between
/// phases. Any failure before COMMIT aborts the handoff (best
/// effort abort frame) and leaves the source the owner — the caller then
/// falls back to crash-failover rules if the target is in fact dead.
class HandoffSource {
 public:
  /// Local work the protocol sequences. Each hook returns OK to proceed;
  /// an error aborts the handoff with the source still owning the stream.
  struct Hooks {
    /// PREPARE: stop ingesting the stream at a chunk boundary and drain
    /// in-flight work (DrainController::request + await).
    std::function<Status()> freeze_and_drain;
    /// JOURNAL: flush the session journal and replicate its tail to the
    /// target (ReplicatedJournalMedia::flush already means exactly this).
    std::function<Status()> flush_and_replicate;
    /// COMMIT applied: the target promoted to `new_epoch`; this side must
    /// treat its own session as fenced from now on.
    std::function<void(std::uint64_t new_epoch)> fenced;
  };

  HandoffSource(PeerLink& link, std::uint64_t session_id,
                FederationCounters* counters = nullptr);

  /// Runs one complete handoff of `stream_id` from `source` to `target`,
  /// frozen at `watermark`, under the source's current `epoch`. Returns OK
  /// only when the COMMIT ack arrived — ownership transferred, source
  /// fenced. Any other outcome leaves ownership at the source.
  Status run(std::uint32_t stream_id, std::uint32_t source,
             std::uint32_t target, std::uint64_t epoch,
             std::uint64_t watermark, const Hooks& hooks);

 private:
  /// Sends one phase frame and validates the ack. Returns the ack's epoch.
  Result<std::uint64_t> exchange_phase(const HandoffInfo& info);

  PeerLink& link_;
  const std::uint64_t session_id_;
  FederationCounters* counters_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace cluster
}  // namespace numastream
