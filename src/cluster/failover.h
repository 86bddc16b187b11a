// Heartbeat-based failure detection and failover orchestration
// (DESIGN.md §12, §13).
//
// PeerFailureDetector turns raw heartbeat counts into a peer-health verdict
// using the same EWMA-baseline + hysteresis machinery the self-healing
// layer uses for NICs and cores (core/health.h): callers feed one
// observation per peer per heartbeat window (how many probes the peer
// answered), the baseline learns the healthy rate, and a peer is declared
// dead only after `miss_windows` consecutive starved windows — one delayed
// probe never triggers a takeover. Like HealthMonitor, the detector is
// clockless and deterministic: the simulated cluster drives it on virtual
// time and gets bit-identical verdict sequences for the same seed.
//
// Gray failures — a peer that still answers every probe but answers *slowly*
// — are a separate verdict. A second EWMA channel watches responsiveness
// (the inverse of normalized heartbeat RTT / REPL ack latency, fed via
// observe_window); when it breaches for miss_windows consecutive windows
// while liveness stays fine, the peer is classified kDegraded, not kDead.
// The same hysteresis applies on the way back (recover_windows of clean
// latency before re-promotion), so a flapping link settles into degraded
// rather than oscillating — and never escalates to a spurious dead-peer
// failover. The rebalancer (cluster/rebalance.h) drains streams off a
// degraded peer with a planned handoff; only a dead one triggers the crash
// takeover below.
//
// FailoverCoordinator owns the cluster view one gateway acts on: which
// peers are live, what epoch we are at, and — via the consistent-hash ring
// — which streams this gateway must adopt when a peer dies. plan_takeover()
// is the single decision point: it bumps the epoch (fencing the dead
// primary, see cluster/replication.h), re-resolves the victim's streams,
// and returns the ones that now land here. The caller then promotes its
// StandbySession, recovers the replica journal, and replays through the
// RESUME machinery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/ring.h"
#include "common/status.h"
#include "core/config.h"
#include "core/health.h"
#include "metrics/federation_counters.h"

namespace numastream {

/// Gateway-federation policy for one node (DESIGN.md §12). Everything
/// defaults to off, matching single-gateway behavior byte for byte: no
/// ring, no REPL frames on the wire, no buddy. Turning it on means naming
/// the ring size and this gateway's slot in it; stream ids are then
/// sharded across gateways by consistent hashing, and each gateway ships
/// its session journals synchronously to its ring successor so a
/// whole-gateway death fails over with exactly-once intact.
struct ClusterConfig {
  /// Gateways in the ring. 0 disables the subsystem; >= 2 otherwise (a
  /// one-gateway "ring" has no buddy to fail over to).
  std::uint32_t gateways = 0;
  /// This gateway's ring slot, in [0, gateways).
  std::uint32_t self = 0;
  /// Virtual nodes per gateway on the hash ring (placement smoothing).
  std::uint32_t vnodes = 16;
  /// Heartbeat probe interval toward ring peers, milliseconds.
  std::uint64_t heartbeat_ms = 100;
  /// Consecutive missed heartbeats before a peer is declared dead
  /// (hysteresis against one delayed probe).
  int miss_windows = 3;

  [[nodiscard]] bool is_default() const { return *this == ClusterConfig{}; }

  /// Federation is on iff any knob moved; a default section keeps the wire
  /// and the pipeline bit-identical to the single-gateway runtime.
  [[nodiscard]] bool enabled() const { return !is_default(); }

  friend bool operator==(const ClusterConfig&, const ClusterConfig&) = default;
};

namespace cluster {

/// Three-state verdict for a ring peer: healthy, degraded (alive but slow —
/// a gray failure), or dead (heartbeats starved).
enum class PeerHealth { kHealthy, kDegraded, kDead };

std::string to_string(PeerHealth health);

/// Healthy/degraded/dead classifier for ring peers, fed once per heartbeat
/// window.
class PeerFailureDetector {
 public:
  /// `config` must be enabled (cluster.enabled()); knobs are read once.
  explicit PeerFailureDetector(const ClusterConfig& config,
                               FederationCounters* counters = nullptr);

  /// Registers a peer to watch; returns its id.
  int track(std::string name);

  /// Feeds one window: `heartbeats` probes were answered. Returns true when
  /// the peer is (now) considered dead. The first detection of a death is
  /// counted once in FederationCounters::peer_failures_detected. Latency is
  /// assumed nominal; use observe_window() to feed both channels.
  bool observe(int id, double heartbeats);

  /// Feeds one window on both channels: `heartbeats` probes answered, at
  /// `responsiveness` (1.0 = nominal RTT/ack latency; smaller = slower —
  /// e.g. nominal_rtt / observed_rtt). Dead wins over degraded; entering
  /// the degraded state is counted once per episode in
  /// FederationCounters::degraded_peers_detected.
  PeerHealth observe_window(int id, double heartbeats, double responsiveness);

  [[nodiscard]] bool dead(int id) const;
  [[nodiscard]] bool degraded(int id) const;
  [[nodiscard]] PeerHealth health(int id) const;

 private:
  [[nodiscard]] PeerHealth classify(int id) const;

  HealthMonitor monitor_;          ///< liveness: heartbeat arrivals
  HealthMonitor latency_monitor_;  ///< gray failure: responsiveness score
  std::vector<bool> was_dead_;
  std::vector<bool> was_degraded_;
  FederationCounters* counters_;
};

/// One gateway's view of the ring: liveness, epoch, and takeover planning.
/// Not thread-safe; drive it from the monitor loop that owns the view.
class FailoverCoordinator {
 public:
  FailoverCoordinator(GatewayRing ring, std::uint32_t self,
                      FederationCounters* counters = nullptr);

  [[nodiscard]] const GatewayRing& ring() const noexcept { return ring_; }
  [[nodiscard]] std::uint32_t self() const noexcept { return self_; }
  [[nodiscard]] bool live(std::uint32_t gateway) const;
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  void mark_dead(std::uint32_t gateway);

  /// Where `stream_id` is served under the current liveness view. Planned
  /// handoffs (note_handoff) override the ring while their target lives;
  /// a dead target falls back to plain ring resolution, so the stream
  /// degrades to the crash-failover answer automatically.
  [[nodiscard]] Result<std::uint32_t> resolve(std::uint32_t stream_id) const;

  /// Marks `victim` dead, bumps the fencing epoch, and returns the streams
  /// out of `streams` whose resolution moved from the victim to this
  /// gateway. Counted as one failover (plus one re-resolved stream each).
  std::vector<std::uint32_t> plan_takeover(
      std::uint32_t victim, const std::vector<std::uint32_t>& streams);

  /// Records a committed planned handoff: `stream_id` is now served by
  /// `target` regardless of ring placement (both gateways stay live), and
  /// the fencing epoch advances — the old owner's replication session is
  /// fenced exactly as a crash takeover would fence it. Returns the new
  /// epoch. Every gateway's coordinator must apply the same handoff to
  /// keep resolve() agreeing cluster-wide.
  std::uint64_t note_handoff(std::uint32_t stream_id, std::uint32_t target);

 private:
  /// resolve() under an explicit liveness view (overrides included).
  [[nodiscard]] Result<std::uint32_t> resolve_view(
      std::uint32_t stream_id, const std::vector<bool>& live) const;

  GatewayRing ring_;
  std::uint32_t self_;
  std::vector<bool> live_;
  std::uint64_t epoch_ = 1;
  /// Planned-handoff pins: stream id -> owning gateway (parallel vectors,
  /// latest pin wins; small enough that linear scans beat a map).
  std::vector<std::uint32_t> pinned_streams_;
  std::vector<std::uint32_t> pinned_owners_;
  FederationCounters* counters_;
};

}  // namespace cluster
}  // namespace numastream
