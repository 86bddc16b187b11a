#include "cluster/failover.h"

#include <utility>

#include "common/assert.h"

namespace numastream {
namespace cluster {
namespace {

// The detector reuses HealthMonitor wholesale; this maps the cluster knobs
// onto its config. One baseline window suffices — the healthy heartbeat
// rate is known the moment the first window completes — and breach =
// recover = miss_windows gives symmetric hysteresis.
HealthConfig detector_config(const ClusterConfig& cluster) {
  HealthConfig config;
  config.window_ms = cluster.heartbeat_ms;
  config.breach_windows = cluster.miss_windows;
  config.recover_windows = cluster.miss_windows;
  config.baseline_windows = 1;
  return config;
}

}  // namespace

std::string to_string(PeerHealth health) {
  switch (health) {
    case PeerHealth::kHealthy:
      return "healthy";
    case PeerHealth::kDegraded:
      return "degraded";
    case PeerHealth::kDead:
      return "dead";
  }
  return "?";
}

PeerFailureDetector::PeerFailureDetector(const ClusterConfig& config,
                                         FederationCounters* counters)
    : monitor_(detector_config(config)),
      // The latency channel shares the liveness knobs: responsiveness is
      // already normalized (1.0 = nominal), so the first window seeds the
      // baseline and the degraded/failed ratios apply directly to the score.
      latency_monitor_(detector_config(config)),
      counters_(counters) {
  NS_CHECK(config.enabled(), "PeerFailureDetector needs cluster enabled");
}

int PeerFailureDetector::track(std::string name) {
  const int id = monitor_.track(name);
  const int latency_id = latency_monitor_.track(std::move(name));
  NS_CHECK(id == latency_id, "liveness and latency channels must agree on ids");
  was_dead_.push_back(false);
  was_degraded_.push_back(false);
  return id;
}

bool PeerFailureDetector::observe(int id, double heartbeats) {
  return observe_window(id, heartbeats, 1.0) == PeerHealth::kDead;
}

PeerHealth PeerFailureDetector::observe_window(int id, double heartbeats,
                                               double responsiveness) {
  monitor_.observe(id, heartbeats);
  latency_monitor_.observe(id, responsiveness);
  const PeerHealth verdict = classify(id);
  const auto slot = static_cast<std::size_t>(id);
  const bool is_dead = verdict == PeerHealth::kDead;
  const bool is_degraded = verdict == PeerHealth::kDegraded;
  if (counters_ != nullptr) {
    if (is_dead && !was_dead_[slot]) {
      counters_->peer_failures_detected.fetch_add(1, std::memory_order_relaxed);
    }
    if (is_degraded && !was_degraded_[slot]) {
      counters_->degraded_peers_detected.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }
  was_dead_[slot] = is_dead;
  was_degraded_[slot] = is_degraded;
  return verdict;
}

PeerHealth PeerFailureDetector::classify(int id) const {
  // Dead wins: a peer whose heartbeats starved is gone no matter what the
  // latency channel last saw. Degraded needs liveness intact — it is the
  // "alive but slow" verdict, the one crash failover must NOT act on.
  if (monitor_.state(id) == HealthState::kFailed) {
    return PeerHealth::kDead;
  }
  if (latency_monitor_.state(id) != HealthState::kHealthy) {
    return PeerHealth::kDegraded;
  }
  return PeerHealth::kHealthy;
}

bool PeerFailureDetector::dead(int id) const {
  return classify(id) == PeerHealth::kDead;
}

bool PeerFailureDetector::degraded(int id) const {
  return classify(id) == PeerHealth::kDegraded;
}

PeerHealth PeerFailureDetector::health(int id) const { return classify(id); }

FailoverCoordinator::FailoverCoordinator(GatewayRing ring, std::uint32_t self,
                                         FederationCounters* counters)
    : ring_(std::move(ring)),
      self_(self),
      live_(ring_.gateways(), true),
      counters_(counters) {
  NS_CHECK(self < ring_.gateways(), "self must be a ring member");
  if (counters_ != nullptr) {
    counters_->note_epoch(epoch_);
  }
}

bool FailoverCoordinator::live(std::uint32_t gateway) const {
  return gateway < live_.size() && live_[gateway];
}

void FailoverCoordinator::mark_dead(std::uint32_t gateway) {
  if (gateway < live_.size()) {
    live_[gateway] = false;
  }
}

Result<std::uint32_t> FailoverCoordinator::resolve(
    std::uint32_t stream_id) const {
  return resolve_view(stream_id, live_);
}

Result<std::uint32_t> FailoverCoordinator::resolve_view(
    std::uint32_t stream_id, const std::vector<bool>& live) const {
  for (std::size_t i = pinned_streams_.size(); i-- > 0;) {
    if (pinned_streams_[i] == stream_id) {
      const std::uint32_t owner = pinned_owners_[i];
      if (owner < live.size() && live[owner]) {
        return owner;
      }
      break;  // pinned owner is dead: fall back to the ring
    }
  }
  return ring_.resolve(stream_id, live);
}

std::vector<std::uint32_t> FailoverCoordinator::plan_takeover(
    std::uint32_t victim, const std::vector<std::uint32_t>& streams) {
  std::vector<std::uint32_t> adopted;
  if (victim >= live_.size() || victim == self_) {
    return adopted;
  }
  const std::vector<bool> before = live_;
  mark_dead(victim);
  for (const std::uint32_t stream : streams) {
    auto was = resolve_view(stream, before);
    auto now = resolve_view(stream, live_);
    if (was.ok() && was.value() == victim && now.ok() &&
        now.value() == self_) {
      adopted.push_back(stream);
    }
  }
  // Epoch bump even for an empty adoption: the death itself advances the
  // cluster generation, fencing anything the victim still has in flight.
  ++epoch_;
  if (counters_ != nullptr) {
    counters_->failovers.fetch_add(1, std::memory_order_relaxed);
    counters_->streams_reresolved.fetch_add(adopted.size(),
                                            std::memory_order_relaxed);
    counters_->note_epoch(epoch_);
  }
  return adopted;
}

std::uint64_t FailoverCoordinator::note_handoff(std::uint32_t stream_id,
                                                std::uint32_t target) {
  NS_CHECK(target < ring_.gateways(), "handoff target must be a ring member");
  pinned_streams_.push_back(stream_id);
  pinned_owners_.push_back(target);
  ++epoch_;
  if (counters_ != nullptr) {
    counters_->note_epoch(epoch_);
  }
  return epoch_;
}

}  // namespace cluster
}  // namespace numastream
