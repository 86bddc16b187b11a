// Resource-health tracking and live-migration coordination.
//
// The self-healing loop (DESIGN.md §9) has three moving parts, and this
// header holds the two that are pure policy:
//
//   * HealthMonitor — a deterministic state machine fed one observation per
//     resource per window (bytes delivered through a NIC, chunks processed
//     on a core, ...). It learns an EWMA baseline while the resource is
//     healthy, then classifies each window by the ratio of observed value to
//     baseline: healthy -> degraded -> failed, with hysteresis in both
//     directions (consecutive breach windows to demote, consecutive clean
//     windows to promote) so a transient dip never triggers churn. The
//     monitor has no threads and no clock: callers decide what a "window"
//     is, which is what makes the simulated and real pipelines share it.
//
//   * MigrationCoordinator — the handshake between whoever decides a worker
//     must move (the monitor loop) and the worker itself. A request bumps a
//     per-task-type epoch; workers poll the epoch at chunk boundaries (one
//     relaxed atomic load on the fast path) and re-pin themselves through
//     the affinity layer when it advances. The chunk in hand always
//     completes first — migration never drops or reorders work.
//
// ResourceHealthMask is the interchange format between the monitor and the
// re-planner (BottleneckAdvisor::replan): the set of domains and NICs the
// next placement must avoid.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"

namespace numastream {

enum class HealthState { kHealthy, kDegraded, kFailed };

std::string to_string(HealthState state);

/// Resources the re-planner must route around. Domains are NUMA domain ids;
/// NICs are topology names. Degraded domains are advisory (prefer to avoid);
/// failed ones are mandatory.
struct ResourceHealthMask {
  std::vector<int> failed_domains;
  std::vector<int> degraded_domains;
  std::vector<std::string> failed_nics;

  [[nodiscard]] bool domain_ok(int domain) const;
  [[nodiscard]] bool nic_ok(const std::string& name) const;
  [[nodiscard]] bool empty() const {
    return failed_domains.empty() && degraded_domains.empty() &&
           failed_nics.empty();
  }
};

/// Classifier knobs of one HealthMonitor (DESIGN.md §9). Everything
/// defaults to off: no monitor windows, no baselines, no migrations.
/// Turning it on means setting `window_ms` (the observation window) plus
/// optionally moving the classifier knobs off their defaults.
struct HealthConfig {
  /// Observation window in milliseconds (virtual time in simulation, wall
  /// time on a real pipeline). 0 disables the whole subsystem.
  std::uint64_t window_ms = 0;
  /// EWMA smoothing factor for the healthy baseline, in (0, 1]. Higher
  /// tracks recent windows more aggressively.
  double ewma_alpha = 0.2;
  /// A window is degraded when observed/baseline falls below this...
  double degraded_ratio = 0.7;
  /// ...and failed when it falls below this (must be < degraded_ratio).
  double failed_ratio = 0.35;
  /// Consecutive breach windows before a resource is demoted (hysteresis
  /// against transient dips).
  int breach_windows = 3;
  /// Consecutive clean windows before a demoted resource is promoted back.
  int recover_windows = 3;
  /// Windows used to seed the baseline before classification starts.
  int baseline_windows = 3;

  /// Health monitoring is on iff any knob moved.
  [[nodiscard]] bool enabled() const { return *this != HealthConfig{}; }

  friend bool operator==(const HealthConfig&, const HealthConfig&) = default;
};

/// EWMA-baseline health classifier with hysteresis. Deterministic: the same
/// observation sequence always yields the same state sequence.
class HealthMonitor {
 public:
  /// `config` must be enabled (health.enabled()); knobs are read once.
  explicit HealthMonitor(const HealthConfig& config);

  /// Registers a resource to track; returns its id. Names are for reports.
  int track(std::string name);

  /// Feeds one window's observation and returns the state after it.
  /// Baselines are seeded from the first `baseline_windows` observations and
  /// thereafter updated (EWMA) only on healthy windows, so a degraded
  /// resource is always judged against what it delivered when it was well.
  HealthState observe(int id, double value);

  [[nodiscard]] HealthState state(int id) const;
  [[nodiscard]] double baseline(int id) const;
  [[nodiscard]] const std::string& name(int id) const;
  [[nodiscard]] std::size_t tracked_count() const noexcept { return tracked_.size(); }

  /// Windows this resource ended not-healthy (for time-in-degraded metrics).
  [[nodiscard]] std::uint64_t unhealthy_windows(int id) const;

 private:
  struct Tracked {
    std::string name;
    HealthState state = HealthState::kHealthy;
    double baseline = 0;
    int warmup_left = 0;
    int breach_streak = 0;
    int recover_streak = 0;
    bool breach_hit_failed = false;
    std::uint64_t unhealthy_windows = 0;
  };

  const Tracked& at(int id) const;
  Tracked& at(int id);

  HealthConfig config_;
  std::vector<Tracked> tracked_;
};

/// Chunk-boundary re-pin handshake, one slot per TaskType. Thread-safe:
/// request() may race poll() from any number of workers.
class MigrationCoordinator {
 public:
  /// Asks every worker of `type` to re-pin to `target` at its next chunk
  /// boundary. Later requests supersede earlier ones workers have not yet
  /// seen (last-wins, like a real re-plan).
  void request(TaskType type, const NumaBinding& target);

  /// Worker side. `last_seen` is the worker's private epoch cursor
  /// (initially 0). Returns the new target when a request arrived since the
  /// cursor, nullopt otherwise. O(1) atomic load when nothing changed.
  [[nodiscard]] std::optional<NumaBinding> poll(TaskType type,
                                                std::uint64_t* last_seen) const;

  /// Total requests issued (all task types).
  [[nodiscard]] std::uint64_t requests() const noexcept {
    return total_requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> epoch{0};
    mutable std::mutex mu;
    NumaBinding target;
  };

  std::array<Slot, 4> slots_;  // indexed by static_cast<int>(TaskType)
  std::atomic<std::uint64_t> total_requests_{0};
};

}  // namespace numastream
