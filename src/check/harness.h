// ChaosHarness: a deterministic two-gateway federation built from the real
// protocol components, driven by a chaos schedule (DESIGN.md §16).
//
// This is the "system under test" the explorer runs episodes against. It
// is deliberately built from the production classes, not mocks —
// StandbySession, PrimaryReplicator, HandoffSource/HandoffTarget,
// ScrubServer, AntiEntropyScrubber, PeerFailureDetector, MemoryBudget —
// wired through directed link cuts (LinkCuts, msg/faulty.h) so every
// REPL/SCRUB/HANDOFF exchange is subject to the scheduled partitions. What
// the harness adds is the glue a real deployment has and unit tests fake:
// per-gateway ownership beliefs, crash/restart with journal recovery,
// failover that promotes the standby, and client-visible commit accounting
// fed into the InvariantMonitor.
//
// Execution is single-threaded and every random draw comes from the seeded
// harness RNG, so a (seed, schedule, options) triple replays
// bit-identically — the property the shrinker and chaos_replay depend on.
//
// The commit rule is strict synchronous replication: a delivery is
// acknowledged (and reported to the monitor) only when its journal record
// is durable locally AND acked by the buddy. A partitioned or dead buddy
// therefore *blocks* deliveries rather than degrading to solo commits;
// blocked is a liveness outcome, never a safety violation, which is what
// keeps randomized episodes invariant-clean by construction.
//
// plant_fencing_bug is the deliberately planted defect the acceptance
// criteria require: when set, a primary that receives the DATA_LOSS fence
// verdict (a newer epoch exists — it has been superseded) ignores it and
// keeps committing deliveries. That is precisely the split-brain bug epoch
// fencing exists to prevent, and the explorer must find it and shrink it
// to a schedule of a few events.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "check/invariant.h"
#include "check/schedule.h"
#include "cluster/antientropy.h"
#include "cluster/failover.h"
#include "cluster/rebalance.h"
#include "cluster/replication.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/config.h"
#include "core/journal.h"
#include "metrics/chaos_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/scrub_counters.h"
#include "msg/faulty.h"

namespace numastream {
namespace check {

struct ChaosHarnessOptions {
  std::uint64_t seed = 1;
  std::uint32_t streams = 2;
  /// Test-only planted defect: ignore the epoch-fence DATA_LOSS verdict
  /// and keep committing — the split-brain bug the explorer must catch.
  bool plant_fencing_bug = false;

  friend bool operator==(const ChaosHarnessOptions&,
                         const ChaosHarnessOptions&) = default;
};

/// Canonical one-line text form ("options seed=... streams=...
/// plant_fencing_bug=on|off"), round-tripping bit-identically for bundles.
[[nodiscard]] std::string serialize_options(const ChaosHarnessOptions& options);
[[nodiscard]] Result<ChaosHarnessOptions> parse_options(
    const std::string& line);

class ChaosHarness {
 public:
  static constexpr std::uint64_t kSession = 77;

  /// Borrows the monitor (and optional counters); both must outlive the
  /// harness.
  ChaosHarness(const ChaosHarnessOptions& options, InvariantMonitor& monitor,
               ChaosCounters* counters = nullptr);

  /// Applies one event. An error status is a *liveness* outcome (blocked
  /// by partition, dead buddy, fenced) — legal weather, not a failure;
  /// safety failures land in the monitor, never here.
  Status apply(const ChaosEvent& event);

  /// Runs the whole schedule, ignoring liveness outcomes.
  void run(const ChaosSchedule& schedule);

  /// The acting owner right now: alive, self-believed, unfenced, highest
  /// epoch. -1 when nobody qualifies (both fenced/dead: a stalled world).
  [[nodiscard]] int acting_owner() const;

  [[nodiscard]] std::uint64_t committed(std::uint32_t stream_id) const;

  /// Test visibility: one gateway's role state.
  [[nodiscard]] bool believes_owner(std::uint32_t g) const {
    return gateways_[g % 2].believes_owner;
  }
  [[nodiscard]] bool fenced(std::uint32_t g) const {
    return gateways_[g % 2].fenced;
  }
  [[nodiscard]] bool alive(std::uint32_t g) const {
    return gateways_[g % 2].alive;
  }

 private:
  struct Gateway {
    MemoryJournalMedia media;
    std::unique_ptr<cluster::StandbySession> standby;
    std::unique_ptr<cluster::ScrubServer> scrub_server;
    // Owner-role plumbing, rebuilt lazily after crash/fence/promotion.
    std::unique_ptr<cluster::InprocPeerLink> link;
    std::unique_ptr<cluster::PeerLink> chaos_link;
    std::unique_ptr<cluster::PrimaryReplicator> replicator;
    bool alive = true;
    bool believes_owner = false;
    bool fenced = false;
    std::uint64_t epoch = 1;
    std::map<std::uint32_t, std::uint64_t> next_seq;
  };

  Status ensure_replicator(std::uint32_t g);
  [[nodiscard]] bool journal_intact(std::uint32_t g);
  Status deliver_one(std::uint32_t g, std::uint32_t stream_id);
  void deliver(const ChaosEvent& event);
  void failover();
  void crash(std::uint32_t g);
  void restart(std::uint32_t g);
  void rot(std::uint64_t bits);
  void scrub();
  void handoff(std::uint32_t stream_id);
  void overload(const ChaosEvent& event);
  [[nodiscard]] std::uint64_t recovered_watermark(std::uint32_t g,
                                                  std::uint32_t stream_id);

  const ChaosHarnessOptions options_;
  InvariantMonitor& monitor_;
  ChaosCounters* counters_;
  LinkCuts cuts_;
  Rng rng_;
  FederationCounters fed_;
  ScrubCounters scrub_counters_;
  ScrubConfig scrub_config_;
  ClusterConfig cluster_config_;
  cluster::PeerFailureDetector detector_;
  int peer_watch_[2] = {0, 0};  ///< detector ids: gateway g watching 1-g
  MemoryBudget budget_;
  std::int64_t credits_out_ = 0;
  /// Highest epoch any promotion has granted — the config service's
  /// durable counter. Every new grant must exceed it, or two primaries
  /// could hold the same epoch and the fence would not bite.
  std::uint64_t max_epoch_ = 1;
  Gateway gateways_[2];
  std::set<std::uint32_t> streams_used_;
};

}  // namespace check
}  // namespace numastream
