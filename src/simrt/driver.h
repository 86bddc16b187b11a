// ExperimentDriver: executes a runtime configuration (NodeConfigs, as
// written by hand or by the ConfigGenerator) on simulated hardware and
// reports the metrics the paper's evaluation section reports.
//
// This is the bridge between the paper's contribution (core/) and the
// simulated testbed (simhw/ + simrt/): the same NodeConfig that drives the
// real threaded pipeline drives the simulated one, so "runtime placement vs
// OS placement" is a one-flag difference here exactly as it is on metal.
// Every pipeline knob the simulator models comes from the configs;
// ExperimentOptions holds the rest: hardware, calibration, workload, injected
// events and the policies no config directive carries.
#pragma once

#include <vector>

#include "cluster/failover.h"
#include "cluster/rebalance.h"
#include "core/advisor.h"
#include "metrics/federation_counters.h"
#include "metrics/health_counters.h"
#include "metrics/scrub_counters.h"
#include "metrics/timeline.h"
#include "core/config.h"
#include "core/config_generator.h"
#include "core/health.h"
#include "core/scrub.h"
#include "obs/span.h"
#include "simhw/degradation.h"
#include "simhw/network.h"
#include "simhw/scheduler.h"
#include "simrt/calibration.h"
#include "simrt/pipeline.h"

namespace numastream::simrt {

struct ExperimentOptions {
  HostParams host_params;
  LinkParams link;
  Calibration calib;
  std::uint64_t chunks_per_stream = 300;

  /// Emulation mode for os-managed bindings (see simhw/scheduler.h).
  OsScheduler::Mode os_mode = OsScheduler::Mode::kRandom;
  std::uint64_t os_seed = 1;

  /// false = network-only runs (§3.4): codec stages are skipped even if the
  /// configs carry compress/decompress groups.
  bool compress = true;

  /// Domain holding the source dataset on each sender (Table 1 sweeps this).
  int source_data_domain = 0;

  double per_connection_cap = 1e18;

  /// Per-sender instrument/dataset generation rate in Gbps of raw data
  /// ("senders exclusively generate data chunks at a fixed rate", §3.1).
  /// 0 = unlimited (the source never throttles the pipeline).
  double source_gbps = 0;

  /// Receiver NIC per stream (names from the receiver topology). Empty =
  /// every stream uses the preferred NIC. run_plan() fills this from the
  /// plan's multi-NIC assignment automatically.
  std::vector<std::string> receiver_nic_per_stream;

  /// When > 0, record per-stream delivered-rate timelines with this bucket
  /// width (virtual seconds); see ExperimentResult::stream_timelines.
  double timeline_bucket_seconds = 0;

  /// Seeded hardware-degradation events injected on the receiver host's
  /// resources (simhw/degradation.h). Empty = pristine hardware.
  DegradationSchedule degradation;

  /// Crash resumption (DESIGN.md §11): mirrors the durable-journal machinery
  /// on every stream (sender WAL, receiver delivery ledger, duplicate
  /// suppression). Required when `crashes` is non-empty. Default off.
  bool resume = false;

  /// One endpoint kill-and-restart on virtual time. A caller derives the
  /// schedule from a seed; the simulation itself is deterministic, so two
  /// same-seed schedules produce bit-identical resume counters.
  struct CrashEvent {
    std::size_t stream = 0;      ///< launch-order stream index
    bool sender = false;         ///< true = sender endpoint, false = receiver
    double at_seconds = 0;       ///< virtual time of the kill
    double restart_seconds = 0;  ///< blackout before the endpoint resumes
  };
  std::vector<CrashEvent> crashes;

  /// Gateway federation (DESIGN.md §12): when `cluster.enabled()`, the
  /// driver instantiates `cluster.gateways` identical receiver gateways
  /// (each a SimHost on the receiver topology), shards streams across them
  /// with the consistent-hash ring, and runs a federation monitor on
  /// virtual time: every `cluster.heartbeat_ms` each live gateway
  /// heartbeats its ring buddy and ships that window's journal records over
  /// the replication link. Requires `resume` (the replicated journals ARE
  /// the resume journals). Default off — a default ClusterConfig runs the
  /// single-gateway driver unchanged.
  ClusterConfig cluster;

  /// One whole-gateway kill on virtual time (needs cluster.enabled()). The
  /// victim stops answering heartbeats at `at_seconds`; its buddy declares
  /// it dead after `cluster.miss_windows` starved windows, bumps the
  /// fencing epoch, adopts the victim's streams via the ring, and replays
  /// each one's replicated journal through the RESUME machinery after
  /// `failover_seconds` of per-stream blackout. Deterministic: same
  /// schedule, bit-identical federation counters.
  struct GatewayCrashEvent {
    std::uint32_t gateway = 0;    ///< ring index of the victim
    double at_seconds = 0;        ///< virtual time the gateway dies
    double failover_seconds = 0;  ///< handshake + replica-scan blackout
  };
  std::vector<GatewayCrashEvent> gateway_crashes;

  /// Gray degradation: a gateway that stays alive (heartbeats keep
  /// flowing) but turns slow — its NIC and core capacities are scaled by
  /// `slow_factor` and its heartbeat responsiveness drops to the same
  /// factor, so the two-state detector classifies it degraded, never dead.
  /// Needs cluster.enabled(). Deterministic on virtual time.
  struct GatewayDegradeEvent {
    std::uint32_t gateway = 0;   ///< ring index of the slow gateway
    double at_seconds = 0;       ///< virtual time the degradation starts
    double until_seconds = 0;    ///< virtual time it heals (0 = never)
    double slow_factor = 0.25;   ///< capacity/responsiveness scale in (0, 1)
  };
  std::vector<GatewayDegradeEvent> gateway_degrades;

  /// Anti-entropy scrubbing (DESIGN.md §14): when `scrub.enabled()` (needs
  /// cluster), the federation monitor also runs a digest round for every
  /// live stream on the scrub cadence: the serving gateway's journal is
  /// compared range-by-range against its standby's replica, divergent
  /// ranges are repaired from the clean side, and the scrub ledger records
  /// the whole arc. Default off — latent rot then survives until a
  /// failover replays it as holes.
  ScrubConfig scrub;

  /// Seeded latent-corruption injection on virtual time (needs cluster).
  /// Each event rots the stream's *standby replica* — the copy nobody
  /// reads until a failover — so without scrubbing the damage stays latent
  /// until takeover, where the recovery scan truncates at the first bad
  /// record and every record at or after it becomes a delivery hole
  /// (counted as scrub.failover_lost_records). Deterministic: the seed
  /// fully determines which records rot, so same-seed reruns are
  /// bit-identical.
  struct RotEvent {
    std::size_t stream = 0;      ///< launch-order stream index
    double at_seconds = 0;       ///< virtual time the rot lands
    std::uint64_t records = 1;   ///< how many replica records to damage
    std::uint64_t seed = 1;      ///< picks which records (splitmix64 draws)
    bool stale = false;          ///< true = drop the replica's tail instead
  };
  std::vector<RotEvent> rots;

  /// Load-driven rebalancing (DESIGN.md §13): when `rebalance.enabled()`
  /// (needs cluster), the federation monitor also samples per-gateway load
  /// every rebalance.window_ms and runs a RebalanceController; a trigger
  /// executes a planned three-phase handoff — the hottest (or degraded)
  /// gateway's busiest stream freezes, drains, ships its journal tail and
  /// commits to the coolest gateway with an epoch bump — instead of a
  /// crash takeover. Zero replays by construction. Default off.
  RebalanceConfig rebalance;

  /// Blackout charged per planned handoff (freeze + drain + journal ship +
  /// commit). Only read when rebalance is enabled.
  double handoff_seconds = 0.005;

  /// Self-healing (DESIGN.md §9): when enabled, a monitor process samples
  /// per-NIC delivered bytes every window_ms of virtual time, classifies
  /// each NIC through a HealthMonitor, and on NIC failure re-plans the
  /// receiver placement and live-migrates the affected streams' receive
  /// workers to the surviving NIC's domain. Default off.
  HealthConfig health;

  /// Observability (DESIGN.md §10): `observe.trace` collects per-chunk
  /// lifecycle spans on *virtual* time into ExperimentResult::spans (so two
  /// same-seed runs emit byte-identical traces); `observe.latency` fills
  /// ExperimentResult::observation.latency with per-stage percentiles.
  /// Default off — a default ObserveConfig leaves the run untouched.
  ObserveConfig observe;
};

struct StreamResult {
  double network_gbps = 0;  ///< wire goodput delivered to the receiver
  double e2e_gbps = 0;      ///< decompressed bytes delivered
  std::uint64_t chunks = 0;
  // Overload accounting (all zero when the protections are off).
  std::uint64_t shed_chunks = 0;
  std::uint64_t credit_stalls = 0;
  std::uint64_t budget_stalls = 0;
  double peak_bytes_in_flight = 0;
};

struct ExperimentResult {
  double elapsed_seconds = 0;
  double network_gbps = 0;  ///< cumulative across streams
  double e2e_gbps = 0;      ///< cumulative across streams
  std::vector<StreamResult> streams;
  /// Receiver-side per-core views (Figs. 6 and 7).
  std::vector<double> receiver_core_utilization;
  std::vector<double> receiver_remote_normalized;
  /// Per-stage utilization aggregated across streams, in the advisor's
  /// format, so an observe-analyze-refine loop can run on top of the
  /// simulated gateway (the paper's future-work feature).
  PipelineObservation observation;
  /// Per-stream delivered-rate timelines (empty unless
  /// ExperimentOptions::timeline_bucket_seconds > 0).
  std::vector<RateTimeline> stream_timelines;
  /// Self-healing accounting (all zero unless ExperimentOptions::health is
  /// enabled). Deterministic across same-seed reruns of a scenario.
  HealthCountersSnapshot health;
  /// Chunk-lifecycle spans in canonical deterministic order (empty unless
  /// ExperimentOptions::observe.trace). Worker ids are stage-major per
  /// stream: compress, send, receive, decompress, streams packed in order.
  std::vector<obs::Span> spans;
  /// Spans lost to full rings (1024 spans per worker too few for the run).
  std::uint64_t dropped_spans = 0;
  /// Resume ledger summed across streams (all zero unless
  /// ExperimentOptions::resume). The bit-identity fingerprint of a seeded
  /// recovery run: same schedule, same snapshot.
  ResumeCountersSnapshot resume;
  /// Wire bytes a journal-less restart-from-zero would have re-sent across
  /// all crashes (the ablation baseline next to resume.rework_bytes).
  double rework_restart_from_zero_bytes = 0;
  /// Federation ledger (all zero unless ExperimentOptions::cluster is
  /// enabled). Part of the bit-identity fingerprint of a seeded gateway
  /// failover run.
  FederationCountersSnapshot federation;
  /// Scrub/anti-entropy ledger (all zero unless ExperimentOptions::scrub is
  /// enabled or rot events fired). Part of the bit-identity fingerprint of
  /// a seeded rot-and-repair run.
  ScrubCountersSnapshot scrub;
  /// Which gateway served each stream at the end of the run (empty unless
  /// cluster is enabled). A failover scenario asserts the victim's streams
  /// moved to their ring buddy.
  std::vector<std::uint32_t> stream_gateways;
};

/// Runs one experiment: stream i flows from sender_configs[i] (on
/// sender_topos[i]) to the shared receiver. Thread counts, placements, chunk
/// size, queue depths and overload policy are taken from the configs; one the
/// simulator cannot run (DESIGN.md §8) is INVALID_ARGUMENT.
Result<ExperimentResult> run_experiment(
    const std::vector<MachineTopology>& sender_topos,
    const std::vector<NodeConfig>& sender_configs,
    const MachineTopology& receiver_topo, const NodeConfig& receiver_config,
    const ExperimentOptions& options);

/// Convenience overload for a generated plan.
Result<ExperimentResult> run_plan(const std::vector<MachineTopology>& sender_topos,
                                  const MachineTopology& receiver_topo,
                                  const StreamingPlan& plan,
                                  const ExperimentOptions& options);

}  // namespace numastream::simrt
