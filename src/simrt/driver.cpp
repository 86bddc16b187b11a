#include "simrt/driver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "cluster/failover.h"
#include "cluster/rebalance.h"
#include "cluster/ring.h"
#include "common/assert.h"
#include "obs/histogram.h"
#include "obs/trace.h"

namespace numastream::simrt {
namespace {

using StageBusy = StreamPipeline::StageBusy;

/// Spans each simulated worker's trace ring holds before drop-oldest
/// eviction.
constexpr std::size_t kTraceRingCapacity = 1024;

/// INVALID_ARGUMENT saying `what` unless `holds`.
Status require(bool holds, const char* what) {
  return holds ? Status::ok()
               : invalid_argument_error(std::string("driver: ") + what);
}

/// A virtual time or duration: finite and >= 0.
bool is_time(double seconds) { return std::isfinite(seconds) && seconds >= 0; }

/// The seeded PRNG behind rot injection (same generator the journal media's
/// fault hooks use): one u64 stream fully determined by the seed, so a rot
/// schedule is reproducible bit-for-bit.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Resolves worker cores for task groups on one host. Pinned groups rotate
/// through their domains' cores; the rotation state persists across calls so
/// a catch-all group serving several streams spreads its threads instead of
/// restarting at the first core for every stream. OS-managed groups go
/// through the host's scheduler emulation (which is stateful by nature).
class CoreAllocator {
 public:
  CoreAllocator(const MachineTopology& topo, OsScheduler& os) : topo_(topo), os_(os) {}

  /// Draws `group.count` cores for one stream's use of `group`.
  Result<std::vector<StreamPipeline::Worker>> take(const TaskGroupConfig& group) {
    NS_CHECK(!group.bindings.empty(), "validated configs have bindings");
    const bool os_managed = group.bindings.front().os_managed();
    for (const auto& binding : group.bindings) {
      if (binding.os_managed() != os_managed) {
        return invalid_argument_error(
            "simulated driver requires a task group to be either fully pinned "
            "or fully OS-managed");
      }
    }
    if (os_managed) {
      std::vector<StreamPipeline::Worker> workers;
      for (const int core : os_.place_threads(static_cast<std::size_t>(group.count))) {
        workers.push_back(StreamPipeline::Worker{.core = core, .pinned = false});
      }
      return workers;
    }

    // Pinning binds a thread to a *domain* (numa_bind semantics); the kernel
    // then balances within the mask. Model that by rotating through each
    // domain's cores with state shared across every group on this host, so
    // four streams' worth of domain-1 receive threads spread over all of
    // domain 1 instead of stacking on its first cores.
    std::vector<StreamPipeline::Worker> workers;
    workers.reserve(static_cast<std::size_t>(group.count));
    std::size_t& round = group_rounds_.try_emplace(&group, 0).first->second;
    for (int i = 0; i < group.count; ++i) {
      const auto& binding = group.bindings[round++ % group.bindings.size()];
      auto domain = topo_.domain(binding.execution_domain);
      if (!domain.ok()) {
        return domain.status();
      }
      PinState& state = pin_states_.try_emplace(binding.execution_domain).first->second;
      if (state.cores.empty()) {
        state.cores = domain.value().cpus.to_vector();
      }
      workers.push_back(StreamPipeline::Worker{
          .core = state.cores[state.next % state.cores.size()], .pinned = true});
      ++state.next;
    }
    return workers;
  }

  /// Draws workers for every group of `type` that serves `stream`.
  Result<std::vector<StreamPipeline::Worker>> take_for(const NodeConfig& config,
                                                       TaskType type, int stream) {
    std::vector<StreamPipeline::Worker> workers;
    for (const auto& group : config.tasks) {
      if (group.type != type || (group.stream_id >= 0 && group.stream_id != stream)) {
        continue;
      }
      auto group_workers = take(group);
      if (!group_workers.ok()) {
        return group_workers.status();
      }
      workers.insert(workers.end(), group_workers.value().begin(),
                     group_workers.value().end());
    }
    return workers;
  }

 private:
  struct PinState {
    std::vector<int> cores;
    std::size_t next = 0;
  };

  const MachineTopology& topo_;
  OsScheduler& os_;
  std::map<int, PinState> pin_states_;  // keyed by execution domain
  /// Split groups alternate bindings; the alternation continues across the
  /// streams a catch-all group serves.
  std::map<const TaskGroupConfig*, std::size_t> group_rounds_;
};


/// The self-healing loop on the simulated gateway (DESIGN.md §9): one
/// coroutine that wakes every health window of virtual time, attributes the
/// window's delivered wire bytes to the receiver NIC each stream rides,
/// feeds the per-NIC totals to a HealthMonitor, and — when a NIC is
/// classified failed — re-plans the receiver placement against the health
/// mask and live-migrates the affected streams: their receive workers move
/// to the surviving NIC's attachment domain (the paper's Observation 1 run
/// in reverse) and their connections re-route through the surviving NIC.
/// Everything is driven by virtual time and deterministic inputs, so the
/// detection window, the migration instant and every counter are
/// bit-identical across reruns of the same scenario.
class RecoveryMonitor {
 public:
  RecoveryMonitor(sim::Simulation& sim, SimHost& receiver_host,
                  const MachineTopology& topo, const NodeConfig& receiver_config,
                  const HealthConfig& config)
      : sim_(sim),
        host_(receiver_host),
        topo_(topo),
        receiver_config_(receiver_config),
        config_(config),
        monitor_(config) {}

  void add_stream(StreamPipeline* pipeline, std::string nic) {
    streams_.push_back(Stream{.pipeline = pipeline, .nic = std::move(nic)});
  }

  /// Spawns the monitor process. Call once, before sim.run().
  void launch() { sim_.spawn(run()); }

  [[nodiscard]] HealthCountersSnapshot counters() const {
    return counters_.snapshot();
  }

 private:
  struct Stream {
    StreamPipeline* pipeline = nullptr;
    std::string nic;            ///< receiver NIC currently carrying the stream
    double sampled_bytes = 0;   ///< wire bytes seen as of the last window
  };

  [[nodiscard]] bool all_accounted() const {
    return std::all_of(streams_.begin(), streams_.end(), [](const Stream& s) {
      return s.pipeline->all_chunks_accounted();
    });
  }

  sim::SimProc run() {
    // Track every receiver NIC with a known attachment (topology order, so
    // ids — and therefore counter evolution — are deterministic).
    std::vector<std::pair<std::string, int>> nics;
    for (const NicInfo& nic : topo_.nics()) {
      if (nic.numa_domain < 0) {
        continue;
      }
      nics.emplace_back(nic.name, monitor_.track(nic.name));
    }
    const double window = static_cast<double>(config_.window_ms) / 1000.0;
    while (!all_accounted()) {
      co_await sim_.delay(window);
      for (auto& [name, id] : nics) {
        double delta = 0;
        bool active = false;
        for (Stream& stream : streams_) {
          if (stream.nic != name) {
            continue;
          }
          const double total = stream.pipeline->wire_bytes_received();
          delta += total - stream.sampled_bytes;
          stream.sampled_bytes = total;
          active = active || !stream.pipeline->all_chunks_accounted();
        }
        if (!active) {
          // No in-flight stream rides this NIC: a zero window says nothing
          // about its health (finished streams would read as failures).
          continue;
        }
        const HealthState before = monitor_.state(id);
        const HealthState after = monitor_.observe(id, delta);
        if (after != HealthState::kHealthy) {
          counters_.time_in_degraded_ms.fetch_add(config_.window_ms,
                                                  std::memory_order_relaxed);
        }
        if (after == before) {
          continue;
        }
        if (after == HealthState::kHealthy) {
          counters_.recoveries.fetch_add(1, std::memory_order_relaxed);
        } else if (after == HealthState::kDegraded) {
          counters_.degraded_detections.fetch_add(1, std::memory_order_relaxed);
        } else {
          counters_.failure_detections.fetch_add(1, std::memory_order_relaxed);
          fail_over(name);
        }
      }
    }
  }

  /// Re-plans around every currently-failed NIC and migrates the streams
  /// riding `victim` to the surviving NIC and its domain's cores.
  void fail_over(const std::string& victim) {
    ResourceHealthMask mask;
    for (std::size_t id = 0; id < monitor_.tracked_count(); ++id) {
      if (monitor_.state(static_cast<int>(id)) == HealthState::kFailed) {
        mask.failed_nics.push_back(monitor_.name(static_cast<int>(id)));
      }
    }
    const BottleneckAdvisor advisor;
    const Result<NodeConfig> plan = advisor.replan(receiver_config_, topo_, mask);
    if (!plan.ok()) {
      return;  // nothing survives the mask; ride out the degradation in place
    }
    counters_.replans.fetch_add(1, std::memory_order_relaxed);

    // The survivor replan routed receive threads to: fastest NIC off the mask.
    std::optional<NicInfo> survivor;
    for (const NicInfo& nic : topo_.nics()) {
      if (nic.numa_domain < 0 || !mask.nic_ok(nic.name)) {
        continue;
      }
      if (!survivor || nic.line_rate_gbps > survivor->line_rate_gbps) {
        survivor = nic;
      }
    }
    NS_CHECK(survivor.has_value(), "replan succeeded without a surviving NIC");
    const auto resource = host_.nic_resource(survivor->name);
    const auto domain = topo_.domain(survivor->numa_domain);
    NS_CHECK(resource.ok() && domain.ok(), "surviving NIC must be simulated");
    const std::vector<int> cores = domain.value().cpus.to_vector();
    for (Stream& stream : streams_) {
      if (stream.nic != victim) {
        continue;
      }
      stream.pipeline->retarget_receiver_nic(resource.value(),
                                             survivor->numa_domain);
      const std::size_t workers =
          stream.pipeline->spec().receive_workers.size();
      for (std::size_t i = 0; i < workers; ++i) {
        stream.pipeline->migrate_receive_worker(
            i, cores[rotation_++ % cores.size()]);
        counters_.migrations.fetch_add(1, std::memory_order_relaxed);
      }
      stream.nic = survivor->name;
    }
  }

  sim::Simulation& sim_;
  SimHost& host_;
  const MachineTopology& topo_;
  const NodeConfig& receiver_config_;
  HealthConfig config_;
  HealthMonitor monitor_;
  HealthCounters counters_;
  std::vector<Stream> streams_;
  std::size_t rotation_ = 0;
};

/// Seeded endpoint kill-and-restart events on virtual time (DESIGN.md §11):
/// each event fires once, crashing one stream's endpoint. The pipeline's
/// journal mirror replays the sent-but-unacked window after the restart
/// blackout and suppresses every duplicate, so the events compose with
/// credits, budgets and shedding without breaking exactly-once accounting.
/// Events run on virtual time against ordered state — two runs of the same
/// schedule produce bit-identical resume counters.
class CrashInjector {
 public:
  CrashInjector(sim::Simulation& sim, std::vector<StreamPipeline*> pipelines,
                std::vector<ExperimentOptions::CrashEvent> events)
      : sim_(sim), pipelines_(std::move(pipelines)), events_(std::move(events)) {}

  /// Spawns one process per event. Call once, before sim.run().
  void launch() {
    for (const auto& event : events_) {
      sim_.spawn(fire(event));
    }
  }

 private:
  sim::SimProc fire(ExperimentOptions::CrashEvent event) {
    co_await sim_.delay(event.at_seconds);
    pipelines_[event.stream]->crash_endpoint(event.sender,
                                             event.restart_seconds);
  }

  sim::Simulation& sim_;
  std::vector<StreamPipeline*> pipelines_;
  std::vector<ExperimentOptions::CrashEvent> events_;
};

/// The federated control plane on virtual time (DESIGN.md §12): one
/// coroutine that wakes every heartbeat window, plays every gateway's role
/// deterministically, and drives the whole kill-detect-takeover arc:
///
///   * Heartbeats: each live gateway probes its ring buddy once per window;
///     a gateway named in a GatewayCrashEvent stops answering at its death
///     time. Each surviving gateway feeds its buddy's answer count into a
///     PeerFailureDetector (the same EWMA + hysteresis machinery as the
///     self-healing loop), so a kill is declared after exactly
///     `miss_windows` starved windows — bit-identical across reruns.
///
///   * Replication: every window, each stream's newly written journal
///     records ship to the serving gateway's ring buddy (the synchronous
///     REPL link of cluster/replication.h, modeled by its ledger effects:
///     shipped/acked counts and the in-flight lag high-water mark).
///
///   * Takeover: on detection, every surviving gateway runs its own
///     FailoverCoordinator::plan_takeover — exactly the per-gateway
///     decision the real cluster makes — and the streams that re-resolve to
///     it fail over: the pipeline re-targets to the adopter's host and NIC
///     (fail_over_receiver replays the replicated journal through the
///     RESUME machinery) and the receive/decompress workers migrate onto
///     cores drawn from the adopter's allocator.
///
///   * Gray failures (DESIGN.md §13): a GatewayDegradeEvent scales the
///     victim's NIC capacities by slow_factor and drops its heartbeat
///     responsiveness to the same factor, so the two-state detector settles
///     on kDegraded — alive, slow, never a crash takeover.
///
///   * Anti-entropy scrubbing (DESIGN.md §14): when the ScrubConfig is
///     enabled the monitor also runs a digest round for every live stream
///     on the scrub cadence, modeled by its ledger effects against the
///     stream's rot set: the serving gateway's clean journal is compared
///     range-by-range with its standby's replica, up to budget_records per
///     round from a per-stream cursor, and up to repair_concurrency
///     divergent ranges push-repair per round (erasing their rot). Rot that
///     is still unrepaired when a takeover replays the replica becomes
///     delivery holes: the recovery scan truncates at the first bad record,
///     so every record at or after it is lost (failover_lost_records).
///
///   * Rebalancing: when the RebalanceConfig is enabled the monitor samples
///     per-gateway load every rebalance window and runs a
///     RebalanceController; a trigger executes a *planned* handoff of the
///     source's busiest stream — every coordinator pins the stream to the
///     target (note_handoff bumps the fencing epoch) and the pipeline
///     drains to delivery before re-targeting, so the planned path replays
///     nothing (hand_off_receiver), unlike the crash path above.
class FederationMonitor {
 public:
  FederationMonitor(sim::Simulation& sim, const ClusterConfig& cluster,
                    const MachineTopology& topo, const NodeConfig& receiver_config,
                    std::vector<SimHost*> gateway_hosts,
                    std::vector<CoreAllocator*> gateway_allocs,
                    std::vector<ExperimentOptions::GatewayCrashEvent> events,
                    std::vector<ExperimentOptions::GatewayDegradeEvent> degrades,
                    const RebalanceConfig& rebalance, double handoff_seconds,
                    const ScrubConfig& scrub,
                    std::vector<ExperimentOptions::RotEvent> rots,
                    bool compress)
      : sim_(sim),
        cluster_(cluster),
        rebalance_config_(rebalance),
        handoff_seconds_(handoff_seconds),
        scrub_config_(scrub),
        topo_(topo),
        receiver_config_(receiver_config),
        gateway_hosts_(std::move(gateway_hosts)),
        gateway_allocs_(std::move(gateway_allocs)),
        events_(std::move(events)),
        degrades_(std::move(degrades)),
        rots_(std::move(rots)),
        compress_(compress),
        ring_(cluster.gateways, cluster.vnodes),
        detector_(cluster, &counters_) {
    // One coordinator per gateway: each survivor makes its own takeover
    // decision against the shared ring, exactly like the real cluster. The
    // global ledger is kept by this monitor (one failover per death, not
    // one per survivor), so the coordinators run counter-less.
    for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
      coordinators_.emplace_back(ring_, g, nullptr);
    }
    live_.assign(cluster_.gateways, true);
    degrade_active_.assign(degrades_.size(), false);
    rot_fired_.assign(rots_.size(), false);
    if (rebalance_config_.enabled()) {
      rebalancer_.emplace(rebalance_config_, cluster_.gateways, &counters_);
    }
    counters_.note_epoch(1);
  }

  void add_stream(StreamPipeline* pipeline, std::uint32_t gateway,
                  std::string nic) {
    streams_.push_back(Stream{.pipeline = pipeline,
                              .gateway = gateway,
                              .nic = std::move(nic)});
  }

  /// Spawns the monitor process. Call once, before sim.run().
  void launch() { sim_.spawn(run()); }

  [[nodiscard]] FederationCountersSnapshot counters() const {
    return counters_.snapshot();
  }

  [[nodiscard]] ScrubCountersSnapshot scrub_counters() const {
    return scrub_counters_.snapshot();
  }

  /// Gateway serving each stream (launch order) as of now / end of run.
  [[nodiscard]] std::vector<std::uint32_t> stream_gateways() const {
    std::vector<std::uint32_t> gateways;
    gateways.reserve(streams_.size());
    for (const Stream& stream : streams_) {
      gateways.push_back(stream.gateway);
    }
    return gateways;
  }

 private:
  struct Stream {
    StreamPipeline* pipeline = nullptr;
    std::uint32_t gateway = 0;  ///< ring member currently serving the stream
    std::string nic;            ///< receiver NIC name (same on every gateway)
    std::uint64_t sampled_records = 0;  ///< journal records already shipped
    double sampled_wire_bytes = 0;  ///< wire bytes at last rebalance sample
    double window_wire_bytes = 0;   ///< latest rebalance-window wire delta
    /// Record indices of the standby replica that currently hold rot (or a
    /// stale-dropped tail). Empty = the replica matches the primary.
    std::set<std::uint64_t> replica_rot;
    std::uint64_t scrub_cursor = 0;  ///< next record a scrub round examines
  };

  [[nodiscard]] bool all_accounted() const {
    return std::all_of(streams_.begin(), streams_.end(), [](const Stream& s) {
      return s.pipeline->all_chunks_accounted();
    });
  }

  /// True once `gateway` has died per the event schedule (it stops
  /// answering heartbeats from its death instant onward).
  [[nodiscard]] bool silenced(std::uint32_t gateway, double now) const {
    return std::any_of(events_.begin(), events_.end(),
                       [&](const ExperimentOptions::GatewayCrashEvent& e) {
                         return e.gateway == gateway && e.at_seconds <= now;
                       });
  }

  [[nodiscard]] const ExperimentOptions::GatewayCrashEvent* event_for(
      std::uint32_t gateway) const {
    for (const auto& event : events_) {
      if (event.gateway == gateway) {
        return &event;
      }
    }
    return nullptr;
  }

  sim::SimProc run() {
    std::vector<int> ids;
    ids.reserve(cluster_.gateways);
    for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
      ids.push_back(detector_.track("gateway" + std::to_string(g)));
    }
    const double window = static_cast<double>(cluster_.heartbeat_ms) / 1000.0;
    while (!all_accounted()) {
      co_await sim_.delay(window);
      const double now = sim_.now();
      // Heartbeats + synchronous replication for every live gateway.
      for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
        if (live_[g] && !silenced(g, now)) {
          counters_.heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (Stream& stream : streams_) {
        const auto snap = stream.pipeline->resume_snapshot();
        const std::uint64_t total = snap.journal_records_written;
        const std::uint64_t delta = total - stream.sampled_records;
        stream.sampled_records = total;
        if (delta == 0 || silenced(stream.gateway, now)) {
          continue;
        }
        // Ship to the first live gateway after the serving one in the
        // stream's ring preference (its current standby). None live = ride
        // bare until one returns.
        const std::uint32_t standby =
            standby_for(stream.pipeline->spec().stream_id, stream.gateway, now);
        if (standby == stream.gateway) {
          continue;
        }
        counters_.repl_records_shipped.fetch_add(delta,
                                                 std::memory_order_relaxed);
        counters_.repl_appends_acked.fetch_add(1, std::memory_order_relaxed);
        counters_.note_repl_lag(delta);
      }
      // Latent corruption lands on schedule; scrub rounds (if configured)
      // run before failure detection, so a repair completing in the death
      // window still restores the replica the takeover is about to replay.
      apply_rots(now);
      if (scrub_config_.enabled()) {
        ++windows_since_scrub_;
        const std::uint64_t windows_per_scrub = std::max<std::uint64_t>(
            1, scrub_config_.cadence_ms / cluster_.heartbeat_ms);
        if (windows_since_scrub_ >= windows_per_scrub) {
          windows_since_scrub_ = 0;
          run_scrub_round(now);
        }
      }
      // Gray degradation: scale capacities and responsiveness on schedule.
      apply_degradations(now);
      // Failure detection: each window a silenced gateway answers zero of
      // its buddy's probes; a live one answers all of them — possibly
      // slowly (the latency channel sees the degraded responsiveness).
      for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
        if (!live_[g]) {
          continue;  // already taken over
        }
        const cluster::PeerHealth verdict = detector_.observe_window(
            ids[g], silenced(g, now) ? 0.0 : 1.0, responsiveness(g, now));
        if (verdict == cluster::PeerHealth::kDead) {
          fail_over(g, now);
        }
      }
      // Load-driven rebalancing on its own (coarser) cadence.
      if (rebalancer_.has_value()) {
        ++windows_since_sample_;
        const std::uint64_t windows_per_tick = std::max<std::uint64_t>(
            1, rebalance_config_.window_ms / cluster_.heartbeat_ms);
        if (windows_since_sample_ >= windows_per_tick) {
          windows_since_sample_ = 0;
          maybe_rebalance(ids, now);
        }
      }
    }
  }

  /// Responsiveness score for one gateway this window: the product of the
  /// slow factors of its active degrade events (1.0 when pristine).
  [[nodiscard]] double responsiveness(std::uint32_t gateway, double now) const {
    double score = 1.0;
    for (const auto& event : degrades_) {
      if (event.gateway == gateway && event.at_seconds <= now &&
          (event.until_seconds == 0 || now < event.until_seconds)) {
        score *= event.slow_factor;
      }
    }
    return score;
  }

  /// Fires due rot events: each damages seeded record indices of the
  /// stream's standby *replica* (the copy a takeover will replay). An event
  /// whose stream has no shipped records yet stays pending — there is
  /// nothing to rot — and fires on a later window; determinism holds
  /// because the shipped-record counts are themselves deterministic.
  void apply_rots(double now) {
    for (std::size_t i = 0; i < rots_.size(); ++i) {
      const auto& event = rots_[i];
      if (rot_fired_[i] || event.at_seconds > now) {
        continue;
      }
      Stream& stream = streams_[event.stream];
      if (stream.sampled_records == 0) {
        continue;  // replica still empty; retry next window
      }
      rot_fired_[i] = true;
      if (event.stale) {
        // Stale replica: the tail never arrived. Mark the last `records`
        // indices divergent — the push-repair path re-ships them.
        const std::uint64_t drop =
            std::min(event.records, stream.sampled_records);
        for (std::uint64_t r = stream.sampled_records - drop;
             r < stream.sampled_records; ++r) {
          stream.replica_rot.insert(r);
        }
        scrub_counters_.stale_records_dropped.fetch_add(
            drop, std::memory_order_relaxed);
        continue;
      }
      std::uint64_t state = event.seed;
      std::uint64_t placed = 0;
      for (std::uint64_t draw = 0; draw < event.records; ++draw) {
        if (stream.replica_rot
                .insert(splitmix64(state) % stream.sampled_records)
                .second) {
          ++placed;
        }
      }
      scrub_counters_.records_rotted.fetch_add(placed,
                                               std::memory_order_relaxed);
    }
  }

  /// One anti-entropy round per live stream with a live, distinct standby:
  /// digest-compare up to budget_records from the stream's cursor and
  /// push-repair up to repair_concurrency divergent ranges.
  void run_scrub_round(double now) {
    for (Stream& stream : streams_) {
      if (!live_[stream.gateway] || silenced(stream.gateway, now)) {
        continue;
      }
      const std::uint32_t standby =
          standby_for(stream.pipeline->spec().stream_id, stream.gateway, now);
      if (standby == stream.gateway) {
        continue;  // no buddy to compare against
      }
      const std::uint64_t total = stream.sampled_records;
      if (total == 0) {
        continue;
      }
      scrub_counters_.digest_rounds.fetch_add(1, std::memory_order_relaxed);
      if (stream.scrub_cursor >= total) {
        stream.scrub_cursor = 0;  // defensive: cursor past a shrunken journal
      }
      const std::uint64_t window = std::min<std::uint64_t>(
          scrub_config_.budget_records, total - stream.scrub_cursor);
      const std::uint64_t first_range =
          stream.scrub_cursor / scrub_config_.range_records;
      const std::uint64_t last_range =
          (stream.scrub_cursor + window - 1) / scrub_config_.range_records;
      scrub_counters_.records_scanned.fetch_add(window,
                                                std::memory_order_relaxed);
      scrub_counters_.ranges_compared.fetch_add(last_range - first_range + 1,
                                                std::memory_order_relaxed);
      int repairs = 0;
      for (std::uint64_t range = first_range;
           range <= last_range && repairs < scrub_config_.repair_concurrency;
           ++range) {
        const std::uint64_t lo = range * scrub_config_.range_records;
        const std::uint64_t hi = lo + scrub_config_.range_records;
        const auto begin = stream.replica_rot.lower_bound(lo);
        const auto end = stream.replica_rot.lower_bound(hi);
        if (begin == end) {
          continue;  // digests match
        }
        // Divergent: the primary's copy is clean (rot landed on the
        // replica), so this is a push repair of the whole range.
        const std::uint64_t damaged =
            static_cast<std::uint64_t>(std::distance(begin, end));
        stream.replica_rot.erase(begin, end);
        scrub_counters_.ranges_diverged.fetch_add(1,
                                                  std::memory_order_relaxed);
        scrub_counters_.corrupt_records_found.fetch_add(
            damaged, std::memory_order_relaxed);
        scrub_counters_.records_pushed.fetch_add(
            std::min<std::uint64_t>(scrub_config_.range_records, total - lo),
            std::memory_order_relaxed);
        scrub_counters_.ranges_repaired.fetch_add(1,
                                                  std::memory_order_relaxed);
        ++repairs;
      }
      // Wrap at the end of the journal exactly like JournalScrubber::tick:
      // the next round restarts from record 0, so ranges behind the cursor
      // are re-verified on every pass. Chasing the growing tail without
      // wrapping would never rescan old ranges — and rot lands on records
      // that were already scanned clean once.
      stream.scrub_cursor += window;
      if (stream.scrub_cursor >= total) {
        stream.scrub_cursor = 0;
        scrub_counters_.scrub_passes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Applies/heals NIC-capacity scaling as degrade events start and end.
  /// Nominal capacities are captured on first touch so heal restores them
  /// exactly (same idiom as simhw/degradation.h).
  void apply_degradations(double now) {
    for (std::size_t i = 0; i < degrades_.size(); ++i) {
      const auto& event = degrades_[i];
      const bool should_be_active =
          event.at_seconds <= now &&
          (event.until_seconds == 0 || now < event.until_seconds);
      if (should_be_active == static_cast<bool>(degrade_active_[i])) {
        continue;
      }
      degrade_active_[i] = should_be_active;
      scale_gateway_resources(event.gateway,
                              should_be_active ? event.slow_factor : 0.0);
    }
  }

  /// factor > 0 scales every NIC and core on the gateway host by `factor`
  /// of nominal (a gray-failed box is slow everywhere: thermal throttling,
  /// a sick PCIe link, a noisy neighbor); factor == 0 restores nominal.
  void scale_gateway_resources(std::uint32_t gateway, double factor) {
    SimHost* host = gateway_hosts_[gateway];
    const auto scale = [&](int id) {
      const double nominal =
          nominal_capacity_.try_emplace(id, sim_.resource_capacity(id))
              .first->second;
      sim_.set_resource_capacity(id, factor > 0 ? nominal * factor : nominal);
    };
    for (const auto& nic : topo_.nics()) {
      const auto resource = host->nic_resource(nic.name);
      if (resource.ok()) {
        scale(resource.value());
      }
    }
    for (const auto& domain : topo_.domains()) {
      for (const int cpu : domain.cpus.to_vector()) {
        scale(host->core_resource(cpu));
      }
    }
  }

  /// Samples per-gateway load, consults the controller, and executes one
  /// planned handoff when it triggers: the source's busiest stream moves to
  /// the controller's target with zero replays.
  void maybe_rebalance(const std::vector<int>& ids, double now) {
    std::vector<cluster::GatewayLoad> loads(cluster_.gateways);
    for (Stream& stream : streams_) {
      const double wire = stream.pipeline->wire_bytes_received();
      stream.window_wire_bytes = wire - stream.sampled_wire_bytes;
      stream.sampled_wire_bytes = wire;
      cluster::GatewayLoad& load = loads[stream.gateway];
      load.queue_depth += 1;
      load.inflight_bytes +=
          static_cast<std::uint64_t>(stream.window_wire_bytes);
    }
    std::vector<cluster::PeerHealth> health(cluster_.gateways,
                                            cluster::PeerHealth::kHealthy);
    for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
      health[g] = live_[g] ? detector_.health(ids[g])
                           : cluster::PeerHealth::kDead;
    }
    const auto decision = rebalancer_->observe_window(loads, health);
    if (!decision.has_value()) {
      return;
    }
    // Busiest stream on the source this window; none = nothing to move
    // (release the in-flight slot so the controller can re-arm).
    Stream* victim = nullptr;
    for (Stream& stream : streams_) {
      if (stream.gateway != decision->source) {
        continue;
      }
      if (victim == nullptr ||
          stream.window_wire_bytes > victim->window_wire_bytes) {
        victim = &stream;
      }
    }
    if (victim == nullptr) {
      rebalancer_->handoff_finished();
      return;
    }
    hand_off(*victim, decision->target, now);
    rebalancer_->handoff_finished();
  }

  /// Executes one planned three-phase handoff, modeled by its ledger
  /// effects: every coordinator pins the stream to the target (epoch bump =
  /// the COMMIT fence), the pipeline drains to delivery and re-targets
  /// (zero replays), and the workers migrate onto target cores.
  void hand_off(Stream& stream, std::uint32_t target, double now) {
    (void)now;
    counters_.handoffs_planned.fetch_add(1, std::memory_order_relaxed);
    const std::uint32_t stream_id = stream.pipeline->spec().stream_id;
    std::uint64_t epoch = 0;
    for (auto& coordinator : coordinators_) {
      epoch = std::max(epoch, coordinator.note_handoff(stream_id, target));
    }
    SimHost* host = gateway_hosts_[target];
    const auto resource = host->nic_resource(stream.nic);
    const auto nic = topo_.find_nic(stream.nic);
    NS_CHECK(resource.ok() && nic.has_value(),
             "handoff target shares the receiver topology");
    stream.pipeline->hand_off_receiver(host, resource.value(),
                                       nic->numa_domain, handoff_seconds_);
    migrate_workers(stream, target);
    stream.gateway = target;
    counters_.note_epoch(epoch);
    counters_.handoffs_completed.fetch_add(1, std::memory_order_relaxed);
    counters_.handoff_streams_moved.fetch_add(1, std::memory_order_relaxed);
    counters_.handoff_wall_ms.fetch_add(
        static_cast<std::uint64_t>(std::llround(handoff_seconds_ * 1e3)),
        std::memory_order_relaxed);
  }

  /// The gateway a stream served by `serving` replicates to: the first live,
  /// still-heartbeating gateway after `serving` in the stream's preference
  /// list. Returns `serving` itself when no standby is available.
  [[nodiscard]] std::uint32_t standby_for(std::uint32_t stream_id,
                                          std::uint32_t serving,
                                          double now) const {
    const std::vector<std::uint32_t> preference = ring_.preference(stream_id);
    const auto at = std::find(preference.begin(), preference.end(), serving);
    if (at == preference.end()) {
      return serving;
    }
    for (std::size_t step = 1; step < preference.size(); ++step) {
      const std::uint32_t candidate =
          preference[(static_cast<std::size_t>(at - preference.begin()) + step) %
                     preference.size()];
      if (live_[candidate] && !silenced(candidate, now)) {
        return candidate;
      }
    }
    return serving;
  }

  void fail_over(std::uint32_t victim, double now) {
    std::vector<std::uint32_t> stream_ids;
    stream_ids.reserve(streams_.size());
    for (const Stream& stream : streams_) {
      stream_ids.push_back(stream.pipeline->spec().stream_id);
    }
    const ExperimentOptions::GatewayCrashEvent* event = event_for(victim);
    const double failover_seconds =
        event != nullptr ? event->failover_seconds : 0.0;
    live_[victim] = false;
    std::uint64_t moved = 0;
    std::uint64_t epoch = 0;
    for (std::uint32_t g = 0; g < cluster_.gateways; ++g) {
      // Every surviving coordinator observes the death; the ones that
      // adopt nothing still bump their epoch (the fence must advance
      // everywhere, or a re-partitioned victim could still commit).
      const std::vector<std::uint32_t> adopted =
          coordinators_[g].plan_takeover(victim, stream_ids);
      epoch = std::max(epoch, coordinators_[g].epoch());
      if (g == victim) {
        continue;
      }
      for (const std::uint32_t stream_id : adopted) {
        for (Stream& stream : streams_) {
          if (stream.pipeline->spec().stream_id != stream_id ||
              stream.gateway != victim) {
            continue;
          }
          adopt(stream, g, failover_seconds);
          ++moved;
        }
      }
    }
    counters_.failovers.fetch_add(1, std::memory_order_relaxed);
    counters_.streams_reresolved.fetch_add(moved, std::memory_order_relaxed);
    counters_.note_epoch(epoch);
    const double wall =
        (event != nullptr ? now - event->at_seconds : 0.0) + failover_seconds;
    counters_.failover_wall_ms.fetch_add(
        static_cast<std::uint64_t>(std::llround(wall * 1e3)),
        std::memory_order_relaxed);
  }

  /// Moves one stream onto `adopter`: re-target the pipeline (replica
  /// replay + blackout) and migrate its workers onto adopter cores.
  void adopt(Stream& stream, std::uint32_t adopter, double failover_seconds) {
    if (!stream.replica_rot.empty()) {
      // Unrepaired rot at takeover: the recovery scan truncates the replica
      // at the first bad record, so everything at or after it is a
      // delivery hole. This is exactly the loss scrubbing exists to
      // prevent — the ablation's no-scrub counterfactual lands here.
      scrub_counters_.failover_lost_records.fetch_add(
          stream.sampled_records - *stream.replica_rot.begin(),
          std::memory_order_relaxed);
      stream.replica_rot.clear();
    }
    stream.scrub_cursor = 0;
    SimHost* host = gateway_hosts_[adopter];
    const auto resource = host->nic_resource(stream.nic);
    const auto nic = topo_.find_nic(stream.nic);
    NS_CHECK(resource.ok() && nic.has_value(),
             "adopter gateway shares the receiver topology");
    stream.pipeline->fail_over_receiver(host, resource.value(),
                                        nic->numa_domain, failover_seconds);
    migrate_workers(stream, adopter);
    stream.gateway = adopter;
  }

  /// Migrates a stream's receive/decompress workers onto cores drawn from
  /// the new owner's allocator (shared by crash adoption and planned
  /// handoff).
  void migrate_workers(Stream& stream, std::uint32_t owner) {
    const int stream_id = static_cast<int>(stream.pipeline->spec().stream_id);
    auto receive = gateway_allocs_[owner]->take_for(
        receiver_config_, TaskType::kReceive, stream_id);
    if (receive.ok()) {
      const std::size_t count = std::min(
          receive.value().size(), stream.pipeline->spec().receive_workers.size());
      for (std::size_t i = 0; i < count; ++i) {
        stream.pipeline->migrate_receive_worker(i, receive.value()[i].core);
      }
    }
    if (compress_) {
      auto decompress = gateway_allocs_[owner]->take_for(
          receiver_config_, TaskType::kDecompress, stream_id);
      if (decompress.ok()) {
        const std::size_t count =
            std::min(decompress.value().size(),
                     stream.pipeline->spec().decompress_workers.size());
        for (std::size_t i = 0; i < count; ++i) {
          stream.pipeline->migrate_decompress_worker(i,
                                                     decompress.value()[i].core);
        }
      }
    }
  }

  sim::Simulation& sim_;
  ClusterConfig cluster_;
  RebalanceConfig rebalance_config_;
  double handoff_seconds_;
  ScrubConfig scrub_config_;
  const MachineTopology& topo_;
  const NodeConfig& receiver_config_;
  std::vector<SimHost*> gateway_hosts_;
  std::vector<CoreAllocator*> gateway_allocs_;
  std::vector<ExperimentOptions::GatewayCrashEvent> events_;
  std::vector<ExperimentOptions::GatewayDegradeEvent> degrades_;
  std::vector<ExperimentOptions::RotEvent> rots_;
  bool compress_;
  cluster::GatewayRing ring_;
  cluster::PeerFailureDetector detector_;
  std::vector<cluster::FailoverCoordinator> coordinators_;
  std::vector<bool> live_;  ///< monitor's global view (coordinators' union)
  std::vector<bool> degrade_active_;  ///< per degrade event, applied now?
  std::vector<bool> rot_fired_;       ///< per rot event, landed yet?
  std::map<int, double> nominal_capacity_;  ///< NIC resource -> pristine cap
  std::optional<cluster::RebalanceController> rebalancer_;
  std::uint64_t windows_since_sample_ = 0;
  std::uint64_t windows_since_scrub_ = 0;
  FederationCounters counters_;
  ScrubCounters scrub_counters_;
  std::vector<Stream> streams_;
};

}  // namespace

Result<ExperimentResult> run_experiment(
    const std::vector<MachineTopology>& sender_topos,
    const std::vector<NodeConfig>& sender_configs,
    const MachineTopology& receiver_topo, const NodeConfig& receiver_config,
    const ExperimentOptions& options) {
  if (sender_topos.size() != sender_configs.size() || sender_topos.empty()) {
    return invalid_argument_error("driver: need one sender config per topology");
  }
  NS_RETURN_IF_ERROR(receiver_config.validate(receiver_topo));
  for (std::size_t i = 0; i < sender_configs.size(); ++i) {
    NS_RETURN_IF_ERROR(sender_configs[i].validate(sender_topos[i]));
    // The receiver grants the credit window, so both ends must speak it.
    NS_RETURN_IF_ERROR(require((sender_configs[i].overload.credit_window > 0) ==
                                   (receiver_config.overload.credit_window > 0),
                               "credit_window must be on at both ends of a "
                               "stream or at neither"));
  }
  // Option checks hold for the legal values, so a NaN fails every one. A
  // policy section left at its defaults is off and not checked.
  if (options.health.enabled()) {
    const HealthConfig& health = options.health;
    NS_RETURN_IF_ERROR(require(health.window_ms > 0,
                               "health window_ms must be > 0"));
    NS_RETURN_IF_ERROR(require(health.ewma_alpha > 0 && health.ewma_alpha <= 1,
                               "health ewma_alpha must be in (0, 1]"));
    NS_RETURN_IF_ERROR(require(health.failed_ratio > 0 &&
                                   health.failed_ratio < health.degraded_ratio &&
                                   health.degraded_ratio < 1,
                               "health ratios must satisfy 0 < failed_ratio < "
                               "degraded_ratio < 1"));
    NS_RETURN_IF_ERROR(require(health.breach_windows > 0 &&
                                   health.recover_windows > 0 &&
                                   health.baseline_windows > 0,
                               "health breach_windows, recover_windows and "
                               "baseline_windows must be > 0"));
  }
  const bool clustered = options.cluster.enabled();
  if (clustered) {
    const ClusterConfig& cluster = options.cluster;
    NS_RETURN_IF_ERROR(require(options.resume,
                               "cluster federation requires options.resume "
                               "(the replicated journals are the resume "
                               "journals)"));
    NS_RETURN_IF_ERROR(require(cluster.gateways >= 2,
                               "cluster gateways must be >= 2 (a one-gateway "
                               "ring has no buddy)"));
    NS_RETURN_IF_ERROR(require(cluster.self < cluster.gateways,
                               "cluster self must be in [0, gateways)"));
    NS_RETURN_IF_ERROR(require(cluster.vnodes > 0 && cluster.heartbeat_ms > 0 &&
                                   cluster.miss_windows > 0,
                               "cluster vnodes, heartbeat_ms and miss_windows "
                               "must be > 0"));
  }
  NS_RETURN_IF_ERROR(require(options.gateway_crashes.empty() || clustered,
                             "gateway crash events need options.cluster enabled"));
  for (const auto& event : options.gateway_crashes) {
    NS_RETURN_IF_ERROR(require(event.gateway < options.cluster.gateways &&
                                   is_time(event.at_seconds) &&
                                   is_time(event.failover_seconds),
                               "gateway crash event needs a known gateway and "
                               "finite times >= 0"));
  }
  NS_RETURN_IF_ERROR(require(options.gateway_degrades.empty() || clustered,
                             "gateway degrade events need options.cluster "
                             "enabled"));
  for (const auto& event : options.gateway_degrades) {
    NS_RETURN_IF_ERROR(require(
        event.gateway < options.cluster.gateways && is_time(event.at_seconds) &&
            (event.until_seconds == 0 ||
             (std::isfinite(event.until_seconds) &&
              event.until_seconds > event.at_seconds)) &&
            event.slow_factor > 0 && event.slow_factor < 1,
        "gateway degrade event needs a known gateway, a finite at >= 0, "
        "until > at (or 0 = forever) and slow_factor in (0, 1)"));
  }
  if (options.scrub.enabled()) {
    const ScrubConfig& scrub = options.scrub;
    NS_RETURN_IF_ERROR(require(clustered,
                               "scrub needs options.cluster enabled (the ring "
                               "buddy's replica is the repair source)"));
    NS_RETURN_IF_ERROR(require(scrub.cadence_ms > 0 && scrub.range_records > 0 &&
                                   scrub.budget_records > 0 &&
                                   scrub.repair_concurrency > 0,
                               "scrub cadence_ms, range_records, budget_records "
                               "and repair_concurrency must be > 0"));
  }
  NS_RETURN_IF_ERROR(require(options.rots.empty() || clustered,
                             "rot events need options.cluster enabled (rot "
                             "lands on the standby replica)"));
  for (const auto& event : options.rots) {
    NS_RETURN_IF_ERROR(require(event.stream < sender_configs.size() &&
                                   is_time(event.at_seconds) && event.records > 0,
                               "rot event needs a known stream, a finite time "
                               ">= 0 and records > 0"));
  }
  if (options.rebalance.enabled()) {
    const RebalanceConfig& rebalance = options.rebalance;
    NS_RETURN_IF_ERROR(require(clustered,
                               "rebalance needs options.cluster enabled"));
    NS_RETURN_IF_ERROR(require(
        rebalance.window_ms > 0 && rebalance.hysteresis_windows > 0 &&
            rebalance.cooldown_windows > 0 && rebalance.max_concurrent > 0,
        "rebalance window_ms, hysteresis_windows, cooldown_windows and "
        "max_concurrent must be > 0"));
    NS_RETURN_IF_ERROR(require(std::isfinite(rebalance.imbalance_ratio) &&
                                   rebalance.imbalance_ratio > 1,
                               "rebalance imbalance_ratio must be finite and > 1"));
    NS_RETURN_IF_ERROR(require(is_time(options.handoff_seconds),
                               "rebalance needs a finite handoff_seconds >= 0"));
  }
  NS_RETURN_IF_ERROR(require(options.crashes.empty() || options.resume,
                             "crash events require options.resume (the "
                             "journal mirror)"));
  for (const auto& event : options.crashes) {
    NS_RETURN_IF_ERROR(require(event.stream < sender_configs.size() &&
                                   is_time(event.at_seconds) &&
                                   is_time(event.restart_seconds),
                               "crash event needs a known stream and finite "
                               "times >= 0"));
  }

  const auto preferred_nic_info = receiver_topo.preferred_nic();
  if (!preferred_nic_info.has_value() && options.receiver_nic_per_stream.empty()) {
    return invalid_argument_error("driver: receiver has no NIC with known domain");
  }
  // Per-stream receiver NIC (multi-NIC gateways); default = preferred.
  const auto nic_for_stream = [&](std::size_t stream) -> Result<NicInfo> {
    if (stream < options.receiver_nic_per_stream.size() &&
        !options.receiver_nic_per_stream[stream].empty()) {
      const auto nic = receiver_topo.find_nic(options.receiver_nic_per_stream[stream]);
      if (!nic.has_value() || nic->numa_domain < 0) {
        return invalid_argument_error("driver: receiver NIC '" +
                                      options.receiver_nic_per_stream[stream] +
                                      "' unknown or without a NUMA attachment");
      }
      return *nic;
    }
    if (!preferred_nic_info.has_value()) {
      return invalid_argument_error("driver: receiver has no NIC with known domain");
    }
    return *preferred_nic_info;
  };

  sim::Simulation sim;
  SimHost receiver(sim, receiver_topo, options.host_params);
  // Federation: gateway 0 is `receiver`; gateways 1..N-1 are identical
  // hosts on the same topology. Streams shard across them via the ring.
  std::vector<std::unique_ptr<SimHost>> extra_gateways;
  std::vector<SimHost*> gateway_hosts{&receiver};
  std::optional<cluster::GatewayRing> ring;
  if (clustered) {
    ring.emplace(options.cluster.gateways, options.cluster.vnodes);
    for (std::uint32_t g = 1; g < options.cluster.gateways; ++g) {
      extra_gateways.push_back(
          std::make_unique<SimHost>(sim, receiver_topo, options.host_params));
      gateway_hosts.push_back(extra_gateways.back().get());
    }
  }
  std::vector<std::unique_ptr<SimHost>> senders;
  senders.reserve(sender_topos.size());
  for (const auto& topo : sender_topos) {
    senders.push_back(std::make_unique<SimHost>(sim, topo, options.host_params));
  }
  SimLink link(sim, "backbone", options.link);


  // One OS-scheduler emulation per host, shared by all its OS-managed groups
  // (the kernel balances the whole machine, not one group at a time).
  OsScheduler receiver_os(receiver_topo, options.os_mode, options.os_seed);
  CoreAllocator receiver_alloc(receiver_topo, receiver_os);
  // Each extra gateway schedules its own machine (seed offset 9000+g keeps
  // the sequence disjoint from the sender schedulers' os_seed + 1 + i).
  std::vector<std::unique_ptr<OsScheduler>> gateway_os;
  std::vector<std::unique_ptr<CoreAllocator>> gateway_alloc_storage;
  std::vector<CoreAllocator*> gateway_allocs{&receiver_alloc};
  for (std::size_t g = 1; g < gateway_hosts.size(); ++g) {
    gateway_os.push_back(std::make_unique<OsScheduler>(
        receiver_topo, options.os_mode, options.os_seed + 9000 + g));
    gateway_alloc_storage.push_back(
        std::make_unique<CoreAllocator>(receiver_topo, *gateway_os.back()));
    gateway_allocs.push_back(gateway_alloc_storage.back().get());
  }
  std::vector<std::unique_ptr<OsScheduler>> sender_os;
  std::vector<std::unique_ptr<CoreAllocator>> sender_alloc;
  for (std::size_t i = 0; i < sender_topos.size(); ++i) {
    sender_os.push_back(std::make_unique<OsScheduler>(
        sender_topos[i], options.os_mode, options.os_seed + 1 + i));
    sender_alloc.push_back(
        std::make_unique<CoreAllocator>(sender_topos[i], *sender_os.back()));
  }

  std::vector<std::unique_ptr<RateTimeline>> timelines;
  std::vector<StreamPipeline::Spec> specs;
  std::vector<std::unique_ptr<StreamPipeline>> pipelines;
  std::vector<std::string> stream_nics;
  std::vector<std::uint32_t> stream_gateway;  ///< ring primary per stream
  // Observability: worker ids are stage-major per stream, streams packed in
  // launch order; the running total sizes the tracer's ring set.
  std::uint32_t trace_workers_total = 0;
  for (std::size_t stream = 0; stream < sender_configs.size(); ++stream) {
    const NodeConfig& sender_config = sender_configs[stream];
    const MachineTopology& sender_topo = sender_topos[stream];
    SimHost& sender = *senders[stream];

    const auto sender_nic_info = sender_topo.preferred_nic().has_value()
                                     ? sender_topo.preferred_nic()
                                     : std::optional<NicInfo>(sender_topo.nics().empty()
                                                                  ? NicInfo{}
                                                                  : sender_topo.nics()[0]);
    if (!sender_nic_info.has_value() || sender_nic_info->name.empty()) {
      return invalid_argument_error("driver: sender " + sender_topo.hostname() +
                                    " has no NIC");
    }
    auto sender_nic = sender.nic_resource(sender_nic_info->name);
    if (!sender_nic.ok()) {
      return sender_nic.status();
    }

    auto stream_nic_info = nic_for_stream(stream);
    if (!stream_nic_info.ok()) {
      return stream_nic_info.status();
    }
    // The ring decides which gateway serves this stream (gateway 0 when
    // federation is off). Every gateway shares the receiver topology, so
    // NIC names resolve on whichever host the stream lands on.
    const std::uint32_t gateway =
        clustered ? ring->primary(static_cast<std::uint32_t>(stream)) : 0;
    SimHost& gateway_host = *gateway_hosts[gateway];
    stream_gateway.push_back(gateway);
    auto receiver_nic = gateway_host.nic_resource(stream_nic_info.value().name);
    if (!receiver_nic.ok()) {
      return receiver_nic.status();
    }
    stream_nics.push_back(stream_nic_info.value().name);

    const int stream_id = static_cast<int>(stream);
    auto compress_workers =
        sender_alloc[stream]->take_for(sender_config, TaskType::kCompress, stream_id);
    auto send_workers =
        sender_alloc[stream]->take_for(sender_config, TaskType::kSend, stream_id);
    auto receive_workers = gateway_allocs[gateway]->take_for(
        receiver_config, TaskType::kReceive, stream_id);
    auto decompress_workers = gateway_allocs[gateway]->take_for(
        receiver_config, TaskType::kDecompress, stream_id);
    for (const auto* result : {&compress_workers, &send_workers, &receive_workers,
                               &decompress_workers}) {
      if (!result->ok()) {
        return result->status();
      }
    }
    StreamPipeline::Spec spec;
    spec.stream_id = static_cast<std::uint32_t>(stream);
    spec.chunks = options.chunks_per_stream;
    spec.chunk_bytes = static_cast<double>(sender_config.chunk_bytes);
    spec.compress = options.compress;
    spec.sender_host = &sender;
    spec.receiver_host = &gateway_host;
    spec.link = &link;
    spec.sender_nic = sender_nic.value();
    spec.receiver_nic = receiver_nic.value();
    spec.receiver_nic_domain = stream_nic_info.value().numa_domain;
    spec.source_data_domain = options.source_data_domain;
    spec.compress_workers = std::move(compress_workers).value();
    spec.send_workers = std::move(send_workers).value();
    spec.receive_workers = std::move(receive_workers).value();
    spec.decompress_workers = std::move(decompress_workers).value();
    spec.per_connection_cap = options.per_connection_cap;
    spec.send_queue_capacity = sender_config.queue_capacity;
    spec.decompress_queue_capacity = receiver_config.queue_capacity;
    spec.overload = sender_config.overload;
    spec.overload.credit_window = receiver_config.overload.credit_window;
    spec.resume_enabled = options.resume;
    if (options.source_gbps > 0) {
      spec.source_bytes_per_sec = gbps_to_bytes_per_sec(options.source_gbps);
    }
    if (options.timeline_bucket_seconds > 0) {
      timelines.push_back(
          std::make_unique<RateTimeline>(options.timeline_bucket_seconds));
      spec.e2e_timeline = timelines.back().get();
    }
    spec.trace_worker_base = trace_workers_total;
    // Codec workers only run (and only get worker ids) when compression is on.
    trace_workers_total += static_cast<std::uint32_t>(
        (options.compress ? spec.compress_workers.size() +
                                spec.decompress_workers.size()
                          : 0) +
        spec.send_workers.size() + spec.receive_workers.size());
    NS_RETURN_IF_ERROR(StreamPipeline::check(spec, options.calib));
    specs.push_back(std::move(spec));
  }

  // Observability collaborators outlive the pipelines that borrow them.
  std::unique_ptr<obs::Tracer> tracer;
  if (options.observe.trace) {
    tracer = std::make_unique<obs::Tracer>(trace_workers_total,
                                           kTraceRingCapacity);
  }
  std::optional<obs::StageLatencies> latencies;
  if (options.observe.latency) {
    int domain_count = static_cast<int>(receiver_topo.domain_count());
    for (const auto& topo : sender_topos) {
      domain_count = std::max(domain_count, static_cast<int>(topo.domain_count()));
    }
    latencies.emplace(domain_count);
  }
  for (auto& spec : specs) {
    spec.tracer = tracer.get();
    spec.latencies = latencies.has_value() ? &*latencies : nullptr;
    pipelines.push_back(
        std::make_unique<StreamPipeline>(sim, options.calib, std::move(spec)));
  }

  std::optional<DegradationInjector> injector;
  if (!options.degradation.empty()) {
    injector.emplace(sim, receiver, options.degradation);
  }
  std::optional<RecoveryMonitor> healer;
  if (options.health.enabled()) {
    healer.emplace(sim, receiver, receiver_topo, receiver_config, options.health);
    for (std::size_t stream = 0; stream < pipelines.size(); ++stream) {
      // The NIC healer watches gateway 0's hardware; under federation the
      // other gateways' streams are out of its jurisdiction.
      if (!clustered || stream_gateway[stream] == 0) {
        healer->add_stream(pipelines[stream].get(), stream_nics[stream]);
      }
    }
  }
  std::optional<FederationMonitor> federation;
  if (clustered) {
    federation.emplace(sim, options.cluster, receiver_topo, receiver_config,
                       gateway_hosts, gateway_allocs, options.gateway_crashes,
                       options.gateway_degrades, options.rebalance,
                       options.handoff_seconds, options.scrub, options.rots,
                       options.compress);
    for (std::size_t stream = 0; stream < pipelines.size(); ++stream) {
      federation->add_stream(pipelines[stream].get(), stream_gateway[stream],
                             stream_nics[stream]);
    }
  }
  std::optional<CrashInjector> crasher;
  if (!options.crashes.empty()) {
    std::vector<StreamPipeline*> targets;
    targets.reserve(pipelines.size());
    for (auto& pipeline : pipelines) {
      targets.push_back(pipeline.get());
    }
    crasher.emplace(sim, std::move(targets), options.crashes);
  }

  for (auto& pipeline : pipelines) {
    pipeline->launch();
  }
  if (injector.has_value()) {
    injector->launch();
  }
  if (healer.has_value()) {
    healer->launch();
  }
  if (crasher.has_value()) {
    crasher->launch();
  }
  if (federation.has_value()) {
    federation->launch();
  }
  sim.run();

  ExperimentResult result;
  result.elapsed_seconds = sim.now();
  if (result.elapsed_seconds <= 0) {
    return internal_error("driver: simulation made no progress");
  }
  for (const auto& pipeline : pipelines) {
    // Each stream carries a fixed chunk budget; rate it over its own active
    // window so an early finisher is not diluted by slower streams.
    const double window = pipeline->finished_at() > 0 ? pipeline->finished_at()
                                                      : result.elapsed_seconds;
    StreamResult stream;
    stream.network_gbps =
        bytes_per_sec_to_gbps(pipeline->wire_bytes_received() / window);
    stream.e2e_gbps =
        bytes_per_sec_to_gbps(pipeline->raw_bytes_delivered() / window);
    stream.chunks = pipeline->chunks_delivered();
    stream.shed_chunks = pipeline->shed_chunks();
    stream.credit_stalls = pipeline->credit_stalls();
    stream.budget_stalls = pipeline->budget_stalls();
    stream.peak_bytes_in_flight = pipeline->peak_bytes_in_flight();
    result.network_gbps += stream.network_gbps;
    result.e2e_gbps += stream.e2e_gbps;
    result.observation.overload.shed_chunks += stream.shed_chunks;
    result.observation.overload.credit_stalls += stream.credit_stalls;
    result.observation.overload.budget_stalls += stream.budget_stalls;
    result.observation.overload.peak_bytes_in_flight =
        std::max(result.observation.overload.peak_bytes_in_flight,
                 static_cast<std::uint64_t>(stream.peak_bytes_in_flight));
    result.streams.push_back(stream);
  }
  if (options.resume) {
    for (const auto& pipeline : pipelines) {
      const ResumeCountersSnapshot snap = pipeline->resume_snapshot();
      // Every resume counter is a plain count, so the run total is the sum.
      for (const auto& field : ResumeCountersSnapshot::fields()) {
        result.resume.*field.member += snap.*field.member;
      }
      result.rework_restart_from_zero_bytes +=
          pipeline->restart_from_zero_bytes();
    }
    result.observation.resume.resume_handshakes = result.resume.resume_handshakes;
    result.observation.resume.duplicates_suppressed =
        result.resume.duplicates_suppressed;
    result.observation.resume.duplicate_deliveries_suppressed =
        result.resume.duplicate_deliveries_suppressed;
    result.observation.resume.replayed_chunks = result.resume.replayed_chunks;
    result.observation.resume.rework_bytes = result.resume.rework_bytes;
  }
  receiver.usage().set_elapsed(result.elapsed_seconds);
  result.receiver_core_utilization = receiver.usage().utilizations();
  result.receiver_remote_normalized = receiver.remote_access().normalized_remote();

  // Aggregate the advisor's observation across streams. Utilization is the
  // stage's total busy time over (window x total threads).
  StageBusy total_busy;
  int threads_compress = 0;
  int threads_send = 0;
  int threads_receive = 0;
  int threads_decompress = 0;
  for (const auto& pipeline : pipelines) {
    total_busy.compress += pipeline->stage_busy().compress;
    total_busy.send += pipeline->stage_busy().send;
    total_busy.receive += pipeline->stage_busy().receive;
    total_busy.decompress += pipeline->stage_busy().decompress;
    threads_compress += static_cast<int>(pipeline->spec().compress_workers.size());
    threads_send += static_cast<int>(pipeline->spec().send_workers.size());
    threads_receive += static_cast<int>(pipeline->spec().receive_workers.size());
    threads_decompress +=
        static_cast<int>(pipeline->spec().decompress_workers.size());
  }
  const auto stage_observation = [&](double busy, int threads) {
    StageObservation stage;
    stage.threads = threads;
    stage.utilization =
        threads > 0 ? busy / (result.elapsed_seconds * threads) : 0.0;
    return stage;
  };
  result.observation.raw_throughput =
      gbps_to_bytes_per_sec(result.e2e_gbps);
  result.observation.compress = stage_observation(total_busy.compress, threads_compress);
  result.observation.send = stage_observation(total_busy.send, threads_send);
  result.observation.receive = stage_observation(total_busy.receive, threads_receive);
  result.observation.decompress =
      stage_observation(total_busy.decompress, threads_decompress);
  for (auto& timeline : timelines) {
    result.stream_timelines.push_back(std::move(*timeline));
  }
  if (healer.has_value()) {
    result.health = healer->counters();
  }
  if (federation.has_value()) {
    result.federation = federation->counters();
    result.scrub = federation->scrub_counters();
    result.stream_gateways = federation->stream_gateways();
  }
  if (tracer != nullptr) {
    result.spans = tracer->drain_sorted();
    result.dropped_spans = tracer->dropped_spans();
  }
  if (latencies.has_value()) {
    result.observation.latency.compress =
        latencies->stage_snapshot(obs::Stage::kCompress);
    result.observation.latency.send =
        latencies->stage_snapshot(obs::Stage::kSend);
    result.observation.latency.receive =
        latencies->stage_snapshot(obs::Stage::kReceive);
    result.observation.latency.decompress =
        latencies->stage_snapshot(obs::Stage::kDecompress);
  }
  return result;
}

Result<ExperimentResult> run_plan(const std::vector<MachineTopology>& sender_topos,
                                  const MachineTopology& receiver_topo,
                                  const StreamingPlan& plan,
                                  const ExperimentOptions& options) {
  ExperimentOptions effective = options;
  if (effective.receiver_nic_per_stream.empty()) {
    effective.receiver_nic_per_stream = plan.stream_receiver_nics;
  }
  return run_experiment(sender_topos, plan.senders, receiver_topo, plan.receiver,
                        effective);
}

}  // namespace numastream::simrt
