// Ablation: gray failure mid-stream — planned live handoff vs riding it out
// vs crash failover (DESIGN.md §13).
//
// Two NUMA-aware gateways shard two streams over the consistent-hash ring.
// A third of the way in, the gateway serving stream 0 turns *gray*: it keeps
// answering every heartbeat, but slowly — its NIC capacity and heartbeat
// responsiveness drop to slow_factor. The two-state detector classifies it
// degraded (never dead, so no spurious crash takeover), and the rebalancer
// drains its streams onto the healthy gateway with a planned three-phase
// handoff: freeze + drain, journal flush + ship, epoch-bump commit. The
// ablation compares the damage under three policies on the same schedule:
//
//   ride it out      - detection on, rebalance off: the victim's streams
//                      crawl at slow_factor for the rest of the run.
//   planned handoff  - rebalance on: the drain completes before the move,
//                      so the planned path replays *nothing* (re-work = 0).
//   crash failover   - kill the same gateway at the same instant instead:
//                      the adopter replays the replicated journal and the
//                      unacked window crosses the wire again.
//
// Everything runs on virtual time under a fixed schedule, so an identical
// rerun must reproduce the federation and resume ledgers bit-for-bit.
// Results are also emitted as BENCH_ablation_gateway_rebalance.json.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/ring.h"
#include "core/config_generator.h"
#include "metrics/federation_counters.h"
#include "metrics/resume_counters.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

constexpr std::uint64_t kChunks = 300;
constexpr std::uint32_t kStreams = 2;
constexpr double kSlowFactor = 0.25;

/// Sum of e2e goodput over the streams initially served by `victim`.
double victim_gbps(const ExperimentResult& result,
                   const std::vector<std::uint32_t>& initial_gateways,
                   std::uint32_t victim) {
  double total = 0;
  for (std::size_t s = 0; s < result.streams.size(); ++s) {
    if (initial_gateways[s] == victim) {
      total += result.streams[s].e2e_gbps;
    }
  }
  return total;
}

}  // namespace

int main() {
  print_header(
      "Ablation - gray failure mid-stream: planned handoff vs ride-out vs "
      "crash failover",
      "(robustness: the two-state detector + load-driven rebalancing move "
      "streams off a slow-but-alive gateway with zero re-work)");

  const MachineTopology gateway = lynxdtn_topology();
  const std::vector<MachineTopology> senders(kStreams, updraft_topology());
  ConfigGenerator generator(gateway, senders);
  WorkloadSpec spec;
  spec.num_streams = kStreams;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");

  // Probe the failure-free federated run to size the heartbeat window, then
  // re-run it timed: this is the balanced baseline every policy is judged
  // against.
  ExperimentOptions options;
  options.chunks_per_stream = kChunks;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.cluster.miss_windows = 2;
  auto probe = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(probe.ok(), "probe run failed");
  const double elapsed = probe.value().elapsed_seconds;
  NS_CHECK(elapsed > 0, "probe run produced no elapsed time");
  options.cluster.heartbeat_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(elapsed * 1000.0 / 60.0)));
  auto timed = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(timed.ok(), "timed baseline failed");
  const ExperimentResult& baseline = timed.value();

  // The gateway serving stream 0 turns gray a third of the way in and never
  // heals on its own.
  const cluster::GatewayRing ring(options.cluster.gateways,
                                  options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  std::vector<std::uint32_t> initial_gateways;
  std::uint64_t streams_on_victim = 0;
  for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
    initial_gateways.push_back(ring.primary(stream));
    if (ring.primary(stream) == victim) {
      ++streams_on_victim;
    }
  }
  const double degrade_at = elapsed / 3;
  options.gateway_degrades = {{.gateway = victim,
                               .at_seconds = degrade_at,
                               .until_seconds = 0,
                               .slow_factor = kSlowFactor}};

  // Policy 1: ride it out — detection runs, nothing moves.
  auto rode = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(rode.ok(), "ride-it-out scenario failed");
  const ExperimentResult& gray = rode.value();

  // Policy 2: planned handoff — the rebalancer drains the degraded gateway.
  options.rebalance.window_ms = options.cluster.heartbeat_ms;
  options.rebalance.hysteresis_windows = 2;
  options.rebalance.cooldown_windows = 5;
  options.rebalance.max_concurrent = 1;
  options.rebalance.drain_degraded = true;
  auto planned_run = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(planned_run.ok(), "planned-handoff scenario failed");
  const ExperimentResult& planned = planned_run.value();
  const FederationCountersSnapshot& fed = planned.federation;

  // Policy 3: crash failover on the same schedule — the gray gateway is
  // left un-drained until it dies outright (the classic end of an unhandled
  // gray failure). The backlog queued in its RAM dies with it, so the
  // adopter must replay the whole sent-but-unacked window; the planned
  // path above replays nothing because the drain finished *before*
  // ownership moved.
  ExperimentOptions crash_options = options;
  crash_options.rebalance = RebalanceConfig{};
  crash_options.gateway_crashes = {{.gateway = victim,
                                    .at_seconds = degrade_at + elapsed / 6,
                                    .failover_seconds = elapsed / 10}};
  auto crashed = run_plan(senders, gateway, plan.value(), crash_options);
  NS_CHECK(crashed.ok(), "crash-failover scenario failed");
  const ExperimentResult& crash = crashed.value();

  const double baseline_victim = victim_gbps(baseline, initial_gateways, victim);
  const double gray_victim = victim_gbps(gray, initial_gateways, victim);
  const double planned_victim = victim_gbps(planned, initial_gateways, victim);

  TextTable table({"policy", "victim streams Gbps", "vs baseline", "re-work (MB)",
                   "blackout (ms)"});
  table.add_row({"balanced baseline", fmt_double(baseline_victim, 2), "1.00",
                 "0.00", "-"});
  table.add_row({"ride it out", fmt_double(gray_victim, 2),
                 fmt_double(gray_victim / baseline_victim, 2), "0.00", "-"});
  table.add_row({"planned handoff", fmt_double(planned_victim, 2),
                 fmt_double(planned_victim / baseline_victim, 2),
                 fmt_double(static_cast<double>(planned.resume.rework_bytes) /
                                1e6,
                            2),
                 std::to_string(fed.handoff_wall_ms)});
  table.add_row({"crash failover", "-", "-",
                 fmt_double(static_cast<double>(crash.resume.rework_bytes) /
                                1e6,
                            2),
                 std::to_string(crash.federation.failover_wall_ms)});
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              counter_table(fed, /*nonzero_only=*/true).render().c_str());

  // The balanced baseline never detects, never moves.
  shape_check("balanced baseline sees no degradation and no handoff",
              baseline.federation.degraded_peers_detected == 0 &&
                  baseline.federation.handoffs_planned == 0 &&
                  baseline.federation.failovers == 0);

  // The gray failure is detected as *degraded*, never escalated to a
  // dead-peer takeover — in every policy that keeps the gateway alive.
  shape_check("the gray gateway is classified degraded, never dead",
              gray.federation.degraded_peers_detected >= 1 &&
                  gray.federation.peer_failures_detected == 0 &&
                  gray.federation.failovers == 0 &&
                  fed.degraded_peers_detected >= 1 &&
                  fed.peer_failures_detected == 0 && fed.failovers == 0);

  // The rebalancer triggered and the three-phase handoff committed.
  shape_check("the rebalancer triggers exactly one planned handoff",
              fed.rebalance_triggers >= 1 && fed.handoffs_planned >= 1 &&
                  fed.handoffs_planned == fed.handoffs_completed &&
                  fed.handoffs_aborted == 0 &&
                  fed.handoff_streams_moved >= 1 && fed.handoff_wall_ms > 0);
  shape_check("the commit raised the epoch fence", fed.epoch >= 2);
  std::uint64_t on_victim_after = 0;
  for (const std::uint32_t g : planned.stream_gateways) {
    if (g == victim) {
      ++on_victim_after;
    }
  }
  shape_check("streams drained off the degraded gateway",
              on_victim_after < streams_on_victim);

  // Zero loss under the planned move: every chunk still arrives.
  bool all_chunks = planned.streams.size() == kStreams;
  for (const auto& stream : planned.streams) {
    all_chunks = all_chunks && stream.chunks == kChunks;
  }
  shape_check("zero chunk loss across the planned handoff", all_chunks);

  // The headline: the drain completes before the move, so the planned path
  // re-sends nothing — strictly under the crash path on the same schedule.
  shape_check("planned handoff replays zero bytes",
              planned.resume.rework_bytes == 0 &&
                  planned.resume.replayed_chunks == 0);
  shape_check("crash failover pays real re-work on the same schedule",
              crash.resume.rework_bytes > 0);
  shape_check("planned re-work strictly undercuts crash re-work",
              planned.resume.rework_bytes < crash.resume.rework_bytes);

  // Moving beats riding it out, and recovers most of the balanced rate.
  shape_check("handing off beats riding out the gray failure",
              planned_victim > gray_victim);
  shape_check("victim streams recover >= 90% of the balanced baseline",
              planned_victim >= 0.9 * baseline_victim);

  // Determinism: an identical rerun reproduces both ledgers.
  auto rerun = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(rerun.ok(), "rerun failed");
  shape_check("same schedule reproduces the ledgers bit-identically",
              rerun.value().federation == fed &&
                  rerun.value().resume == planned.resume &&
                  rerun.value().stream_gateways == planned.stream_gateways);

  // Machine-readable artifact for CI and sweep tooling.
  JsonWriter json;
  json.field("bench", "ablation_gateway_rebalance");
  json.field("chunks_per_stream", kChunks);
  json.field("streams", static_cast<std::uint64_t>(kStreams));
  json.field("gateways", static_cast<std::uint64_t>(options.cluster.gateways));
  json.field("victim_gateway", static_cast<std::uint64_t>(victim));
  json.field("heartbeat_ms", options.cluster.heartbeat_ms);
  json.field("degrade_at_seconds", degrade_at);
  json.field("slow_factor", kSlowFactor);
  json.field("elapsed_seconds", planned.elapsed_seconds);
  json.field("baseline_victim_gbps", baseline_victim);
  json.field("gray_victim_gbps", gray_victim);
  json.field("planned_victim_gbps", planned_victim);
  json.field("planned_rework_bytes", planned.resume.rework_bytes);
  json.field("crash_rework_bytes", crash.resume.rework_bytes);
  json.begin_object("federation");
  json.field("degraded_peers_detected", fed.degraded_peers_detected);
  json.field("peer_failures_detected", fed.peer_failures_detected);
  json.field("rebalance_triggers", fed.rebalance_triggers);
  json.field("handoffs_planned", fed.handoffs_planned);
  json.field("handoffs_completed", fed.handoffs_completed);
  json.field("handoffs_aborted", fed.handoffs_aborted);
  json.field("handoff_streams_moved", fed.handoff_streams_moved);
  json.field("handoff_wall_ms", fed.handoff_wall_ms);
  json.field("epoch", fed.epoch);
  json.end_object();
  json.field("bit_identical_rerun", rerun.value().federation == fed);
  shape_check("json artifact written",
              json.write(json_artifact_path(
                  "BENCH_ablation_gateway_rebalance.json")));

  return finish();
}
