// Ablation: whole-gateway death mid-stream — federated failover vs restart
// from zero (DESIGN.md §12).
//
// Two NUMA-aware gateways shard two streams over the consistent-hash ring,
// each shipping its journal records to its ring buddy synchronously. A
// seeded kill silences the gateway serving stream 0 a third of the way in;
// the buddy's failure detector declares it dead after miss_windows starved
// heartbeat windows, bumps the fencing epoch, adopts the victim's streams,
// and replays the replicated journal through the RESUME machinery. The
// ablation compares the re-work after the takeover:
//
//   restart from zero  - no replicated ledger: the adopting gateway has no
//                        watermark and the victim's whole committed prefix
//                        crosses the wire again.
//   federated failover - the replica already holds every committed
//                        delivery; replay is bounded by the unacked window.
//
// Kill instant, detection, and every counter live on virtual time under a
// fixed schedule, so an identical rerun must reproduce the federation and
// resume ledgers bit-for-bit; checked below. Results are also emitted as
// BENCH_ablation_gateway_failover.json for machine consumption.
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

}  // namespace

int main() {
  print_header(
      "Ablation - gateway death mid-stream: federated failover vs restart",
      "(robustness: replicated journals + the consistent-hash ring bound "
      "whole-gateway failover re-work by the unacked window)");

  const MachineTopology gateway = lynxdtn_topology();
  const std::vector<MachineTopology> senders(kStreams, updraft_topology());
  ConfigGenerator generator(gateway, senders);
  WorkloadSpec spec;
  spec.num_streams = kStreams;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");

  // Probe the failure-free federated run: sharding and replication on, no
  // kills — prices the federation layer on the clean path and sets the
  // heartbeat window relative to the transfer.
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
  NS_CHECK(timed.ok(), "timed probe failed");
  const ExperimentResult& clean = timed.value();

  // Kill the gateway serving stream 0, a third of the way in.
  const cluster::GatewayRing ring(options.cluster.gateways,
                                  options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  std::uint64_t streams_on_victim = 0;
  for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
    if (ring.primary(stream) == victim) {
      ++streams_on_victim;
    }
  }
  options.gateway_crashes = {{.gateway = victim,
                              .at_seconds = clean.elapsed_seconds / 3,
                              .failover_seconds = clean.elapsed_seconds / 10}};
  auto killed = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(killed.ok(), "gateway-kill scenario failed");
  const ExperimentResult& run = killed.value();
  const FederationCountersSnapshot& fed = run.federation;
  const ResumeCountersSnapshot& resume = run.resume;
  const double stream_bytes =
      static_cast<double>(kChunks * plan.value().senders[0].chunk_bytes);

  TextTable table({"mode", "failovers", "re-work (MB)", "re-work / stream",
                   "takeover (ms)"});
  table.add_row({"restart from zero", "1",
                 fmt_double(run.rework_restart_from_zero_bytes / 1e6, 2),
                 fmt_double(run.rework_restart_from_zero_bytes / stream_bytes,
                            2),
                 "-"});
  table.add_row({"federated failover", std::to_string(fed.failovers),
                 fmt_double(static_cast<double>(resume.rework_bytes) / 1e6, 2),
                 fmt_double(static_cast<double>(resume.rework_bytes) /
                                stream_bytes,
                            2),
                 std::to_string(fed.failover_wall_ms)});
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              counter_table(fed, /*nonzero_only=*/true).render().c_str());

  // The clean path pays heartbeats and replication, never a takeover.
  shape_check("failure-free probe performs no failover",
              clean.federation.failovers == 0 &&
                  clean.federation.peer_failures_detected == 0 &&
                  clean.federation.epoch == 1);
  shape_check("failure-free probe still heartbeats and replicates",
              clean.federation.heartbeats_sent > 0 &&
                  clean.federation.repl_records_shipped > 0);

  // The takeover: detected once, epoch fence raised, victim's streams moved.
  shape_check("the gateway death is detected exactly once",
              fed.peer_failures_detected == 1 && fed.failovers == 1);
  shape_check("the epoch fence advanced past the victim's",
              fed.epoch >= 2);
  shape_check("the victim's streams re-resolved to the survivor",
              fed.streams_reresolved == streams_on_victim &&
                  run.stream_gateways.size() == kStreams &&
                  std::all_of(run.stream_gateways.begin(),
                              run.stream_gateways.end(),
                              [&](std::uint32_t g) { return g != victim; }));
  shape_check("takeover wall time is accounted", fed.failover_wall_ms > 0);

  // Zero loss: every chunk of every stream still arrives, exactly once.
  bool all_chunks = run.streams.size() == kStreams;
  for (const auto& stream : run.streams) {
    all_chunks = all_chunks && stream.chunks == kChunks;
  }
  shape_check("zero chunk loss across the gateway death", all_chunks);

  // The headline: failover re-work is bounded by the replicated journal's
  // unacked window, strictly under a restart with no replica.
  shape_check("failover re-work undercuts restart-from-zero",
              static_cast<double>(resume.rework_bytes) <
                  run.rework_restart_from_zero_bytes);

  // Determinism: an identical rerun reproduces both ledgers.
  auto rerun = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(rerun.ok(), "rerun failed");
  shape_check("same schedule reproduces the federation ledger bit-identically",
              rerun.value().federation == fed &&
                  rerun.value().resume == resume &&
                  rerun.value().stream_gateways == run.stream_gateways);

  // Machine-readable artifact for CI and sweep tooling.
  JsonWriter json;
  json.field("bench", "ablation_gateway_failover");
  json.field("chunks_per_stream", kChunks);
  json.field("streams", static_cast<std::uint64_t>(kStreams));
  json.field("gateways", static_cast<std::uint64_t>(options.cluster.gateways));
  json.field("victim_gateway", static_cast<std::uint64_t>(victim));
  json.field("heartbeat_ms", options.cluster.heartbeat_ms);
  json.field("kill_at_seconds", options.gateway_crashes[0].at_seconds);
  json.field("failover_seconds", options.gateway_crashes[0].failover_seconds);
  json.field("elapsed_seconds", run.elapsed_seconds);
  json.field("rework_bytes", resume.rework_bytes);
  json.field("rework_restart_from_zero_bytes",
             run.rework_restart_from_zero_bytes);
  json.begin_object("federation");
  json.field("repl_records_shipped", fed.repl_records_shipped);
  json.field("repl_appends_acked", fed.repl_appends_acked);
  json.field("repl_lag_records_max", fed.repl_lag_records_max);
  json.field("heartbeats_sent", fed.heartbeats_sent);
  json.field("peer_failures_detected", fed.peer_failures_detected);
  json.field("failovers", fed.failovers);
  json.field("streams_reresolved", fed.streams_reresolved);
  json.field("failover_wall_ms", fed.failover_wall_ms);
  json.field("epoch", fed.epoch);
  json.field("fenced_appends_rejected", fed.fenced_appends_rejected);
  json.end_object();
  json.begin_object("resume");
  json.field("crashes_observed", resume.crashes_observed);
  json.field("resume_handshakes", resume.resume_handshakes);
  json.field("replayed_chunks", resume.replayed_chunks);
  json.field("journal_records_replayed", resume.journal_records_replayed);
  json.field("recovery_wall_ms", resume.recovery_wall_ms);
  json.end_object();
  json.field("bit_identical_rerun", rerun.value().federation == fed);
  shape_check("json artifact written",
              json.write(json_artifact_path(
                  "BENCH_ablation_gateway_failover.json")));

  return finish();
}
