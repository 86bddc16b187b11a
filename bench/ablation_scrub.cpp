// Ablation: latent replica rot + gateway death — anti-entropy scrubbing vs
// trusting the fsync (DESIGN.md §14).
//
// Two NUMA-aware gateways shard two streams over the consistent-hash ring,
// each shipping its journal records to its ring buddy synchronously. A
// seeded rot event flips records of stream 0's *standby replica* a quarter
// of the way in — the copy nobody reads, so the damage is invisible to the
// clean path — and a seeded kill then silences the gateway serving stream 0
// two thirds of the way in, forcing a takeover that replays exactly that
// replica. The ablation compares what the takeover finds:
//
//   scrub off - the rot is still there. The recovery scan truncates the
//               replica at the first bad record and every record at or
//               after it is a delivery hole (failover_lost_records > 0).
//   scrub on  - the background digest rounds detected the divergence and
//               push-repaired every rotted range from the primary's clean
//               copy before the kill; the takeover replays an intact
//               replica and loses nothing.
//
// Rot placement, scrub rounds, kill and detection all run on virtual time
// under a fixed seed, so an identical rerun must reproduce the scrub,
// federation and resume ledgers bit-for-bit; checked below. Results are
// also emitted as BENCH_ablation_scrub.json for machine consumption.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/ring.h"
#include "core/config_generator.h"
#include "metrics/federation_counters.h"
#include "metrics/scrub_counters.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

constexpr std::uint64_t kChunks = 300;
constexpr std::uint32_t kStreams = 2;
constexpr std::uint64_t kRotRecords = 24;
constexpr std::uint64_t kRotSeed = 0xB17F11B5ULL;  // fixed: bit-identity

}  // namespace

int main() {
  print_header(
      "Ablation - latent replica rot: anti-entropy scrubbing vs trust",
      "(robustness: background digest rounds repair rotted replica ranges "
      "from the clean copy before a failover can replay them as holes)");

  const MachineTopology gateway = lynxdtn_topology();
  const std::vector<MachineTopology> senders(kStreams, updraft_topology());
  ConfigGenerator generator(gateway, senders);
  WorkloadSpec spec;
  spec.num_streams = kStreams;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");

  // Probe the failure-free federated run to size the heartbeat window (and
  // with it the scrub cadence) relative to the transfer.
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
  // Re-probe with the scaled heartbeat: the coarse default window inflates
  // the first probe's elapsed time, and the fault schedule must be placed
  // inside the *real* span or the kill lands after the transfer is done.
  auto timed = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(timed.ok(), "timed probe failed");
  const double span = timed.value().elapsed_seconds;

  // The fault schedule: rot stream 0's replica at span/6, kill its serving
  // gateway at span/2 — plenty of scrub cadences in between when scrubbing
  // is on, and zero chances to notice when it is off.
  const cluster::GatewayRing ring(options.cluster.gateways,
                                  options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  options.rots = {{.stream = 0,
                   .at_seconds = span / 6,
                   .records = kRotRecords,
                   .seed = kRotSeed}};
  options.gateway_crashes = {{.gateway = victim,
                              .at_seconds = span / 2,
                              .failover_seconds = span / 10}};

  // Counterfactual first: same rot, same kill, no scrubbing.
  auto unscrubbed = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(unscrubbed.ok(), "no-scrub scenario failed");
  const ExperimentResult& lossy = unscrubbed.value();

  // The contribution: digest rounds every two heartbeat windows.
  options.scrub.cadence_ms = 2 * options.cluster.heartbeat_ms;
  options.scrub.range_records = 16;
  options.scrub.budget_records = 512;
  options.scrub.repair_concurrency = 4;
  auto scrubbed = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(scrubbed.ok(), "scrub scenario failed");
  const ExperimentResult& run = scrubbed.value();
  const ScrubCountersSnapshot& scrub = run.scrub;

  TextTable table({"mode", "records rotted", "ranges repaired",
                   "records lost at failover", "failovers"});
  table.add_row({"trust the fsync (scrub off)",
                 std::to_string(lossy.scrub.records_rotted),
                 std::to_string(lossy.scrub.ranges_repaired),
                 std::to_string(lossy.scrub.failover_lost_records),
                 std::to_string(lossy.federation.failovers)});
  table.add_row({"anti-entropy scrub",
                 std::to_string(scrub.records_rotted),
                 std::to_string(scrub.ranges_repaired),
                 std::to_string(scrub.failover_lost_records),
                 std::to_string(run.federation.failovers)});
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              counter_table(scrub, /*nonzero_only=*/true).render().c_str());

  // The injection landed identically in both runs (same seed, same time).
  shape_check("rot lands in both runs",
              lossy.scrub.records_rotted > 0 &&
                  lossy.scrub.records_rotted == scrub.records_rotted);

  // Without scrubbing the rot stays latent until the takeover replays it.
  shape_check("no-scrub counterfactual repairs nothing",
              lossy.scrub.ranges_repaired == 0 &&
                  lossy.scrub.digest_rounds == 0);
  shape_check("no-scrub counterfactual loses records at failover",
              lossy.scrub.failover_lost_records > 0);

  // With scrubbing every rotted record is found and repaired in the
  // background, before the scheduled kill.
  shape_check("scrub rounds ran and compared ranges",
              scrub.digest_rounds > 0 && scrub.ranges_compared > 0 &&
                  scrub.records_scanned > 0);
  shape_check("every rotted record is found and repaired pre-kill",
              scrub.corrupt_records_found == scrub.records_rotted &&
                  scrub.ranges_diverged == scrub.ranges_repaired &&
                  scrub.ranges_repaired > 0 && scrub.records_pushed > 0);
  shape_check("the repaired replica survives the takeover with zero holes",
              scrub.failover_lost_records == 0);
  shape_check("the gateway death still fails over exactly once",
              run.federation.failovers == 1 &&
                  lossy.federation.failovers == 1);

  // Exactly-once delivery holds end to end: every chunk of every stream
  // arrives despite rot + death (the scrub run; the lossy run's holes are
  // the ledger's counterfactual accounting).
  bool all_chunks = run.streams.size() == kStreams;
  for (const auto& stream : run.streams) {
    all_chunks = all_chunks && stream.chunks == kChunks;
  }
  shape_check("zero chunk loss across rot + gateway death", all_chunks);

  // Determinism: an identical rerun reproduces all three ledgers.
  auto rerun = run_plan(senders, gateway, plan.value(), options);
  NS_CHECK(rerun.ok(), "rerun failed");
  shape_check("same seed reproduces the scrub ledger bit-identically",
              rerun.value().scrub == scrub &&
                  rerun.value().federation == run.federation &&
                  rerun.value().resume == run.resume);

  // Machine-readable artifact for CI and sweep tooling.
  JsonWriter json;
  json.field("bench", "ablation_scrub");
  json.field("chunks_per_stream", kChunks);
  json.field("streams", static_cast<std::uint64_t>(kStreams));
  json.field("gateways", static_cast<std::uint64_t>(options.cluster.gateways));
  json.field("victim_gateway", static_cast<std::uint64_t>(victim));
  json.field("heartbeat_ms", options.cluster.heartbeat_ms);
  json.field("scrub_cadence_ms", options.scrub.cadence_ms);
  json.field("rot_records", kRotRecords);
  json.field("rot_seed", kRotSeed);
  json.field("rot_at_seconds", options.rots[0].at_seconds);
  json.field("kill_at_seconds", options.gateway_crashes[0].at_seconds);
  json.field("elapsed_seconds", run.elapsed_seconds);
  json.begin_object("scrub_on");
  json.field("records_rotted", scrub.records_rotted);
  json.field("records_scanned", scrub.records_scanned);
  json.field("digest_rounds", scrub.digest_rounds);
  json.field("ranges_compared", scrub.ranges_compared);
  json.field("ranges_diverged", scrub.ranges_diverged);
  json.field("ranges_repaired", scrub.ranges_repaired);
  json.field("corrupt_records_found", scrub.corrupt_records_found);
  json.field("records_pushed", scrub.records_pushed);
  json.field("failover_lost_records", scrub.failover_lost_records);
  json.end_object();
  json.begin_object("scrub_off");
  json.field("records_rotted", lossy.scrub.records_rotted);
  json.field("ranges_repaired", lossy.scrub.ranges_repaired);
  json.field("failover_lost_records", lossy.scrub.failover_lost_records);
  json.end_object();
  json.field("bit_identical_rerun", rerun.value().scrub == scrub);
  shape_check("json artifact written",
              json.write(json_artifact_path("BENCH_ablation_scrub.json")));

  return finish();
}
