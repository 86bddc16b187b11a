// Ablation: overload protection under a throttled receiver.
//
// The paper's gateway assumes the receiver keeps up; this sweep breaks that
// assumption — the receiver's decompress stage is throttled to ~10% of the
// senders' aggregate rate — and compares the overload-protection modes of
// core/pipeline.cpp on the simulated gateway:
//
//   block   - no protection: bounded queues backpressure all the way to the
//             source (the pre-overload behaviour). Nothing is lost, but the
//             pipeline runs at the receiver's pace and in-flight memory sits
//             at whatever the queues plus sockets happen to hold.
//   credit  - credit-based flow control: each connection may hold at most W
//             chunks beyond what the receiver consumed, pinning the wire
//             backlog. The sender visibly stalls (credit_stalls > 0).
//   budget  - memory budget: in-flight wire bytes are capped by a ledger;
//             peak_bytes_in_flight <= budget, always.
//   shed    - drop-newest load shedding between watermarks: throughput-first,
//             deliveries drop but the source is never stalled by the queue.
//
// Counters are exactly reproducible: the simulation is a deterministic event
// loop, so two identical runs must agree bit-for-bit — checked below.
#include <algorithm>

#include "bench/bench_util.h"
#include "core/config_generator.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

/// One protection mode: the `overload` directive every sender config carries.
/// The receiver config carries the same credit window (it grants it).
struct Mode {
  const char* name;
  OverloadConfig overload;
};

Result<ExperimentResult> run_mode(const std::vector<MachineTopology>& senders,
                                  const MachineTopology& lynx,
                                  StreamingPlan plan, const Mode& mode) {
  for (NodeConfig& sender : plan.senders) {
    sender.overload = mode.overload;
  }
  plan.receiver.overload.credit_window = mode.overload.credit_window;
  ExperimentOptions options;
  options.link.bandwidth_gbps = 200;
  options.source_gbps = 100;
  options.chunks_per_stream = 120;
  // Throttle the receiver: decompression runs at ~10% of its calibrated
  // speed, so every queue upstream of it fills and stays full.
  options.calib.decompress_bytes_per_sec /= 10.0;
  // Per-stage latency histograms ride along: under overload, the tail shows
  // where chunks wait, which the throughput columns alone cannot.
  options.observe.latency = true;
  return run_plan(senders, lynx, plan, options);
}

}  // namespace

int main() {
  const BenchClock bench_clock;
  print_header("Ablation - overload protection under a throttled receiver",
               "(robustness: credit flow control, memory budget, load shedding)");

  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {
      updraft_topology("updraft1"), updraft_topology("updraft2"),
      polaris_topology("polaris1"), polaris_topology("polaris2")};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 4;
  spec.compression_threads = 32;
  spec.transfer_threads = 4;
  spec.decompression_threads = 4;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");

  const double wire_chunk = static_cast<double>(kProjectionChunkBytes) / 2.0;
  const double budget = 6.0 * wire_chunk;  // six wire chunks in flight, max
  const Mode modes[] = {
      {.name = "block"},
      {.name = "credit", .overload = {.credit_window = 2}},
      {.name = "budget",
       .overload = {.budget_bytes = static_cast<std::uint64_t>(budget)}},
      {.name = "shed",
       .overload = {.shed_policy = ShedPolicy::kDropNewest,
                    .high_watermark = 6,
                    .low_watermark = 2}},
  };

  TextTable table({"mode", "e2e (Gbps)", "delivered", "shed", "credit stalls",
                   "budget stalls", "peak in flight"});
  TextTable latency({"mode", "stage", "p50 (us)", "p99 (us)"});
  bool latency_complete = true;
  bool percentiles_monotone = true;
  std::uint64_t block_delivered = 0;
  std::uint64_t shed_delivered = 0;
  std::uint64_t shed_dropped = 0;
  std::uint64_t credit_stall_count = 0;
  double budget_peak = 0;
  for (const Mode& mode : modes) {
    auto result = run_mode(senders, lynx, plan.value(), mode);
    NS_CHECK(result.ok(), "ablation run failed");
    const auto& r = result.value();
    std::uint64_t delivered = 0;
    std::uint64_t shed = 0;
    std::uint64_t credit_stalls = 0;
    std::uint64_t budget_stalls = 0;
    double peak = 0;
    for (const auto& stream : r.streams) {
      delivered += stream.chunks;
      shed += stream.shed_chunks;
      credit_stalls += stream.credit_stalls;
      budget_stalls += stream.budget_stalls;
      peak = std::max(peak, stream.peak_bytes_in_flight);
    }
    table.add_row({mode.name, fmt_double(r.e2e_gbps, 1), std::to_string(delivered),
                   std::to_string(shed), std::to_string(credit_stalls),
                   std::to_string(budget_stalls),
                   format_bytes(static_cast<std::uint64_t>(peak))});
    const auto add_latency = [&](const char* stage,
                                 const obs::LatencySnapshot& snap) {
      latency.add_row({mode.name, stage, fmt_double(snap.p50_ns / 1000.0, 1),
                       fmt_double(snap.p99_ns / 1000.0, 1)});
      latency_complete = latency_complete && snap.count > 0;
      percentiles_monotone = percentiles_monotone &&
                             snap.p50_ns <= snap.p99_ns &&
                             snap.p99_ns <= snap.p999_ns;
    };
    add_latency("compress", r.observation.latency.compress);
    add_latency("send", r.observation.latency.send);
    add_latency("receive", r.observation.latency.receive);
    add_latency("decompress", r.observation.latency.decompress);
    if (std::string(mode.name) == "block") {
      block_delivered = delivered;
    } else if (std::string(mode.name) == "shed") {
      shed_delivered = delivered;
      shed_dropped = shed;
    } else if (std::string(mode.name) == "credit") {
      credit_stall_count = credit_stalls;
    } else {
      budget_peak = peak;
    }

    // Determinism: an identical rerun must reproduce every counter exactly.
    auto rerun = run_mode(senders, lynx, plan.value(), mode);
    NS_CHECK(rerun.ok(), "ablation rerun failed");
    std::uint64_t delivered2 = 0;
    std::uint64_t shed2 = 0;
    std::uint64_t stalls2 = 0;
    for (const auto& stream : rerun.value().streams) {
      delivered2 += stream.chunks;
      shed2 += stream.shed_chunks;
      stalls2 += stream.credit_stalls + stream.budget_stalls;
    }
    shape_check(std::string(mode.name) + ": counters reproduce exactly",
                delivered == delivered2 && shed == shed2 &&
                    stalls2 == credit_stalls + budget_stalls);
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("per-stage latency under overload:\n%s\n", latency.render().c_str());

  shape_check("latency histograms cover every stage in every mode",
              latency_complete);
  shape_check("latency percentiles are monotone (p50 <= p99 <= p999)",
              percentiles_monotone);
  shape_check("blocking backpressure delivers everything",
              block_delivered == 4 * 120);
  shape_check("credit flow control forces sender stalls under a slow receiver",
              credit_stall_count > 0);
  shape_check("memory budget bounds peak in-flight bytes",
              budget_peak > 0 && budget_peak <= budget + 1);
  shape_check("load shedding trades deliveries for source liveness",
              shed_dropped > 0 && shed_delivered + shed_dropped == 4 * 120);

  JsonWriter json = bench_json("ablation_overload", bench_clock.seconds());
  json.field("blocking_delivered_chunks", static_cast<double>(block_delivered));
  json.field("credit_stalls", static_cast<double>(credit_stall_count));
  json.field("budget_peak_bytes", static_cast<double>(budget_peak));
  shape_check("json artifact written",
              json.write(json_artifact_path("BENCH_ablation_overload.json")));
  return finish();
}
