// Figure 12 (+ Table 3): single-stream end-to-end throughput, updraft1 ->
// lynxdtn over a 100 Gbps path, sweeping the compression/decompression
// thread-count configurations A-G, the number of send/receive threads, and
// the receiver threads' NUMA domain.
//
// Paper's findings: A/B stay flat around 37 Gbps (compression-bound) no
// matter what else changes; adding compression threads shifts the bottleneck
// (C/D ~74, E decompression-bound ~48); with 32 compression threads, 8 S/R
// threads and receivers on NUMA 1, F/G reach ~97 Gbps - 2.6x the baseline.
#include "bench/bench_util.h"
#include "core/placement.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

NodeConfig sender_config(int compression_threads, int send_threads) {
  NodeConfig config;
  config.node_name = "updraft1";
  config.role = NodeRole::kSender;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress,
                      .count = compression_threads,
                      .bindings = bindings_for_policy(ExecutionDomainPolicy::kSplit, 0)},
      TaskGroupConfig{
          .type = TaskType::kSend,
          .count = send_threads,
          .bindings = bindings_for_policy(ExecutionDomainPolicy::kDomain1, 0)},
  };
  return config;
}

NodeConfig receiver_config(int recv_threads, int decompression_threads,
                           int receiver_domain) {
  NodeConfig config;
  config.node_name = "lynxdtn";
  config.role = NodeRole::kReceiver;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive,
                      .count = recv_threads,
                      .bindings = {NumaBinding{.execution_domain = receiver_domain,
                                               .memory_domain = receiver_domain}}},
      TaskGroupConfig{.type = TaskType::kDecompress,
                      .count = decompression_threads,
                      .bindings = bindings_for_policy(ExecutionDomainPolicy::kSplit, 0)},
  };
  return config;
}

ExperimentResult run_one(const ThreadCountConfig& table_config,
                         int transfer_threads, int receiver_domain,
                         bool observe_latency = false) {
  const MachineTopology updraft = updraft_topology("updraft1");
  const MachineTopology lynx = lynxdtn_topology();
  ExperimentOptions options;
  options.link.bandwidth_gbps = 100;
  options.chunks_per_stream = 300;
  options.source_gbps = 100;  // the instrument feeds the sender at line rate
  options.observe.latency = observe_latency;
  auto result = run_experiment(
      {updraft},
      {sender_config(table_config.compression_threads, transfer_threads)}, lynx,
      receiver_config(transfer_threads, table_config.decompression_threads,
                      receiver_domain),
      options);
  NS_CHECK(result.ok(), "fig12 run failed");
  return std::move(result).value();
}

}  // namespace

int main() {
  const BenchClock bench_clock;
  print_header("Figure 12 / Table 3 - single-stream end-to-end throughput",
               "A/B flat ~37 Gbps (compression-bound); F/G with 8 S/R threads "
               "and NUMA 1 receivers reach ~97 Gbps = 2.6x baseline");

  std::printf("Table 3 (experimental configurations):\n");
  TextTable table3({"config", "#compression", "#decompression"});
  for (const auto& config : table3_configs()) {
    table3.add_row({std::string(1, config.label),
                    std::to_string(config.compression_threads),
                    std::to_string(config.decompression_threads)});
  }
  std::printf("%s\n", table3.render().c_str());

  // [config][sr_index][domain] -> e2e Gbps.
  const std::vector<int> sr_threads = {1, 2, 4, 8};
  TextTable results({"config", "S/R", "recv NUMA 0", "recv NUMA 1"});
  std::vector<std::vector<std::array<double, 2>>> series(table3_configs().size());
  for (std::size_t c = 0; c < table3_configs().size(); ++c) {
    for (const int threads : sr_threads) {
      const double n0 = run_one(table3_configs()[c], threads, 0).e2e_gbps;
      const double n1 = run_one(table3_configs()[c], threads, 1).e2e_gbps;
      series[c].push_back({n0, n1});
      results.add_row({std::string(1, table3_configs()[c].label),
                       std::to_string(threads), fmt_double(n0, 1), fmt_double(n1, 1)});
    }
  }
  std::printf("end-to-end throughput (Gbps):\n%s", results.render().c_str());

  const auto at = [&](char config, int threads, int domain) {
    const std::size_t t = static_cast<std::size_t>(
        std::find(sr_threads.begin(), sr_threads.end(), threads) -
        sr_threads.begin());
    return series[static_cast<std::size_t>(config - 'A')][t]
                 [static_cast<std::size_t>(domain)];
  };

  shape_check("A stays flat ~37 Gbps regardless of S/R threads (paper: 37)",
              near_factor(at('A', 2, 1), 37.0, 0.12) &&
                  near_factor(at('A', 8, 1), 37.0, 0.12));
  shape_check("B == A: more decompression threads do not lift a compression-"
              "bound pipeline",
              near_factor(at('B', 8, 1) / at('A', 8, 1), 1.0, 0.03));
  shape_check("C/D roughly double A (16 vs 8 compression threads)",
              near_factor(at('C', 8, 1) / at('A', 8, 1), 2.0, 0.1));
  shape_check("E is decompression-bound (~48 Gbps with 4 D threads)",
              near_factor(at('E', 8, 1), 48.5, 0.12));
  shape_check("F/G with 8 S/R + NUMA 1 receivers reach ~97 Gbps (paper: 97)",
              near_factor(at('F', 8, 1), 97.0, 0.08) &&
                  near_factor(at('G', 8, 1), 97.0, 0.08));
  shape_check("headline: best config = ~2.6x the A/B baseline (paper: 2.6x)",
              near_factor(at('G', 8, 1) / at('A', 8, 1), 2.6, 0.08));
  shape_check("NUMA 1 receivers beat NUMA 0 receivers where the receive path "
              "binds (F and G at 1 S/R thread, ~15%)",
              at('F', 1, 1) > at('F', 1, 0) * 1.08 &&
                  at('G', 1, 1) > at('G', 1, 0) * 1.08);

  // Per-stage tail latency for config G at 1 S/R thread — the regime where
  // the receive path binds, so the NUMA-placement effect shows up in p99.
  const std::size_t g = table3_configs().size() - 1;
  const auto lat0 =
      run_one(table3_configs()[g], 1, 0, /*observe_latency=*/true)
          .observation.latency;
  const auto lat1 =
      run_one(table3_configs()[g], 1, 1, /*observe_latency=*/true)
          .observation.latency;
  const auto us = [](std::uint64_t ns) { return fmt_double(ns / 1000.0, 1); };
  TextTable latency({"stage", "NUMA0 p50 (us)", "NUMA0 p99 (us)",
                     "NUMA1 p50 (us)", "NUMA1 p99 (us)"});
  const auto add_stage = [&](const char* name, const obs::LatencySnapshot& a,
                             const obs::LatencySnapshot& b) {
    latency.add_row(
        {name, us(a.p50_ns), us(a.p99_ns), us(b.p50_ns), us(b.p99_ns)});
  };
  add_stage("compress", lat0.compress, lat1.compress);
  add_stage("send", lat0.send, lat1.send);
  add_stage("receive", lat0.receive, lat1.receive);
  add_stage("decompress", lat0.decompress, lat1.decompress);
  std::printf("per-stage latency, config G, 1 S/R, by receiver domain:\n%s",
              latency.render().c_str());

  shape_check("latency histograms cover all four stages",
              lat1.compress.count > 0 && lat1.send.count > 0 &&
                  lat1.receive.count > 0 && lat1.decompress.count > 0);
  shape_check("receive p99 is no better with NUMA 0 receivers (remote packet "
              "reads lengthen the tail)",
              lat0.receive.p99_ns >= lat1.receive.p99_ns);

  JsonWriter json = bench_json("fig12_end_to_end", bench_clock.seconds());
  json.field("best_g_8t_gbps", at('G', 8, 1));
  json.field("baseline_a_8t_gbps", at('A', 8, 1));
  json.field("headline_gain", at('G', 8, 1) / at('A', 8, 1));
  json.field("receive_p99_ns_numa1", lat1.receive.p99_ns);
  shape_check("json artifact written",
              json.write(json_artifact_path("BENCH_fig12_end_to_end.json")));
  return finish();
}
