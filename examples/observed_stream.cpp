// Observability demo: the real TCP-loopback pipeline with the `observe`
// directive turned all the way up.
//
//   $ observed_stream [chunks] [trace_dir]
//
// What it does:
//   1. streams synthetic tomography chunks through the real pipeline with
//      chunk-lifecycle tracing, per-stage latency histograms, and the
//      unified MetricsRegistry enabled (core/config.h `observe` directive),
//   2. samples the registry on a background SnapshotSampler while the run
//      is live — queue depths, budget occupancy, and the fault ledger all
//      land in one time series,
//   3. after the run, prints per-stage latency percentiles (p50/p99/p999)
//      and the last registry snapshot, and writes the chunk-lifecycle spans
//      as both JSONL and Chrome-trace JSON (load the latter in
//      chrome://tracing or https://ui.perfetto.dev).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/table.h"
#include "msg/tcp.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "topo/discover.h"

using namespace numastream;

namespace {

/// Spans each worker's ring holds before drop-oldest eviction.
constexpr std::size_t kRingCapacity = 4096;
/// Registry snapshot interval of the background sampler.
constexpr std::uint64_t kSampleMs = 50;

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t chunks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200;
  const std::string trace_dir = argc > 2 ? argv[2] : ".";

  auto topo = discover_topology();
  if (!topo.ok()) {
    std::fprintf(stderr, "topology discovery failed: %s\n",
                 topo.status().to_string().c_str());
    return 1;
  }

  TomoConfig tomo;
  tomo.rows = 128;
  tomo.cols = 270;

  NodeConfig sender_config;
  sender_config.node_name = topo.value().hostname();
  sender_config.role = NodeRole::kSender;
  sender_config.codec_name = "lz4";
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.observe.trace = true;
  sender_config.observe.latency = true;
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
      TaskGroupConfig{.type = TaskType::kSend, .count = 2},
  };

  NodeConfig receiver_config = sender_config;
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };

  // The directive serializes with the config, so a run's observability
  // settings travel with its placement.
  std::printf("sender config:\n%s\n", sender_config.serialize().c_str());

  auto listener = TcpListener::bind("127.0.0.1", 0);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 listener.status().to_string().c_str());
    return 1;
  }
  const std::uint16_t port = listener.value()->port();

  // One tracer per node: the sender's worker ids are compress then send,
  // the receiver's receive then decompress, both starting at 0 — separate
  // ring sets keep them from colliding.
  obs::Tracer sender_tracer(4, kRingCapacity);
  obs::Tracer receiver_tracer(4, kRingCapacity);
  obs::StageLatencies latencies(
      static_cast<int>(topo.value().domain_count()));
  obs::MetricsRegistry registry;

  FaultCounters faults;
  if (auto status = registry.register_ledger("fault", faults);
      !status.is_ok()) {
    std::fprintf(stderr, "registry: %s\n", status.to_string().c_str());
    return 1;
  }

  obs::SnapshotSampler sampler(&registry, kSampleMs);
  sampler.start();

  TomoChunkSource source(tomo, /*stream_id=*/1, chunks);
  CountingSink sink;

  Result<SenderStats> sender_stats = Result<SenderStats>(SenderStats{});
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), sender_config);
    sender_stats = sender.run(
        source, [&] { return tcp_connect("127.0.0.1", port); }, nullptr,
        &faults, {}, {},
        ObsHooks{.tracer = &sender_tracer,
                 .latencies = &latencies,
                 .registry = &registry});
  });

  StreamReceiver receiver(topo.value(), receiver_config);
  auto receiver_stats = receiver.run(
      *listener.value(), sink, nullptr, &faults, {}, {},
      ObsHooks{.tracer = &receiver_tracer,
               .latencies = &latencies,
               .registry = &registry});
  sender_thread.join();
  sampler.stop();

  if (!sender_stats.ok() || !receiver_stats.ok()) {
    std::fprintf(stderr, "pipeline failed: sender=%s receiver=%s\n",
                 sender_stats.status().to_string().c_str(),
                 receiver_stats.status().to_string().c_str());
    return 1;
  }

  std::printf("delivered %llu chunks at %.2f Gbps raw\n\n",
              static_cast<unsigned long long>(sink.chunks()),
              receiver_stats.value().raw_rate() * 8.0 / 1e9);

  std::printf("per-stage latency:\n%s\n", latencies.table().render().c_str());
  std::printf("last registry snapshot (%zu samples over the run):\n%s\n",
              sampler.series().snapshots().size(),
              sampler.series().latest_table().render().c_str());

  auto sender_spans = sender_tracer.drain_sorted();
  auto receiver_spans = receiver_tracer.drain_sorted();
  const std::string jsonl_path = trace_dir + "/observed_stream.jsonl";
  const std::string chrome_path = trace_dir + "/observed_stream.trace.json";
  std::vector<obs::Span> all_spans = sender_spans;
  all_spans.insert(all_spans.end(), receiver_spans.begin(), receiver_spans.end());
  if (!write_file(jsonl_path, obs::spans_to_jsonl(all_spans)) ||
      !write_file(chrome_path, obs::spans_to_chrome_json(all_spans))) {
    std::fprintf(stderr, "could not write traces under %s\n", trace_dir.c_str());
    return 1;
  }
  std::printf("wrote %zu spans (%llu dropped) to %s and %s\n",
              all_spans.size(),
              static_cast<unsigned long long>(sender_tracer.dropped_spans() +
                                              receiver_tracer.dropped_spans()),
              jsonl_path.c_str(), chrome_path.c_str());
  return 0;
}
