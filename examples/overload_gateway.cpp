// Overload-protection demo: a gateway whose consumer runs at ~10% of the
// sender's rate, kept alive by the overload directive.
//
//   $ overload_gateway [chunks] [budget_kib]
//
// What it does:
//   1. runs the real TCP-loopback pipeline against a deliberately slow sink
//      (the "full parallel file system" every gateway eventually meets),
//   2. protects the process with every overload mechanism at once: a
//      memory-budget ledger capping in-flight bytes, credit-based flow
//      control pinning the wire backlog, and drop-newest load shedding
//      between queue watermarks (core/config.h `overload` directive),
//   3. after a while, requests a *graceful drain* (core/drain.h): ingest
//      stops, in-flight frames flush under a deadline, and the run ends
//      clean instead of being killed mid-flight,
//   4. prints the overload ledger (metrics/overload_counters.h) and the
//      budget's per-stream accounting — every produced chunk is either
//      delivered or visible in exactly one counter.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/budget.h"
#include "core/drain.h"
#include "core/pipeline.h"
#include "metrics/overload_counters.h"
#include "msg/tcp.h"
#include "topo/discover.h"

using namespace numastream;

namespace {

/// A consumer that cannot keep up: sleeps per delivered chunk.
class ThrottledSink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    chunks_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(chunk.payload.size(), std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_.load(); }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return bytes_.load(); }

 private:
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t chunks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 400;
  const std::uint64_t budget_kib =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 256;

  auto topo = discover_topology();
  if (!topo.ok()) {
    std::fprintf(stderr, "topology discovery failed: %s\n",
                 topo.status().to_string().c_str());
    return 1;
  }

  TomoConfig tomo;
  tomo.rows = 64;
  tomo.cols = 270;  // ~138 KiB raw chunks: small enough to stress admission

  OverloadConfig overload;
  overload.budget_bytes = budget_kib * 1024;
  overload.credit_window = 4;
  overload.shed_policy = ShedPolicy::kDropNewest;
  overload.high_watermark = 6;
  overload.low_watermark = 2;
  overload.drain_deadline_ms = 10000;

  NodeConfig sender_config;
  sender_config.node_name = topo.value().hostname();
  sender_config.role = NodeRole::kSender;
  sender_config.codec_name = "lz4";
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.overload = overload;
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

  auto listener = TcpListener::bind("127.0.0.1", 0);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 listener.status().to_string().c_str());
    return 1;
  }
  const std::uint16_t port = listener.value()->port();

  std::printf("overload gateway on 127.0.0.1:%u — %llu chunks against a "
              "10ms/chunk sink, %llu KiB budget\n",
              port, static_cast<unsigned long long>(chunks),
              static_cast<unsigned long long>(budget_kib));

  TomoChunkSource source(tomo, /*stream_id=*/1, chunks);
  ThrottledSink sink;
  MemoryBudget ledger(overload.budget_bytes);
  OverloadCounters sender_counters;
  OverloadCounters receiver_counters;
  DrainController drain;

  // Operator action: after 300ms of overload, wind the stream down
  // gracefully instead of letting it run (or killing it).
  std::thread operator_thread([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    std::printf("\n-- operator requests graceful drain --\n");
    drain.request();
  });

  Result<SenderStats> sender_stats = Result<SenderStats>(SenderStats{});
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), sender_config);
    sender_stats = sender.run(
        source, [&] { return tcp_connect("127.0.0.1", port); }, nullptr, nullptr,
        OverloadHooks{.budget = &ledger,
                      .counters = &sender_counters,
                      .drain = &drain});
  });

  StreamReceiver receiver(topo.value(), receiver_config);
  auto receiver_stats =
      receiver.run(*listener.value(), sink, nullptr, nullptr,
                   OverloadHooks{.counters = &receiver_counters});
  sender_thread.join();
  operator_thread.join();

  if (!sender_stats.ok() || !receiver_stats.ok()) {
    std::fprintf(stderr, "pipeline failed: sender=%s receiver=%s\n",
                 sender_stats.status().to_string().c_str(),
                 receiver_stats.status().to_string().c_str());
    return 1;
  }

  const auto sent = sender_counters.snapshot();
  const auto received = receiver_counters.snapshot();
  std::printf("\ndelivered %llu chunks (%.1f MiB) of %llu produced\n",
              static_cast<unsigned long long>(sink.chunks()),
              static_cast<double>(sink.bytes()) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(sink.chunks() + sent.shed_newest));
  std::printf("budget peak %llu / %llu bytes (never exceeded), %llu bytes "
              "still charged after teardown\n",
              static_cast<unsigned long long>(ledger.peak()),
              static_cast<unsigned long long>(ledger.cap()),
              static_cast<unsigned long long>(ledger.used()));

  std::printf("\nsender overload ledger:\n%s\n",
              counter_table(sent, /*nonzero_only=*/true).render().c_str());
  std::printf("receiver overload ledger:\n%s\n",
              counter_table(received, /*nonzero_only=*/true).render().c_str());
  return 0;
}
