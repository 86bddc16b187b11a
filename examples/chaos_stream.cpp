// Chaos streaming demo: the full TCP pipeline run through the
// fault-injection transport with recovery enabled.
//
//   $ chaos_stream [chunks] [seed]
//
// What it does:
//   1. binds a TCP loopback listener and wraps both sides in fault
//      injectors (msg/faulty.h): dials and accepted connections randomly
//      disconnect, tear writes mid-message and flip payload bits,
//   2. runs StreamSender/StreamReceiver with `recovery reconnect=on`, so
//      senders re-dial and re-send, receivers cut and recycle corrupt or
//      broken connections, and a watchdog bounds any hang,
//   3. prints the delivery stats plus the fault/recovery ledger
//      (metrics/fault_counters.h) — every injected fault is matched by a
//      recovery action or an accounted drop, never a silent loss.
//
// Same seed, same chaos: re-running with one seed replays the identical
// fault sequence, which is how the fault-tolerance tests stay deterministic.
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "msg/faulty.h"
#include "msg/tcp.h"
#include "topo/discover.h"

using namespace numastream;

int main(int argc, char** argv) {
  const std::uint64_t chunks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 48;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2026;

  auto topo = discover_topology();
  if (!topo.ok()) {
    std::fprintf(stderr, "topology discovery failed: %s\n",
                 topo.status().to_string().c_str());
    return 1;
  }

  TomoConfig tomo;
  tomo.rows = 256;
  tomo.cols = 675;

  RecoveryConfig recovery;
  recovery.reconnect = true;
  recovery.retry.max_attempts = 8;
  recovery.retry.initial_backoff_us = 200;
  recovery.retry.max_backoff_us = 20000;
  recovery.watchdog_ms = 5000;

  NodeConfig sender_config;
  sender_config.node_name = topo.value().hostname();
  sender_config.role = NodeRole::kSender;
  sender_config.codec_name = "lz4";
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.recovery = recovery;
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
      TaskGroupConfig{.type = TaskType::kSend, .count = 2},
  };

  NodeConfig receiver_config;
  receiver_config.node_name = topo.value().hostname();
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.codec_name = "lz4";
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.recovery = recovery;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  if (!listener.ok()) {
    std::fprintf(stderr, "bind failed: %s\n", listener.status().to_string().c_str());
    return 1;
  }
  const std::uint16_t port = listener.value()->port();

  // The chaos: disconnects and torn writes are losslessly recovered (the
  // sender re-sends the failed frame); a torn write's garbage fails the
  // receiver's checksums and ends the connection. One injector per side
  // keeps per-connection fault sequences reproducible.
  FaultPlan plan;
  plan.seed = seed;
  plan.disconnect_per_write = 0.08;
  plan.torn_write_per_write = 0.08;
  plan.short_write_per_write = 0.05;
  plan.stall_per_write = 0.05;
  plan.stall_micros = 200;
  plan.fault_free_prefix_bytes = 4096;
  plan.max_faults = 48;

  FaultCounters counters;
  FaultInjector dial_injector(plan, &counters);
  FaultPlan accept_plan = plan;
  accept_plan.seed = seed ^ 0xACCE97;
  FaultInjector accept_injector(accept_plan, &counters);
  FaultyListener chaos_listener(*listener.value(), accept_injector);
  DialFn dial = faulty_dialer(
      [port] { return tcp_connect("127.0.0.1", port); }, dial_injector);

  std::printf("streaming %llu chunks of %s over 127.0.0.1:%u with seed %llu chaos ...\n\n",
              static_cast<unsigned long long>(chunks),
              format_bytes(tomo.chunk_bytes()).c_str(), port,
              static_cast<unsigned long long>(seed));

  TomoChunkSource source(tomo, /*stream_id=*/0, chunks);
  CountingSink sink;

  bool sender_ok = false;
  SenderStats sender_stats;
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), sender_config);
    auto stats = sender.run(source, dial, nullptr, &counters);
    if (stats.ok()) {
      sender_stats = stats.value();
      sender_ok = true;
    } else {
      std::fprintf(stderr, "sender failed: %s\n", stats.status().to_string().c_str());
    }
  });

  StreamReceiver receiver(topo.value(), receiver_config);
  auto receiver_stats = receiver.run(chaos_listener, sink, nullptr, &counters);
  sender_thread.join();

  if (!receiver_stats.ok() || !sender_ok) {
    if (!receiver_stats.ok()) {
      std::fprintf(stderr, "receiver failed: %s\n",
                   receiver_stats.status().to_string().c_str());
    }
    return 1;
  }

  const ReceiverStats& rx = receiver_stats.value();
  std::printf("sender  : %llu chunks, %s raw -> %s wire (ratio %.2f)\n",
              static_cast<unsigned long long>(sender_stats.chunks),
              format_bytes(sender_stats.raw_bytes).c_str(),
              format_bytes(sender_stats.wire_bytes).c_str(),
              sender_stats.compression_ratio());
  std::printf("receiver: %llu chunks delivered, %llu corrupt frames seen\n\n",
              static_cast<unsigned long long>(rx.chunks),
              static_cast<unsigned long long>(rx.corrupt_frames));

  std::printf("fault / recovery ledger:\n%s\n",
              counter_table(counters.snapshot(), /*nonzero_only=*/true)
                  .render()
                  .c_str());

  if (sink.chunks() != chunks) {
    std::fprintf(stderr, "delivery mismatch: expected %llu chunks, got %llu\n",
                 static_cast<unsigned long long>(chunks),
                 static_cast<unsigned long long>(sink.chunks()));
    return 1;
  }
  std::printf("all %llu chunks delivered through the chaos.\n",
              static_cast<unsigned long long>(chunks));
  return 0;
}
