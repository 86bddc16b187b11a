// Crash-resumption demo: a TCP loopback stream whose receiver is killed
// mid-transfer and restarted over its durable delivery ledger (DESIGN.md
// §11).
//
//   $ resumable_stream [chunks]
//
// What it does:
//   1. runs StreamSender/StreamReceiver over 127.0.0.1 with the `resume`
//      directive on: the sender write-ahead-journals every chunk before the
//      wire, the receiver journals every sink delivery to a real fsync'd
//      file (core/journal.h) and answers each (re)connect with a RESUME
//      frame carrying its committed watermarks,
//   2. kills the receiver once ~40% of the stream has committed — its
//      process state (queued chunks, connections) is gone; only the
//      journal file survives,
//   3. restarts a second receiver incarnation over the recovered ledger,
//      prints the resume points it negotiates, and lets the sender's
//      retained-window replay close the gap,
//   4. verifies exactly-once delivery across both incarnations and prints
//      the resume ledger (metrics/resume_counters.h): re-work is bounded
//      by the unacked window, never the committed prefix.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <unistd.h>

#include "core/journal.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/resume_counters.h"
#include "msg/faulty.h"
#include "msg/tcp.h"
#include "topo/discover.h"

using namespace numastream;

namespace {

constexpr std::uint64_t kSession = 7;

NodeConfig make_config(const std::string& host, NodeRole role,
                       std::uint64_t chunk_bytes) {
  NodeConfig config;
  config.node_name = host;
  config.role = role;
  config.codec_name = "lz4";
  config.chunk_bytes = chunk_bytes;
  config.recovery.reconnect = true;
  config.recovery.retry.max_attempts = 10000;
  config.recovery.retry.initial_backoff_us = 500;
  config.recovery.retry.max_backoff_us = 20000;
  config.resume.session = kSession;
  config.resume.ack_interval = 8;
  config.overload.credit_window = 8;
  if (role == NodeRole::kSender) {
    config.tasks = {
        TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
        TaskGroupConfig{.type = TaskType::kSend, .count = 1},
    };
  } else {
    config.tasks = {
        TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
        TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
    };
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t chunks = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 96;

  auto topo = discover_topology();
  if (!topo.ok()) {
    std::fprintf(stderr, "topology discovery failed: %s\n",
                 topo.status().to_string().c_str());
    return 1;
  }

  TomoConfig tomo;
  tomo.rows = 256;
  tomo.cols = 675;
  const std::string host = topo.value().hostname();

  // The receiver's delivery ledger lives in a real file: the only state
  // that survives the kill below.
  char ledger_path[] = "/tmp/resumable_stream_ledger_XXXXXX";
  const int ledger_fd = mkstemp(ledger_path);
  if (ledger_fd < 0) {
    std::fprintf(stderr, "mkstemp failed\n");
    return 1;
  }
  close(ledger_fd);

  ResumeCounters counters;
  FaultCounters faults;
  MemoryJournalMedia sender_media;  // the sender's process never dies here

  // Phase 1: receiver #1 listens. Phase 0: blackout. Phase 2: receiver #2.
  auto listener1 = TcpListener::bind("127.0.0.1", 0);
  auto listener2 = TcpListener::bind("127.0.0.1", 0);
  if (!listener1.ok() || !listener2.ok()) {
    std::fprintf(stderr, "bind failed\n");
    return 1;
  }
  const std::uint16_t port1 = listener1.value()->port();
  const std::uint16_t port2 = listener2.value()->port();
  std::atomic<int> phase{1};

  // trigger_crash() cuts the sender's established connections and refuses
  // dials for the blackout — the wire-level shape of a peer process dying.
  FaultPlan plan;  // no stochastic faults; the kill is the only event
  FaultInjector injector(plan, &faults);
  const DialFn dial = faulty_dialer(
      [&]() -> Result<std::unique_ptr<ByteStream>> {
        switch (phase.load(std::memory_order_acquire)) {
          case 1:
            return tcp_connect("127.0.0.1", port1);
          case 2:
            return tcp_connect("127.0.0.1", port2);
          default:
            return unavailable_error("receiver is down");
        }
      },
      injector);

  std::printf("streaming %llu chunks of %s over 127.0.0.1:%u, session %llu,"
              " ledger %s ...\n\n",
              static_cast<unsigned long long>(chunks),
              format_bytes(tomo.chunk_bytes()).c_str(), port1,
              static_cast<unsigned long long>(kSession), ledger_path);

  TomoChunkSource source(tomo, /*stream_id=*/1, chunks);
  CountingSink sink1;
  CountingSink sink2;

  SenderJournal sender_journal(sender_media, kSession, &counters);
  if (!sender_journal.recover().is_ok()) {
    std::fprintf(stderr, "sender journal recovery failed\n");
    return 1;
  }
  bool sender_ok = false;
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(),
                        make_config(host, NodeRole::kSender, tomo.chunk_bytes()));
    auto stats = sender.run(source, dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &sender_journal,
                                        .counters = &counters});
    sender_ok = stats.ok();
    if (!stats.ok()) {
      std::fprintf(stderr, "sender failed: %s\n",
                   stats.status().to_string().c_str());
    }
  });

  // Receiver incarnation #1: a short watchdog converts the post-kill
  // silence into a clean thread exit — the demo's stand-in for `kill -9`.
  std::thread receiver1_thread([&] {
    FileJournalMedia media(ledger_path);
    ReceiverJournal journal(media, kSession, &counters);
    if (!journal.recover().is_ok()) {
      std::fprintf(stderr, "receiver #1 ledger recovery failed\n");
      return;
    }
    NodeConfig config = make_config(host, NodeRole::kReceiver, tomo.chunk_bytes());
    config.recovery.watchdog_ms = 500;
    StreamReceiver receiver(topo.value(), std::move(config));
    auto stats = receiver.run(*listener1.value(), sink1, nullptr, &faults,
                              {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal,
                                          .counters = &counters});
    (void)stats;  // a watchdog trip is this incarnation's expected death
  });

  // Kill the receiver once ~40% of the stream has committed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (sink1.chunks() < (2 * chunks) / 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase.store(0, std::memory_order_release);
  injector.trigger_crash(/*restart_delay_micros=*/200000);
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  std::printf("receiver killed after %llu delivered chunks; ledger file is"
              " all that survives\n",
              static_cast<unsigned long long>(sink1.chunks()));
  receiver1_thread.join();

  // Receiver incarnation #2: recover the ledger and print the resume
  // points its RESUME handshake will carry back to the sender.
  FileJournalMedia media2(ledger_path);
  ReceiverJournal journal2(media2, kSession, &counters);
  if (!journal2.recover().is_ok()) {
    std::fprintf(stderr, "receiver #2 ledger recovery failed\n");
    return 1;
  }
  std::printf("receiver restarted over the recovered ledger; negotiating:\n");
  for (const auto& [stream, watermark] : journal2.watermarks()) {
    std::printf("  RESUME point: stream %u, watermark %llu"
                " (everything below is committed)\n",
                stream, static_cast<unsigned long long>(watermark));
  }
  std::printf("\n");

  bool receiver2_ok = false;
  std::thread receiver2_thread([&] {
    StreamReceiver receiver(
        topo.value(), make_config(host, NodeRole::kReceiver, tomo.chunk_bytes()));
    auto stats = receiver.run(*listener2.value(), sink2, nullptr, &faults,
                              {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal2,
                                          .counters = &counters});
    receiver2_ok = stats.ok();
    if (!stats.ok()) {
      std::fprintf(stderr, "receiver #2 failed: %s\n",
                   stats.status().to_string().c_str());
    }
  });
  phase.store(2, std::memory_order_release);

  sender_thread.join();
  receiver2_thread.join();
  std::remove(ledger_path);
  if (!sender_ok || !receiver2_ok) {
    return 1;
  }

  const std::uint64_t total = sink1.chunks() + sink2.chunks();
  std::printf("delivered: %llu before the kill + %llu after = %llu of %llu\n\n",
              static_cast<unsigned long long>(sink1.chunks()),
              static_cast<unsigned long long>(sink2.chunks()),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(chunks));

  std::printf("resume ledger:\n%s\n",
              counter_table(counters.snapshot(), /*nonzero_only=*/true)
                  .render()
                  .c_str());

  if (total != chunks) {
    std::fprintf(stderr,
                 "delivery mismatch: expected %llu chunks exactly once, got %llu\n",
                 static_cast<unsigned long long>(chunks),
                 static_cast<unsigned long long>(total));
    return 1;
  }
  std::printf("all %llu chunks delivered exactly once across the restart.\n",
              static_cast<unsigned long long>(chunks));
  return 0;
}
