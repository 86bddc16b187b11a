// Gateway-federation demo: two gateways on TCP loopback, replicated session
// journals, and a whole-gateway failover with exactly-once intact
// (DESIGN.md §12).
//
//   $ federated_gateway [chunks]
//
// What it does:
//   1. shards the stream over a two-gateway consistent-hash ring and opens
//      a replication link between them on 127.0.0.1: the serving gateway's
//      delivery ledger writes through ReplicatedJournalMedia, so every
//      committed chunk is durable on the buddy *before* it is acked
//      (cluster/replication.h),
//   2. kills the serving gateway once ~40% of the stream has committed —
//      process state AND its local ledger die together, the machine-death
//      case a single-gateway journal cannot survive; only the buddy's
//      replica file remains,
//   3. runs the takeover: the buddy's coordinator re-resolves the stream
//      through the ring, promotes its standby session (fencing the dead
//      primary's epoch), recovers the replica ledger, and serves the
//      stream's RESUME handshake itself,
//   4. demonstrates the split-brain fence: a straggler append from the dead
//      gateway's replicator is refused with DATA_LOSS,
//   5. verifies exactly-once delivery across the two gateways and prints
//      the federation and resume ledgers.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unistd.h>

#include "cluster/failover.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "core/journal.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/resume_counters.h"
#include "msg/faulty.h"
#include "msg/tcp.h"
#include "topo/discover.h"

using namespace numastream;

namespace {

constexpr std::uint64_t kSession = 7;
constexpr std::uint32_t kStream = 1;

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

  // The ring decides which gateway serves the stream and which one holds
  // its replica — deterministically, from the cluster config alone.
  const cluster::GatewayRing ring(2, 16);
  const std::uint32_t victim = ring.primary(kStream);
  const std::uint32_t buddy = ring.buddy(kStream);

  // The buddy's replica ledger lives in a real file on "its" disk: the only
  // copy of the stream's delivery history that survives the kill below.
  char replica_path[] = "/tmp/federated_gateway_replica_XXXXXX";
  const int replica_fd = mkstemp(replica_path);
  if (replica_fd < 0) {
    std::fprintf(stderr, "mkstemp failed\n");
    return 1;
  }
  close(replica_fd);

  ResumeCounters counters;
  FederationCounters fed;
  FaultCounters faults;
  MemoryJournalMedia sender_media;  // the sender's process never dies here
  // The serving gateway's local ledger: memory, because the whole "machine"
  // dies — unlike resumable_stream, nothing local is allowed to survive.
  MemoryJournalMedia victim_media;

  // Replication link: the buddy serves REPL frames on a loopback port, the
  // serving gateway ships every journal flush through it synchronously.
  FileJournalMedia replica(replica_path);
  cluster::StandbySession standby(replica, kSession, &fed);
  auto repl_listener = TcpListener::bind("127.0.0.1", 0);
  if (!repl_listener.ok()) {
    std::fprintf(stderr, "replication bind failed\n");
    return 1;
  }
  const std::uint16_t repl_port = repl_listener.value()->port();
  Status serve_status = Status::ok();
  std::thread repl_thread([&] {
    auto stream = repl_listener.value()->accept();
    if (!stream.ok()) {
      serve_status = stream.status();
      return;
    }
    serve_status = cluster::serve_peer(*stream.value(), standby);
  });
  auto repl_stream = tcp_connect("127.0.0.1", repl_port);
  if (!repl_stream.ok()) {
    std::fprintf(stderr, "replication connect failed\n");
    return 1;
  }
  auto link = std::make_unique<cluster::StreamPeerLink>(std::move(repl_stream).value());
  cluster::PrimaryReplicator replicator(*link, kSession, /*epoch=*/1, &fed);
  if (!replicator.hello().is_ok()) {
    std::fprintf(stderr, "replication hello failed\n");
    return 1;
  }
  cluster::ReplicatedJournalMedia victim_journal_media(victim_media,
                                                       replicator);

  // Data path: one listener per gateway; the sender re-resolves on redial.
  auto victim_listener = TcpListener::bind("127.0.0.1", 0);
  auto buddy_listener = TcpListener::bind("127.0.0.1", 0);
  if (!victim_listener.ok() || !buddy_listener.ok()) {
    std::fprintf(stderr, "bind failed\n");
    return 1;
  }
  const std::uint16_t victim_port = victim_listener.value()->port();
  const std::uint16_t buddy_port = buddy_listener.value()->port();
  std::atomic<int> phase{1};

  FaultPlan plan;  // no stochastic faults; the gateway kill is the only event
  FaultInjector injector(plan, &faults);
  const DialFn dial = faulty_dialer(
      [&]() -> Result<std::unique_ptr<ByteStream>> {
        switch (phase.load(std::memory_order_acquire)) {
          case 1:
            return tcp_connect("127.0.0.1", victim_port);
          case 2:
            return tcp_connect("127.0.0.1", buddy_port);
          default:
            return unavailable_error("gateway is down");
        }
      },
      injector);

  std::printf("ring: stream %u -> gateway %u (buddy %u); replication on"
              " 127.0.0.1:%u, replica %s\n",
              kStream, victim, buddy, repl_port, replica_path);
  std::printf("streaming %llu chunks of %s via gateway %u"
              " (127.0.0.1:%u) ...\n\n",
              static_cast<unsigned long long>(chunks),
              format_bytes(tomo.chunk_bytes()).c_str(), victim, victim_port);

  TomoChunkSource source(tomo, kStream, chunks);
  CountingSink victim_sink;
  CountingSink buddy_sink;

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

  // The serving gateway: its ledger writes through the replicating tee, so
  // nothing is acked before the buddy holds it durably.
  std::thread victim_thread([&] {
    ReceiverJournal journal(victim_journal_media, kSession, &counters);
    if (!journal.recover().is_ok()) {
      std::fprintf(stderr, "gateway %u ledger recovery failed\n", victim);
      return;
    }
    NodeConfig config =
        make_config(host, NodeRole::kReceiver, tomo.chunk_bytes());
    config.recovery.watchdog_ms = 500;
    StreamReceiver receiver(topo.value(), std::move(config));
    auto stats = receiver.run(*victim_listener.value(), victim_sink, nullptr,
                              &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal,
                                          .counters = &counters});
    (void)stats;  // a watchdog trip is this gateway's expected death
  });

  // Kill the gateway once ~40% of the stream has committed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (victim_sink.chunks() < (2 * chunks) / 5 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  phase.store(0, std::memory_order_release);
  injector.trigger_crash(/*restart_delay_micros=*/200000);
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  victim_media.crash();  // machine death: local ledger gone with the box
  std::printf("gateway %u killed after %llu delivered chunks; its local"
              " ledger died with it — only the buddy's replica survives\n",
              victim, static_cast<unsigned long long>(victim_sink.chunks()));
  victim_thread.join();

  // Takeover on the buddy: re-resolve through the ring, fence the epoch.
  cluster::FailoverCoordinator coordinator(ring, buddy, &fed);
  const std::vector<std::uint32_t> adopted =
      coordinator.plan_takeover(victim, {kStream});
  const std::uint64_t epoch = standby.promote();
  std::printf("gateway %u takes over: %zu stream(s) re-resolved, epoch"
              " fenced at %llu\n",
              buddy, adopted.size(), static_cast<unsigned long long>(epoch));

  // Split-brain guard: a straggler append from the dead gateway's
  // replicator must bounce off the fence, not fork history.
  JournalRecord straggler;
  straggler.type = JournalRecordType::kDelivered;
  straggler.stream_id = kStream;
  straggler.sequence = chunks + 1;
  const Bytes raw = encode_journal_record(straggler);
  const Status fenced = replicator.ship(ByteSpan(raw.data(), raw.size()));
  if (fenced.is_ok()) {
    std::fprintf(stderr, "fence failure: a stale append was accepted\n");
    return 1;
  }
  std::printf("stale append refused: %s\n\n", fenced.to_string().c_str());

  // The buddy recovers the stream's ledger from the replica — a fresh read
  // of the file, exactly what a real takeover does — and resumes service.
  FileJournalMedia replica2(replica_path);
  ReceiverJournal buddy_journal(replica2, kSession, &counters);
  if (!buddy_journal.recover().is_ok()) {
    std::fprintf(stderr, "replica recovery failed\n");
    return 1;
  }
  std::printf("gateway %u recovered the replica; negotiating:\n", buddy);
  for (const auto& [stream, watermark] : buddy_journal.watermarks()) {
    std::printf("  RESUME point: stream %u, watermark %llu"
                " (everything below is committed)\n",
                stream, static_cast<unsigned long long>(watermark));
  }
  std::printf("\n");

  bool buddy_ok = false;
  std::thread buddy_thread([&] {
    StreamReceiver receiver(
        topo.value(),
        make_config(host, NodeRole::kReceiver, tomo.chunk_bytes()));
    auto stats = receiver.run(*buddy_listener.value(), buddy_sink, nullptr,
                              &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &buddy_journal,
                                          .counters = &counters});
    buddy_ok = stats.ok();
    if (!stats.ok()) {
      std::fprintf(stderr, "gateway %u failed: %s\n", buddy,
                   stats.status().to_string().c_str());
    }
  });
  phase.store(2, std::memory_order_release);

  sender_thread.join();
  buddy_thread.join();
  link.reset();  // close the replication link: the standby loop exits
  repl_thread.join();
  std::remove(replica_path);
  if (!sender_ok || !buddy_ok) {
    return 1;
  }
  if (!serve_status.is_ok()) {
    std::fprintf(stderr, "standby service loop failed: %s\n",
                 serve_status.to_string().c_str());
    return 1;
  }

  const std::uint64_t total = victim_sink.chunks() + buddy_sink.chunks();
  std::printf("delivered: %llu on gateway %u + %llu on gateway %u ="
              " %llu of %llu\n\n",
              static_cast<unsigned long long>(victim_sink.chunks()), victim,
              static_cast<unsigned long long>(buddy_sink.chunks()), buddy,
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(chunks));

  std::printf("federation ledger:\n%s\n",
              counter_table(fed.snapshot(), /*nonzero_only=*/true)
                  .render()
                  .c_str());
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
  std::printf("all %llu chunks delivered exactly once across the gateway"
              " failover.\n",
              static_cast<unsigned long long>(chunks));
  return 0;
}
