// Gateway-federation tests (DESIGN.md §12): the consistent-hash ring, the
// REPL wire frame, synchronous journal replication with the standby-first
// durability invariant, epoch fencing under a split-brain partition, the
// ClusterConfig ranges, heartbeat failure detection, failover
// planning, journal-media fault injection, a real-pipeline whole-gateway
// failover with exactly-once intact across gateways, and the simulated
// cluster's bit-identical federation-counter fingerprint.
//
// Everything here is deterministic: partitions, kills and heartbeat
// starvation are driven by the test (or a seeded schedule), so a failing
// run replays bit-identically.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/failover.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/config_generator.h"
#include "core/journal.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/resume_counters.h"
#include "msg/faulty.h"
#include "msg/inproc.h"
#include "msg/message.h"
#include "simrt/driver.h"
#include "topo/discover.h"
#include "topo/topology.h"

namespace numastream {
namespace {

using cluster::FailoverCoordinator;
using cluster::GatewayRing;
using cluster::InprocPeerLink;
using cluster::kReplBodyPrefix;
using cluster::parse_repl_body;
using cluster::PeerFailureDetector;
using cluster::PrimaryReplicator;
using cluster::repl_frame;
using cluster::ReplicatedJournalMedia;
using cluster::ReplKind;
using cluster::serve_peer;
using cluster::StandbySession;
using cluster::StreamPeerLink;

constexpr std::uint64_t kSession = 42;
constexpr std::uint64_t kChunks = 240;
constexpr std::size_t kChunkBytes = 1024;

MachineTopology host_topology() {
  auto topo = discover_topology();
  NS_CHECK(topo.ok(), "cluster tests need a discoverable host");
  return std::move(topo).value();
}

Bytes pattern_payload(std::uint64_t sequence, std::size_t size) {
  Bytes payload(size);
  Rng rng(sequence * 0x9E3779B97F4A7C15ULL + 1);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return payload;
}

JournalRecord delivered_record(std::uint32_t stream, std::uint64_t sequence) {
  JournalRecord record;
  record.type = JournalRecordType::kDelivered;
  record.stream_id = stream;
  record.sequence = sequence;
  record.offset = sequence * kChunkBytes;
  record.body_hash = static_cast<std::uint32_t>(sequence * 2654435761U + 7);
  record.body_size = kChunkBytes;
  return record;
}

Bytes encode_records(const std::vector<JournalRecord>& records) {
  Bytes wire;
  for (const JournalRecord& record : records) {
    const Bytes encoded = encode_journal_record(record);
    wire.insert(wire.end(), encoded.begin(), encoded.end());
  }
  return wire;
}

// ----------------------------------------------------------------- ring

TEST(RingTest, PlacementIsDeterministicAcrossInstances) {
  const GatewayRing a(4, 16);
  const GatewayRing b(4, 16);
  for (std::uint32_t stream = 0; stream < 256; ++stream) {
    EXPECT_EQ(a.primary(stream), b.primary(stream));
    EXPECT_EQ(a.buddy(stream), b.buddy(stream));
    EXPECT_EQ(a.preference(stream), b.preference(stream));
  }
}

TEST(RingTest, PreferenceCoversEveryGatewayExactlyOnce) {
  for (const std::uint32_t gateways : {2U, 3U, 5U}) {
    const GatewayRing ring(gateways, 16);
    for (std::uint32_t stream = 0; stream < 64; ++stream) {
      const std::vector<std::uint32_t> pref = ring.preference(stream);
      ASSERT_EQ(pref.size(), gateways);
      EXPECT_EQ(pref.front(), ring.primary(stream));
      EXPECT_EQ(pref[1], ring.buddy(stream));
      EXPECT_NE(ring.primary(stream), ring.buddy(stream));
      std::vector<std::uint32_t> sorted = pref;
      std::sort(sorted.begin(), sorted.end());
      for (std::uint32_t g = 0; g < gateways; ++g) {
        EXPECT_EQ(sorted[g], g) << "gateway " << g << " missing or repeated";
      }
    }
  }
}

TEST(RingTest, VnodesSpreadStreamsAcrossAllGateways) {
  const GatewayRing ring(4, 16);
  std::vector<std::uint32_t> owned(4, 0);
  for (std::uint32_t stream = 0; stream < 4096; ++stream) {
    ++owned[ring.primary(stream)];
  }
  for (std::uint32_t g = 0; g < 4; ++g) {
    EXPECT_GT(owned[g], 0U) << "gateway " << g << " owns nothing";
  }
}

TEST(RingTest, ResolveWalksPastDeadGateways) {
  const GatewayRing ring(3, 16);
  for (std::uint32_t stream = 0; stream < 32; ++stream) {
    const std::vector<std::uint32_t> pref = ring.preference(stream);
    std::vector<bool> live(3, true);
    auto all_up = ring.resolve(stream, live);
    ASSERT_TRUE(all_up.ok());
    EXPECT_EQ(all_up.value(), pref[0]);

    live[pref[0]] = false;  // primary dies: the buddy serves
    auto buddy_up = ring.resolve(stream, live);
    ASSERT_TRUE(buddy_up.ok());
    EXPECT_EQ(buddy_up.value(), pref[1]);

    live[pref[1]] = false;  // buddy too: third in line
    auto third_up = ring.resolve(stream, live);
    ASSERT_TRUE(third_up.ok());
    EXPECT_EQ(third_up.value(), pref[2]);

    live[pref[2]] = false;  // whole ring dead
    EXPECT_FALSE(ring.resolve(stream, live).ok());
  }
}

// ----------------------------------------------------------- REPL frames

TEST(ReplFrameTest, RoundTripsThroughTheDecoderForEveryKind) {
  const Bytes records = encode_records({delivered_record(1, 0),
                                        delivered_record(1, 1),
                                        delivered_record(2, 9)});
  for (const ReplKind kind : {ReplKind::kHello, ReplKind::kAppend,
                              ReplKind::kAck, ReplKind::kHeartbeat}) {
    const bool append = kind == ReplKind::kAppend;
    const ByteSpan payload =
        append ? ByteSpan(records.data(), records.size()) : ByteSpan();
    const Message frame = repl_frame(
        kind, /*session_id=*/kSession, /*epoch=*/7, /*repl_sequence=*/3,
        payload);
    const Bytes wire = encode_message(frame);

    MessageDecoder decoder;
    decoder.feed(ByteSpan(wire.data(), wire.size()));
    auto decoded = decoder.next();
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value().kind, MessageKind::kRepl);
    EXPECT_EQ(decoded.value().sequence, 3U);

    auto info = parse_repl_body(ByteSpan(decoded.value().body.data(),
                                         decoded.value().body.size()));
    ASSERT_TRUE(info.ok()) << info.status().to_string();
    EXPECT_EQ(info.value().kind, kind);
    EXPECT_EQ(info.value().session_id, kSession);
    EXPECT_EQ(info.value().epoch, 7U);
    if (append) {
      EXPECT_EQ(info.value().records, records);
      const JournalScan scan = scan_journal(ByteSpan(
          info.value().records.data(), info.value().records.size()));
      EXPECT_EQ(scan.records.size(), 3U);
      EXPECT_EQ(scan.torn_records, 0U);
    } else {
      EXPECT_TRUE(info.value().records.empty());
    }
  }
}

TEST(ReplFrameTest, MalformedBodiesAreRejected) {
  const Bytes records = encode_records({delivered_record(1, 0),
                                        delivered_record(1, 1)});
  const Message frame = repl_frame(
      ReplKind::kAppend, kSession, 1, 1, ByteSpan(records.data(), records.size()));

  // Truncated body: the declared record count no longer fits.
  Bytes truncated = frame.body;
  truncated.pop_back();
  EXPECT_FALSE(parse_repl_body(ByteSpan(truncated.data(), truncated.size())).ok());

  // Unknown kinds on either side of the valid range.
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{5}}) {
    Bytes bad_kind = frame.body;
    bad_kind[0] = kind;
    EXPECT_FALSE(parse_repl_body(ByteSpan(bad_kind.data(), bad_kind.size())).ok());
  }

  // Record count lies high: declared records exceed the body.
  Bytes high_count = frame.body;
  high_count[20] = 3;
  EXPECT_FALSE(
      parse_repl_body(ByteSpan(high_count.data(), high_count.size())).ok());

  // Records dangling off a body-less kind.
  Bytes hello = repl_frame(ReplKind::kHello, kSession, 1, 1).body;
  hello.insert(hello.end(), records.begin(), records.begin() + kJournalRecordSize);
  EXPECT_FALSE(parse_repl_body(ByteSpan(hello.data(), hello.size())).ok());

  // Too short to even carry the prefix.
  Bytes stub(frame.body.begin(), frame.body.begin() + kReplBodyPrefix / 2);
  EXPECT_FALSE(parse_repl_body(ByteSpan(stub.data(), stub.size())).ok());
}

// ----------------------------------------------------------- replication

TEST(ReplicationTest, StandbyAppliesDurablyBeforeAcking) {
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, kSession, /*epoch=*/1, &fed);

  ASSERT_TRUE(primary.hello().is_ok());
  const Bytes batch = encode_records({delivered_record(1, 0),
                                      delivered_record(1, 1)});
  ASSERT_TRUE(primary.ship(ByteSpan(batch.data(), batch.size())).is_ok());

  // The ack means durable: the records are in the replica's *durable* set,
  // not some pending tail a standby crash would eat.
  EXPECT_EQ(standby.records_applied(), 2U);
  EXPECT_EQ(replica.durable_size(), batch.size());
  auto mirrored = replica.read_all();
  ASSERT_TRUE(mirrored.ok());
  EXPECT_EQ(mirrored.value(), batch);

  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_EQ(snapshot.repl_records_shipped, 2U);
  EXPECT_EQ(snapshot.repl_appends_acked, 1U);
  EXPECT_GE(snapshot.repl_lag_records_max, 2U);
  EXPECT_EQ(snapshot.fenced_appends_rejected, 0U);
}

TEST(ReplicationTest, SessionMismatchRefusesToApply) {
  MemoryJournalMedia replica;
  StandbySession standby(replica, /*session_id=*/7);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, /*session_id=*/8);

  EXPECT_FALSE(primary.hello().is_ok());
  const Bytes batch = encode_records({delivered_record(1, 0)});
  const Status shipped = primary.ship(ByteSpan(batch.data(), batch.size()));
  EXPECT_FALSE(shipped.is_ok());
  EXPECT_EQ(standby.records_applied(), 0U);
  EXPECT_EQ(replica.durable_size(), 0U);
}

// The tee that makes replication transparent to the journals: everything a
// ReceiverJournal writes through ReplicatedJournalMedia must land in the
// buddy's replica by the time the write is acknowledged — and a journal
// recovered from the *replica* must know everything the primary knew.
TEST(ReplicationTest, ReceiverJournalThroughTeeRecoversFromReplica) {
  MemoryJournalMedia local;
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, kSession, 1, &fed);
  ReplicatedJournalMedia tee(local, primary);

  ReceiverJournal journal(tee, kSession);
  ASSERT_TRUE(journal.recover().is_ok());  // kSession record replicates too
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    ASSERT_TRUE(journal.record_delivered(1, seq).is_ok());
  }

  // The ordering invariant: the standby's durable journal is never behind.
  EXPECT_GE(replica.durable_size(), local.durable_size());
  auto local_bytes = local.read_all();
  auto replica_bytes = replica.read_all();
  ASSERT_TRUE(local_bytes.ok());
  ASSERT_TRUE(replica_bytes.ok());
  const JournalScan local_scan = scan_journal(
      ByteSpan(local_bytes.value().data(), local_bytes.value().size()));
  const JournalScan replica_scan = scan_journal(
      ByteSpan(replica_bytes.value().data(), replica_bytes.value().size()));
  EXPECT_EQ(local_scan.records, replica_scan.records);

  // Machine death: the primary's media is gone; recover from the replica.
  ReceiverJournal recovered(replica, kSession);
  ASSERT_TRUE(recovered.recover().is_ok());
  EXPECT_EQ(recovered.watermark(1), 10U);
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    EXPECT_TRUE(recovered.seen(1, seq));
  }
  EXPECT_FALSE(recovered.seen(1, 10));
}

TEST(ReplicationTest, SenderJournalThroughTeeRecoversFromReplica) {
  MemoryJournalMedia local;
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, kSession);
  ReplicatedJournalMedia tee(local, primary);

  SenderJournal journal(tee, kSession);
  ASSERT_TRUE(journal.recover().is_ok());
  for (std::uint64_t seq = 0; seq < 6; ++seq) {
    ASSERT_TRUE(journal
                    .record_sent(1, seq, seq * kChunkBytes,
                                 static_cast<std::uint32_t>(seq + 1),
                                 kChunkBytes)
                    .is_ok());
  }
  ASSERT_TRUE(journal.record_acked(1, 4).is_ok());

  SenderJournal recovered(replica, kSession);
  ASSERT_TRUE(recovered.recover().is_ok());
  EXPECT_EQ(recovered.acked_watermark(1), 4U);
  EXPECT_FALSE(recovered.sent_unacked(1, 3));  // below the watermark
  EXPECT_TRUE(recovered.sent_unacked(1, 4));
  EXPECT_TRUE(recovered.sent_unacked(1, 5));
  EXPECT_EQ(recovered.unacked_count(), 2U);
}

// The byte-stream link and the standby service loop: same protocol,
// framed over a ByteStream instead of a direct call — what the federated
// TCP deployment runs.
TEST(ReplicationTest, StreamTransportServesAppendsAndShutsDownCleanly) {
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  InprocPair pair = make_inproc_pair();
  ByteStream* standby_end = pair.second.get();

  Status serve_status = Status::ok();
  std::thread server([&, stream = std::move(pair.second)]() mutable {
    serve_status = serve_peer(*stream, standby);
  });

  {
    ByteStream* primary_end = pair.first.get();
    StreamPeerLink link(std::move(pair.first));
    PrimaryReplicator primary(link, kSession);
    EXPECT_TRUE(primary.hello().is_ok());
    const Bytes batch = encode_records({delivered_record(1, 0),
                                        delivered_record(1, 1),
                                        delivered_record(1, 2)});
    EXPECT_TRUE(primary.ship(ByteSpan(batch.data(), batch.size())).is_ok());
    EXPECT_TRUE(primary.heartbeat().is_ok());
    EXPECT_EQ(standby.records_applied(), 3U);
    primary_end->shutdown_write();  // clean goodbye, not a cut link
  }

  server.join();
  EXPECT_TRUE(serve_status.is_ok()) << serve_status.to_string();
  EXPECT_EQ(replica.durable_size(), 3 * kJournalRecordSize);
  (void)standby_end;
}

// ---------------------------------------------------------- epoch fence

// The split-brain guard, end to end: a partition isolates the primary, the
// standby is promoted, the partition heals — and the stale primary must NOT
// be able to commit anything ever again. At most one side makes progress.
TEST(EpochFenceTest, StalePrimaryCannotCommitAfterTakeover) {
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  InprocPeerLink link(standby);
  PrimaryReplicator stale(link, kSession, /*epoch=*/1, &fed);

  ASSERT_TRUE(stale.hello().is_ok());
  const Bytes batch = encode_records({delivered_record(1, 0)});
  ASSERT_TRUE(stale.ship(ByteSpan(batch.data(), batch.size())).is_ok());
  const std::uint64_t applied_before = standby.records_applied();

  // Partition: the primary is cut off (transient, retryable — not fenced).
  link.set_partitioned(true);
  const Status cut = stale.ship(ByteSpan(batch.data(), batch.size()));
  ASSERT_FALSE(cut.is_ok());
  EXPECT_EQ(cut.code(), StatusCode::kUnavailable);

  // Takeover on the other side of the partition.
  EXPECT_EQ(standby.promote(), 2U);
  EXPECT_EQ(standby.epoch(), 2U);

  // Heal. The stale primary retries — and hits the fence: DATA_LOSS, not a
  // retryable error, because acking this write would fork history.
  link.set_partitioned(false);
  const Status fenced = stale.ship(ByteSpan(batch.data(), batch.size()));
  ASSERT_FALSE(fenced.is_ok());
  EXPECT_EQ(fenced.code(), StatusCode::kDataLoss);
  EXPECT_NE(fenced.to_string().find("fenced"), std::string::npos)
      << fenced.to_string();
  EXPECT_EQ(standby.records_applied(), applied_before)
      << "a fenced append must not touch the replica";

  // Heartbeats report the fence too, so a stale gateway learns it is dead
  // even when idle.
  const Status probe = stale.heartbeat();
  ASSERT_FALSE(probe.is_ok());
  EXPECT_EQ(probe.code(), StatusCode::kDataLoss);

  // The rightful successor — a replicator born at the promoted epoch —
  // commits normally.
  PrimaryReplicator successor(link, kSession, standby.epoch(), &fed);
  ASSERT_TRUE(successor.hello().is_ok());
  EXPECT_TRUE(successor.ship(ByteSpan(batch.data(), batch.size())).is_ok());
  EXPECT_EQ(standby.records_applied(), applied_before + 1);

  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_GE(snapshot.fenced_appends_rejected, 1U);
  EXPECT_EQ(snapshot.epoch, 2U);
}

// A promotion while the link is healthy fences in-flight traffic the same
// way: the very next exchange reports it.
TEST(EpochFenceTest, PromotionFencesWithoutAPartition) {
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, kSession);

  ASSERT_TRUE(primary.hello().is_ok());
  standby.promote();
  const Bytes batch = encode_records({delivered_record(1, 0)});
  const Status fenced = primary.ship(ByteSpan(batch.data(), batch.size()));
  ASSERT_FALSE(fenced.is_ok());
  EXPECT_EQ(fenced.code(), StatusCode::kDataLoss);
}

// ------------------------------------------------- journal media faults

// Write failure (ENOSPC via /dev/full) surfaces as DATA_LOSS and latches:
// every later append/flush reports the same loss without touching the file,
// because a post-failure retry can falsely succeed over a hole.
TEST(JournalMediaFaultTest, WriteFailureLatchesDataLoss) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  FileJournalMedia media("/dev/full");
  const Bytes record = encode_journal_record(delivered_record(1, 0));

  const Status first = media.append(ByteSpan(record.data(), record.size()));
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);

  const Status second = media.append(ByteSpan(record.data(), record.size()));
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.to_string(), first.to_string()) << "latch must be sticky";
  const Status flushed = media.flush();
  ASSERT_FALSE(flushed.is_ok());
  EXPECT_EQ(flushed.to_string(), first.to_string());
}

// Open failure is transient (UNAVAILABLE), not a latch: once the path
// becomes writable the same media object carries on.
TEST(JournalMediaFaultTest, OpenFailureIsTransientNotSticky) {
  char tmpl[] = "/tmp/ns-cluster-test-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string missing_dir = std::string(dir) + "/sub";
  const std::string path = missing_dir + "/journal.bin";

  FileJournalMedia media(path);
  const Bytes record = encode_journal_record(delivered_record(1, 0));
  const Status blocked = media.append(ByteSpan(record.data(), record.size()));
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.code(), StatusCode::kUnavailable);

  ASSERT_EQ(::mkdir(missing_dir.c_str(), 0755), 0);
  EXPECT_TRUE(media.append(ByteSpan(record.data(), record.size())).is_ok());
  EXPECT_TRUE(media.flush().is_ok());
  auto bytes = media.read_all();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), record);

  ::unlink(path.c_str());
  ::rmdir(missing_dir.c_str());
  ::rmdir(dir);
}

// And the tee propagates a replica-side refusal into the journal write
// path: when the buddy cannot make the record durable, the primary's
// record_* call fails instead of acking a write only one copy holds.
TEST(JournalMediaFaultTest, TeePropagatesReplicaRefusalToTheJournal) {
  MemoryJournalMedia local;
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  InprocPeerLink link(standby);
  PrimaryReplicator primary(link, kSession);
  ReplicatedJournalMedia tee(local, primary);

  ReceiverJournal journal(tee, kSession);
  ASSERT_TRUE(journal.recover().is_ok());
  link.set_partitioned(true);
  EXPECT_FALSE(journal.record_delivered(1, 0).is_ok());
  link.set_partitioned(false);
  EXPECT_TRUE(journal.record_delivered(1, 1).is_ok());
}

// ------------------------------------------------------ failure detector

TEST(PeerFailureDetectorTest, DeadOnlyAfterMissWindowsStarvedWindows) {
  ClusterConfig config;
  config.gateways = 2;
  config.self = 0;
  config.heartbeat_ms = 10;
  config.miss_windows = 3;
  FederationCounters fed;
  PeerFailureDetector detector(config, &fed);
  const int peer = detector.track("gateway1");

  // Healthy windows seed the baseline and keep the verdict alive.
  for (int window = 0; window < 4; ++window) {
    EXPECT_FALSE(detector.observe(peer, 1.0));
  }
  // One missed window is hysteresis territory, not a death sentence.
  EXPECT_FALSE(detector.observe(peer, 0.0));
  EXPECT_FALSE(detector.observe(peer, 0.0));
  EXPECT_FALSE(detector.dead(peer));
  // The third consecutive starved window crosses miss_windows: dead.
  EXPECT_TRUE(detector.observe(peer, 0.0));
  EXPECT_TRUE(detector.dead(peer));
  EXPECT_EQ(fed.snapshot().peer_failures_detected, 1U);

  // Staying dead is not re-detected: the counter latches per death.
  EXPECT_TRUE(detector.observe(peer, 0.0));
  EXPECT_EQ(fed.snapshot().peer_failures_detected, 1U);
}

TEST(PeerFailureDetectorTest, OneDelayedProbeDoesNotTriggerTakeover) {
  ClusterConfig config;
  config.gateways = 2;
  config.self = 0;
  config.miss_windows = 2;
  PeerFailureDetector detector(config);
  const int peer = detector.track("gateway1");

  EXPECT_FALSE(detector.observe(peer, 1.0));
  EXPECT_FALSE(detector.observe(peer, 0.0));  // one blip
  EXPECT_FALSE(detector.observe(peer, 1.0));  // recovered before the breach
  EXPECT_FALSE(detector.observe(peer, 0.0));  // another lone blip
  EXPECT_FALSE(detector.dead(peer));
}

// --------------------------------------------------- failover coordinator

TEST(FailoverCoordinatorTest, TakeoverAdoptsExactlyTheVictimsStreams) {
  const GatewayRing ring(2, 16);
  FederationCounters fed;
  FailoverCoordinator coordinator(ring, /*self=*/1, &fed);
  EXPECT_EQ(coordinator.epoch(), 1U);

  std::vector<std::uint32_t> streams;
  std::vector<std::uint32_t> victims;  // streams whose primary is gateway 0
  for (std::uint32_t stream = 0; stream < 16; ++stream) {
    streams.push_back(stream);
    if (ring.primary(stream) == 0) {
      victims.push_back(stream);
    }
  }
  ASSERT_FALSE(victims.empty()) << "pathological ring: gateway 0 owns nothing";

  const std::vector<std::uint32_t> adopted =
      coordinator.plan_takeover(/*victim=*/0, streams);
  EXPECT_EQ(adopted, victims);
  EXPECT_FALSE(coordinator.live(0));
  EXPECT_TRUE(coordinator.live(1));
  EXPECT_EQ(coordinator.epoch(), 2U);
  for (const std::uint32_t stream : streams) {
    auto where = coordinator.resolve(stream);
    ASSERT_TRUE(where.ok());
    EXPECT_EQ(where.value(), 1U) << "two-gateway ring with one death";
  }

  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_EQ(snapshot.failovers, 1U);
  EXPECT_EQ(snapshot.streams_reresolved, victims.size());
  EXPECT_EQ(snapshot.epoch, 2U);
}

TEST(FailoverCoordinatorTest, SelfIsNeverAVictim) {
  const GatewayRing ring(2, 16);
  FederationCounters fed;
  FailoverCoordinator coordinator(ring, /*self=*/0, &fed);
  const std::vector<std::uint32_t> adopted =
      coordinator.plan_takeover(/*victim=*/0, {0, 1, 2, 3});
  EXPECT_TRUE(adopted.empty());
  EXPECT_TRUE(coordinator.live(0));
  EXPECT_EQ(coordinator.epoch(), 1U);
  EXPECT_EQ(fed.snapshot().failovers, 0U);
}

TEST(FailoverCoordinatorTest, ThreeGatewayRingFailsOverToThePreferenceOrder) {
  const GatewayRing ring(3, 16);
  FederationCounters fed;
  // Find a stream owned by gateway 0 and its buddy; the buddy's coordinator
  // must adopt it, the third gateway's must not.
  std::optional<std::uint32_t> stream;
  for (std::uint32_t candidate = 0; candidate < 64 && !stream; ++candidate) {
    if (ring.primary(candidate) == 0) {
      stream = candidate;
    }
  }
  ASSERT_TRUE(stream.has_value());
  const std::uint32_t buddy = ring.buddy(*stream);
  const std::uint32_t other = 3 - buddy;  // the remaining non-zero gateway

  FailoverCoordinator on_buddy(ring, buddy, &fed);
  FailoverCoordinator on_other(ring, other, &fed);
  EXPECT_EQ(on_buddy.plan_takeover(0, {*stream}),
            std::vector<std::uint32_t>{*stream});
  EXPECT_TRUE(on_other.plan_takeover(0, {*stream}).empty());
}

// -------------------------------------------- whole-gateway failover, e2e

/// Records a content hash per (stream, sequence) and counts re-deliveries.
class VerifySink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = hashes_.emplace(
        std::make_pair(chunk.stream_id, chunk.sequence), xxhash32(chunk.payload));
    (void)it;
    if (!fresh) {
      ++duplicates_;
    }
  }

  [[nodiscard]] std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
  hashes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hashes_;
  }

  [[nodiscard]] std::size_t count() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hashes_.size();
  }

  [[nodiscard]] std::uint64_t duplicates() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return duplicates_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> hashes_;
  std::uint64_t duplicates_ = 0;
};

/// Serves `count` deterministic chunks whose contents depend only on the
/// sequence number.
class PatternSource final : public ChunkSource {
 public:
  PatternSource(std::uint32_t stream_id, std::uint64_t count, std::size_t size)
      : stream_id_(stream_id), count_(count), size_(size) {}

  std::optional<Chunk> next() override {
    const std::uint64_t index = issued_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count_) {
      return std::nullopt;
    }
    Chunk chunk;
    chunk.stream_id = stream_id_;
    chunk.sequence = index;
    chunk.payload = pattern_payload(index, size_);
    return chunk;
  }

 private:
  std::uint32_t stream_id_;
  std::uint64_t count_;
  std::size_t size_;
  std::atomic<std::uint64_t> issued_{0};
};

/// PatternSource that yields `gate_at` chunks, then blocks inside next()
/// until release(), so a kill staged meanwhile always lands mid-stream.
class GatedPatternSource final : public ChunkSource {
 public:
  GatedPatternSource(std::uint32_t stream_id, std::uint64_t count,
                     std::size_t size, std::uint64_t gate_at)
      : inner_(stream_id, count, size), gate_at_(gate_at) {}

  std::optional<Chunk> next() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return issued_ < gate_at_ || released_; });
      ++issued_;
    }
    return inner_.next();
  }

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  PatternSource inner_;
  const std::uint64_t gate_at_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t issued_ = 0;
  bool released_ = false;
};

NodeConfig federated_sender() {
  NodeConfig config;
  config.node_name = "ctest-sender";
  config.role = NodeRole::kSender;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
      TaskGroupConfig{.type = TaskType::kSend, .count = 1},
  };
  config.recovery.reconnect = true;
  config.recovery.retry.max_attempts = 10000;
  config.recovery.retry.initial_backoff_us = 200;
  config.recovery.retry.max_backoff_us = 2000;
  config.resume.session = kSession;
  config.resume.ack_interval = 8;
  config.overload.credit_window = 8;
  return config;
}

NodeConfig federated_receiver(int watchdog_ms = 0) {
  NodeConfig config;
  config.node_name = "ctest-receiver";
  config.role = NodeRole::kReceiver;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };
  config.recovery.reconnect = true;
  config.recovery.retry.max_attempts = 10000;
  config.recovery.retry.initial_backoff_us = 200;
  config.recovery.retry.max_backoff_us = 2000;
  config.recovery.watchdog_ms = watchdog_ms;
  config.resume.session = kSession;
  config.resume.ack_interval = 8;
  config.overload.credit_window = 8;
  return config;
}

// Kills a whole gateway mid-transfer — receiver process AND its local
// journal media die together, the machine-death case PR 5 could not
// survive — and requires the ring buddy to take over: promote the standby,
// recover the *replicated* journal, and finish the stream. Every chunk
// must land exactly once across the two gateways, and the fenced old
// primary must be unable to commit anything after the takeover.
TEST(GatewayFailoverTest, BuddyResumesFromReplicaExactlyOnce) {
  const MachineTopology topo = host_topology();
  const GatewayRing ring(2, 16);
  const std::uint32_t victim = ring.primary(1);  // stream id 1's gateway
  const std::uint32_t buddy = ring.buddy(1);
  ASSERT_NE(victim, buddy);

  MemoryJournalMedia sender_media;
  MemoryJournalMedia victim_media;  // the doomed gateway's local journal
  MemoryJournalMedia replica;       // the buddy's mirror of it
  ResumeCounters counters;
  FederationCounters fed;
  FaultCounters faults;

  StandbySession standby(replica, kSession, &fed);
  InprocPeerLink link(standby);
  PrimaryReplicator replicator(link, kSession, /*epoch=*/1, &fed);
  ASSERT_TRUE(replicator.hello().is_ok());
  ReplicatedJournalMedia victim_journal_media(victim_media, replicator);

  // Phase 1: the victim gateway listens. Phase 0: blackout (detection +
  // takeover window). Phase 2: the buddy gateway.
  std::atomic<int> phase{1};
  InprocListener victim_listener;
  InprocListener buddy_listener;

  FaultPlan plan;  // no stochastic faults; the gateway kill is the only event
  FaultInjector injector(plan, &faults);
  // Machine death: the victim's local journal dies with it. The replica —
  // on the buddy's hardware — is untouched.
  injector.set_crash_hook([&] { victim_media.crash(); });
  const DialFn dial = faulty_dialer(
      [&]() -> Result<std::unique_ptr<ByteStream>> {
        switch (phase.load(std::memory_order_acquire)) {
          case 1:
            return victim_listener.connect();
          case 2:
            return buddy_listener.connect();
          default:
            return unavailable_error("gateway is down");
        }
      },
      injector);

  // The source stops at half the stream until the kill, so the kill always
  // lands mid-stream, never after the victim has the whole stream.
  GatedPatternSource source(1, kChunks, kChunkBytes, /*gate_at=*/kChunks / 2);
  VerifySink victim_sink;
  VerifySink buddy_sink;

  SenderJournal sender_journal(sender_media, kSession, &counters);
  ASSERT_TRUE(sender_journal.recover().is_ok());
  Status sender_status = Status::ok();
  std::thread sender_thread([&] {
    StreamSender sender(topo, federated_sender());
    auto stats = sender.run(source, dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &sender_journal,
                                        .counters = &counters});
    sender_status = stats.ok() ? Status::ok() : stats.status();
  });

  // The victim gateway's receiver journals through the replicating tee, so
  // every committed delivery is on the buddy before it is acked.
  Status victim_status = Status::ok();
  std::thread victim_thread([&] {
    ReceiverJournal journal(victim_journal_media, kSession, &counters);
    const Status recovered = journal.recover();
    NS_CHECK(recovered.is_ok(), "fresh ledger must recover");
    StreamReceiver receiver(topo, federated_receiver(/*watchdog_ms=*/300));
    auto stats = receiver.run(victim_listener, victim_sink, nullptr, &faults,
                              {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal,
                                          .counters = &counters});
    victim_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Kill the gateway once roughly a third of the stream has committed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (victim_sink.count() < kChunks / 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool got_going = victim_sink.count() >= kChunks / 3;
  phase.store(0, std::memory_order_release);
  injector.trigger_crash(/*restart_delay_micros=*/100000);
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  source.release();
  victim_thread.join();  // the watchdog reaps the dead incarnation
  ASSERT_TRUE(got_going) << "transfer never got going";

  // The buddy's coordinator plans the takeover: stream 1 re-resolves here.
  FailoverCoordinator coordinator(ring, buddy, &fed);
  const std::vector<std::uint32_t> adopted =
      coordinator.plan_takeover(victim, {1});
  ASSERT_EQ(adopted, std::vector<std::uint32_t>{1});
  const std::uint64_t epoch = standby.promote();
  EXPECT_EQ(epoch, 2U);
  EXPECT_EQ(coordinator.epoch(), 2U);

  // Split-brain probe: were the "dead" gateway merely partitioned and still
  // trying, its appends now bounce off the fence instead of forking history.
  const Bytes straggler = encode_records({delivered_record(1, kChunks + 1)});
  const Status fenced =
      replicator.ship(ByteSpan(straggler.data(), straggler.size()));
  ASSERT_FALSE(fenced.is_ok());
  EXPECT_EQ(fenced.code(), StatusCode::kDataLoss);

  // The buddy recovers the stream's journal from the replica — the victim's
  // own media is gone — and its RESUME handshake resumes the sender.
  ReceiverJournal buddy_journal(replica, kSession, &counters);
  ASSERT_TRUE(buddy_journal.recover().is_ok());
  EXPECT_GT(buddy_journal.watermark(1), 0U)
      << "the replica must know the committed prefix";
  Status buddy_status = Status::ok();
  std::thread buddy_thread([&] {
    StreamReceiver receiver(topo, federated_receiver());
    auto stats = receiver.run(buddy_listener, buddy_sink, nullptr, &faults,
                              {}, {}, {},
                              ResumeHooks{.receiver_journal = &buddy_journal,
                                          .counters = &counters});
    buddy_status = stats.ok() ? Status::ok() : stats.status();
  });
  phase.store(2, std::memory_order_release);

  sender_thread.join();
  buddy_thread.join();
  EXPECT_TRUE(sender_status.is_ok()) << sender_status.to_string();
  EXPECT_TRUE(buddy_status.is_ok()) << buddy_status.to_string();

  // Exactly once across the two gateways: the union covers every chunk,
  // bit-exact, and no sequence was committed on both.
  auto delivered = victim_sink.hashes();
  for (const auto& [key, hash] : buddy_sink.hashes()) {
    const auto [it, fresh] = delivered.emplace(key, hash);
    (void)it;
    EXPECT_TRUE(fresh) << "chunk " << key.second
                       << " delivered by both gateways";
  }
  ASSERT_EQ(delivered.size(), kChunks);
  for (std::uint64_t seq = 0; seq < kChunks; ++seq) {
    const auto it = delivered.find({1, seq});
    ASSERT_NE(it, delivered.end()) << "chunk " << seq << " lost";
    EXPECT_EQ(it->second, xxhash32(pattern_payload(seq, kChunkBytes)))
        << "chunk " << seq << " corrupted";
  }
  EXPECT_EQ(victim_sink.duplicates(), 0U);
  EXPECT_EQ(buddy_sink.duplicates(), 0U);

  const ResumeCountersSnapshot resume = counters.snapshot();
  EXPECT_GE(resume.resume_handshakes, 2U);  // initial + post-takeover
  EXPECT_LT(resume.replayed_chunks, kChunks);

  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_GT(snapshot.repl_records_shipped, 0U);
  EXPECT_GT(snapshot.repl_appends_acked, 0U);
  EXPECT_EQ(snapshot.failovers, 1U);
  EXPECT_EQ(snapshot.streams_reresolved, 1U);
  EXPECT_GE(snapshot.fenced_appends_rejected, 1U);
  EXPECT_EQ(snapshot.epoch, 2U);
}

// ------------------------------------------------------------- simulation

using simrt::ExperimentOptions;
using simrt::ExperimentResult;
using simrt::run_plan;

Result<ExperimentResult> run_sim_federation(const ExperimentOptions& options,
                                            int num_streams = 2) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders(
      static_cast<std::size_t>(num_streams), updraft_topology());
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec workload;
  workload.num_streams = num_streams;
  auto plan = generator.generate(workload, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation must succeed");
  return run_plan(senders, lynx, plan.value(), options);
}

TEST(SimFederationTest, ClusterRequiresResume) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  EXPECT_FALSE(run_sim_federation(options).ok());
}

TEST(SimFederationTest, GatewayCrashRequiresCluster) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.gateway_crashes = {{.gateway = 0, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim_federation(options).ok());
}

TEST(SimFederationTest, GatewayCrashVictimMustBeARingMember) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.gateway_crashes = {{.gateway = 5, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim_federation(options).ok());

  for (const double bad : {std::nan(""), HUGE_VAL}) {
    options.gateway_crashes = {{.gateway = 0, .at_seconds = bad}};
    EXPECT_EQ(run_sim_federation(options).status().code(),
              StatusCode::kInvalidArgument);
    options.gateway_crashes = {
        {.gateway = 0, .at_seconds = 0.001, .failover_seconds = bad}};
    EXPECT_EQ(run_sim_federation(options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

ExperimentOptions federated_options() {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  return options;
}

TEST(ClusterConfigTest, ValidationBoundaries) {
  // The smallest legal ring: two gateways, self in range.
  ExperimentOptions ok = federated_options();
  EXPECT_TRUE(run_sim_federation(ok).ok())
      << run_sim_federation(ok).status().to_string();
  ok.cluster.self = 1;  // the other slot is equally legal
  EXPECT_TRUE(run_sim_federation(ok).ok());

  // A one-gateway "ring" has no buddy: rejected at the boundary.
  ExperimentOptions solo = federated_options();
  solo.cluster.gateways = 1;
  EXPECT_FALSE(run_sim_federation(solo).ok());

  ExperimentOptions out_of_range = federated_options();
  out_of_range.cluster.self = 2;  // == gateways
  EXPECT_FALSE(run_sim_federation(out_of_range).ok());

  ExperimentOptions no_vnodes = federated_options();
  no_vnodes.cluster.vnodes = 0;
  EXPECT_FALSE(run_sim_federation(no_vnodes).ok());

  ExperimentOptions no_heartbeat = federated_options();
  no_heartbeat.cluster.heartbeat_ms = 0;
  EXPECT_FALSE(run_sim_federation(no_heartbeat).ok());

  ExperimentOptions no_hysteresis = federated_options();
  no_hysteresis.cluster.miss_windows = 0;
  EXPECT_FALSE(run_sim_federation(no_hysteresis).ok());

  // Federation without the resume journal has nothing to replicate.
  ExperimentOptions no_resume = federated_options();
  no_resume.resume = false;
  EXPECT_FALSE(run_sim_federation(no_resume).ok());
}

TEST(SimFederationTest, SeededGatewayKillIsBitIdenticalAndExactlyOnce) {
  // Probe the failure-free clustered run: sharding and replication on, no
  // kills — the federation layer must cost nothing but heartbeats.
  ExperimentOptions options;
  options.chunks_per_stream = 120;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.cluster.miss_windows = 2;
  auto probe = run_sim_federation(options);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const double elapsed = probe.value().elapsed_seconds;
  ASSERT_GT(elapsed, 0);
  EXPECT_EQ(probe.value().federation.failovers, 0U);
  EXPECT_EQ(probe.value().federation.peer_failures_detected, 0U);
  EXPECT_EQ(probe.value().federation.epoch, 1U);
  for (const auto& stream : probe.value().streams) {
    EXPECT_EQ(stream.chunks, 120U);
  }
  // Sharding is the ring's, not ad hoc: the driver's placement must match
  // an independently constructed ring.
  const GatewayRing ring(options.cluster.gateways, options.cluster.vnodes);
  ASSERT_EQ(probe.value().stream_gateways.size(), 2U);
  for (std::uint32_t stream = 0; stream < 2; ++stream) {
    EXPECT_EQ(probe.value().stream_gateways[stream], ring.primary(stream));
  }

  // Re-probe with the heartbeat window scaled to the run so detection lands
  // well inside the transfer, then kill the gateway serving stream 0.
  options.cluster.heartbeat_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(elapsed * 1000.0 / 60.0)));
  auto timed = run_sim_federation(options);
  ASSERT_TRUE(timed.ok()) << timed.status().to_string();
  EXPECT_GT(timed.value().federation.heartbeats_sent, 0U);
  EXPECT_GT(timed.value().federation.repl_records_shipped, 0U);
  const double span = timed.value().elapsed_seconds;

  const std::uint32_t victim = ring.primary(0);
  std::uint64_t on_victim = 0;
  for (std::uint32_t stream = 0; stream < 2; ++stream) {
    if (ring.primary(stream) == victim) {
      ++on_victim;
    }
  }
  options.gateway_crashes = {{.gateway = victim,
                              .at_seconds = span / 3,
                              .failover_seconds = span / 10}};
  auto first = run_sim_federation(options);
  auto second = run_sim_federation(options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  // The fingerprint: two same-schedule failover runs agree bit for bit.
  EXPECT_TRUE(first.value().federation == second.value().federation)
      << first.value().federation.to_string() << " vs "
      << second.value().federation.to_string();
  EXPECT_TRUE(first.value().resume == second.value().resume)
      << first.value().resume.to_string() << " vs "
      << second.value().resume.to_string();
  EXPECT_EQ(first.value().stream_gateways, second.value().stream_gateways);

  const FederationCountersSnapshot& fed = first.value().federation;
  EXPECT_EQ(fed.failovers, 1U);
  EXPECT_EQ(fed.peer_failures_detected, 1U);
  EXPECT_EQ(fed.streams_reresolved, on_victim);
  EXPECT_GE(fed.epoch, 2U);
  EXPECT_GT(fed.heartbeats_sent, 0U);
  EXPECT_GT(fed.repl_records_shipped, 0U);
  EXPECT_GT(fed.failover_wall_ms, 0U);

  // Zero loss despite the whole-gateway kill, and the victim's streams now
  // live on the survivor.
  ASSERT_EQ(first.value().streams.size(), 2U);
  for (std::uint32_t stream = 0; stream < 2; ++stream) {
    EXPECT_EQ(first.value().streams[stream].chunks, 120U);
    if (ring.primary(stream) == victim) {
      EXPECT_NE(first.value().stream_gateways[stream], victim);
    } else {
      EXPECT_EQ(first.value().stream_gateways[stream], ring.primary(stream));
    }
  }

  // Failover re-work is bounded by the replicated journal's unacked window,
  // strictly under what restarting the victim's streams from zero would
  // have re-sent.
  const ResumeCountersSnapshot& resume = first.value().resume;
  EXPECT_GT(resume.journal_records_replayed, 0U);
  EXPECT_GT(first.value().rework_restart_from_zero_bytes, 0.0);
  EXPECT_LT(static_cast<double>(resume.rework_bytes),
            first.value().rework_restart_from_zero_bytes);
}

}  // namespace
}  // namespace numastream
