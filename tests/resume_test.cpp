// Crash-resumption tests (DESIGN.md §11): the journal record format and its
// torn-write truncation, the media crash semantics, sender/receiver journal
// recovery across restarts, the RESUME wire frame, the `resume` config
// directive, the hardened pipeline surviving a seeded kill of either
// endpoint mid-transfer with exactly-once delivery, and the simulated
// crash schedule's bit-identical resume-counter fingerprint.
//
// Everything here is deterministic: crash points are driven by the test (or
// a seeded schedule), so a failing run replays bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "codec/xxhash.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/config_generator.h"
#include "core/drain.h"
#include "core/journal.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "metrics/overload_counters.h"
#include "metrics/resume_counters.h"
#include "msg/faulty.h"
#include "msg/inproc.h"
#include "msg/message.h"
#include "simrt/driver.h"
#include "topo/discover.h"

namespace numastream {
namespace {

MachineTopology host_topology() {
  auto topo = discover_topology();
  NS_CHECK(topo.ok(), "resume tests need a discoverable host");
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

/// Serves `count` deterministic chunks whose contents depend only on the
/// sequence number, so a restarted sender regenerates the exact dataset.
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

/// PatternSource with a one-shot gate: yields `gate_at` chunks, then blocks
/// inside next() until release(). Lets a test park the pipeline at an exact
/// ingest point (compressors waiting mid-iteration) while it stages the
/// next fault deterministically instead of racing the chunk flow.
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

NodeConfig sender_config(int compress, int send) {
  NodeConfig config;
  config.node_name = "rtest-sender";
  config.role = NodeRole::kSender;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = compress},
      TaskGroupConfig{.type = TaskType::kSend, .count = send},
  };
  return config;
}

NodeConfig receiver_config(int receive, int decompress) {
  NodeConfig config;
  config.node_name = "rtest-receiver";
  config.role = NodeRole::kReceiver;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = receive},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = decompress},
  };
  return config;
}

JournalRecord sent_record(std::uint32_t stream, std::uint64_t sequence) {
  JournalRecord record;
  record.type = JournalRecordType::kSent;
  record.stream_id = stream;
  record.sequence = sequence;
  record.offset = sequence * 512;
  record.body_hash = static_cast<std::uint32_t>(sequence * 2654435761U + 7);
  record.body_size = 512;
  return record;
}

// ---------------------------------------------------------- record format

TEST(JournalRecordTest, EncodeScanRoundTrip) {
  std::vector<JournalRecord> records;
  JournalRecord session;
  session.type = JournalRecordType::kSession;
  session.sequence = 42;
  records.push_back(session);
  records.push_back(sent_record(1, 0));
  records.push_back(sent_record(1, 1));
  JournalRecord acked;
  acked.type = JournalRecordType::kAcked;
  acked.stream_id = 1;
  acked.sequence = 1;
  records.push_back(acked);

  Bytes wire;
  for (const JournalRecord& record : records) {
    const Bytes encoded = encode_journal_record(record);
    ASSERT_EQ(encoded.size(), kJournalRecordSize);
    wire.insert(wire.end(), encoded.begin(), encoded.end());
  }
  const JournalScan scan = scan_journal(ByteSpan(wire.data(), wire.size()));
  EXPECT_EQ(scan.records, records);
  EXPECT_EQ(scan.torn_records, 0U);
  EXPECT_EQ(scan.trusted_bytes, wire.size());
}

TEST(JournalRecordTest, ScanTruncatesAtFirstCorruptRecord) {
  Bytes wire;
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    const Bytes encoded = encode_journal_record(sent_record(1, seq));
    wire.insert(wire.end(), encoded.begin(), encoded.end());
  }
  // Flip one byte inside record 2: it and everything after must be dropped —
  // a record past a tear cannot be trusted to be aligned.
  wire[2 * kJournalRecordSize + 9] ^= 0x01;
  const JournalScan scan = scan_journal(ByteSpan(wire.data(), wire.size()));
  ASSERT_EQ(scan.records.size(), 2U);
  EXPECT_EQ(scan.records[1].sequence, 1U);
  EXPECT_GE(scan.torn_records, 1U);
  EXPECT_EQ(scan.trusted_bytes, 2 * kJournalRecordSize);
}

TEST(JournalRecordTest, ShortTailIsTorn) {
  Bytes wire = encode_journal_record(sent_record(1, 0));
  const Bytes next = encode_journal_record(sent_record(1, 1));
  wire.insert(wire.end(), next.begin(), next.begin() + 10);  // torn append
  const JournalScan scan = scan_journal(ByteSpan(wire.data(), wire.size()));
  ASSERT_EQ(scan.records.size(), 1U);
  EXPECT_EQ(scan.torn_records, 1U);
  EXPECT_EQ(scan.trusted_bytes, kJournalRecordSize);
}

TEST(JournalRecordTest, EmptyJournalScansClean) {
  const JournalScan scan = scan_journal(ByteSpan());
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.torn_records, 0U);
}

// ------------------------------------------------------------ media crash

TEST(MemoryJournalMediaTest, FlushDrawsTheDurabilityLine) {
  MemoryJournalMedia media;
  const Bytes record = encode_journal_record(sent_record(1, 0));
  ASSERT_TRUE(media.append(ByteSpan(record.data(), record.size())).is_ok());
  EXPECT_EQ(media.durable_size(), 0U);  // pending only
  ASSERT_TRUE(media.flush().is_ok());
  EXPECT_EQ(media.durable_size(), record.size());
  auto read = media.read_all();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), record);
}

TEST(MemoryJournalMediaTest, CrashDropsPendingOnly) {
  MemoryJournalMedia media;
  const Bytes first = encode_journal_record(sent_record(1, 0));
  ASSERT_TRUE(media.append(ByteSpan(first.data(), first.size())).is_ok());
  ASSERT_TRUE(media.flush().is_ok());
  const Bytes second = encode_journal_record(sent_record(1, 1));
  ASSERT_TRUE(media.append(ByteSpan(second.data(), second.size())).is_ok());
  media.crash();  // kill -9 eats the page cache
  EXPECT_EQ(media.durable_size(), first.size());
  const JournalScan scan = scan_journal(
      ByteSpan(media.read_all().value().data(), media.durable_size()));
  ASSERT_EQ(scan.records.size(), 1U);
  EXPECT_EQ(scan.records[0].sequence, 0U);
}

TEST(MemoryJournalMediaTest, TornCrashLeavesPartialRecord) {
  MemoryJournalMedia media;
  const Bytes record = encode_journal_record(sent_record(1, 0));
  ASSERT_TRUE(media.append(ByteSpan(record.data(), record.size())).is_ok());
  media.crash_torn(11);  // crash landed mid-write
  EXPECT_EQ(media.durable_size(), 11U);
  const JournalScan scan = scan_journal(
      ByteSpan(media.read_all().value().data(), media.durable_size()));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.torn_records, 1U);
}

// -------------------------------------------------------- sender journal

TEST(SenderJournalTest, RecoverWritesSessionAndRejectsMismatch) {
  MemoryJournalMedia media;
  SenderJournal first(media, 42);
  ASSERT_TRUE(first.recover().is_ok());
  EXPECT_EQ(media.durable_size(), kJournalRecordSize);  // the session record

  SenderJournal again(media, 42);
  EXPECT_TRUE(again.recover().is_ok());

  SenderJournal stranger(media, 43);
  EXPECT_EQ(stranger.recover().code(), StatusCode::kDataLoss);
}

TEST(SenderJournalTest, WatermarksAreMonotoneAndBoundRework) {
  MemoryJournalMedia media;
  SenderJournal journal(media, 7);
  ASSERT_TRUE(journal.recover().is_ok());
  for (std::uint64_t seq = 0; seq < 5; ++seq) {
    ASSERT_TRUE(journal.record_sent(1, seq, seq * 512, 0xABU, 512).is_ok());
  }
  EXPECT_EQ(journal.unacked_count(), 5U);
  EXPECT_EQ(journal.unacked_bytes(), 5 * 512U);
  EXPECT_TRUE(journal.sent_unacked(1, 4));

  ASSERT_TRUE(journal.record_acked(1, 3).is_ok());
  EXPECT_EQ(journal.acked_watermark(1), 3U);
  EXPECT_EQ(journal.unacked_count(), 2U);
  EXPECT_FALSE(journal.sent_unacked(1, 2));  // acked: re-send is suppressed

  // A stale handshake never regresses the watermark.
  ASSERT_TRUE(journal.record_acked(1, 1).is_ok());
  EXPECT_EQ(journal.acked_watermark(1), 3U);
  EXPECT_EQ(journal.acked_watermark(9), 0U);  // unknown streams start at 0
}

TEST(SenderJournalTest, RestartRebuildsTheUnackedSet) {
  MemoryJournalMedia media;
  {
    SenderJournal journal(media, 7);
    ASSERT_TRUE(journal.recover().is_ok());
    for (std::uint64_t seq = 0; seq < 6; ++seq) {
      ASSERT_TRUE(journal.record_sent(1, seq, 0, 0, 256).is_ok());
    }
    ASSERT_TRUE(journal.record_acked(1, 4).is_ok());
  }
  // Process death: every record was flushed, so recovery sees them all.
  SenderJournal restarted(media, 7);
  ASSERT_TRUE(restarted.recover().is_ok());
  EXPECT_EQ(restarted.acked_watermark(1), 4U);
  EXPECT_EQ(restarted.unacked_count(), 2U);  // sequences 4 and 5
  EXPECT_TRUE(restarted.sent_unacked(1, 5));
  EXPECT_FALSE(restarted.sent_unacked(1, 3));
}

TEST(SenderJournalTest, TornTailIsTruncatedAndCounted) {
  MemoryJournalMedia media;
  ResumeCounters counters;
  {
    SenderJournal journal(media, 7, &counters);
    ASSERT_TRUE(journal.recover().is_ok());
    ASSERT_TRUE(journal.record_sent(1, 0, 0, 0, 128).is_ok());
  }
  // A torn append: half a record survives past the durable prefix.
  const Bytes torn = encode_journal_record(sent_record(1, 1));
  ASSERT_TRUE(media.append(ByteSpan(torn.data(), torn.size())).is_ok());
  media.crash_torn(20);

  SenderJournal restarted(media, 7, &counters);
  ASSERT_TRUE(restarted.recover().is_ok());
  EXPECT_EQ(restarted.unacked_count(), 1U);  // only the intact record
  EXPECT_GE(counters.snapshot().torn_records_truncated, 1U);
}

// ------------------------------------------------------- sequence ledger

/// Sequences 0..count-1 in a seeded order that reorders only within blocks
/// of `span`: each block is shuffled in place, so no entry arrives more
/// than `span` - 1 places from home.
std::vector<std::uint64_t> block_shuffled(std::uint64_t count, std::uint64_t span,
                                          Rng& rng) {
  std::vector<std::uint64_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  for (std::uint64_t base = 0; base < count; base += span) {
    const auto first = order.begin() + static_cast<std::ptrdiff_t>(base);
    std::shuffle(first, first + static_cast<std::ptrdiff_t>(std::min(span, count - base)),
                 rng);
  }
  return order;
}

// 10^5 sequences over four interleaved streams, reordered within a bounded
// span and salted with repeats of delivered entries: every insert and
// lookup agrees with a std::set, and the ledger never holds more than the
// reorder span per stream.
TEST(SequenceLedgerTest, MatchesASetOracleWithinABoundedReorderSpan) {
  constexpr std::uint32_t kStreams = 4;
  constexpr std::uint64_t kPerStream = 25000;
  constexpr std::uint64_t kSpan = 64;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> orders;
    for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
      orders.push_back(block_shuffled(kPerStream, kSpan, rng));
    }
    SequenceLedger ledger;
    std::set<std::pair<std::uint32_t, std::uint64_t>> oracle;
    std::vector<std::size_t> next(kStreams, 0);
    for (std::uint64_t step = 0; step < kStreams * kPerStream; ++step) {
      const auto stream = static_cast<std::uint32_t>(rng.next_below(kStreams));
      if (next[stream] == kPerStream) {
        continue;
      }
      const std::uint64_t seq = orders[stream][next[stream]++];
      ASSERT_EQ(ledger.insert(stream, seq), oracle.emplace(stream, seq).second)
          << "seed " << seed << " stream " << stream << " seq " << seq;
      if (rng.next_below(4) == 0) {  // a re-sent frame: always a repeat
        const std::uint64_t again = orders[stream][rng.next_below(next[stream])];
        ASSERT_FALSE(ledger.insert(stream, again));
        ASSERT_FALSE(oracle.emplace(stream, again).second);
      }
      const std::uint64_t probe = rng.next_below(kPerStream);
      ASSERT_EQ(ledger.contains(stream, probe), oracle.count({stream, probe}) != 0)
          << "seed " << seed << " stream " << stream << " probe " << probe;
      ASSERT_LE(ledger.held(), kStreams * (kSpan - 1));
    }
    for (std::uint32_t stream = 0; stream < kStreams; ++stream) {
      for (; next[stream] < kPerStream; ++next[stream]) {
        ASSERT_TRUE(ledger.insert(stream, orders[stream][next[stream]]));
      }
      EXPECT_EQ(ledger.watermark(stream), kPerStream);
    }
    EXPECT_EQ(ledger.held(), 0U);  // every gap closed: one watermark each
    EXPECT_EQ(ledger.watermarks().size(), kStreams);
  }
}

// No cap: a sequence that never arrives keeps every entry after it, so a
// late replay of any of them is still recognized — and the replay that
// fills the gap folds them all into the watermark.
TEST(SequenceLedgerTest, PermanentGapKeepsEveryLaterEntry) {
  constexpr std::uint64_t kGap = 10;
  constexpr std::uint64_t kCount = 10000;
  SequenceLedger ledger;
  for (std::uint64_t seq = 0; seq < kCount; ++seq) {
    if (seq != kGap) {
      ASSERT_TRUE(ledger.insert(7, seq));
    }
  }
  EXPECT_EQ(ledger.watermark(7), kGap);
  EXPECT_EQ(ledger.held(), kCount - kGap - 1);
  for (std::uint64_t seq = 0; seq < kCount; ++seq) {
    ASSERT_EQ(ledger.contains(7, seq), seq != kGap) << seq;
  }
  EXPECT_FALSE(ledger.insert(7, kCount - 1));  // a late replay is a repeat
  EXPECT_FALSE(ledger.contains(8, 0));         // streams are independent
  EXPECT_TRUE(ledger.insert(7, kGap));
  EXPECT_EQ(ledger.watermark(7), kCount);
  EXPECT_EQ(ledger.held(), 0U);
}

// ------------------------------------------------------ receiver journal

TEST(ReceiverJournalTest, WatermarkAdvancesThroughGaps) {
  MemoryJournalMedia media;
  ReceiverJournal journal(media, 9);
  ASSERT_TRUE(journal.recover().is_ok());
  ASSERT_TRUE(journal.record_delivered(1, 0).is_ok());
  ASSERT_TRUE(journal.record_delivered(1, 1).is_ok());
  ASSERT_TRUE(journal.record_delivered(1, 3).is_ok());  // out of order
  EXPECT_EQ(journal.watermark(1), 2U);
  EXPECT_TRUE(journal.seen(1, 3));
  EXPECT_FALSE(journal.seen(1, 2));
  ASSERT_TRUE(journal.record_delivered(1, 2).is_ok());
  EXPECT_EQ(journal.watermark(1), 4U);  // the gap closed, 3 was absorbed
}

TEST(ReceiverJournalTest, RestartPreservesTheLedger) {
  MemoryJournalMedia media;
  {
    ReceiverJournal journal(media, 9);
    ASSERT_TRUE(journal.recover().is_ok());
    for (std::uint64_t seq = 0; seq < 4; ++seq) {
      ASSERT_TRUE(journal.record_delivered(2, seq).is_ok());
    }
    ASSERT_TRUE(journal.record_delivered(2, 7).is_ok());
  }
  ReceiverJournal restarted(media, 9);
  ASSERT_TRUE(restarted.recover().is_ok());
  EXPECT_EQ(restarted.watermark(2), 4U);
  EXPECT_TRUE(restarted.seen(2, 7));   // out-of-order commits survive too
  EXPECT_FALSE(restarted.seen(2, 5));
  const auto points = restarted.watermarks();
  ASSERT_EQ(points.size(), 1U);
  EXPECT_EQ(points[0], std::make_pair(std::uint32_t{2}, std::uint64_t{4}));

  ReceiverJournal stranger(media, 10);
  EXPECT_EQ(stranger.recover().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------------ wire format

TEST(ResumeFrameTest, RoundTripsThroughTheDecoder) {
  const std::vector<ResumePoint> points = {{1, 17}, {2, 0}, {9, 1000}};
  const Message frame = Message::resume_frame(42, points);
  EXPECT_EQ(frame.kind, MessageKind::kResume);

  MessageDecoder decoder;
  decoder.feed(encode_message(frame));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().kind, MessageKind::kResume);
  auto info = parse_resume_body(
      ByteSpan(decoded.value().body.data(), decoded.value().body.size()));
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info.value().session_id, 42U);
  EXPECT_EQ(info.value().points, points);
}

TEST(ResumeFrameTest, EmptyPointListIsValid) {
  const Message frame = Message::resume_frame(7, {});
  auto info = parse_resume_body(ByteSpan(frame.body.data(), frame.body.size()));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().session_id, 7U);
  EXPECT_TRUE(info.value().points.empty());
}

TEST(ResumeFrameTest, ShortBodyRejected) {
  const Message frame = Message::resume_frame(42, {{1, 5}});
  // Shorter than the fixed prefix.
  EXPECT_FALSE(parse_resume_body(ByteSpan(frame.body.data(), 8)).ok());
  // Prefix intact but the claimed point count overruns the body.
  EXPECT_FALSE(
      parse_resume_body(ByteSpan(frame.body.data(), kResumeBodyPrefix + 4)).ok());
}

// ---------------------------------------------------------- config plumbing

TEST(ResumeConfigTest, AbsentDirectiveIsByteIdentical) {
  NodeConfig config = sender_config(2, 1);
  const std::string serialized = config.serialize();
  EXPECT_EQ(serialized.find("resume"), std::string::npos);
  auto parsed = NodeConfig::parse(serialized);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().resume.is_default());
  EXPECT_EQ(parsed.value().serialize(), serialized);
}

TEST(ResumeConfigTest, SerializeParseRoundTrip) {
  NodeConfig config = receiver_config(1, 1);
  config.recovery.reconnect = true;
  config.resume.session = 42;
  config.resume.ack_interval = 16;
  auto parsed = NodeConfig::parse(config.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().resume, config.resume);
  EXPECT_EQ(parsed.value().serialize(), config.serialize());
}

TEST(ResumeConfigTest, ValidateRequiresSessionAndReconnect) {
  const MachineTopology topo = host_topology();
  NodeConfig config = sender_config(1, 1);
  config.resume.session = 1;  // resume without reconnect: the resume point
  EXPECT_FALSE(config.validate(topo).is_ok());  // could never be reached
  config.recovery.reconnect = true;
  EXPECT_TRUE(config.validate(topo).is_ok());
  config.resume.session = 0;
  config.resume.ack_interval = 8;  // enabled without a session id
  EXPECT_FALSE(config.validate(topo).is_ok());
}

// -------------------------------------------------------------- end to end

constexpr std::uint64_t kSession = 42;
constexpr std::uint64_t kChunks = 240;
constexpr std::size_t kChunkBytes = 1024;

NodeConfig resumable_sender(int watchdog_ms = 0) {
  NodeConfig config = sender_config(2, 1);
  config.recovery.reconnect = true;
  config.recovery.retry.max_attempts = 10000;
  config.recovery.retry.initial_backoff_us = 200;
  config.recovery.retry.max_backoff_us = 2000;
  config.recovery.watchdog_ms = watchdog_ms;
  config.resume.session = kSession;
  config.resume.ack_interval = 8;
  config.overload.credit_window = 8;  // pace the sender near the receiver
  return config;
}

NodeConfig resumable_receiver(int watchdog_ms = 0) {
  NodeConfig config = receiver_config(1, 1);
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

void expect_exactly_once(
    const std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>&
        delivered) {
  ASSERT_EQ(delivered.size(), kChunks);
  for (std::uint64_t seq = 0; seq < kChunks; ++seq) {
    const auto it = delivered.find({1, seq});
    ASSERT_NE(it, delivered.end()) << "chunk " << seq << " lost";
    EXPECT_EQ(it->second, xxhash32(pattern_payload(seq, kChunkBytes)))
        << "chunk " << seq << " corrupted";
  }
}

// Kills the receiver mid-transfer (its process state — queued chunks and
// unflushed journal tail — is gone), restarts it over the recovered ledger,
// and requires the sender's retained-window replay to close the gap: every
// chunk delivered exactly once across both receiver incarnations.
TEST(ResumePipelineTest, ReceiverCrashRecoversExactlyOnce) {
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;

  // Phase 1: receiver #1 listens. Phase 0: blackout. Phase 2: receiver #2.
  std::atomic<int> phase{1};
  InprocListener listener1;
  InprocListener listener2;

  // The dial-side injector models the peer death: trigger_crash() fails the
  // sender's established connections and its crash hook drops the receiver
  // journal's unflushed tail at the same instant.
  FaultPlan plan;  // no stochastic faults; the crash is the only event
  FaultInjector injector(plan, &faults);
  injector.set_crash_hook([&] { receiver_media.crash(); });
  const DialFn dial = faulty_dialer(
      [&]() -> Result<std::unique_ptr<ByteStream>> {
        switch (phase.load(std::memory_order_acquire)) {
          case 1:
            return listener1.connect();
          case 2:
            return listener2.connect();
          default:
            return unavailable_error("receiver is down");
        }
      },
      injector);

  // The source stops at half the stream until the crash, so the crash
  // always lands mid-stream, never after the end-of-stream marker.
  GatedPatternSource source(1, kChunks, kChunkBytes, /*gate_at=*/kChunks / 2);
  VerifySink sink1;
  VerifySink sink2;

  SenderJournal sender_journal(sender_media, kSession, &counters);
  ASSERT_TRUE(sender_journal.recover().is_ok());

  Status sender_status = Status::ok();
  std::thread sender_thread([&] {
    StreamSender sender(topo, resumable_sender());
    auto stats = sender.run(source, dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &sender_journal,
                                        .counters = &counters});
    sender_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Receiver #1: a short watchdog converts the post-crash silence into a
  // clean exit, standing in for the process death.
  Status receiver1_status = Status::ok();
  std::thread receiver1_thread([&] {
    ReceiverJournal journal(receiver_media, kSession, &counters);
    const Status recovered = journal.recover();
    NS_CHECK(recovered.is_ok(), "fresh ledger must recover");
    StreamReceiver receiver(topo, resumable_receiver(/*watchdog_ms=*/300));
    auto stats = receiver.run(listener1, sink1, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal,
                                          .counters = &counters});
    receiver1_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Kill the receiver once roughly a third of the stream has committed.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sink1.count() < kChunks / 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool got_going = sink1.count() >= kChunks / 3;
  phase.store(0, std::memory_order_release);
  injector.trigger_crash(/*restart_delay_micros=*/100000);
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  source.release();
  receiver1_thread.join();  // the watchdog reaps the dead incarnation
  EXPECT_TRUE(got_going) << "transfer never got going";

  // Receiver #2: same ledger media, recovered — its RESUME handshake tells
  // the sender where to resume, and seen() dedups anything already sunk.
  ReceiverJournal journal2(receiver_media, kSession, &counters);
  ASSERT_TRUE(journal2.recover().is_ok());
  Status receiver2_status = Status::ok();
  std::thread receiver2_thread([&] {
    StreamReceiver receiver(topo, resumable_receiver());
    auto stats = receiver.run(listener2, sink2, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &journal2,
                                          .counters = &counters});
    receiver2_status = stats.ok() ? Status::ok() : stats.status();
  });
  phase.store(2, std::memory_order_release);

  sender_thread.join();
  receiver2_thread.join();
  EXPECT_TRUE(sender_status.is_ok()) << sender_status.to_string();
  EXPECT_TRUE(receiver2_status.is_ok()) << receiver2_status.to_string();

  // Exactly once across both incarnations: the union covers every chunk,
  // bit-exact, and neither sink ever saw a sequence twice.
  auto delivered = sink1.hashes();
  for (const auto& [key, hash] : sink2.hashes()) {
    const auto [it, fresh] = delivered.emplace(key, hash);
    (void)it;
    EXPECT_TRUE(fresh) << "chunk " << key.second
                       << " delivered by both receiver incarnations";
  }
  expect_exactly_once(delivered);
  EXPECT_EQ(sink1.duplicates(), 0U);
  EXPECT_EQ(sink2.duplicates(), 0U);

  const ResumeCountersSnapshot snapshot = counters.snapshot();
  EXPECT_GE(snapshot.resume_handshakes, 2U);  // initial + post-restart
  EXPECT_GT(snapshot.journal_records_written, 0U);
  // Re-work is bounded by the unacked window, never the whole stream.
  EXPECT_LT(snapshot.replayed_chunks, kChunks);
}

// Kills the sender mid-transfer and restarts it from a regenerating source
// over the recovered write-ahead journal: the receiver's RESUME watermark
// suppresses everything already committed, so the restart re-sends only the
// unacked window and the sink still sees every chunk exactly once.
TEST(ResumePipelineTest, SenderCrashRecoversExactlyOnce) {
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;

  InprocListener listener;
  VerifySink sink;

  // Receiver stays up the whole time: its worker returns to accept() when
  // incarnation #1's connection dies, and finishes on incarnation #2's EOS.
  ReceiverJournal receiver_journal(receiver_media, kSession, &counters);
  ASSERT_TRUE(receiver_journal.recover().is_ok());
  Status receiver_status = Status::ok();
  std::thread receiver_thread([&] {
    StreamReceiver receiver(topo, resumable_receiver());
    auto stats = receiver.run(listener, sink, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &receiver_journal,
                                          .counters = &counters});
    receiver_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Sender incarnation #1: dies (journal pending lost, connections cut,
  // redials refused) once a third of the stream has committed. Its source
  // stops at half the stream until the crash, so the crash always lands
  // mid-stream, never after the end-of-stream marker.
  FaultPlan plan;
  FaultInjector injector(plan, &faults);
  injector.set_crash_hook([&] { sender_media.crash(); });
  const DialFn dying_dial =
      faulty_dialer([&] { return listener.connect(); }, injector);

  GatedPatternSource source(1, kChunks, kChunkBytes, /*gate_at=*/kChunks / 2);
  Status sender1_status = Status::ok();
  std::thread sender1_thread([&] {
    SenderJournal journal(sender_media, kSession, &counters);
    const Status recovered = journal.recover();
    NS_CHECK(recovered.is_ok(), "fresh journal must recover");
    NodeConfig config = resumable_sender();
    config.recovery.retry.max_attempts = 3;  // die fast once crashed
    StreamSender sender(topo, std::move(config));
    auto stats = sender.run(source, dying_dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &journal,
                                        .counters = &counters});
    sender1_status = stats.ok() ? Status::ok() : stats.status();
  });

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sink.count() < kChunks / 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool got_going = sink.count() >= kChunks / 3;
  injector.trigger_crash(/*restart_delay_micros=*/3600000000ULL);  // no return
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  source.release();
  sender1_thread.join();
  ASSERT_TRUE(got_going) << "transfer never got going";
  EXPECT_FALSE(sender1_status.is_ok());  // it died mid-stream, no EOS

  // Sender incarnation #2: a fresh process recovers the journal and replays
  // the dataset from sequence zero — the watermark makes that cheap.
  SenderJournal journal2(sender_media, kSession, &counters);
  ASSERT_TRUE(journal2.recover().is_ok());
  PatternSource source2(1, kChunks, kChunkBytes);
  StreamSender sender2(topo, resumable_sender());
  auto stats2 = sender2.run(
      source2, [&] { return listener.connect(); }, nullptr, &faults, {}, {}, {},
      ResumeHooks{.sender_journal = &journal2, .counters = &counters});
  EXPECT_TRUE(stats2.ok()) << stats2.status().to_string();

  receiver_thread.join();
  EXPECT_TRUE(receiver_status.is_ok()) << receiver_status.to_string();

  expect_exactly_once(sink.hashes());
  EXPECT_EQ(sink.duplicates(), 0U);

  const ResumeCountersSnapshot snapshot = counters.snapshot();
  EXPECT_GE(snapshot.resume_handshakes, 2U);
  // The restart regenerated all kChunks but the watermark suppressed the
  // committed prefix — the whole point of resuming over restarting.
  EXPECT_GT(snapshot.duplicates_suppressed, 0U);
  EXPECT_LT(snapshot.replayed_chunks, kChunks);
}

// Stored chunks (null codec) travel as sealed frames, and the receiver
// checks each payload's seal on receipt, before admit() records the chunk
// as received. Seeded silent bit flips hit the gated first half of the
// stream; each flipped message ends its connection, and after the flips a
// link reset makes the sender redial once more. Each RESUME handshake
// replays the retained frames from the receiver's watermark: every chunk
// reaches the sink exactly once, and no flip reaches the frame decoder.
TEST(SealedPipelineTest, BitFlippedStoredChunksReplayExactlyOnce) {
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;
  InprocListener listener;
  VerifySink sink;

  ReceiverJournal receiver_journal(receiver_media, kSession, &counters);
  ASSERT_TRUE(receiver_journal.recover().is_ok());
  Status receiver_status = Status::ok();
  std::thread receiver_thread([&] {
    NodeConfig config = resumable_receiver();
    config.codec_name = "null";
    StreamReceiver receiver(topo, std::move(config));
    auto stats = receiver.run(listener, sink, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &receiver_journal,
                                          .counters = &counters});
    receiver_status = stats.ok() ? Status::ok() : stats.status();
  });

  constexpr std::uint64_t kFlips = 3;
  FaultPlan plan;
  plan.seed = 2511;
  plan.bitflip_per_write = 0.1;
  plan.max_faults = kFlips;
  FaultInjector injector(plan, &faults);
  const DialFn dial = faulty_dialer([&] { return listener.connect(); }, injector);

  SenderJournal sender_journal(sender_media, kSession, &counters);
  ASSERT_TRUE(sender_journal.recover().is_ok());
  GatedPatternSource source(1, kChunks, kChunkBytes, /*gate_at=*/kChunks / 2);
  Status sender_status = Status::ok();
  std::thread sender_thread([&] {
    NodeConfig config = resumable_sender();
    config.codec_name = "null";
    StreamSender sender(topo, std::move(config));
    auto stats = sender.run(source, dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &sender_journal,
                                        .counters = &counters});
    sender_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Every flip lands in the gated half (the seeded plan's first writes),
  // so the reset below follows all of them.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (faults.snapshot().injected_bitflips < kFlips &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool flipped = faults.snapshot().injected_bitflips == kFlips;
  injector.trigger_crash(/*restart_delay_micros=*/20000);  // a link reset
  source.release();
  sender_thread.join();
  receiver_thread.join();
  ASSERT_TRUE(flipped) << "the seeded flips did not land in the gated half";
  EXPECT_TRUE(sender_status.is_ok()) << sender_status.to_string();
  EXPECT_TRUE(receiver_status.is_ok()) << receiver_status.to_string();

  expect_exactly_once(sink.hashes());
  EXPECT_EQ(sink.duplicates(), 0U);
  const FaultCountersSnapshot snapshot = faults.snapshot();
  EXPECT_GE(snapshot.connections_recycled, 1U);  // the flips were caught on receipt
  EXPECT_EQ(snapshot.corrupt_frames, 0U);        // none reached the decompress stage
  EXPECT_GE(counters.snapshot().replayed_chunks, 1U);
}

// The credit wedge: seeded silent bit flips at half of all writes against a
// credit window of 8, with resume on. A flipped message costs its
// connection, and the re-dialed connection opens with a fresh window, so
// no corruption strands credit: the sender never parks for a grant that
// cannot come, and each RESUME handshake replays what its cut lost. The
// watchdogs turn a wedge into a failed run instead of a hang. The NSM1
// header's stream id, sequence and body size are under no checksum, so a
// flip there would misdeliver or stall; this seed's flips miss them.
TEST(CreditWedgeTest, BitFlipsUnderCreditsDeliverExactlyOnce) {
  constexpr int kWatchdogMs = 5000;
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;
  InprocListener listener;
  VerifySink sink;

  ReceiverJournal receiver_journal(receiver_media, kSession, &counters);
  ASSERT_TRUE(receiver_journal.recover().is_ok());
  Status receiver_status = Status::ok();
  std::thread receiver_thread([&] {
    StreamReceiver receiver(topo, resumable_receiver(kWatchdogMs));
    auto stats = receiver.run(listener, sink, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &receiver_journal,
                                          .counters = &counters});
    receiver_status = stats.ok() ? Status::ok() : stats.status();
  });

  FaultPlan plan;
  plan.seed = 2511;
  plan.bitflip_per_write = 0.5;
  plan.max_faults = 16;
  FaultInjector injector(plan, &faults);
  const DialFn dial = faulty_dialer([&] { return listener.connect(); }, injector);

  SenderJournal sender_journal(sender_media, kSession, &counters);
  ASSERT_TRUE(sender_journal.recover().is_ok());
  PatternSource source(1, kChunks, kChunkBytes);
  Status sender_status = Status::ok();
  std::thread sender_thread([&] {
    StreamSender sender(topo, resumable_sender(kWatchdogMs));
    auto stats = sender.run(source, dial, nullptr, &faults, {}, {}, {},
                            ResumeHooks{.sender_journal = &sender_journal,
                                        .counters = &counters});
    sender_status = stats.ok() ? Status::ok() : stats.status();
  });
  sender_thread.join();
  receiver_thread.join();
  EXPECT_TRUE(sender_status.is_ok()) << sender_status.to_string();
  EXPECT_TRUE(receiver_status.is_ok()) << receiver_status.to_string();

  expect_exactly_once(sink.hashes());
  EXPECT_EQ(sink.duplicates(), 0U);
  const FaultCountersSnapshot snapshot = faults.snapshot();
  EXPECT_EQ(snapshot.injected_bitflips, plan.max_faults);
  EXPECT_GE(snapshot.connections_recycled, 1U);  // each flip cut its connection
  EXPECT_EQ(snapshot.corrupt_frames, 0U);        // none reached the decompress stage
}

// A corrupt message on the reverse channel ends its connection, not the
// sender's run. The receiver's side of each connection flips one bit in
// one write after a 64-byte fault-free prefix: this seed's flip lands in a
// checked field of a credit grant, so the sender's recv_control reports
// DATA_LOSS. In reconnect mode the sender redials, the RESUME handshake
// replays what the cut lost, and every chunk arrives exactly once.
TEST(ReverseChannelTest, CorruptCreditGrantRedialsInsteadOfFailingTheRun) {
  constexpr std::uint64_t kCount = 50;
  constexpr int kWatchdogMs = 5000;
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;
  InprocListener inner;
  VerifySink sink;

  FaultPlan plan;
  plan.seed = 2;
  plan.bitflip_per_write = 1.0;
  plan.fault_free_prefix_bytes = 64;
  plan.max_faults = 1;
  FaultInjector injector(plan, &faults);
  FaultyListener listener(inner, injector);

  NodeConfig receiver_config = resumable_receiver(kWatchdogMs);
  receiver_config.overload.credit_window = 4;
  ReceiverJournal receiver_journal(receiver_media, kSession, &counters);
  ASSERT_TRUE(receiver_journal.recover().is_ok());
  Status receiver_status = Status::ok();
  std::thread receiver_thread([&] {
    StreamReceiver receiver(topo, receiver_config);
    auto stats = receiver.run(listener, sink, nullptr, &faults, {}, {}, {},
                              ResumeHooks{.receiver_journal = &receiver_journal,
                                          .counters = &counters});
    receiver_status = stats.ok() ? Status::ok() : stats.status();
  });

  NodeConfig sender_config = resumable_sender(kWatchdogMs);
  sender_config.overload.credit_window = 4;
  SenderJournal sender_journal(sender_media, kSession, &counters);
  ASSERT_TRUE(sender_journal.recover().is_ok());
  PatternSource source(1, kCount, kChunkBytes);
  StreamSender sender(topo, sender_config);
  auto stats = sender.run(source, [&] { return inner.connect(); }, nullptr, &faults, {}, {},
                          {},
                          ResumeHooks{.sender_journal = &sender_journal,
                                      .counters = &counters});
  receiver_thread.join();
  EXPECT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_TRUE(receiver_status.is_ok()) << receiver_status.to_string();

  const auto delivered = sink.hashes();
  EXPECT_EQ(delivered.size(), kCount);
  for (std::uint64_t seq = 0; seq < kCount; ++seq) {
    const auto it = delivered.find({1, seq});
    ASSERT_NE(it, delivered.end()) << "chunk " << seq << " lost";
    EXPECT_EQ(it->second, xxhash32(pattern_payload(seq, kChunkBytes))) << "chunk " << seq;
  }
  EXPECT_EQ(sink.duplicates(), 0U);
  const FaultCountersSnapshot snapshot = faults.snapshot();
  EXPECT_EQ(snapshot.injected_bitflips, 1U);
  EXPECT_GE(snapshot.reconnects, 1U);  // the flip cost the sender its connection
}

// Chaos composition: crash-restart x credit flow control x memory budget x
// graceful drain, all in one run. The operator requests a drain and the
// sender crashes mid-flush; the restarted incarnation (same journal, same
// shared budget, no drain) completes the stream. The invariants that must
// survive the composition: the shared budget ledger settles to zero after
// each incarnation (every charge released exactly once, even for frames
// abandoned by the crash), the budget cap is never pierced, and the sink
// still sees every chunk exactly once.
TEST(ChaosResumeTest, MidDrainSenderCrashSettlesBudgetExactlyOnce) {
  const MachineTopology topo = host_topology();
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  ResumeCounters counters;
  FaultCounters faults;
  OverloadCounters ocounters;
  MemoryBudget budget(16 * 1024);  // shared across both sender incarnations
  DrainController drain;           // latched mid-transfer, before the crash

  InprocListener listener;
  VerifySink sink;

  ReceiverJournal receiver_journal(receiver_media, kSession, &counters);
  ASSERT_TRUE(receiver_journal.recover().is_ok());
  Status receiver_status = Status::ok();
  std::thread receiver_thread([&] {
    StreamReceiver receiver(topo, resumable_receiver());
    auto stats = receiver.run(listener, sink, nullptr, &faults,
                              OverloadHooks{.counters = &ocounters}, {}, {},
                              ResumeHooks{.receiver_journal = &receiver_journal,
                                          .counters = &counters});
    receiver_status = stats.ok() ? Status::ok() : stats.status();
  });

  FaultPlan plan;
  FaultInjector injector(plan, &faults);
  injector.set_crash_hook([&] { sender_media.crash(); });
  const DialFn dying_dial =
      faulty_dialer([&] { return listener.connect(); }, injector);

  // Incarnation #1: budget-gated admission, credit-paced sends, and a
  // bounded drain deadline so the forced teardown cannot hang the test.
  // The gated source parks ingest halfway so the drain/crash pair below
  // lands at a deterministic point instead of racing the chunk flow.
  GatedPatternSource source(1, kChunks, kChunkBytes, /*gate_at=*/kChunks / 2);
  Status sender1_status = Status::ok();
  std::thread sender1_thread([&] {
    SenderJournal journal(sender_media, kSession, &counters);
    const Status recovered = journal.recover();
    NS_CHECK(recovered.is_ok(), "fresh journal must recover");
    NodeConfig config = resumable_sender();
    config.recovery.retry.max_attempts = 3;  // die fast once crashed
    config.chunk_bytes = kChunkBytes;  // admission sanity check vs the cap
    config.overload.budget_bytes = budget.cap();
    config.overload.drain_deadline_ms = 200;
    StreamSender sender(topo, std::move(config));
    auto stats = sender.run(
        source, dying_dial, nullptr, &faults,
        OverloadHooks{.budget = &budget, .counters = &ocounters,
                      .drain = &drain},
        {}, {},
        ResumeHooks{.sender_journal = &journal, .counters = &counters});
    sender1_status = stats.ok() ? Status::ok() : stats.status();
  });

  // Let the gated half of the stream flush completely: once the sink holds
  // every chunk the gate released, the compressors are parked inside
  // next() and nothing is racing the fault staging below.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (sink.count() < kChunks / 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(sink.count(), kChunks / 2) << "transfer never got going";
  // Mid-drain crash, made deterministic: latch the drain and cut the wire
  // *before* reopening the source. Each woken compressor finishes at most
  // one more ingest iteration, observes the latch at the top of the next
  // (counted once via note_drain_request), and the flush of whatever it
  // queued dies on the crashed connection — ingest stopped, flush started,
  // process dead while frames are still in flight.
  drain.request();
  injector.trigger_crash(/*restart_delay_micros=*/3600000000ULL);  // no return
  counters.crashes_observed.fetch_add(1, std::memory_order_relaxed);
  source.release();
  sender1_thread.join();
  EXPECT_FALSE(sender1_status.is_ok());  // drain cut short by the crash

  // Exactly-once budget settle, first checkpoint: the dead incarnation's
  // abandoned frames were released on teardown, not leaked.
  EXPECT_EQ(budget.used(), 0U);

  // Incarnation #2: same journal, same shared ledger, no drain latch — it
  // finishes the stream under the receiver's committed-prefix suppression.
  SenderJournal journal2(sender_media, kSession, &counters);
  ASSERT_TRUE(journal2.recover().is_ok());
  PatternSource source2(1, kChunks, kChunkBytes);
  NodeConfig config2 = resumable_sender();
  config2.chunk_bytes = kChunkBytes;
  config2.overload.budget_bytes = budget.cap();
  StreamSender sender2(topo, std::move(config2));
  auto stats2 = sender2.run(
      source2, [&] { return listener.connect(); }, nullptr, &faults,
      OverloadHooks{.budget = &budget, .counters = &ocounters}, {}, {},
      ResumeHooks{.sender_journal = &journal2, .counters = &counters});
  EXPECT_TRUE(stats2.ok()) << stats2.status().to_string();

  receiver_thread.join();
  EXPECT_TRUE(receiver_status.is_ok()) << receiver_status.to_string();

  // The composed invariants: exactly-once delivery, a settled ledger, and
  // a cap that held through crash, replay, and drain.
  expect_exactly_once(sink.hashes());
  EXPECT_EQ(sink.duplicates(), 0U);
  EXPECT_EQ(budget.used(), 0U);
  EXPECT_GT(budget.peak(), 0U);
  EXPECT_LE(budget.peak(), budget.cap());

  const OverloadCountersSnapshot overload = ocounters.snapshot();
  EXPECT_GE(overload.drain_requests, 1U);
  const ResumeCountersSnapshot snapshot = counters.snapshot();
  EXPECT_GE(snapshot.resume_handshakes, 2U);
  EXPECT_LT(snapshot.replayed_chunks, kChunks);
}

// ------------------------------------------------------------- simulation

using simrt::ExperimentOptions;
using simrt::ExperimentResult;
using simrt::run_plan;

Result<ExperimentResult> run_sim_crash(const ExperimentOptions& options) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec workload;
  workload.num_streams = 1;
  auto plan = generator.generate(workload, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation must succeed");
  return run_plan(senders, lynx, plan.value(), options);
}

TEST(SimResumeTest, CrashScheduleRequiresResume) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.crashes = {{.stream = 0, .sender = false, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim_crash(options).ok());  // crashes without the journal

  options.resume = true;
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    options.crashes = {{.stream = 0, .sender = false, .at_seconds = bad}};
    EXPECT_EQ(run_sim_crash(options).status().code(),
              StatusCode::kInvalidArgument);
    options.crashes = {{.stream = 0, .sender = false, .at_seconds = 0.001,
                        .restart_seconds = bad}};
    EXPECT_EQ(run_sim_crash(options).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(SimResumeTest, SeededCrashesAreBitIdenticalAndReworkBounded) {
  // Probe the crash-free duration so the schedule lands mid-transfer.
  ExperimentOptions options;
  options.chunks_per_stream = 120;
  options.resume = true;
  auto probe = run_sim_crash(options);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const double elapsed = probe.value().elapsed_seconds;
  ASSERT_GT(elapsed, 0);
  // Resume on, no crashes: the journal mirror runs but costs nothing.
  EXPECT_EQ(probe.value().resume.crashes_observed, 0U);
  EXPECT_GT(probe.value().resume.journal_records_written, 0U);
  EXPECT_EQ(probe.value().streams[0].chunks, 120U);

  options.crashes = {
      {.stream = 0, .sender = false, .at_seconds = elapsed / 3,
       .restart_seconds = elapsed / 10},
      {.stream = 0, .sender = true, .at_seconds = 2 * elapsed / 3,
       .restart_seconds = elapsed / 20},
  };
  auto first = run_sim_crash(options);
  auto second = run_sim_crash(options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  // The fingerprint: two same-schedule recovery runs agree bit for bit.
  EXPECT_TRUE(first.value().resume == second.value().resume)
      << first.value().resume.to_string() << " vs "
      << second.value().resume.to_string();
  EXPECT_EQ(first.value().rework_restart_from_zero_bytes,
            second.value().rework_restart_from_zero_bytes);

  const ResumeCountersSnapshot& resume = first.value().resume;
  EXPECT_EQ(resume.crashes_observed, 2U);
  EXPECT_EQ(resume.resume_handshakes, 2U);
  EXPECT_GT(resume.recovery_wall_ms, 0U);
  // Zero loss despite two mid-transfer kills.
  EXPECT_EQ(first.value().streams[0].chunks, 120U);
  // The journal's whole value: re-work stays bounded by the unacked window,
  // strictly under what restart-from-zero would have re-sent.
  EXPECT_LT(static_cast<double>(resume.rework_bytes),
            first.value().rework_restart_from_zero_bytes);
  // The observation mirror carries the same ledger for the advisor.
  EXPECT_EQ(first.value().observation.resume.replayed_chunks,
            resume.replayed_chunks);
}

}  // namespace
}  // namespace numastream
