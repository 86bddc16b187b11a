// Anti-entropy scrubbing tests (DESIGN.md §14): the SCRUB wire frame, the
// `scrub` config directive, the budgeted journal scrubber with sticky
// quarantine counters, per-range digests, digest-compare-and-repair in both
// directions with epoch fencing and receiving-side verification, the
// parent-directory fsync on journal creation, seeded rot/stale fault
// injection on both journal media, the mid-flush divergence that anti-
// entropy converges, a scrub thread racing live appends (TSan coverage),
// and the simulated cluster's seeded rot-repair-failover arc with its
// bit-identical scrub-ledger fingerprint.
//
// Everything here is deterministic: rot placement, scrub cadence, kills and
// digest rounds are driven by fixed seeds and virtual time, so a failing
// run replays bit-identically.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/antientropy.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "codec/xxhash.h"
#include "common/assert.h"
#include "core/config.h"
#include "core/config_generator.h"
#include "core/journal.h"
#include "core/scrub.h"
#include "metrics/scrub_counters.h"
#include "msg/message.h"
#include "simrt/driver.h"
#include "topo/discover.h"
#include "topo/topology.h"

namespace numastream {
namespace {

using cluster::AntiEntropyScrubber;
using cluster::InprocReplicationLink;
using cluster::InprocScrubLink;
using cluster::PrimaryReplicator;
using cluster::ReplicatedJournalMedia;
using cluster::ScrubServer;
using cluster::ScrubTransport;
using cluster::StandbySession;
using cluster::journal_range_digests;

constexpr std::uint64_t kSession = 77;

JournalRecord sent_record(std::uint32_t stream, std::uint64_t sequence) {
  JournalRecord record;
  record.type = JournalRecordType::kSent;
  record.stream_id = stream;
  record.sequence = sequence;
  record.offset = sequence * 4096;
  record.body_hash = static_cast<std::uint32_t>(sequence * 2654435761U + 3);
  record.body_size = 4096;
  return record;
}

/// `count` valid records for stream 1, sequences [first, first + count).
Bytes journal_image(std::uint64_t count, std::uint64_t first = 0) {
  Bytes image;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Bytes encoded = encode_journal_record(sent_record(1, first + i));
    image.insert(image.end(), encoded.begin(), encoded.end());
  }
  return image;
}

void fill_media(JournalMedia& media, const Bytes& image) {
  ASSERT_TRUE(media.append(ByteSpan(image.data(), image.size())).is_ok());
  ASSERT_TRUE(media.flush().is_ok());
}

/// Flips one bit of record `index` in `media` (deterministically, without
/// the seeded helper, so tests can target an exact record).
void corrupt_record(MemoryJournalMedia& media, std::uint64_t index) {
  auto data = media.read_all();
  ASSERT_TRUE(data.ok());
  Bytes image = std::move(data).value();
  image[index * kJournalRecordSize + 9] ^= 0x40;  // inside the sequence field
  ASSERT_TRUE(
      media.write_at(0, ByteSpan(image.data(), image.size())).is_ok());
}

// ----------------------------------------------------------- SCRUB frames

TEST(ScrubFrameTest, DigestReplyRoundTripsThroughTheDecoder) {
  ScrubInfo info;
  info.kind = ScrubKind::kDigestReply;
  info.session_id = kSession;
  info.epoch = 5;
  info.range = 2;
  info.range_records = 16;
  info.digests = {{0, 16, 0xDEADBEEF}, {1, 16, 0x12345678}, {2, 4, 0x9}};
  const Message frame = Message::scrub_frame(info, /*scrub_sequence=*/11);
  const Bytes wire = encode_message(frame);

  MessageDecoder decoder;
  decoder.feed(ByteSpan(wire.data(), wire.size()));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_TRUE(decoded.value().scrub);
  EXPECT_FALSE(decoded.value().repl);
  EXPECT_FALSE(decoded.value().credit);
  EXPECT_EQ(decoded.value().sequence, 11U);

  auto parsed = parse_scrub_body(
      ByteSpan(decoded.value().body.data(), decoded.value().body.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, ScrubKind::kDigestReply);
  EXPECT_EQ(parsed.value().session_id, kSession);
  EXPECT_EQ(parsed.value().epoch, 5U);
  EXPECT_EQ(parsed.value().range, 2U);
  EXPECT_EQ(parsed.value().range_records, 16U);
  EXPECT_EQ(parsed.value().digests, info.digests);
  EXPECT_TRUE(parsed.value().records.empty());
}

TEST(ScrubFrameTest, RepairFramesCarryWholeJournalRecords) {
  const Bytes records = journal_image(3);
  for (const ScrubKind kind :
       {ScrubKind::kRepairPush, ScrubKind::kRepairReply}) {
    ScrubInfo info;
    info.kind = kind;
    info.session_id = kSession;
    info.epoch = 1;
    info.range = 7;
    info.range_records = 4;
    info.records = records;
    const Message frame = Message::scrub_frame(info, 3);
    auto parsed =
        parse_scrub_body(ByteSpan(frame.body.data(), frame.body.size()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().kind, kind);
    EXPECT_EQ(parsed.value().records, records);
    EXPECT_TRUE(parsed.value().digests.empty());
  }
  // The request kinds round-trip payload-free.
  for (const ScrubKind kind :
       {ScrubKind::kDigestRequest, ScrubKind::kRepairPull}) {
    ScrubInfo info;
    info.kind = kind;
    info.session_id = kSession;
    info.range_records = 4;
    const Message frame = Message::scrub_frame(info, 4);
    auto parsed =
        parse_scrub_body(ByteSpan(frame.body.data(), frame.body.size()));
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().kind, kind);
    EXPECT_TRUE(parsed.value().records.empty());
    EXPECT_TRUE(parsed.value().digests.empty());
  }
}

TEST(ScrubFrameTest, MalformedBodiesAreRejected) {
  ScrubInfo info;
  info.kind = ScrubKind::kDigestReply;
  info.session_id = kSession;
  info.range_records = 8;
  info.digests = {{0, 8, 1}, {1, 8, 2}};
  const Message frame = Message::scrub_frame(info, 1);

  // Truncated: the declared digest count no longer fits.
  Bytes truncated = frame.body;
  truncated.pop_back();
  EXPECT_FALSE(
      parse_scrub_body(ByteSpan(truncated.data(), truncated.size())).ok());

  // Unknown kinds on either side of the valid range.
  for (const std::uint8_t kind : {std::uint8_t{0}, std::uint8_t{6}}) {
    Bytes bad_kind = frame.body;
    bad_kind[0] = kind;
    EXPECT_FALSE(
        parse_scrub_body(ByteSpan(bad_kind.data(), bad_kind.size())).ok());
  }

  // Count lies high: declared entries exceed the body.
  Bytes high_count = frame.body;
  high_count[32] = 5;
  EXPECT_FALSE(
      parse_scrub_body(ByteSpan(high_count.data(), high_count.size())).ok());

  // Payload dangling off a request kind.
  ScrubInfo request;
  request.kind = ScrubKind::kDigestRequest;
  request.session_id = kSession;
  request.range_records = 8;
  Bytes padded = Message::scrub_frame(request, 1).body;
  padded.insert(padded.end(), frame.body.begin() + 36, frame.body.end());
  EXPECT_FALSE(parse_scrub_body(ByteSpan(padded.data(), padded.size())).ok());

  // Too short to even carry the prefix.
  Bytes stub(frame.body.begin(), frame.body.begin() + kScrubBodyPrefix / 2);
  EXPECT_FALSE(parse_scrub_body(ByteSpan(stub.data(), stub.size())).ok());
}

TEST(ScrubFrameTest, DecoderRejectsConflictingAndShortFrames) {
  ScrubInfo info;
  info.kind = ScrubKind::kDigestRequest;
  info.session_id = kSession;
  info.range_records = 8;
  Bytes wire = encode_message(Message::scrub_frame(info, 1));

  // SCRUB combined with CREDIT is contradictory; the header carries no
  // checksum, so the decoder must catch it structurally.
  Bytes conflicted = wire;
  conflicted[16] |= 0x02;  // flags u16 LE at offset 16: add kMessageFlagCredit
  MessageDecoder decoder;
  decoder.feed(ByteSpan(conflicted.data(), conflicted.size()));
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);

  // A scrub frame whose body cannot even hold the fixed prefix.
  Bytes short_body(10, 0xAB);
  Bytes stub;
  // Reserving up front keeps GCC 12 at -O3 from a false stringop-overflow
  // error on the body insert below.
  stub.reserve(64);
  ByteWriter header(stub);
  header.u32(kMessageMagic);
  header.u32(1);                 // stream id
  header.u64(1);                 // sequence
  header.u16(kMessageFlagScrub);
  header.u16(0);                 // reserved
  header.u64(short_body.size());
  header.u32(xxhash32(ByteSpan(short_body.data(), short_body.size())));
  stub.insert(stub.end(), short_body.begin(), short_body.end());
  MessageDecoder strict;
  strict.feed(ByteSpan(stub.data(), stub.size()));
  EXPECT_EQ(strict.next().status().code(), StatusCode::kDataLoss);
}

// ----------------------------------------------------------- scrub config

NodeConfig scrubbed_receiver_config() {
  NodeConfig config;
  config.node_name = "stest-receiver";
  config.role = NodeRole::kReceiver;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };
  config.recovery.reconnect = true;
  config.resume.session = kSession;
  config.scrub.cadence_ms = 250;
  return config;
}

TEST(ScrubConfigTest, AbsentDirectiveIsByteIdentical) {
  NodeConfig config = scrubbed_receiver_config();
  config.scrub = ScrubConfig{};
  const std::string text = config.serialize();
  EXPECT_EQ(text.find("scrub"), std::string::npos)
      << "default scrub config must not serialize a directive";
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_TRUE(parsed.value().scrub.is_default());
  EXPECT_FALSE(parsed.value().scrub.enabled());
  EXPECT_EQ(parsed.value().serialize(), text);
}

TEST(ScrubConfigTest, SerializeParseRoundTrip) {
  NodeConfig config = scrubbed_receiver_config();
  config.scrub.cadence_ms = 500;
  config.scrub.range_records = 32;
  config.scrub.budget_records = 1024;
  config.scrub.repair_concurrency = 2;
  const std::string text = config.serialize();
  EXPECT_NE(text.find("scrub cadence_ms=500"), std::string::npos);
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().scrub, config.scrub);
  EXPECT_EQ(parsed.value().serialize(), text);
}

TEST(ScrubConfigTest, DuplicateDirectiveIsAParseError) {
  NodeConfig config = scrubbed_receiver_config();
  std::string text = config.serialize();
  text += "scrub cadence_ms=100\n";
  auto parsed = NodeConfig::parse(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().to_string().find("duplicate 'scrub'"),
            std::string::npos)
      << parsed.status().to_string();
}

TEST(ScrubConfigTest, ValidationBoundaries) {
  auto topo = discover_topology();
  ASSERT_TRUE(topo.ok()) << "scrub config tests need a discoverable host";

  NodeConfig ok = scrubbed_receiver_config();
  EXPECT_TRUE(ok.validate(topo.value()).is_ok())
      << ok.validate(topo.value()).to_string();

  NodeConfig no_ranges = scrubbed_receiver_config();
  no_ranges.scrub.range_records = 0;
  EXPECT_FALSE(no_ranges.validate(topo.value()).is_ok());

  NodeConfig no_budget = scrubbed_receiver_config();
  no_budget.scrub.budget_records = 0;
  EXPECT_FALSE(no_budget.validate(topo.value()).is_ok());

  NodeConfig no_repair = scrubbed_receiver_config();
  no_repair.scrub.repair_concurrency = 0;
  EXPECT_FALSE(no_repair.validate(topo.value()).is_ok());

  // Scrubbing without a resume journal has nothing to re-verify.
  NodeConfig no_resume = scrubbed_receiver_config();
  no_resume.resume = ResumeConfig{};
  EXPECT_FALSE(no_resume.validate(topo.value()).is_ok());
}

// -------------------------------------------------------- journal scrubber

ScrubConfig small_scrub_config() {
  ScrubConfig config;
  config.cadence_ms = 100;
  config.range_records = 8;
  config.budget_records = 16;
  config.repair_concurrency = 4;
  return config;
}

TEST(JournalScrubberTest, CleanJournalScansWithoutQuarantine) {
  MemoryJournalMedia media;
  fill_media(media, journal_image(64));
  ScrubCounters counters;
  JournalScrubber scrubber(media, small_scrub_config(), &counters);
  // 64 records / 16 per tick = 4 ticks to one full pass.
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(scrubber.tick().is_ok());
  }
  const ScrubCountersSnapshot snap = counters.snapshot();
  EXPECT_EQ(snap.records_scanned, 64U);
  EXPECT_EQ(snap.scrub_passes, 1U);
  EXPECT_EQ(snap.corrupt_records_found, 0U);
  EXPECT_TRUE(scrubber.quarantined_ranges().empty());
}

TEST(JournalScrubberTest, RotQuarantinesTheRangeWithoutTruncating) {
  MemoryJournalMedia media;
  fill_media(media, journal_image(64));
  corrupt_record(media, 19);  // range 2 with 8-record ranges
  ScrubCounters counters;
  JournalScrubber scrubber(media, small_scrub_config(), &counters);
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(scrubber.tick().is_ok());
  }
  const ScrubCountersSnapshot snap = counters.snapshot();
  // Mid-journal rot is NOT a torn tail: the scrubber steps over the damage
  // and still verifies all 64 records, unlike the recovery scan's
  // truncate-at-first-failure rule.
  EXPECT_EQ(snap.records_scanned, 64U);
  EXPECT_EQ(snap.corrupt_records_found, 1U);
  EXPECT_EQ(snap.ranges_quarantined, 1U);
  EXPECT_TRUE(scrubber.range_quarantined(2));
  EXPECT_EQ(scrubber.quarantined_ranges(), std::vector<std::uint64_t>{2});
  // Quarantine is sticky counters, never sticky DATA_LOSS: the media still
  // serves reads and appends.
  EXPECT_TRUE(media.read_all().ok());
  const Bytes more = journal_image(1, 64);
  EXPECT_TRUE(media.append(ByteSpan(more.data(), more.size())).is_ok());
  EXPECT_TRUE(media.flush().is_ok());
}

TEST(JournalScrubberTest, ReverifyLiftsQuarantineAfterRepair) {
  const Bytes image = journal_image(64);
  MemoryJournalMedia media;
  fill_media(media, image);
  corrupt_record(media, 19);
  ScrubCounters counters;
  JournalScrubber scrubber(media, small_scrub_config(), &counters);
  for (int tick = 0; tick < 4; ++tick) {
    ASSERT_TRUE(scrubber.tick().is_ok());
  }
  ASSERT_TRUE(scrubber.range_quarantined(2));

  // Reverify without a repair must keep the quarantine.
  EXPECT_FALSE(scrubber.reverify(2));
  EXPECT_TRUE(scrubber.range_quarantined(2));

  // Overwrite the damaged range with clean bytes (what a repair pull does),
  // then reverify: the quarantine lifts and the repair is counted.
  ASSERT_TRUE(media
                  .write_at(2 * 8 * kJournalRecordSize,
                            ByteSpan(image.data() + 2 * 8 * kJournalRecordSize,
                                     8 * kJournalRecordSize))
                  .is_ok());
  EXPECT_TRUE(scrubber.reverify(2));
  EXPECT_FALSE(scrubber.range_quarantined(2));
  EXPECT_EQ(counters.snapshot().ranges_repaired, 1U);
}

TEST(JournalScrubberTest, TornTailIsRecoverysBusinessNotRot) {
  MemoryJournalMedia media;
  Bytes image = journal_image(16);
  image.resize(image.size() + kJournalRecordSize / 2, 0xFF);  // torn tail
  fill_media(media, image);
  ScrubCounters counters;
  JournalScrubber scrubber(media, small_scrub_config(), &counters);
  ASSERT_TRUE(scrubber.tick().is_ok());
  EXPECT_EQ(counters.snapshot().records_scanned, 16U);
  EXPECT_EQ(counters.snapshot().corrupt_records_found, 0U);
  EXPECT_TRUE(scrubber.quarantined_ranges().empty());
}

TEST(JournalScrubberTest, ShrunkenJournalRestartsThePass) {
  MemoryJournalMedia media;
  fill_media(media, journal_image(64));
  ScrubCounters counters;
  JournalScrubber scrubber(media, small_scrub_config(), &counters);
  ASSERT_TRUE(scrubber.tick().is_ok());
  ASSERT_TRUE(scrubber.tick().is_ok());
  EXPECT_EQ(scrubber.cursor_record(), 32U);
  // A stale-replica drop shrinks the journal under the cursor.
  media.drop_durable_tail(40 * kJournalRecordSize);
  ASSERT_TRUE(scrubber.tick().is_ok());
  EXPECT_LE(scrubber.cursor_record(), 24U);
}

// ----------------------------------------------------------- range digests

TEST(RangeDigestTest, RangesCoverTheJournalWithAPartialTail) {
  const Bytes image = journal_image(20);
  const auto digests =
      journal_range_digests(ByteSpan(image.data(), image.size()), 8);
  ASSERT_EQ(digests.size(), 3U);  // 8 + 8 + 4
  EXPECT_EQ(digests[0].records, 8U);
  EXPECT_EQ(digests[1].records, 8U);
  EXPECT_EQ(digests[2].records, 4U);
  for (std::uint64_t range = 0; range < 3; ++range) {
    EXPECT_EQ(digests[range].range, range);
  }
  // Identical images agree digest for digest; one flipped bit disagrees in
  // exactly the enclosing range.
  Bytes rotted = image;
  rotted[12 * kJournalRecordSize + 5] ^= 0x01;  // record 12: range 1
  const auto dirty =
      journal_range_digests(ByteSpan(rotted.data(), rotted.size()), 8);
  EXPECT_EQ(dirty[0].digest, digests[0].digest);
  EXPECT_NE(dirty[1].digest, digests[1].digest);
  EXPECT_EQ(dirty[2].digest, digests[2].digest);
}

TEST(RangeDigestTest, TornTrailingRecordIsExcluded) {
  Bytes image = journal_image(8);
  const auto whole =
      journal_range_digests(ByteSpan(image.data(), image.size()), 4);
  image.resize(image.size() + 10, 0xEE);  // torn partial record
  const auto torn =
      journal_range_digests(ByteSpan(image.data(), image.size()), 4);
  ASSERT_EQ(whole.size(), torn.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].digest, torn[i].digest);
  }
}

// ------------------------------------------------------------ anti-entropy

ScrubConfig antientropy_config() {
  ScrubConfig config;
  config.cadence_ms = 100;
  config.range_records = 4;
  config.budget_records = 64;
  config.repair_concurrency = 16;
  return config;
}

TEST(AntiEntropyTest, PushRepairsARottedReplica) {
  const Bytes image = journal_image(32);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  ASSERT_GT(replica.rot(/*seed=*/9, 0, image.size(), /*flips=*/3), 0);

  ScrubCounters primary_counters;
  ScrubCounters replica_counters;
  ScrubServer server(replica, kSession, 4, &replica_counters);
  InprocScrubLink link(server);
  AntiEntropyScrubber scrubber(primary, link, kSession, antientropy_config(),
                               /*epoch=*/1, &primary_counters);
  ASSERT_TRUE(scrubber.run_round().is_ok());

  auto repaired = replica.read_all();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), image) << "replica must match the primary again";
  const ScrubCountersSnapshot snap = primary_counters.snapshot();
  EXPECT_EQ(snap.digest_rounds, 1U);
  EXPECT_EQ(snap.ranges_compared, 8U);
  EXPECT_GT(snap.ranges_diverged, 0U);
  EXPECT_GT(snap.records_pushed, 0U);
  EXPECT_EQ(snap.records_pulled, 0U);
  EXPECT_EQ(snap.ranges_unrepairable, 0U);
}

TEST(AntiEntropyTest, PullRepairsRottedLocalAndLiftsQuarantine) {
  const Bytes image = journal_image(32);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  ASSERT_GT(primary.rot(/*seed=*/11, 0, image.size(), /*flips=*/2), 0);

  const ScrubConfig config = antientropy_config();
  ScrubCounters counters;
  JournalScrubber local_scrubber(primary, config, &counters);
  for (int tick = 0; tick < 1; ++tick) {
    ASSERT_TRUE(local_scrubber.tick().is_ok());  // budget covers all 32
  }
  ASSERT_FALSE(local_scrubber.quarantined_ranges().empty());

  ScrubServer server(replica, kSession, 4);
  InprocScrubLink link(server);
  AntiEntropyScrubber scrubber(primary, link, kSession, config, /*epoch=*/1,
                               &counters, &local_scrubber);
  ASSERT_TRUE(scrubber.run_round().is_ok());

  auto repaired = primary.read_all();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), image) << "primary must match the replica again";
  EXPECT_TRUE(local_scrubber.quarantined_ranges().empty())
      << "the pull repair must lift the quarantine via reverify";
  const ScrubCountersSnapshot snap = counters.snapshot();
  EXPECT_GT(snap.records_pulled, 0U);
  EXPECT_GT(snap.ranges_repaired, 0U);
  EXPECT_EQ(snap.ranges_unrepairable, 0U);
}

TEST(AntiEntropyTest, StaleReplicaTailIsPushedBack) {
  const Bytes image = journal_image(32);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  // The replica never saw the last 10 records (a stale standby).
  replica.drop_durable_tail(10 * kJournalRecordSize);

  ScrubServer server(replica, kSession, 4);
  InprocScrubLink link(server);
  ScrubCounters counters;
  AntiEntropyScrubber scrubber(primary, link, kSession, antientropy_config(),
                               /*epoch=*/1, &counters);
  ASSERT_TRUE(scrubber.run_round().is_ok());
  auto repaired = replica.read_all();
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value(), image)
      << "the missing tail must be pushed back to the replica";
  EXPECT_GT(counters.snapshot().records_pushed, 0U);
}

TEST(AntiEntropyTest, ServerRefusesARottedPush) {
  const Bytes image = journal_image(8);
  MemoryJournalMedia replica;
  fill_media(replica, image);
  auto before = replica.read_all();
  ASSERT_TRUE(before.ok());

  ScrubCounters counters;
  ScrubServer server(replica, kSession, 4, &counters);
  ScrubInfo push;
  push.kind = ScrubKind::kRepairPush;
  push.session_id = kSession;
  push.epoch = 1;
  push.range = 0;
  push.range_records = 4;
  push.records = journal_image(4);
  push.records[10] ^= 0x04;  // rot in flight: the push itself is damaged
  auto reply = server.handle(Message::scrub_frame(push, 1));
  ASSERT_TRUE(reply.ok()) << reply.status().to_string();
  auto info = parse_scrub_body(
      ByteSpan(reply.value().body.data(), reply.value().body.size()));
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().records.empty()) << "a refusal echoes no records";
  EXPECT_EQ(counters.snapshot().repair_verify_failures, 1U);
  auto after = replica.read_all();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), before.value())
      << "a rotted push must never reach the replica's journal";
}

/// A transport that forwards to the real server but substitutes the records
/// of every repair reply — a wire-level forgery the per-record checksums
/// cannot catch (the substitute records are individually valid).
class ForgingScrubLink final : public ScrubTransport {
 public:
  ForgingScrubLink(ScrubServer& server, Bytes forged)
      : server_(server), forged_(std::move(forged)) {}

  Result<Message> exchange(const Message& frame) override {
    auto reply = server_.handle(frame);
    if (!reply.ok()) {
      return reply;
    }
    auto info = parse_scrub_body(
        ByteSpan(reply.value().body.data(), reply.value().body.size()));
    if (!info.ok() || info.value().kind != ScrubKind::kRepairReply ||
        info.value().records.empty()) {
      return reply;
    }
    ScrubInfo forged = info.value();
    forged.records = forged_;
    return Message::scrub_frame(forged, reply.value().sequence);
  }

 private:
  ScrubServer& server_;
  Bytes forged_;
};

TEST(AntiEntropyTest, ForgedPullRecordsFailTheAdvertisedDigestCheck) {
  const Bytes image = journal_image(8);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  ASSERT_GT(primary.rot(/*seed=*/5, 0, kJournalRecordSize, 1), 0);
  auto rotted = primary.read_all();
  ASSERT_TRUE(rotted.ok());

  // The forgery: individually-valid records for the right range length —
  // but different content than the digest the replica advertised.
  ScrubConfig config = antientropy_config();
  ScrubServer server(replica, kSession, config.range_records);
  ForgingScrubLink link(server, journal_image(4, /*first=*/100));
  ScrubCounters counters;
  AntiEntropyScrubber scrubber(primary, link, kSession, config, /*epoch=*/1,
                               &counters);
  ASSERT_TRUE(scrubber.run_round().is_ok());
  const ScrubCountersSnapshot snap = counters.snapshot();
  EXPECT_GT(snap.repair_verify_failures, 0U)
      << "forged records must fail the advertised-digest comparison";
  EXPECT_EQ(snap.records_pulled, 0U);
  auto after = primary.read_all();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), rotted.value())
      << "forged bytes must never be installed";
}

TEST(AntiEntropyTest, NeitherSideCleanIsUnrepairableNotSilent) {
  const Bytes image = journal_image(8);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  // Same range rots on BOTH sides (different bits, so digests diverge).
  ASSERT_GT(primary.rot(/*seed=*/21, 0, kJournalRecordSize, 1), 0);
  ASSERT_GT(replica.rot(/*seed=*/22, kJournalRecordSize, kJournalRecordSize, 1),
            0);

  ScrubCounters counters;
  ScrubServer server(replica, kSession, 4);
  InprocScrubLink link(server);
  AntiEntropyScrubber scrubber(primary, link, kSession, antientropy_config(),
                               /*epoch=*/1, &counters);
  ASSERT_TRUE(scrubber.run_round().is_ok());
  const ScrubCountersSnapshot snap = counters.snapshot();
  EXPECT_GT(snap.ranges_unrepairable, 0U)
      << "a range with no clean source anywhere must be counted, not dropped";
}

TEST(AntiEntropyTest, PromotionFencesTheStaleScrubber) {
  const Bytes image = journal_image(16);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  ASSERT_GT(replica.rot(/*seed=*/3, 0, image.size(), 1), 0);

  ScrubCounters scrubber_counters;
  ScrubCounters server_counters;
  ScrubServer server(replica, kSession, 4, &server_counters);
  InprocScrubLink link(server);
  AntiEntropyScrubber scrubber(primary, link, kSession, antientropy_config(),
                               /*epoch=*/1, &scrubber_counters);
  // The replica is promoted (its gateway took over): the old primary's
  // scrub traffic must be refused and the scrubber must stop with
  // DATA_LOSS — a fenced primary repairing the new authoritative copy
  // would overwrite it with stale bytes.
  EXPECT_EQ(server.promote(), 1U);
  EXPECT_EQ(server.promote(), 2U);
  const Status fenced = scrubber.run_round();
  ASSERT_FALSE(fenced.is_ok());
  EXPECT_EQ(fenced.code(), StatusCode::kDataLoss);
  EXPECT_EQ(server_counters.snapshot().fenced_scrubs_rejected, 1U);
  EXPECT_EQ(scrubber_counters.snapshot().fenced_scrubs_rejected, 1U);
  // And the rotted replica was NOT touched: no repair crossed the fence.
  EXPECT_EQ(scrubber_counters.snapshot().records_pushed, 0U);
}

TEST(AntiEntropyTest, SessionMismatchIsDataLoss) {
  MemoryJournalMedia replica;
  fill_media(replica, journal_image(8));
  ScrubServer server(replica, kSession, 4);
  ScrubInfo request;
  request.kind = ScrubKind::kDigestRequest;
  request.session_id = kSession + 1;
  request.epoch = 1;
  request.range_records = 4;
  auto reply = server.handle(Message::scrub_frame(request, 1));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDataLoss);
}

TEST(AntiEntropyTest, RangeSizeDisagreementIsAProtocolViolation) {
  MemoryJournalMedia replica;
  fill_media(replica, journal_image(8));
  ScrubServer server(replica, kSession, 4);
  ScrubInfo request;
  request.kind = ScrubKind::kDigestRequest;
  request.session_id = kSession;
  request.epoch = 1;
  request.range_records = 8;  // peer scrubs in different ranges
  auto reply = server.handle(Message::scrub_frame(request, 1));
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
}

// -------------------------------------------- mid-flush divergence (tee)

TEST(AntiEntropyTest, MidFlushAckLossKeepsDurabilityHonestAndScrubConverges) {
  MemoryJournalMedia local;
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  InprocReplicationLink repl_link(standby);
  PrimaryReplicator primary(repl_link, kSession);
  ReplicatedJournalMedia tee(local, primary);

  const Bytes batch = journal_image(4);
  ASSERT_TRUE(tee.append(ByteSpan(batch.data(), batch.size())).is_ok());

  // The buddy link dies between the standby's durable apply and the ack:
  // the flush MUST fail — local durability alone is not "replicated", and
  // reporting it as such would break the superset invariant the failover
  // replay rests on.
  repl_link.drop_next_ack();
  const Status flushed = tee.flush();
  ASSERT_FALSE(flushed.is_ok());
  EXPECT_EQ(flushed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(standby.records_applied(), 4U)
      << "the standby applied the batch before the ack was lost";

  // The retry ships the retained batch again: the standby now holds it
  // twice — a correct superset (replay dedup absorbs duplicates), but a
  // divergence the digest rounds must detect and close.
  ASSERT_TRUE(tee.flush().is_ok());
  EXPECT_EQ(standby.records_applied(), 8U);
  auto local_bytes = local.read_all();
  auto replica_bytes = replica.read_all();
  ASSERT_TRUE(local_bytes.ok());
  ASSERT_TRUE(replica_bytes.ok());
  ASSERT_NE(local_bytes.value().size(), replica_bytes.value().size());

  ScrubConfig config = antientropy_config();
  config.range_records = 2;
  ScrubCounters counters;
  ScrubServer server(replica, kSession, config.range_records);
  InprocScrubLink scrub_link(server);
  AntiEntropyScrubber scrubber(local, scrub_link, kSession, config,
                               /*epoch=*/1, &counters);
  for (int round = 0; round < 8; ++round) {
    ASSERT_TRUE(scrubber.run_round().is_ok());
  }
  auto converged_local = local.read_all();
  auto converged_replica = replica.read_all();
  ASSERT_TRUE(converged_local.ok());
  ASSERT_TRUE(converged_replica.ok());
  EXPECT_EQ(converged_local.value(), converged_replica.value())
      << "anti-entropy must converge the duplicated-range divergence";
  EXPECT_GT(counters.snapshot().ranges_diverged, 0U);
  // Both journals replay to the same dedup state: every record is valid
  // and the duplicates are whole-record repeats the ledger suppresses.
  const JournalScan scan = scan_journal(ByteSpan(
      converged_local.value().data(), converged_local.value().size()));
  EXPECT_EQ(scan.torn_records, 0U);
}

// ------------------------------------------ journal dirsync (satellite 1)

TEST(JournalDirsyncTest, ParentDirectoryIsFsyncedOnCreate) {
  char tmpl[] = "/tmp/ns-scrub-test-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/journal.bin";

  FileJournalMedia media(path);
  EXPECT_FALSE(media.directory_synced());
  const Bytes record = journal_image(1);
  ASSERT_TRUE(media.append(ByteSpan(record.data(), record.size())).is_ok());
  ASSERT_TRUE(media.flush().is_ok());
  EXPECT_TRUE(media.directory_synced())
      << "creating the journal file must fsync its parent directory";

  ::unlink(path.c_str());
  ::rmdir(dir);
}

TEST(JournalDirsyncTest, DirsyncFailureLatchesDataLossBeforeAnyAck) {
  char tmpl[] = "/tmp/ns-scrub-test-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/journal.bin";

  // Crash-before-dirsync simulation: the file's data can reach the platter
  // while the directory entry never does — after a crash the journal
  // "exists" with no name. A failed directory fsync must therefore refuse
  // the append (nothing above it may ack) and latch like any other
  // durability loss.
  FileJournalMedia media(path);
  media.fail_dirsync_for_test();
  const Bytes record = journal_image(1);
  const Status first = media.append(ByteSpan(record.data(), record.size()));
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(media.directory_synced());

  const Status second = media.append(ByteSpan(record.data(), record.size()));
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.to_string(), first.to_string()) << "latch must be sticky";
  EXPECT_EQ(media.flush().to_string(), first.to_string());

  ::unlink(path.c_str());
  ::rmdir(dir);
}

// ------------------------------------------------ seeded fault injection

TEST(ScrubFaultInjectionTest, MemoryRotIsDeterministicPerSeed) {
  const Bytes image = journal_image(32);
  MemoryJournalMedia a;
  MemoryJournalMedia b;
  MemoryJournalMedia c;
  fill_media(a, image);
  fill_media(b, image);
  fill_media(c, image);
  EXPECT_EQ(a.rot(123, 0, image.size(), 5), 5);
  EXPECT_EQ(b.rot(123, 0, image.size(), 5), 5);
  EXPECT_EQ(c.rot(321, 0, image.size(), 5), 5);
  auto ra = a.read_all();
  auto rb = b.read_all();
  auto rc = c.read_all();
  ASSERT_TRUE(ra.ok() && rb.ok() && rc.ok());
  EXPECT_EQ(ra.value(), rb.value()) << "same seed, same flips";
  EXPECT_NE(ra.value(), image) << "rot must actually damage the image";
  EXPECT_NE(rc.value(), ra.value()) << "different seed, different flips";
}

TEST(ScrubFaultInjectionTest, FileRotAndDropTailMatchTheMemoryModes) {
  char tmpl[] = "/tmp/ns-scrub-test-XXXXXX";
  char* dir = ::mkdtemp(tmpl);
  ASSERT_NE(dir, nullptr);
  const std::string path = std::string(dir) + "/journal.bin";
  const Bytes image = journal_image(16);

  FileJournalMedia file(path);
  fill_media(file, image);
  auto flipped = file.rot(77, 0, image.size(), 3);
  ASSERT_TRUE(flipped.ok()) << flipped.status().to_string();
  EXPECT_EQ(flipped.value(), 3);
  MemoryJournalMedia memory;
  fill_media(memory, image);
  EXPECT_EQ(memory.rot(77, 0, image.size(), 3), 3);
  auto from_file = file.read_all();
  auto from_memory = memory.read_all();
  ASSERT_TRUE(from_file.ok() && from_memory.ok());
  EXPECT_EQ(from_file.value(), from_memory.value())
      << "both media rot identically under one seed";
  EXPECT_FALSE(
      find_corrupt_records(
          ByteSpan(from_file.value().data(), from_file.value().size()), 0, 16)
          .empty());

  ASSERT_TRUE(file.drop_tail(4 * kJournalRecordSize).is_ok());
  auto shorter = file.read_all();
  ASSERT_TRUE(shorter.ok());
  EXPECT_EQ(shorter.value().size(), 12 * kJournalRecordSize);

  ::unlink(path.c_str());
  ::rmdir(dir);
}

// ------------------------------------------------- concurrency (TSan run)

TEST(ScrubConcurrencyTest, ScrubberRacesLiveAppendsCleanly) {
  MemoryJournalMedia media;
  fill_media(media, journal_image(32));
  ScrubConfig config = small_scrub_config();
  ScrubCounters counters;
  JournalScrubber scrubber(media, config, &counters);

  std::atomic<bool> stop{false};
  std::thread appender([&] {
    std::uint64_t next = 32;
    while (!stop.load(std::memory_order_acquire)) {
      const Bytes record = journal_image(1, next++);
      ASSERT_TRUE(media.append(ByteSpan(record.data(), record.size())).is_ok());
      ASSERT_TRUE(media.flush().is_ok());
    }
  });
  std::thread ticker([&] {
    for (int tick = 0; tick < 200; ++tick) {
      ASSERT_TRUE(scrubber.tick().is_ok());
    }
    stop.store(true, std::memory_order_release);
  });
  ticker.join();
  appender.join();
  EXPECT_GT(counters.snapshot().records_scanned, 0U);
  EXPECT_EQ(counters.snapshot().corrupt_records_found, 0U)
      << "a scrubber racing whole-record appends must never see rot";
  EXPECT_TRUE(scrubber.quarantined_ranges().empty());
}

TEST(ScrubConcurrencyTest, AntiEntropyRacesPromotionWithoutTearing) {
  const Bytes image = journal_image(64);
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  fill_media(primary, image);
  fill_media(replica, image);
  ASSERT_GT(replica.rot(/*seed=*/8, 0, image.size(), 2), 0);

  ScrubCounters counters;
  ScrubServer server(replica, kSession, 4, &counters);
  InprocScrubLink link(server);
  AntiEntropyScrubber scrubber(primary, link, kSession, antientropy_config(),
                               /*epoch=*/1, &counters);
  std::thread promoter([&] { server.promote(); });
  // Whatever interleaving wins, every round either repairs under the old
  // epoch or stops with DATA_LOSS under the fence — never UB, never a
  // half-applied repair.
  for (int round = 0; round < 4; ++round) {
    const Status status = scrubber.run_round();
    if (!status.is_ok()) {
      EXPECT_EQ(status.code(), StatusCode::kDataLoss);
      break;
    }
  }
  promoter.join();
}

// --------------------------------------------------------- simulated arc

using simrt::ExperimentOptions;
using simrt::ExperimentResult;
using simrt::run_plan;

Result<ExperimentResult> run_sim_scrub(const ExperimentOptions& options,
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

/// The nightly chaos job randomizes this via NUMASTREAM_CHAOS_SEED; unset
/// (the tier-1 default), the arc is fully deterministic.
std::uint64_t rot_seed(std::uint64_t fallback) {
  const char* env = std::getenv("NUMASTREAM_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  return std::strtoull(env, nullptr, 10);
}

TEST(SimScrubTest, ScrubRequiresCluster) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.scrub.cadence_ms = 10;
  EXPECT_FALSE(run_sim_scrub(options).ok());
}

TEST(SimScrubTest, RotRequiresClusterAndAKnownStream) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.rots = {{.stream = 0, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim_scrub(options).ok());

  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.rots = {{.stream = 9, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim_scrub(options).ok());
  options.rots = {{.stream = 0, .at_seconds = 0.001, .records = 0}};
  EXPECT_FALSE(run_sim_scrub(options).ok());
}

TEST(SimScrubTest, SeededRotIsRepairedBeforeTheKillAndBitIdentical) {
  // Probe to size the heartbeat window relative to the transfer.
  ExperimentOptions options;
  options.chunks_per_stream = 120;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.cluster.miss_windows = 2;
  auto probe = run_sim_scrub(options);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const double elapsed = probe.value().elapsed_seconds;
  ASSERT_GT(elapsed, 0);
  EXPECT_EQ(probe.value().scrub, ScrubCountersSnapshot{})
      << "without scrub or rot the ledger must stay clean";
  options.cluster.heartbeat_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(elapsed * 1000.0 / 60.0)));
  // Re-probe with the scaled heartbeat: the coarse default window inflates
  // the first probe's elapsed, and the fault schedule must land inside the
  // *real* span (a kill scheduled past the transfer never gets detected).
  auto timed = run_sim_scrub(options);
  ASSERT_TRUE(timed.ok()) << timed.status().to_string();
  const double span = timed.value().elapsed_seconds;

  // Rot stream 0's replica at span/6, kill its serving gateway at span/2.
  const cluster::GatewayRing ring(options.cluster.gateways,
                                  options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  options.rots = {{.stream = 0,
                   .at_seconds = span / 6,
                   .records = 12,
                   .seed = rot_seed(0xB0075EEDULL)}};
  options.gateway_crashes = {{.gateway = victim,
                              .at_seconds = span / 2,
                              .failover_seconds = span / 10}};

  // Counterfactual: no scrubbing — the rot survives to the takeover and
  // the truncated replay loses every record at/after the first bad one.
  auto lossy = run_sim_scrub(options);
  ASSERT_TRUE(lossy.ok()) << lossy.status().to_string();
  EXPECT_GT(lossy.value().scrub.records_rotted, 0U);
  EXPECT_EQ(lossy.value().scrub.ranges_repaired, 0U);
  EXPECT_EQ(lossy.value().scrub.digest_rounds, 0U);
  EXPECT_GT(lossy.value().scrub.failover_lost_records, 0U);

  // With scrubbing on a two-window cadence, the digest rounds find and
  // repair every rotted record before the kill.
  options.scrub.cadence_ms = 2 * options.cluster.heartbeat_ms;
  options.scrub.range_records = 16;
  options.scrub.budget_records = 512;
  options.scrub.repair_concurrency = 4;
  auto first = run_sim_scrub(options);
  auto second = run_sim_scrub(options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  const ScrubCountersSnapshot& scrub = first.value().scrub;
  EXPECT_EQ(scrub.records_rotted, lossy.value().scrub.records_rotted)
      << "the same seed must place the same rot in both scenarios";
  EXPECT_GT(scrub.digest_rounds, 0U);
  EXPECT_GT(scrub.records_scanned, 0U);
  EXPECT_EQ(scrub.corrupt_records_found, scrub.records_rotted)
      << "every rotted record must be found";
  EXPECT_EQ(scrub.ranges_diverged, scrub.ranges_repaired);
  EXPECT_GT(scrub.ranges_repaired, 0U);
  EXPECT_EQ(scrub.failover_lost_records, 0U)
      << "a repaired replica must survive the takeover with zero holes";
  EXPECT_EQ(first.value().federation.failovers, 1U);

  // Exactly-once delivery end to end, despite rot + whole-gateway death.
  ASSERT_EQ(first.value().streams.size(), 2U);
  for (const auto& stream : first.value().streams) {
    EXPECT_EQ(stream.chunks, 120U);
  }

  // The fingerprint: same seed, bit-identical scrub/federation/resume
  // ledgers across reruns.
  EXPECT_TRUE(first.value().scrub == second.value().scrub)
      << first.value().scrub.to_string() << " vs "
      << second.value().scrub.to_string();
  EXPECT_TRUE(first.value().federation == second.value().federation);
  EXPECT_TRUE(first.value().resume == second.value().resume);
}

}  // namespace
}  // namespace numastream
