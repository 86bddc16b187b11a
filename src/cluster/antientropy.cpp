#include "cluster/antientropy.h"

#include <algorithm>
#include <string>
#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {
namespace cluster {
namespace {

/// The reply kind a request kind is answered with; requests that expect no
/// data reply (pushes) get kRepairReply.
ScrubKind reply_kind_for(ScrubKind kind) {
  switch (kind) {
    case ScrubKind::kDigestRequest:
      return ScrubKind::kDigestReply;
    case ScrubKind::kRepairPull:
    case ScrubKind::kRepairPush:
      return ScrubKind::kRepairReply;
    default:
      return ScrubKind::kRepairReply;
  }
}

/// Extracts the whole-record bytes of `range` from a raw journal image.
/// Empty when the range starts past the journal's last whole record.
ByteSpan range_bytes(ByteSpan journal, std::uint64_t range,
                     std::uint32_t range_records) {
  const std::uint64_t total = journal.size() / kJournalRecordSize;
  const std::uint64_t first = range * range_records;
  if (first >= total) {
    return ByteSpan();
  }
  const std::uint64_t records = std::min<std::uint64_t>(range_records,
                                                        total - first);
  return journal.subspan(first * kJournalRecordSize,
                         records * kJournalRecordSize);
}

/// True when every record in `records` (a whole-record byte run) passes the
/// per-record validation — the gate both sides apply before trusting repair
/// bytes that crossed the wire.
bool records_verify(ByteSpan records) {
  for (std::size_t offset = 0; offset + kJournalRecordSize <= records.size();
       offset += kJournalRecordSize) {
    if (!journal_record_valid(records.data() + offset)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---- SCRUB frames ----------------------------------------------------------

Message scrub_frame(const ScrubInfo& info, std::uint64_t scrub_sequence) {
  NS_CHECK(info.kind == ScrubKind::kDigestReply || info.digests.empty(),
           "only digest replies carry digest entries");
  NS_CHECK(info.records.size() % kJournalRecordSize == 0,
           "scrub frame records must be whole journal records");
  NS_CHECK(info.kind == ScrubKind::kRepairPush ||
               info.kind == ScrubKind::kRepairReply || info.records.empty(),
           "only repair push/reply frames carry records");
  Message m;
  m.kind = MessageKind::kScrub;
  m.sequence = scrub_sequence;
  const std::size_t payload =
      info.kind == ScrubKind::kDigestReply
          ? info.digests.size() * kScrubDigestSize
          : info.records.size();
  m.body.reserve(kScrubBodyPrefix + payload);
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(info.kind));
  w.u64(info.session_id);
  w.u64(info.epoch);
  w.u64(info.range);
  w.u32(info.range_records);
  if (info.kind == ScrubKind::kDigestReply) {
    w.u32(static_cast<std::uint32_t>(info.digests.size()));
    for (const ScrubRangeDigest& entry : info.digests) {
      w.u64(entry.range);
      w.u32(entry.records);
      w.u32(entry.digest);
    }
  } else {
    w.u32(static_cast<std::uint32_t>(info.records.size() / kJournalRecordSize));
    w.raw(info.records);
  }
  return m;
}

Result<ScrubInfo> parse_scrub_body(ByteSpan body) {
  ByteReader r(body);
  ScrubInfo info;
  std::uint32_t kind = 0;
  std::uint32_t count = 0;
  if (!r.u32(kind).is_ok() || !r.u64(info.session_id).is_ok() ||
      !r.u64(info.epoch).is_ok() || !r.u64(info.range).is_ok() ||
      !r.u32(info.range_records).is_ok() || !r.u32(count).is_ok()) {
    return invalid_argument_error("scrub frame: body shorter than prefix");
  }
  if (kind < static_cast<std::uint32_t>(ScrubKind::kDigestRequest) ||
      kind > static_cast<std::uint32_t>(ScrubKind::kRepairReply)) {
    return invalid_argument_error("scrub frame: unknown kind " +
                                  std::to_string(kind));
  }
  info.kind = static_cast<ScrubKind>(kind);
  const std::size_t entry_size =
      info.kind == ScrubKind::kDigestReply ? kScrubDigestSize
                                           : kJournalRecordSize;
  if (body.size() != kScrubBodyPrefix + std::size_t{count} * entry_size) {
    return invalid_argument_error(
        "scrub frame: entry count disagrees with body length");
  }
  if (count != 0 && info.kind != ScrubKind::kDigestReply &&
      info.kind != ScrubKind::kRepairPush &&
      info.kind != ScrubKind::kRepairReply) {
    return invalid_argument_error(
        "scrub frame: payload on a request frame");
  }
  if (info.kind == ScrubKind::kDigestReply) {
    info.digests.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ScrubRangeDigest entry;
      NS_RETURN_IF_ERROR(r.u64(entry.range));
      NS_RETURN_IF_ERROR(r.u32(entry.records));
      NS_RETURN_IF_ERROR(r.u32(entry.digest));
      info.digests.push_back(entry);
    }
  } else {
    info.records.assign(body.begin() + kScrubBodyPrefix, body.end());
  }
  return info;
}

// ---- range digests ---------------------------------------------------------

std::vector<ScrubRangeDigest> journal_range_digests(
    ByteSpan journal, std::uint32_t range_records) {
  NS_CHECK(range_records > 0, "digest ranges must hold at least one record");
  std::vector<ScrubRangeDigest> digests;
  const std::uint64_t total = journal.size() / kJournalRecordSize;
  for (std::uint64_t first = 0, range = 0; first < total;
       first += range_records, ++range) {
    const std::uint64_t records =
        std::min<std::uint64_t>(range_records, total - first);
    ScrubRangeDigest digest;
    digest.range = range;
    digest.records = static_cast<std::uint32_t>(records);
    digest.digest = xxhash32(journal.subspan(first * kJournalRecordSize,
                                             records * kJournalRecordSize));
    digests.push_back(digest);
  }
  return digests;
}

// ---- ScrubServer -----------------------------------------------------------

ScrubServer::ScrubServer(JournalMedia& media, std::uint64_t session_id,
                         std::uint32_t range_records, ScrubCounters* counters)
    : media_(media),
      session_id_(session_id),
      range_records_(range_records),
      counters_(counters) {
  NS_CHECK(range_records_ > 0, "scrub ranges must hold at least one record");
}

std::uint64_t ScrubServer::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::uint64_t ScrubServer::promote() {
  std::lock_guard<std::mutex> lock(mutex_);
  return ++epoch_;
}

Result<Message> ScrubServer::handle(const Message& frame) {
  if (frame.kind != MessageKind::kScrub) {
    return invalid_argument_error("scrub server: non-SCRUB frame on the link");
  }
  auto parsed =
      parse_scrub_body(ByteSpan(frame.body.data(), frame.body.size()));
  if (!parsed.ok()) {
    return parsed.status();
  }
  const ScrubInfo& info = parsed.value();
  if (info.session_id != session_id_) {
    return data_loss_error(
        "scrub server: session mismatch (link carries session " +
        std::to_string(info.session_id) + ", replica holds session " +
        std::to_string(session_id_) + ")");
  }
  if (info.kind == ScrubKind::kDigestReply ||
      info.kind == ScrubKind::kRepairReply) {
    return invalid_argument_error("scrub server: unexpected reply frame");
  }
  if (info.range_records != range_records_) {
    // Ranges must mean the same thing on both ends or every digest
    // comparison is noise; treat disagreement as a protocol violation.
    return invalid_argument_error(
        "scrub server: range size mismatch (peer scrubs in ranges of " +
        std::to_string(info.range_records) + ", replica in ranges of " +
        std::to_string(range_records_) + ")");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ScrubInfo reply;
  reply.kind = reply_kind_for(info.kind);
  reply.session_id = session_id_;
  reply.range = info.range;
  reply.range_records = range_records_;
  if (info.epoch < epoch_) {
    // The fence: this replica has been promoted past the sender. Serve no
    // digests and install no pushes; the reply's higher epoch tells the
    // stale scrubber to stop.
    count(&ScrubCounters::fenced_scrubs_rejected, counters_);
    reply.epoch = epoch_;
    return scrub_frame(reply, frame.sequence);
  }
  epoch_ = std::max(epoch_, info.epoch);
  reply.epoch = epoch_;

  auto data = media_.read_all();
  if (!data.ok()) {
    return data.status();
  }
  const ByteSpan journal(data.value());

  switch (info.kind) {
    case ScrubKind::kDigestRequest:
      reply.digests = journal_range_digests(journal, range_records_);
      break;
    case ScrubKind::kRepairPull: {
      const ByteSpan bytes = range_bytes(journal, info.range, range_records_);
      reply.records.assign(bytes.begin(), bytes.end());
      count(&ScrubCounters::records_pushed, counters_,
            bytes.size() / kJournalRecordSize);
      break;
    }
    case ScrubKind::kRepairPush: {
      // Receiving-side verification: a push whose records do not all pass
      // the per-record checksum is refused wholesale — repair must never be
      // the vector that propagates corruption. The refusal is visible to
      // the pusher as a zero-count reply.
      const ByteSpan records(info.records.data(), info.records.size());
      if (!records_verify(records)) {
        count(&ScrubCounters::repair_verify_failures, counters_);
        break;
      }
      NS_RETURN_IF_ERROR(media_.write_at(
          info.range * static_cast<std::uint64_t>(range_records_) *
              kJournalRecordSize,
          records));
      const std::uint64_t installed = records.size() / kJournalRecordSize;
      count(&ScrubCounters::records_pulled, counters_, installed);
      // Echo the installed records back so the pusher can distinguish
      // "installed N" from "refused".
      reply.records = info.records;
      break;
    }
    default:
      return invalid_argument_error("scrub server: unreachable kind");
  }
  return scrub_frame(reply, frame.sequence);
}

// ---- AntiEntropyScrubber ---------------------------------------------------

AntiEntropyScrubber::AntiEntropyScrubber(JournalMedia& local,
                                         PeerLink& link,
                                         std::uint64_t session_id,
                                         const ScrubConfig& config,
                                         std::uint64_t epoch,
                                         ScrubCounters* counters,
                                         JournalScrubber* local_scrubber)
    : local_(local),
      link_(link),
      session_id_(session_id),
      config_(config),
      counters_(counters),
      local_scrubber_(local_scrubber),
      epoch_(epoch) {
  NS_CHECK(config_.range_records > 0,
           "scrub ranges must hold at least one record");
}

std::uint64_t AntiEntropyScrubber::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

Result<ScrubInfo> AntiEntropyScrubber::exchange_checked(
    const ScrubInfo& request) {
  const std::uint64_t sequence = next_sequence_++;
  auto frame = scrub_frame(request, sequence);
  auto reply = link_.exchange(frame);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().kind != MessageKind::kScrub || reply.value().sequence != sequence) {
    return data_loss_error("anti-entropy: reply sequence mismatch");
  }
  auto info = parse_scrub_body(
      ByteSpan(reply.value().body.data(), reply.value().body.size()));
  if (!info.ok()) {
    return info.status();
  }
  if (info.value().session_id != session_id_) {
    return data_loss_error("anti-entropy: reply session mismatch");
  }
  if (info.value().epoch > epoch_) {
    // The buddy has been promoted past us: stop scrubbing immediately. A
    // fenced primary that kept "repairing" the new primary's replica would
    // be overwriting the authoritative copy with stale bytes.
    count(&ScrubCounters::fenced_scrubs_rejected, counters_);
    return data_loss_error(
        "anti-entropy: fenced (buddy is at epoch " +
        std::to_string(info.value().epoch) + ", this scrubber is at " +
        std::to_string(epoch_) + ")");
  }
  return info;
}

Status AntiEntropyScrubber::repair_range(std::uint64_t range, bool local_clean,
                                         const ScrubRangeDigest* theirs,
                                         ByteSpan local_bytes) {
  if (local_clean && !local_bytes.empty() &&
      (theirs == nullptr ||
       local_bytes.size() / kJournalRecordSize >= theirs->records)) {
    // Our copy verifies clean and is at least as long: push it across. The
    // buddy re-verifies before installing, so a wrong local_clean verdict
    // cannot corrupt the replica.
    ScrubInfo push;
    push.kind = ScrubKind::kRepairPush;
    push.session_id = session_id_;
    push.epoch = epoch_;
    push.range = range;
    push.range_records = config_.range_records;
    push.records.assign(local_bytes.begin(), local_bytes.end());
    auto reply = exchange_checked(push);
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply.value().records.size() != push.records.size()) {
      // The buddy refused the push (its verification failed) — with our
      // side clean that should be impossible, so count and move on; the
      // next round retries.
      count(&ScrubCounters::repair_verify_failures, counters_);
      return Status();
    }
    count(&ScrubCounters::records_pushed, counters_,
          push.records.size() / kJournalRecordSize);
    return Status();
  }

  if (theirs == nullptr || theirs->records == 0) {
    // Our copy is corrupt and the buddy has nothing for this range: there
    // is no clean source anywhere in the federation.
    count(&ScrubCounters::ranges_unrepairable, counters_);
    return Status();
  }

  // Pull the buddy's copy and verify it twice over: every record's own
  // checksum, and the whole range against the digest the buddy advertised
  // in the comparison round — a forged or bit-flipped reply body cannot be
  // installed even if its per-record checksums were recomputed to match.
  ScrubInfo pull;
  pull.kind = ScrubKind::kRepairPull;
  pull.session_id = session_id_;
  pull.epoch = epoch_;
  pull.range = range;
  pull.range_records = config_.range_records;
  auto reply = exchange_checked(pull);
  if (!reply.ok()) {
    return reply.status();
  }
  const Bytes& records = reply.value().records;
  const ByteSpan pulled(records.data(), records.size());
  if (records.size() / kJournalRecordSize != theirs->records ||
      !records_verify(pulled) ||
      xxhash32(pulled) != theirs->digest) {
    count(&ScrubCounters::repair_verify_failures, counters_);
    count(&ScrubCounters::ranges_unrepairable, counters_);
    return Status();
  }
  NS_RETURN_IF_ERROR(local_.write_at(
      range * static_cast<std::uint64_t>(config_.range_records) *
          kJournalRecordSize,
      pulled));
  count(&ScrubCounters::records_pulled, counters_, theirs->records);
  if (local_scrubber_ != nullptr) {
    // The repair overwrote the quarantined bytes; re-verify so the
    // quarantine lifts (and ranges_repaired counts) in the same round.
    local_scrubber_->reverify(range);
  }
  return Status();
}

Status AntiEntropyScrubber::run_round() {
  std::lock_guard<std::mutex> lock(mutex_);

  auto data = local_.read_all();
  if (!data.ok()) {
    return data.status();
  }
  const ByteSpan journal(data.value());
  const std::vector<ScrubRangeDigest> ours =
      journal_range_digests(journal, config_.range_records);

  ScrubInfo request;
  request.kind = ScrubKind::kDigestRequest;
  request.session_id = session_id_;
  request.epoch = epoch_;
  request.range_records = config_.range_records;
  auto reply = exchange_checked(request);
  if (!reply.ok()) {
    return reply.status();
  }
  const std::vector<ScrubRangeDigest>& theirs = reply.value().digests;
  count(&ScrubCounters::digest_rounds, counters_);

  const std::uint64_t ranges =
      std::max<std::uint64_t>(ours.size(), theirs.size());
  int repairs = 0;
  for (std::uint64_t range = 0;
       range < ranges && repairs < config_.repair_concurrency; ++range) {
    count(&ScrubCounters::ranges_compared, counters_);
    const ScrubRangeDigest* mine =
        range < ours.size() ? &ours[range] : nullptr;
    const ScrubRangeDigest* buddys =
        range < theirs.size() ? &theirs[range] : nullptr;
    if (mine != nullptr && buddys != nullptr && *mine == *buddys) {
      continue;
    }
    count(&ScrubCounters::ranges_diverged, counters_);
    const ByteSpan local_bytes =
        range_bytes(journal, range, config_.range_records);
    const bool local_clean = records_verify(local_bytes);
    NS_RETURN_IF_ERROR(
        repair_range(range, local_clean, buddys, local_bytes));
    ++repairs;
  }
  return Status();
}

}  // namespace cluster
}  // namespace numastream
