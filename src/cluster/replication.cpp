#include "cluster/replication.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace numastream {
namespace cluster {

// ---- REPL frames -----------------------------------------------------------

Message repl_frame(ReplKind kind, std::uint64_t session_id, std::uint64_t epoch,
                   std::uint64_t repl_sequence, ByteSpan records) {
  NS_CHECK(records.size() % kJournalRecordSize == 0,
           "repl frame records must be whole journal records");
  NS_CHECK(kind == ReplKind::kAppend || records.empty(),
           "only append frames carry records");
  Message m;
  m.kind = MessageKind::kRepl;
  m.sequence = repl_sequence;
  m.body.reserve(kReplBodyPrefix + records.size());
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(session_id);
  w.u64(epoch);
  w.u32(static_cast<std::uint32_t>(records.size() / kJournalRecordSize));
  w.raw(records);
  return m;
}

Result<ReplInfo> parse_repl_body(ByteSpan body) {
  ByteReader r(body);
  ReplInfo info;
  std::uint32_t kind = 0;
  std::uint32_t count = 0;
  if (!r.u32(kind).is_ok() || !r.u64(info.session_id).is_ok() ||
      !r.u64(info.epoch).is_ok() || !r.u32(count).is_ok()) {
    return invalid_argument_error("repl frame: body shorter than prefix");
  }
  if (kind < static_cast<std::uint32_t>(ReplKind::kHello) ||
      kind > static_cast<std::uint32_t>(ReplKind::kHeartbeat)) {
    return invalid_argument_error("repl frame: unknown kind " +
                                  std::to_string(kind));
  }
  info.kind = static_cast<ReplKind>(kind);
  if (body.size() != kReplBodyPrefix + std::size_t{count} * kJournalRecordSize) {
    return invalid_argument_error(
        "repl frame: record count disagrees with body length");
  }
  if (count != 0 && info.kind != ReplKind::kAppend) {
    return invalid_argument_error("repl frame: records on a non-append frame");
  }
  info.records.assign(body.begin() + kReplBodyPrefix, body.end());
  return info;
}

// ---- StandbySession --------------------------------------------------------

StandbySession::StandbySession(JournalMedia& media, std::uint64_t session_id,
                               FederationCounters* counters)
    : media_(media), session_id_(session_id), counters_(counters) {}

std::uint64_t StandbySession::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

std::uint64_t StandbySession::records_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_applied_;
}

std::uint64_t StandbySession::promote() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
  if (counters_ != nullptr) {
    counters_->note_epoch(epoch_);
  }
  return epoch_;
}

Result<Message> StandbySession::handle(const Message& frame) {
  if (frame.kind != MessageKind::kRepl) {
    return invalid_argument_error("standby: non-REPL frame on the link");
  }
  auto info = parse_repl_body(ByteSpan(frame.body.data(), frame.body.size()));
  if (!info.ok()) {
    return info.status();
  }
  if (info.value().session_id != session_id_) {
    return data_loss_error(
        "standby: replication session mismatch (link carries session " +
        std::to_string(info.value().session_id) + ", replica holds session " +
        std::to_string(session_id_) + ")");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  switch (info.value().kind) {
    case ReplKind::kHello:
    case ReplKind::kHeartbeat:
      // Adopt a newer primary epoch; never regress past a promotion.
      epoch_ = std::max(epoch_, info.value().epoch);
      break;
    case ReplKind::kAppend: {
      if (info.value().epoch < epoch_) {
        // The fence: a stale primary's records are refused, and the ack
        // below carries our higher epoch so it learns why.
        if (counters_ != nullptr) {
          counters_->fenced_appends_rejected.fetch_add(
              1, std::memory_order_relaxed);
        }
        break;
      }
      epoch_ = std::max(epoch_, info.value().epoch);
      const Bytes& records = info.value().records;
      // Replica durability before the ack — the ordering invariant the
      // failover replay rests on.
      NS_RETURN_IF_ERROR(
          media_.append(ByteSpan(records.data(), records.size())));
      NS_RETURN_IF_ERROR(media_.flush());
      records_applied_ += records.size() / kJournalRecordSize;
      break;
    }
    case ReplKind::kAck:
      return invalid_argument_error("standby: unexpected ack frame");
  }
  if (counters_ != nullptr) {
    counters_->note_epoch(epoch_);
  }
  return repl_frame(ReplKind::kAck, session_id_, epoch_, frame.sequence);
}

// ---- PrimaryReplicator -----------------------------------------------------

PrimaryReplicator::PrimaryReplicator(PeerLink& link, std::uint64_t session_id,
                                     std::uint64_t epoch,
                                     FederationCounters* counters)
    : link_(link),
      session_id_(session_id),
      counters_(counters),
      epoch_(epoch) {
  if (counters_ != nullptr) {
    counters_->note_epoch(epoch_);
  }
}

std::uint64_t PrimaryReplicator::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

Status PrimaryReplicator::exchange_checked(ReplKind kind, ByteSpan records) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t sequence = next_sequence_++;
  const Message frame = repl_frame(kind, session_id_, epoch_, sequence, records);
  const std::uint64_t record_count = records.size() / kJournalRecordSize;
  if (counters_ != nullptr && kind == ReplKind::kAppend) {
    counters_->repl_records_shipped.fetch_add(record_count,
                                              std::memory_order_relaxed);
    // Synchronous link: everything shipped this exchange is unacked until
    // the reply lands, so the in-flight count is the instantaneous lag.
    counters_->note_repl_lag(record_count);
  }
  if (counters_ != nullptr && kind == ReplKind::kHeartbeat) {
    counters_->heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
  }
  auto reply = link_.exchange(frame);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().kind != MessageKind::kRepl || reply.value().sequence != sequence) {
    return data_loss_error("replicator: ack sequence mismatch");
  }
  auto ack = parse_repl_body(
      ByteSpan(reply.value().body.data(), reply.value().body.size()));
  if (!ack.ok()) {
    return ack.status();
  }
  if (ack.value().kind != ReplKind::kAck ||
      ack.value().session_id != session_id_) {
    return data_loss_error("replicator: malformed ack");
  }
  if (ack.value().epoch > epoch_) {
    // The standby has been promoted past us: we are the stale side of a
    // partition. From here on this gateway must not report client writes
    // as durable — surface it as data loss, which the journal layer
    // propagates to every record_* caller.
    return data_loss_error(
        "replicator: fenced (standby is at epoch " +
        std::to_string(ack.value().epoch) + ", this primary is at " +
        std::to_string(epoch_) + ")");
  }
  if (counters_ != nullptr && kind == ReplKind::kAppend) {
    counters_->repl_appends_acked.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::ok();
}

Status PrimaryReplicator::hello() {
  return exchange_checked(ReplKind::kHello, ByteSpan());
}

Status PrimaryReplicator::ship(ByteSpan records) {
  NS_CHECK(records.size() % kJournalRecordSize == 0,
           "ship() takes whole journal records");
  if (records.empty()) {
    return Status::ok();
  }
  return exchange_checked(ReplKind::kAppend, records);
}

Status PrimaryReplicator::heartbeat() {
  return exchange_checked(ReplKind::kHeartbeat, ByteSpan());
}

// ---- ReplicatedJournalMedia ------------------------------------------------

ReplicatedJournalMedia::ReplicatedJournalMedia(JournalMedia& local,
                                               PrimaryReplicator& replicator)
    : local_(local), replicator_(replicator) {}

Status ReplicatedJournalMedia::append(ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  NS_RETURN_IF_ERROR(local_.append(data));
  pending_.insert(pending_.end(), data.begin(), data.end());
  return Status::ok();
}

Status ReplicatedJournalMedia::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Buddy first, local second: if the ship fails the caller sees the error
  // before anything is acked, and if the local flush fails the buddy merely
  // holds a superset — the safe direction for replay dedup.
  NS_RETURN_IF_ERROR(
      replicator_.ship(ByteSpan(pending_.data(), pending_.size())));
  pending_.clear();
  return local_.flush();
}

Result<Bytes> ReplicatedJournalMedia::read_all() { return local_.read_all(); }

Status ReplicatedJournalMedia::write_at(std::uint64_t offset, ByteSpan data) {
  return local_.write_at(offset, data);
}

}  // namespace cluster
}  // namespace numastream
