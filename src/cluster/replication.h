// Synchronous journal replication with epoch fencing (DESIGN.md §12).
//
// A gateway's crash-consistency journal (core/journal.h) survives a process
// death but not a machine death: when the whole box goes, the journal goes
// with it. The federation layer closes that hole by shipping every journal
// record to the stream's buddy gateway *before* the write is acknowledged —
// synchronous replication, carried by NSM1 REPL frames (below).
//
// Roles and ordering invariant:
//
//   * PrimaryReplicator — the live gateway's side of the link. ship() sends
//     one kAppend frame and blocks for the standby's kAck, so a record is
//     never considered durable before the buddy holds it.
//   * StandbySession — the buddy's side. Applies appended records to its
//     replica media (append + flush before acking), so the invariant holds:
//     the standby's durable journal is always >= the primary's durable
//     journal. A failover therefore replays a superset of what the dead
//     primary knew, and the RESUME machinery's dedup (watermarks + the
//     delivery ledger) absorbs the overlap — exactly-once survives.
//   * ReplicatedJournalMedia — the tee that makes all of this transparent
//     to SenderJournal/ReceiverJournal: local JournalMedia semantics, with
//     flush() extended to mean "durable here AND at the buddy".
//
// Epoch fencing: every frame carries the primary's epoch. When the standby
// is promoted (promote()) it bumps its epoch past anything the old primary
// ever used; a partitioned stale primary that comes back and keeps shipping
// sees acks stamped with the higher epoch, and ship() turns that into
// DATA_LOSS — the stale side can no longer report client writes as durable.
// This is the split-brain guard: at most one side of a partition can make
// progress.
//
// REPL frame (NSM1 flag bit 3, mask 8, msg/message.h). The message's
// sequence field is the replication sequence number (monotone per link,
// echoed back by acks) and the body is:
//
//   0   4  kind (1 hello, 2 append, 3 ack, 4 heartbeat)
//   4   8  session id
//   12  8  epoch
//   20  4  record count N (append frames; 0 otherwise)
//   24  .. N x 37-byte journal records (core/journal.h wire format)
//
// REPL frames only appear when the gateways are federated; without
// federation the wire stays bit-identical to NSM1 v1.2.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "cluster/peer_link.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/journal.h"
#include "metrics/federation_counters.h"
#include "msg/message.h"

namespace numastream {
namespace cluster {

/// Fixed prefix of a REPL body: kind + session id + epoch + record count.
inline constexpr std::size_t kReplBodyPrefix = 24;
static_assert(kReplBodyPrefix == message_kind_rule(MessageKind::kRepl).min_body,
              "the NSM1 header check admits exactly the REPL prefix");

/// REPL frame kinds: the replication sub-protocol between gateways.
enum class ReplKind : std::uint32_t {
  kHello = 1,      ///< primary -> standby: open a replication session
  kAppend = 2,     ///< primary -> standby: journal records to mirror
  kAck = 3,        ///< standby -> primary: durable through repl sequence
  kHeartbeat = 4,  ///< either direction: liveness probe
};

/// Decoded payload of a REPL frame.
struct ReplInfo {
  ReplKind kind = ReplKind::kHeartbeat;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  /// kAppend only: concatenated 37-byte journal records, ready for
  /// scan_journal (core/journal.h). Empty for the other kinds.
  Bytes records;

  friend bool operator==(const ReplInfo&, const ReplInfo&) = default;
};

/// Replication frame. `repl_sequence` lands in the message's sequence
/// field; `records` must be a whole number of journal records (kAppend) or
/// empty (the other kinds).
[[nodiscard]] Message repl_frame(ReplKind kind, std::uint64_t session_id,
                                 std::uint64_t epoch, std::uint64_t repl_sequence,
                                 ByteSpan records = ByteSpan());

/// Parses a REPL frame body. INVALID_ARGUMENT when the kind is unknown or
/// the declared record count disagrees with the body length.
Result<ReplInfo> parse_repl_body(ByteSpan body);

/// The standby side of one replication link: applies REPL frames against
/// the replica journal media and produces the ack the primary blocks on.
/// Thread-safe; promote() may race handle() from the failover path.
class StandbySession final : public PeerHandler {
 public:
  /// Borrows `media` (the replica journal) and optional `counters`; both
  /// must outlive the session.
  StandbySession(JournalMedia& media, std::uint64_t session_id,
                 FederationCounters* counters = nullptr);

  /// Handles one decoded REPL frame and returns the reply to send back.
  /// Appends carrying a stale epoch are *not* applied; the reply's higher
  /// epoch tells the sender it has been fenced. Errors are protocol
  /// violations (wrong session, malformed body) — the link should drop.
  Result<Message> handle(const Message& frame) override;

  /// Takes over: bumps the epoch past everything the old primary used, so
  /// its in-flight and future appends are fenced. Returns the new epoch.
  std::uint64_t promote();

  [[nodiscard]] std::uint64_t epoch() const;

  /// Journal records applied to the replica so far.
  [[nodiscard]] std::uint64_t records_applied() const;

 private:
  JournalMedia& media_;
  const std::uint64_t session_id_;
  FederationCounters* counters_;

  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::uint64_t records_applied_ = 0;
};

/// The primary side: epoch-stamped hello/append/heartbeat exchanges, each
/// blocking on the standby's ack. Thread-safe.
class PrimaryReplicator {
 public:
  PrimaryReplicator(PeerLink& link, std::uint64_t session_id,
                    std::uint64_t epoch = 1,
                    FederationCounters* counters = nullptr);

  /// Opens the replication session: the standby adopts our epoch if it is
  /// newer, we adopt its if we are behind a promotion (in which case the
  /// hello itself reports the fence).
  Status hello();

  /// Ships `records` (a whole number of journal records) and blocks for a
  /// durable ack. DATA_LOSS when the ack is stamped with a newer epoch:
  /// this primary has been fenced and must stop acking client writes.
  Status ship(ByteSpan records);

  /// Liveness probe; same fencing rule as ship().
  Status heartbeat();

  [[nodiscard]] std::uint64_t epoch() const;

 private:
  Status exchange_checked(ReplKind kind, ByteSpan records);

  PeerLink& link_;
  const std::uint64_t session_id_;
  FederationCounters* counters_;

  mutable std::mutex mutex_;
  std::uint64_t epoch_;
  std::uint64_t next_sequence_ = 1;
};

/// JournalMedia tee: local media semantics with flush() extended to mean
/// "durable locally AND acked by the buddy". Records buffered by append()
/// are shipped on flush() in journal order; the replica is flushed by the
/// standby before the ack, preserving the standby-is-never-behind
/// invariant. Thread-safe, like all JournalMedia.
class ReplicatedJournalMedia final : public JournalMedia {
 public:
  /// Borrows both; they must outlive the media.
  ReplicatedJournalMedia(JournalMedia& local, PrimaryReplicator& replicator);

  Status append(ByteSpan data) override;
  Status flush() override;
  Result<Bytes> read_all() override;
  /// Repairs are local-only: the anti-entropy protocol fixes the buddy's
  /// side through its own SCRUB frames, never by re-shipping repairs.
  Status write_at(std::uint64_t offset, ByteSpan data) override;

 private:
  JournalMedia& local_;
  PrimaryReplicator& replicator_;
  std::mutex mutex_;
  Bytes pending_;  ///< appended since the last successful ship
};

}  // namespace cluster
}  // namespace numastream
