// Anti-entropy digest comparison and latent-corruption repair (DESIGN.md §14).
//
// Synchronous replication (replication.h) keeps the ring buddy a superset of
// the primary *at write time* — and then both copies sit on disk, trusted
// and unread, until a failover replays one of them. This layer closes the
// gap between write time and read time: on the scrub cadence the primary
// exchanges Merkle-style per-range xxhash digests with its buddy over NSM1
// SCRUB frames, localizes divergence to ranges of `range_records` records
// without ever shipping whole journals, and repairs each divergent range
// from whichever side verifies clean:
//
//   * local range verifies clean  -> push it to the buddy (kRepairPush);
//     the buddy re-verifies every record before installing (a forged or
//     rotted push can never propagate corruption).
//   * local range corrupt/missing -> pull the buddy's copy (kRepairPull),
//     re-verify every record AND the advertised digest, then overwrite the
//     local range in place (JournalMedia::write_at).
//   * neither side verifies clean -> the range is unrepairable; counted,
//     never silently dropped.
//
// Length divergence is the same machinery: a buddy that is ahead (the
// drop-ack duplication case, or a primary whose tail rotted) has trailing
// ranges the primary pulls; a buddy that is behind (stale replica) is
// pushed the missing tail. Either way the superset invariant a failover
// needs is restored *before* the failover.
//
// Epoch fencing mirrors REPL: every SCRUB frame carries the primary's
// epoch; a promoted buddy refuses older-epoch scrub traffic (counted as
// fenced_scrubs_rejected) and its replies carry the higher epoch, which the
// scrubbing side turns into DATA_LOSS — a fenced primary must not keep
// "repairing" the new primary's replica.
//
// SCRUB frame (NSM1 flag bit 5, mask 32, msg/message.h). The message's
// sequence field is the scrub exchange sequence number and the body is:
//
//   0   4  kind (1 digest request, 2 digest reply, 3 repair pull,
//           4 repair push, 5 repair reply)
//   4   8  session id
//   12  8  epoch
//   20  8  range index
//   28  4  range size in records (both sides must agree)
//   32  4  count N (digest entries or journal records; 0 otherwise)
//   36  .. N x 16-byte digest entries (digest reply:
//           u64 range index, u32 record count, u32 xxhash32 of the range)
//           or N x 37-byte journal records (repair push / repair reply)
//
// SCRUB frames only appear when anti-entropy scrubbing is on; without it
// the wire stays bit-identical to NSM1 v1.4.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "cluster/peer_link.h"
#include "common/bytes.h"
#include "common/status.h"
#include "core/journal.h"
#include "core/scrub.h"
#include "metrics/scrub_counters.h"
#include "msg/message.h"

namespace numastream {
namespace cluster {

/// Fixed prefix of a SCRUB body: kind + session + epoch + range index +
/// range size + entry count.
inline constexpr std::size_t kScrubBodyPrefix = 36;
static_assert(kScrubBodyPrefix == message_kind_rule(MessageKind::kScrub).min_body,
              "the NSM1 header check admits exactly the SCRUB prefix");
/// Bytes per range-digest entry in a SCRUB digest reply.
inline constexpr std::size_t kScrubDigestSize = 16;

/// SCRUB frame kinds: the anti-entropy sub-protocol between a primary and
/// its ring buddy (the scrubbing side drives requests; the buddy answers).
enum class ScrubKind : std::uint32_t {
  kDigestRequest = 1,  ///< scrubber -> buddy: send your range digests
  kDigestReply = 2,    ///< buddy -> scrubber: per-range digests of the replica
  kRepairPull = 3,     ///< scrubber -> buddy: send range's records verbatim
  kRepairPush = 4,     ///< scrubber -> buddy: install these verified records
  kRepairReply = 5,    ///< buddy -> scrubber: pulled records / push receipt
};

/// One journal range's fingerprint: `records` whole records hashed as raw
/// bytes. Two sides whose (records, digest) pairs agree per range hold
/// byte-identical journals without ever shipping them.
struct ScrubRangeDigest {
  std::uint64_t range = 0;      ///< range index (record index / range size)
  std::uint32_t records = 0;    ///< whole records present in the range
  std::uint32_t digest = 0;     ///< xxhash32 over the range's raw bytes

  friend bool operator==(const ScrubRangeDigest&,
                         const ScrubRangeDigest&) = default;
};

/// Decoded payload of a SCRUB frame.
struct ScrubInfo {
  ScrubKind kind = ScrubKind::kDigestRequest;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  /// Range the frame addresses (repair kinds); ignored for digest kinds,
  /// which always cover the whole journal.
  std::uint64_t range = 0;
  /// Records per range; both sides must agree or the exchange is refused.
  std::uint32_t range_records = 0;
  /// kDigestReply only: the replying side's per-range digests.
  std::vector<ScrubRangeDigest> digests;
  /// kRepairPush / kRepairReply only: concatenated 37-byte journal records.
  Bytes records;

  friend bool operator==(const ScrubInfo&, const ScrubInfo&) = default;
};

/// Anti-entropy scrub frame. `scrub_sequence` lands in the message's
/// sequence field. `info.digests` must be empty unless the kind is
/// kDigestReply; `info.records` must be a whole number of journal records
/// and empty unless the kind is kRepairPush or kRepairReply.
[[nodiscard]] Message scrub_frame(const ScrubInfo& info,
                                  std::uint64_t scrub_sequence = 0);

/// Parses a SCRUB frame body. INVALID_ARGUMENT when the kind is unknown,
/// the declared entry count disagrees with the body length, or a payload
/// rides on a kind that must be payload-less.
Result<ScrubInfo> parse_scrub_body(ByteSpan body);

/// Per-range digests of a raw journal image: range i covers records
/// [i * range_records, (i+1) * range_records), the final range may be
/// partial, and the digest is xxhash32 over the range's raw bytes. The
/// trailing partial *record* (torn tail), if any, is excluded — torn tails
/// are recovery's business, and including them would make a buddy whose
/// tail arrived intact look divergent forever.
[[nodiscard]] std::vector<ScrubRangeDigest> journal_range_digests(
    ByteSpan journal, std::uint32_t range_records);

/// The buddy's side of the anti-entropy link: answers digest requests from
/// its replica media, serves repair pulls, and installs repair pushes after
/// re-verifying every record. Thread-safe; promote() may race handle()
/// from the failover path, exactly like StandbySession.
class ScrubServer final : public PeerHandler {
 public:
  /// Borrows `media` (the replica journal) and optional `counters`; both
  /// must outlive the server. `range_records` must match the peer's.
  ScrubServer(JournalMedia& media, std::uint64_t session_id,
              std::uint32_t range_records, ScrubCounters* counters = nullptr);

  /// Handles one decoded SCRUB frame and returns the reply. A frame with a
  /// stale epoch is refused — the reply carries our higher epoch and no
  /// payload, and a push is NOT installed. Errors are protocol violations
  /// (wrong session, disagreeing range size, malformed body).
  Result<Message> handle(const Message& frame) override;

  /// Takes over: bumps the epoch past everything the old primary used.
  std::uint64_t promote();

  [[nodiscard]] std::uint64_t epoch() const;

 private:
  JournalMedia& media_;
  const std::uint64_t session_id_;
  const std::uint32_t range_records_;
  ScrubCounters* counters_;

  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
};

/// The scrubbing (primary) side: drives digest rounds against the buddy and
/// repairs divergence in both directions. Thread-safe.
class AntiEntropyScrubber {
 public:
  /// Borrows everything; all must outlive the scrubber. `local_scrubber`
  /// is optional — when given, a successful pull-repair re-verifies the
  /// range and lifts its quarantine (JournalScrubber::reverify).
  AntiEntropyScrubber(JournalMedia& local, PeerLink& link,
                      std::uint64_t session_id, const ScrubConfig& config,
                      std::uint64_t epoch = 1,
                      ScrubCounters* counters = nullptr,
                      JournalScrubber* local_scrubber = nullptr);

  /// One digest round: fetch the buddy's digests, compare against ours,
  /// repair up to `repair_concurrency` divergent ranges (the rest wait for
  /// the next round). DATA_LOSS when the buddy's reply carries a newer
  /// epoch — this side has been fenced and must stop repairing.
  Status run_round();

  [[nodiscard]] std::uint64_t epoch() const;

 private:
  Result<ScrubInfo> exchange_checked(const ScrubInfo& request);
  /// Repairs one divergent range; `local_clean` is the verdict of the local
  /// verification pass. Returns OK even when the range stays unrepairable
  /// (counted); errors are transport/media failures only.
  Status repair_range(std::uint64_t range, bool local_clean,
                      const ScrubRangeDigest* theirs, ByteSpan local_bytes);

  JournalMedia& local_;
  PeerLink& link_;
  const std::uint64_t session_id_;
  const ScrubConfig config_;
  ScrubCounters* counters_;
  JournalScrubber* local_scrubber_;

  mutable std::mutex mutex_;
  std::uint64_t epoch_;
  std::uint64_t next_sequence_ = 1;
};

}  // namespace cluster
}  // namespace numastream
