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
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/journal.h"
#include "core/scrub.h"
#include "metrics/scrub_counters.h"
#include "msg/message.h"

namespace numastream {
namespace cluster {

static_assert(kScrubRecordSize == kJournalRecordSize,
              "SCRUB frame grammar and journal record format must agree");

/// Per-range digests of a raw journal image: range i covers records
/// [i * range_records, (i+1) * range_records), the final range may be
/// partial, and the digest is xxhash32 over the range's raw bytes. The
/// trailing partial *record* (torn tail), if any, is excluded — torn tails
/// are recovery's business, and including them would make a buddy whose
/// tail arrived intact look divergent forever.
[[nodiscard]] std::vector<ScrubRangeDigest> journal_range_digests(
    ByteSpan journal, std::uint32_t range_records);

/// One synchronous request/reply exchange with the buddy's scrub server.
/// Used under the scrubber's lock, so implementations need not be
/// thread-safe. InprocScrubLink below is the in-process one.
class ScrubTransport {
 public:
  virtual ~ScrubTransport() = default;
  virtual Result<Message> exchange(const Message& frame) = 0;
};

/// The buddy's side of the anti-entropy link: answers digest requests from
/// its replica media, serves repair pulls, and installs repair pushes after
/// re-verifying every record. Thread-safe; promote() may race handle()
/// from the failover path, exactly like StandbySession.
class ScrubServer {
 public:
  /// Borrows `media` (the replica journal) and optional `counters`; both
  /// must outlive the server. `range_records` must match the peer's.
  ScrubServer(JournalMedia& media, std::uint64_t session_id,
              std::uint32_t range_records, ScrubCounters* counters = nullptr);

  /// Handles one decoded SCRUB frame and returns the reply. A frame with a
  /// stale epoch is refused — the reply carries our higher epoch and no
  /// payload, and a push is NOT installed. Errors are protocol violations
  /// (wrong session, disagreeing range size, malformed body).
  Result<Message> handle(const Message& frame);

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
  AntiEntropyScrubber(JournalMedia& local, ScrubTransport& transport,
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
  ScrubTransport& transport_;
  const std::uint64_t session_id_;
  const ScrubConfig config_;
  ScrubCounters* counters_;
  JournalScrubber* local_scrubber_;

  mutable std::mutex mutex_;
  std::uint64_t epoch_;
  std::uint64_t next_sequence_ = 1;
};

/// In-process scrub link for tests and the simulated cluster, mirroring
/// InprocReplicationLink: a direct call into the buddy's server, with a
/// partition switch.
class InprocScrubLink final : public ScrubTransport {
 public:
  explicit InprocScrubLink(ScrubServer& server) : server_(server) {}

  void set_partitioned(bool partitioned) { partitioned_ = partitioned; }

  Result<Message> exchange(const Message& frame) override {
    if (partitioned_) {
      return unavailable_error("scrub link partitioned");
    }
    return server_.handle(frame);
  }

 private:
  ScrubServer& server_;
  bool partitioned_ = false;
};

}  // namespace cluster
}  // namespace numastream
