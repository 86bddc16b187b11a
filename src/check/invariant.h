// InvariantMonitor: the protocol safety catalog as executable probes
// (DESIGN.md §16).
//
// Every safety argument the federation stack has accumulated — exactly-once
// delivery (PR 5), epoch-fence split-brain safety (PR 6), the standby
// journal superset (PR 6), credit/budget conservation (PR 2), planned
// handoff atomicity (PR 7) — lives in prose and in one targeted test each.
// This monitor turns the catalog into probes a chaos run feeds
// continuously, so a violation is caught at the *moment* it happens under
// whatever fault composition produced it, not when a downstream assert
// finally trips.
//
// The probes:
//
//   kExactlyOnce      every (stream, sequence) reaches a sink at most once
//                     across the whole federation — two gateways delivering
//                     the same chunk is the split-brain smoking gun.
//   kEpochMonotone    a session's observed epoch never decreases; a
//                     rollback would un-fence a fenced primary.
//   kSinglePrimary    at most one gateway performs primary-role delivery
//                     work at any given epoch.
//   kStandbySuperset  at promote, the standby's valid journal records are
//                     a superset of the acked deliveries — what the buddy
//                     replays covers everything the client was promised.
//                     (Superset, not equality: a one-way ack loss leaves
//                     the standby legitimately AHEAD of the acked set.)
//   kLedgerSettle     at drain, the memory budget and credit ledgers are
//                     back to zero — leaked charges starve future traffic.
//   kNoHoles          after a failover, the successor's recovered watermark
//                     covers every acked delivery — no client-visible gap.
//
// The monitor is passive bookkeeping: callers report facts, the monitor
// records violations and keeps going (a chaos episode should surface ALL
// the damage, not stop at the first count). It is thread-safe so pipeline
// threads can feed it live, and allocation-light so probes stay off the
// measured path: when chaos is off nothing constructs a monitor at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "metrics/chaos_counters.h"

namespace numastream {
namespace check {

enum class InvariantProbe : std::uint8_t {
  kExactlyOnce = 1,
  kEpochMonotone = 2,
  kSinglePrimary = 3,
  kStandbySuperset = 4,
  kLedgerSettle = 5,
  kNoHoles = 6,
};

[[nodiscard]] std::string to_string(InvariantProbe probe);
[[nodiscard]] Result<InvariantProbe> invariant_probe_from_string(
    const std::string& token);

/// One caught violation: which probe, where, and a human-readable account.
/// `detail` is diagnostic only; probe/stream/sequence are the canonical
/// identity a replay must reproduce exactly.
struct InvariantViolation {
  InvariantProbe probe = InvariantProbe::kExactlyOnce;
  std::uint32_t stream_id = 0;
  std::uint64_t sequence = 0;
  std::string detail;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const InvariantViolation&,
                         const InvariantViolation&) = default;
};

class InvariantMonitor {
 public:
  explicit InvariantMonitor(ChaosCounters* counters = nullptr);

  /// kExactlyOnce + kSinglePrimary: `gateway` committed (stream, sequence)
  /// to a client-visible sink while believing itself primary at `epoch`.
  void on_delivery(std::uint32_t gateway, std::uint64_t epoch,
                   std::uint32_t stream_id, std::uint64_t sequence);

  /// kEpochMonotone: some component observed `epoch` for `session`.
  void on_epoch(std::uint64_t session, std::uint64_t epoch);

  /// kStandbySuperset: the standby whose durable journal is
  /// `standby_journal` is being promoted. Valid kDelivered records are
  /// scanned out and compared against the acked-delivery ledger.
  void on_promote(ByteSpan standby_journal);

  /// kNoHoles: a failover completed; `watermark` is the successor's
  /// recovered contiguous watermark for `stream_id`.
  void on_failover_watermark(std::uint32_t stream_id, std::uint64_t watermark);

  /// kLedgerSettle: the system drained; both ledgers must be zero.
  void on_drain(std::uint64_t budget_bytes_held, std::int64_t credits_out);

  [[nodiscard]] bool clean() const;
  [[nodiscard]] std::vector<InvariantViolation> violations() const;
  [[nodiscard]] std::uint64_t deliveries() const;

  /// Highest acked sequence + 1 for `stream_id` (0 when nothing acked):
  /// what a successor must cover.
  [[nodiscard]] std::uint64_t acked_frontier(std::uint32_t stream_id) const;

 private:
  void record_violation(InvariantViolation violation);
  void note_probe() const;

  ChaosCounters* counters_;

  mutable std::mutex mutex_;
  std::uint64_t deliveries_ = 0;
  /// Acked (stream -> committed sequences) across every gateway's sink.
  std::map<std::uint32_t, std::set<std::uint64_t>> acked_;
  /// epoch -> gateway that performed primary work there.
  std::map<std::uint64_t, std::uint32_t> primary_at_epoch_;
  /// session -> highest epoch observed.
  std::map<std::uint64_t, std::uint64_t> session_epoch_;
  std::vector<InvariantViolation> violations_;
};

/// ChunkSink decorator feeding kExactlyOnce from a live pipeline: wraps
/// the real sink, reports each delivery, forwards the chunk untouched.
/// Wiring one up is the only pipeline-side cost of chaos probes — a
/// pipeline built without one runs the unprobed hot path byte for byte.
class ProbeSink final : public ChunkSink {
 public:
  /// Borrows both; they must outlive the sink. `gateway`/`epoch` stamp the
  /// deliveries this pipeline performs.
  ProbeSink(ChunkSink& inner, InvariantMonitor& monitor, std::uint32_t gateway,
            std::uint64_t epoch = 1);

  void deliver(Chunk chunk) override;

  /// A promotion moved this pipeline to a new epoch.
  void set_epoch(std::uint64_t epoch);

 private:
  ChunkSink& inner_;
  InvariantMonitor& monitor_;
  const std::uint32_t gateway_;
  std::atomic<std::uint64_t> epoch_;
};

}  // namespace check
}  // namespace numastream
