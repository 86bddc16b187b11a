// Background journal scrubbing (DESIGN.md §14).
//
// The resume/replication layers trust that a record, once fsync'd, stays
// correct forever. The scrubber removes that assumption: it incrementally
// re-reads durable records on a budgeted cadence and re-verifies each one's
// magic, type and checksum — the same per-record validation the recovery
// scan applies, but *without* truncating at the first failure. Mid-journal
// rot is not a torn tail: the records after a rotted one are still intact
// (records are fixed-size, so the scrubber can step over damage), and
// truncating there would convert one flipped bit into a mass amputation.
//
// A corrupt record quarantines its enclosing range (range = record index /
// range_records, the repair granularity shared with cluster/antientropy).
// Quarantine is sticky *counters*, never sticky DATA_LOSS: the journal
// keeps serving reads and appends while the anti-entropy layer repairs the
// range from the ring buddy, after which reverify() lifts the quarantine.
// The trailing partial record (if any) is ignored — a torn tail is the
// recovery scan's business, not latent rot.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "core/journal.h"
#include "metrics/scrub_counters.h"

namespace numastream {

/// Anti-entropy scrubbing policy for one node's journals (DESIGN.md §14).
/// Everything defaults to off, matching trust-the-fsync behavior byte for
/// byte: durable records are never re-read, no SCRUB frames on the wire,
/// latent rot surfaces only when a failover replays the replica. Turning it
/// on means setting `cadence_ms`; the scrubber then re-verifies record
/// checksums on that budgeted cadence and, when the node is clustered,
/// compares per-range digests with the ring buddy and repairs divergence
/// from whichever side verifies clean.
struct ScrubConfig {
  /// Scrub cadence in milliseconds (virtual time in simulation, wall time
  /// on a real pipeline). 0 disables the whole subsystem.
  std::uint64_t cadence_ms = 0;
  /// Journal records per digest range: the repair granularity. Must be > 0.
  std::uint32_t range_records = 64;
  /// Records re-verified per scrub round (the budget that keeps scrubbing
  /// off the hot path). Must be > 0.
  std::uint64_t budget_records = 256;
  /// Divergent ranges repaired per round. Must be >= 1.
  int repair_concurrency = 1;

  [[nodiscard]] bool is_default() const { return *this == ScrubConfig{}; }

  /// Scrubbing is on iff any knob moved; a default section keeps the wire
  /// and the journals bit-identical to the pre-scrub runtime.
  [[nodiscard]] bool enabled() const { return !is_default(); }

  friend bool operator==(const ScrubConfig&, const ScrubConfig&) = default;
};

/// True when the 37-byte record at `rec` passes the magic/type/checksum
/// validation — the single-record version of scan_journal's trust test.
[[nodiscard]] bool journal_record_valid(const std::uint8_t* rec);

/// Verifies the whole-record region [first_record, first_record + count) of
/// `journal`, returning the indices (absolute, not relative) of the records
/// that fail validation. Records past the journal's end are not reported.
[[nodiscard]] std::vector<std::uint64_t> find_corrupt_records(
    ByteSpan journal, std::uint64_t first_record, std::uint64_t count);

/// Incremental, budgeted re-verification of one journal's durable records.
/// Thread-safe; borrows `media` (and optionally `counters`), both of which
/// must outlive it.
class JournalScrubber {
 public:
  JournalScrubber(JournalMedia& media, const ScrubConfig& config,
                  ScrubCounters* counters = nullptr);

  /// One scrub increment: re-reads up to `budget_records` whole records
  /// from the cursor, verifies each, quarantines the ranges of any that
  /// fail, and wraps (counting a completed pass) at the journal's end.
  /// Corruption is never an error — it is quarantined and counted; only a
  /// media read failure surfaces as a Status.
  Status tick();

  /// Ranges currently quarantined, ascending.
  [[nodiscard]] std::vector<std::uint64_t> quarantined_ranges() const;

  [[nodiscard]] bool range_quarantined(std::uint64_t range) const;

  /// Re-verifies one quarantined range against the media (after a repair
  /// overwrote it) and lifts the quarantine when every record is clean.
  /// Returns true when the quarantine was lifted.
  bool reverify(std::uint64_t range);

  /// Next record index tick() will verify.
  [[nodiscard]] std::uint64_t cursor_record() const;

 private:
  void quarantine_locked(std::uint64_t range);

  JournalMedia& media_;
  const ScrubConfig config_;
  ScrubCounters* counters_;

  mutable std::mutex mutex_;
  std::uint64_t cursor_ = 0;  ///< record index, not byte offset
  std::set<std::uint64_t> quarantined_;
};

}  // namespace numastream
