// Crash-consistent write-ahead session journal (DESIGN.md §11).
//
// PR 1's recovery layer survives *connection* faults: the sender re-dials and
// re-sends from memory, the receiver recycles and dedups within one process
// lifetime. This file survives *process* faults. Each endpoint appends
// fixed-size records to a journal before the action they describe becomes
// externally visible (sender: before the chunk hits the wire; receiver:
// after the chunk reaches the sink), so a kill -9 at any instant loses at
// most the unflushed tail — never a committed delivery.
//
// Record layout (37 bytes, little-endian):
//
//   off  len  field
//   0    4    magic 0x314A534E ("NSJ1")
//   4    1    type (kSession / kSent / kAcked / kDelivered)
//   5    4    stream id
//   9    8    sequence (session id for kSession; watermark for kAcked)
//   17   8    byte offset of the chunk in its stream (0 when n/a)
//   25   4    xxhash32 of the chunk body (0 when n/a)
//   29   4    body size in bytes (0 when n/a)
//   33   4    xxhash32 of bytes [0, 33) — the torn-write detector
//
// Recovery scans from the start and truncates at the first record whose
// magic or checksum fails (or that is short): a crash mid-append tears at
// most the final record, and everything before it is trusted. The first
// record of a journal is always kSession; recovering against a journal
// written by a different session id is an error, not a silent resume.
//
// Watermark convention: a stream's watermark is the lowest sequence NOT yet
// committed — every sequence below it has been delivered to the sink. New
// streams start at 0, so no sentinel is needed and the watermark is monotone.
//
// JournalMedia abstracts the byte sink so tests crash without processes
// dying: MemoryJournalMedia keeps a durable prefix and a pending tail that a
// simulated crash drops (exactly what the page cache loses on kill -9), and
// FileJournalMedia appends + fsyncs a real file for the demo binaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

class ResumeCounters;

inline constexpr std::uint32_t kJournalMagic = 0x314A534EU;  // "NSJ1"
inline constexpr std::size_t kJournalRecordSize = 37;

enum class JournalRecordType : std::uint8_t {
  kSession = 1,    ///< first record; sequence = session id
  kSent = 2,       ///< sender: chunk handed to the wire
  kAcked = 3,      ///< sender: peer committed everything below `sequence`
  kDelivered = 4,  ///< receiver: chunk reached the sink
};

/// One decoded journal record.
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kSession;
  std::uint32_t stream_id = 0;
  std::uint64_t sequence = 0;
  std::uint64_t offset = 0;
  std::uint32_t body_hash = 0;
  std::uint32_t body_size = 0;

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// Encodes one record, checksum included.
[[nodiscard]] Bytes encode_journal_record(const JournalRecord& record);

/// Result of a recovery scan: the trusted records and how much tail was cut.
struct JournalScan {
  std::vector<JournalRecord> records;
  std::uint64_t torn_records = 0;   ///< records dropped by the truncation
  std::uint64_t trusted_bytes = 0;  ///< prefix length that passed validation
};

/// Scans raw journal bytes, truncating at the first short, mis-magicked or
/// checksum-failing record. Never fails: a fully corrupt journal is simply
/// empty with a nonzero torn count.
[[nodiscard]] JournalScan scan_journal(ByteSpan data);

/// Durable byte sink for a journal. append() buffers; flush() makes the
/// buffered bytes crash-durable. Implementations are thread-safe.
class JournalMedia {
 public:
  virtual ~JournalMedia() = default;
  virtual Status append(ByteSpan data) = 0;
  virtual Status flush() = 0;
  /// Everything a restarted process would read back: durable bytes only.
  virtual Result<Bytes> read_all() = 0;
  /// Overwrites durable bytes in place at `offset`, extending the journal
  /// when the write reaches past its end. This is the anti-entropy repair
  /// path (DESIGN.md §14), never the append path: repairs replace already-
  /// durable bytes with verified-clean copies, so they bypass the pending
  /// buffer and are durable on return. UNIMPLEMENTED by default — only
  /// media that can be scrub targets provide it.
  virtual Status write_at(std::uint64_t offset, ByteSpan data);
};

/// In-memory media with an explicit durability line, for crash tests: bytes
/// move from pending to durable on flush(), and crash() discards pending —
/// the in-process equivalent of kill -9 eating the page cache.
class MemoryJournalMedia : public JournalMedia {
 public:
  Status append(ByteSpan data) override;
  Status flush() override;
  Result<Bytes> read_all() override;
  Status write_at(std::uint64_t offset, ByteSpan data) override;

  /// Simulates process death: unflushed bytes are gone.
  void crash();
  /// Simulates a torn append: keeps only `keep_pending` bytes of the pending
  /// tail as if the crash landed mid-write, then makes them durable.
  void crash_torn(std::size_t keep_pending);

  /// Seeded latent bit rot (DESIGN.md §14): flips one deterministic bit in
  /// each of `flips` seeded positions within durable bytes
  /// [offset, offset + length). Same seed, same damage. Returns how many
  /// bits were flipped (less than `flips` when the window is empty).
  int rot(std::uint64_t seed, std::uint64_t offset, std::uint64_t length,
          int flips = 1);

  /// Stale-replica mode: the last `bytes` durable bytes silently vanish, as
  /// if this replica stopped applying while still claiming to be current.
  /// Returns how many bytes were dropped.
  std::size_t drop_durable_tail(std::size_t bytes);

  [[nodiscard]] std::size_t durable_size() const;

 private:
  mutable std::mutex mutex_;
  Bytes durable_;
  Bytes pending_;
};

/// Append + fsync against a real file. Created lazily on first append;
/// read_all() opens the path fresh, as a restarted process would.
///
/// Error contract: a failed or short write() and a failed fsync() surface
/// as DATA_LOSS to the caller — and latch. After the first such failure
/// every later append()/flush() returns the same status without touching
/// the file, because a post-failure retry can falsely succeed (the kernel
/// clears the per-fd error on fsync failure) while the journaled bytes are
/// gone. A torn tail left by a partial write is handled by the recovery
/// scan's truncation; the latch keeps this incarnation from writing past
/// it. Open failures are UNAVAILABLE and not sticky (transient, retried on
/// the next append).
/// Creating the file also fsyncs its parent directory: without the dirsync
/// a crash right after create can lose the *file itself* (the inode is
/// durable, the directory entry is not), which the torn-tail scan cannot
/// see — the whole journal silently reverts to "fresh session". A failed
/// dirsync latches DATA_LOSS exactly like a failed write.
class FileJournalMedia : public JournalMedia {
 public:
  explicit FileJournalMedia(std::string path);
  ~FileJournalMedia() override;

  Status append(ByteSpan data) override;
  Status flush() override;
  Result<Bytes> read_all() override;
  Status write_at(std::uint64_t offset, ByteSpan data) override;

  /// Seeded latent bit rot against the file image, for scrub tests: same
  /// contract as MemoryJournalMedia::rot. Returns bits flipped.
  Result<int> rot(std::uint64_t seed, std::uint64_t offset,
                  std::uint64_t length, int flips = 1);

  /// Stale-replica mode: truncates the last `bytes` off the file.
  Status drop_tail(std::uint64_t bytes);

  /// True once the parent directory entry has been made durable.
  [[nodiscard]] bool directory_synced() const;

  /// Crash-before-dirsync simulation: the next (or pending) directory sync
  /// reports failure, as if the machine died between create and dirsync.
  void fail_dirsync_for_test();

 private:
  Status sync_parent_directory_locked();

  mutable std::mutex mutex_;
  std::string path_;
  int fd_ = -1;
  Status sticky_ = Status::ok();  ///< first write/fsync DATA_LOSS, latched
  bool directory_synced_ = false;
  bool fail_dirsync_ = false;  ///< test hook: simulate dirsync failure
};

/// Sender-side write-ahead journal: one record per chunk *before* it is
/// handed to the transport, pruned as the peer's RESUME watermarks arrive.
/// After a restart, acked_watermark() tells the send path which sequences to
/// suppress, and the unacked set bounds the re-work a crash can cost.
class SenderJournal {
 public:
  /// Borrows `media` and (optionally) `counters`; both must outlive it.
  SenderJournal(JournalMedia& media, std::uint64_t session_id,
                ResumeCounters* counters = nullptr);

  /// Replays the durable journal: validates the session record (writing one
  /// into an empty journal), rebuilds watermarks and the unacked set.
  /// DATA_LOSS when the journal belongs to a different session.
  Status recover();

  /// Write-ahead: journal the chunk, durably, before the wire sees it.
  Status record_sent(std::uint32_t stream_id, std::uint64_t sequence,
                     std::uint64_t offset, std::uint32_t body_hash,
                     std::uint32_t body_size);

  /// The peer committed every sequence below `watermark` on this stream.
  Status record_acked(std::uint32_t stream_id, std::uint64_t watermark);

  /// Lowest sequence not known committed on `stream_id` (0 for new streams).
  [[nodiscard]] std::uint64_t acked_watermark(std::uint32_t stream_id) const;

  /// True when (stream, sequence) was journaled as sent but never acked —
  /// i.e. re-sending it now is crash re-work, not first-time work.
  [[nodiscard]] bool sent_unacked(std::uint32_t stream_id,
                                  std::uint64_t sequence) const;

  /// Journaled-but-unacked chunks — the crash re-work bound.
  [[nodiscard]] std::uint64_t unacked_count() const;
  [[nodiscard]] std::uint64_t unacked_bytes() const;

  [[nodiscard]] std::uint64_t session_id() const noexcept { return session_id_; }

 private:
  Status append_record(const JournalRecord& record);
  [[nodiscard]] std::uint64_t acked_watermark_unlocked(
      std::uint32_t stream_id) const;

  JournalMedia& media_;
  const std::uint64_t session_id_;
  ResumeCounters* counters_;

  mutable std::mutex mutex_;
  bool recovered_ = false;
  std::map<std::uint32_t, std::uint64_t> watermarks_;
  /// (stream, sequence) -> body size, for the unacked-bytes bound.
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> unacked_;
};

/// Per-stream sequence membership (DESIGN.md §6, §11): each stream is a
/// watermark — every sequence below it is present — plus the present
/// sequences above it. Membership is exactly that of a set of (stream,
/// sequence) pairs, but memory holds only the entries above each stream's
/// lowest missing sequence, so a stream whose gaps fill costs one watermark
/// however long it runs. There is no cap: a permanent gap keeps every later
/// entry, because forgetting one would turn a late replay into a lost
/// chunk. Not thread-safe; owners lock around it.
class SequenceLedger {
 public:
  /// Adds (stream, sequence); false when it was already present.
  bool insert(std::uint32_t stream_id, std::uint64_t sequence);

  [[nodiscard]] bool contains(std::uint32_t stream_id,
                              std::uint64_t sequence) const;

  /// Lowest sequence not present on `stream_id` (0 for new streams).
  [[nodiscard]] std::uint64_t watermark(std::uint32_t stream_id) const;

  /// Every stream's watermark, sorted by stream id.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>> watermarks()
      const;

  /// Entries held above the watermarks, across every stream.
  [[nodiscard]] std::size_t held() const;

 private:
  struct StreamState {
    std::uint64_t watermark = 0;    ///< all sequences below: present
    std::set<std::uint64_t> above;  ///< present sequences past the first gap
  };

  std::map<std::uint32_t, StreamState> streams_;
};

/// Receiver-side committed-delivery ledger: one record per chunk *after* it
/// reaches the sink. seen() is the durable half of exactly-once — it
/// recognizes replays from a sender that crashed after sending but before
/// learning the delivery was committed.
class ReceiverJournal {
 public:
  ReceiverJournal(JournalMedia& media, std::uint64_t session_id,
                  ResumeCounters* counters = nullptr);

  /// Replays the durable ledger and rebuilds per-stream watermarks.
  Status recover();

  /// True when (stream, sequence) was already committed to the sink.
  [[nodiscard]] bool seen(std::uint32_t stream_id, std::uint64_t sequence) const;

  /// Journals the committed delivery and advances the contiguous watermark.
  Status record_delivered(std::uint32_t stream_id, std::uint64_t sequence);

  /// Lowest sequence not yet committed on `stream_id` (0 for new streams).
  [[nodiscard]] std::uint64_t watermark(std::uint32_t stream_id) const;

  /// Every stream's watermark, sorted by stream id — the RESUME payload.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>> watermarks()
      const;

  [[nodiscard]] std::uint64_t session_id() const noexcept { return session_id_; }

 private:
  Status append_record(const JournalRecord& record);

  JournalMedia& media_;
  const std::uint64_t session_id_;
  ResumeCounters* counters_;

  mutable std::mutex mutex_;
  bool recovered_ = false;
  SequenceLedger committed_;
};

}  // namespace numastream
