#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

#include "codec/xxhash.h"
#include "common/assert.h"
#include "metrics/resume_counters.h"

namespace numastream {
namespace {

constexpr std::size_t kChecksumOffset = kJournalRecordSize - 4;

[[nodiscard]] bool valid_record_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(JournalRecordType::kSession) &&
         type <= static_cast<std::uint8_t>(JournalRecordType::kDelivered);
}

// Seeded position generator for the rot injectors: splitmix64, so the same
// seed damages the same bits on every run (the bit-identity contract every
// chaos suite relies on).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Flips one seeded bit per draw within bytes [offset, offset + length) of
// `image`. Shared by both media's rot modes.
int rot_image(Bytes& image, std::uint64_t seed, std::uint64_t offset,
              std::uint64_t length, int flips) {
  if (offset >= image.size()) {
    return 0;
  }
  const std::uint64_t window = std::min<std::uint64_t>(length, image.size() - offset);
  if (window == 0) {
    return 0;
  }
  std::uint64_t state = seed;
  int flipped = 0;
  for (int i = 0; i < flips; ++i) {
    const std::uint64_t draw = splitmix64(state);
    const std::uint64_t position = offset + (draw % window);
    image[position] ^= static_cast<std::uint8_t>(1U << ((draw >> 32) % 8));
    ++flipped;
  }
  return flipped;
}

}  // namespace

Status JournalMedia::write_at(std::uint64_t /*offset*/, ByteSpan /*data*/) {
  return unimplemented_error(
      "journal media does not support in-place repair writes");
}

Bytes encode_journal_record(const JournalRecord& record) {
  Bytes out;
  out.reserve(kJournalRecordSize);
  ByteWriter w(out);
  w.u32(kJournalMagic);
  out.push_back(static_cast<std::uint8_t>(record.type));
  w.u32(record.stream_id);
  w.u64(record.sequence);
  w.u64(record.offset);
  w.u32(record.body_hash);
  w.u32(record.body_size);
  w.u32(xxhash32(ByteSpan(out.data(), kChecksumOffset)));
  return out;
}

JournalScan scan_journal(ByteSpan data) {
  JournalScan scan;
  std::size_t pos = 0;
  while (pos + kJournalRecordSize <= data.size()) {
    const std::uint8_t* rec = data.data() + pos;
    if (load_le32(rec) != kJournalMagic || !valid_record_type(rec[4]) ||
        load_le32(rec + kChecksumOffset) !=
            xxhash32(ByteSpan(rec, kChecksumOffset))) {
      break;
    }
    JournalRecord record;
    record.type = static_cast<JournalRecordType>(rec[4]);
    record.stream_id = load_le32(rec + 5);
    record.sequence = load_le64(rec + 9);
    record.offset = load_le64(rec + 17);
    record.body_hash = load_le32(rec + 25);
    record.body_size = load_le32(rec + 29);
    scan.records.push_back(record);
    pos += kJournalRecordSize;
  }
  scan.trusted_bytes = pos;
  if (pos < data.size()) {
    // Anything past the first bad record is untrusted; count whole and
    // partial trailing records alike.
    scan.torn_records = (data.size() - pos + kJournalRecordSize - 1) /
                        kJournalRecordSize;
  }
  return scan;
}

// ---- MemoryJournalMedia ----------------------------------------------------

Status MemoryJournalMedia::append(ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.insert(pending_.end(), data.begin(), data.end());
  return Status();
}

Status MemoryJournalMedia::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  durable_.insert(durable_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  return Status();
}

Result<Bytes> MemoryJournalMedia::read_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_;
}

Status MemoryJournalMedia::write_at(std::uint64_t offset, ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (offset + data.size() > durable_.size()) {
    durable_.resize(offset + data.size());
  }
  std::copy(data.begin(), data.end(),
            durable_.begin() + static_cast<std::ptrdiff_t>(offset));
  return Status();
}

int MemoryJournalMedia::rot(std::uint64_t seed, std::uint64_t offset,
                            std::uint64_t length, int flips) {
  std::lock_guard<std::mutex> lock(mutex_);
  return rot_image(durable_, seed, offset, length, flips);
}

std::size_t MemoryJournalMedia::drop_durable_tail(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t dropped = std::min(bytes, durable_.size());
  durable_.resize(durable_.size() - dropped);
  return dropped;
}

void MemoryJournalMedia::crash() {
  std::lock_guard<std::mutex> lock(mutex_);
  pending_.clear();
}

void MemoryJournalMedia::crash_torn(std::size_t keep_pending) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (keep_pending < pending_.size()) {
    pending_.resize(keep_pending);
  }
  durable_.insert(durable_.end(), pending_.begin(), pending_.end());
  pending_.clear();
}

std::size_t MemoryJournalMedia::durable_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_.size();
}

// ---- FileJournalMedia ------------------------------------------------------

FileJournalMedia::FileJournalMedia(std::string path) : path_(std::move(path)) {}

FileJournalMedia::~FileJournalMedia() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status FileJournalMedia::append(ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sticky_.is_ok()) {
    return sticky_;
  }
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd_ < 0) {
      return unavailable_error("journal: open '" + path_ +
                               "': " + std::strerror(errno));
    }
    // The directory entry must be durable before any record is: otherwise a
    // crash after create loses the file itself and the journal silently
    // reads back as a fresh session — a hole no torn-tail scan can see.
    const Status dirsync = sync_parent_directory_locked();
    if (!dirsync.is_ok()) {
      sticky_ = dirsync;
      return sticky_;
    }
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      sticky_ = data_loss_error("journal: write '" + path_ +
                                "': " + std::strerror(errno));
      return sticky_;
    }
    if (n == 0) {
      // A zero-length write would spin forever; surface it as the short
      // write it is. The partial record it may leave behind is exactly
      // what the recovery scan's torn-tail truncation handles.
      sticky_ = data_loss_error("journal: short write '" + path_ + "' (wrote " +
                                std::to_string(written) + " of " +
                                std::to_string(data.size()) + " bytes)");
      return sticky_;
    }
    written += static_cast<std::size_t>(n);
  }
  return Status();
}

Status FileJournalMedia::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sticky_.is_ok()) {
    return sticky_;
  }
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    // fsync failure means the kernel dropped dirty journal pages; it also
    // clears the fd's error state, so a retry would "succeed" over a hole.
    // Latch instead: this incarnation's journal is no longer trustworthy.
    sticky_ = data_loss_error("journal: fsync '" + path_ +
                              "': " + std::strerror(errno));
    return sticky_;
  }
  return Status();
}

Status FileJournalMedia::sync_parent_directory_locked() {
  if (directory_synced_) {
    return Status();
  }
  if (fail_dirsync_) {
    // Crash-before-dirsync simulation: the entry never became durable.
    return data_loss_error("journal: dirsync '" + path_ +
                           "': injected failure (crash before the directory "
                           "entry became durable)");
  }
  const auto slash = path_.find_last_of('/');
  const std::string parent =
      slash == std::string::npos ? "." : path_.substr(0, slash + 1);
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) {
    return data_loss_error("journal: open dir '" + parent +
                           "': " + std::strerror(errno));
  }
  const int rc = ::fsync(dir_fd);
  const int saved_errno = errno;
  ::close(dir_fd);
  if (rc != 0) {
    return data_loss_error("journal: dirsync '" + parent +
                           "': " + std::strerror(saved_errno));
  }
  directory_synced_ = true;
  return Status();
}

bool FileJournalMedia::directory_synced() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return directory_synced_;
}

void FileJournalMedia::fail_dirsync_for_test() {
  std::lock_guard<std::mutex> lock(mutex_);
  fail_dirsync_ = true;
}

Status FileJournalMedia::write_at(std::uint64_t offset, ByteSpan data) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sticky_.is_ok()) {
    return sticky_;
  }
  // A dedicated non-append fd: pwrite on an O_APPEND descriptor ignores the
  // offset on Linux, which would turn every repair into a corrupting append.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return unavailable_error("journal: open '" + path_ +
                             "': " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::pwrite(fd, data.data() + written, data.size() - written,
                 static_cast<off_t>(offset + written));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status status = data_loss_error("journal: repair write '" + path_ +
                                            "': " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) {
      ::close(fd);
      return data_loss_error("journal: short repair write '" + path_ + "'");
    }
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const Status status = data_loss_error("journal: repair fsync '" + path_ +
                                          "': " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  ::close(fd);
  return Status();
}

Result<int> FileJournalMedia::rot(std::uint64_t seed, std::uint64_t offset,
                                  std::uint64_t length, int flips) {
  auto image = read_all();
  if (!image.ok()) {
    return image.status();
  }
  Bytes bytes = std::move(image).value();
  const int flipped = rot_image(bytes, seed, offset, length, flips);
  if (flipped == 0) {
    return 0;
  }
  NS_RETURN_IF_ERROR(write_at(0, bytes));
  return flipped;
}

Status FileJournalMedia::drop_tail(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto size = [&]() -> Result<std::uint64_t> {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd < 0) {
      return unavailable_error("journal: open '" + path_ +
                               "': " + std::strerror(errno));
    }
    const off_t end = ::lseek(fd, 0, SEEK_END);
    ::close(fd);
    if (end < 0) {
      return unavailable_error("journal: seek '" + path_ +
                               "': " + std::strerror(errno));
    }
    return static_cast<std::uint64_t>(end);
  }();
  if (!size.ok()) {
    return size.status();
  }
  const std::uint64_t keep =
      size.value() > bytes ? size.value() - bytes : 0;
  if (::truncate(path_.c_str(), static_cast<off_t>(keep)) != 0) {
    return unavailable_error("journal: truncate '" + path_ +
                             "': " + std::strerror(errno));
  }
  return Status();
}

Result<Bytes> FileJournalMedia::read_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Bytes();  // no journal yet: a fresh session
    }
    return unavailable_error("journal: open '" + path_ +
                             "': " + std::strerror(errno));
  }
  Bytes out;
  std::uint8_t buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const Status status = data_loss_error("journal: read '" + path_ +
                                            "': " + std::strerror(errno));
      ::close(fd);
      return status;
    }
    if (n == 0) {
      break;
    }
    out.insert(out.end(), buffer, buffer + n);
  }
  ::close(fd);
  return out;
}

// ---- SenderJournal ---------------------------------------------------------

SenderJournal::SenderJournal(JournalMedia& media, std::uint64_t session_id,
                             ResumeCounters* counters)
    : media_(media), session_id_(session_id), counters_(counters) {}

Status SenderJournal::append_record(const JournalRecord& record) {
  const Bytes encoded = encode_journal_record(record);
  NS_RETURN_IF_ERROR(media_.append(encoded));
  NS_RETURN_IF_ERROR(media_.flush());
  count(&ResumeCounters::journal_records_written, counters_);
  return Status();
}

Status SenderJournal::recover() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto data = media_.read_all();
  if (!data.ok()) {
    return data.status();
  }
  const JournalScan scan = scan_journal(data.value());
  count(&ResumeCounters::torn_records_truncated, counters_, scan.torn_records);
  if (scan.records.empty()) {
    recovered_ = true;
    return append_record(JournalRecord{.type = JournalRecordType::kSession,
                                       .sequence = session_id_});
  }
  const JournalRecord& head = scan.records.front();
  if (head.type != JournalRecordType::kSession || head.sequence != session_id_) {
    return data_loss_error(
        "journal: session mismatch (journal holds session " +
        std::to_string(head.type == JournalRecordType::kSession ? head.sequence
                                                                : 0) +
        ", this endpoint is session " + std::to_string(session_id_) + ")");
  }
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    const JournalRecord& record = scan.records[i];
    switch (record.type) {
      case JournalRecordType::kSent:
        if (record.sequence >= acked_watermark_unlocked(record.stream_id)) {
          unacked_[{record.stream_id, record.sequence}] = record.body_size;
        }
        break;
      case JournalRecordType::kAcked: {
        std::uint64_t& mark = watermarks_[record.stream_id];
        mark = std::max(mark, record.sequence);
        auto it = unacked_.lower_bound({record.stream_id, 0});
        while (it != unacked_.end() && it->first.first == record.stream_id &&
               it->first.second < mark) {
          it = unacked_.erase(it);
        }
        break;
      }
      case JournalRecordType::kSession:
      case JournalRecordType::kDelivered:
        break;  // foreign record types are ignored, not fatal
    }
  }
  count(&ResumeCounters::journal_records_replayed, counters_,
        scan.records.size());
  recovered_ = true;
  return Status();
}

std::uint64_t SenderJournal::acked_watermark_unlocked(
    std::uint32_t stream_id) const {
  const auto it = watermarks_.find(stream_id);
  return it == watermarks_.end() ? 0 : it->second;
}

Status SenderJournal::record_sent(std::uint32_t stream_id,
                                  std::uint64_t sequence, std::uint64_t offset,
                                  std::uint32_t body_hash,
                                  std::uint32_t body_size) {
  std::lock_guard<std::mutex> lock(mutex_);
  NS_CHECK(recovered_, "SenderJournal::recover() must run first");
  NS_RETURN_IF_ERROR(append_record(JournalRecord{.type = JournalRecordType::kSent,
                                                 .stream_id = stream_id,
                                                 .sequence = sequence,
                                                 .offset = offset,
                                                 .body_hash = body_hash,
                                                 .body_size = body_size}));
  unacked_[{stream_id, sequence}] = body_size;
  return Status();
}

Status SenderJournal::record_acked(std::uint32_t stream_id,
                                   std::uint64_t watermark) {
  std::lock_guard<std::mutex> lock(mutex_);
  NS_CHECK(recovered_, "SenderJournal::recover() must run first");
  std::uint64_t& mark = watermarks_[stream_id];
  if (watermark <= mark) {
    return Status();  // stale or repeated ack: the watermark is monotone
  }
  NS_RETURN_IF_ERROR(
      append_record(JournalRecord{.type = JournalRecordType::kAcked,
                                  .stream_id = stream_id,
                                  .sequence = watermark}));
  mark = watermark;
  auto it = unacked_.lower_bound({stream_id, 0});
  while (it != unacked_.end() && it->first.first == stream_id &&
         it->first.second < watermark) {
    it = unacked_.erase(it);
  }
  return Status();
}

std::uint64_t SenderJournal::acked_watermark(std::uint32_t stream_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return acked_watermark_unlocked(stream_id);
}

bool SenderJournal::sent_unacked(std::uint32_t stream_id,
                                 std::uint64_t sequence) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unacked_.count({stream_id, sequence}) != 0;
}

std::uint64_t SenderJournal::unacked_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return unacked_.size();
}

std::uint64_t SenderJournal::unacked_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [key, size] : unacked_) {
    total += size;
  }
  return total;
}

// ---- SequenceLedger --------------------------------------------------------

bool SequenceLedger::insert(std::uint32_t stream_id, std::uint64_t sequence) {
  StreamState& state = streams_[stream_id];
  if (sequence == state.watermark) {
    ++state.watermark;  // in order: nothing to hold
  } else if (sequence < state.watermark || !state.above.insert(sequence).second) {
    return false;
  }
  while (!state.above.empty() && *state.above.begin() == state.watermark) {
    state.above.erase(state.above.begin());
    ++state.watermark;
  }
  return true;
}

bool SequenceLedger::contains(std::uint32_t stream_id,
                              std::uint64_t sequence) const {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end()) {
    return false;
  }
  return sequence < it->second.watermark ||
         it->second.above.count(sequence) != 0;
}

std::uint64_t SequenceLedger::watermark(std::uint32_t stream_id) const {
  const auto it = streams_.find(stream_id);
  return it == streams_.end() ? 0 : it->second.watermark;
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> SequenceLedger::watermarks()
    const {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  out.reserve(streams_.size());
  for (const auto& [stream, state] : streams_) {
    out.emplace_back(stream, state.watermark);
  }
  return out;
}

std::size_t SequenceLedger::held() const {
  std::size_t total = 0;
  for (const auto& [stream, state] : streams_) {
    total += state.above.size();
  }
  return total;
}

// ---- ReceiverJournal -------------------------------------------------------

ReceiverJournal::ReceiverJournal(JournalMedia& media, std::uint64_t session_id,
                                 ResumeCounters* counters)
    : media_(media), session_id_(session_id), counters_(counters) {}

Status ReceiverJournal::append_record(const JournalRecord& record) {
  const Bytes encoded = encode_journal_record(record);
  NS_RETURN_IF_ERROR(media_.append(encoded));
  NS_RETURN_IF_ERROR(media_.flush());
  count(&ResumeCounters::journal_records_written, counters_);
  return Status();
}

Status ReceiverJournal::recover() {
  std::lock_guard<std::mutex> lock(mutex_);
  auto data = media_.read_all();
  if (!data.ok()) {
    return data.status();
  }
  const JournalScan scan = scan_journal(data.value());
  count(&ResumeCounters::torn_records_truncated, counters_, scan.torn_records);
  if (scan.records.empty()) {
    recovered_ = true;
    return append_record(JournalRecord{.type = JournalRecordType::kSession,
                                       .sequence = session_id_});
  }
  const JournalRecord& head = scan.records.front();
  if (head.type != JournalRecordType::kSession || head.sequence != session_id_) {
    return data_loss_error(
        "journal: session mismatch (journal holds session " +
        std::to_string(head.type == JournalRecordType::kSession ? head.sequence
                                                                : 0) +
        ", this endpoint is session " + std::to_string(session_id_) + ")");
  }
  for (std::size_t i = 1; i < scan.records.size(); ++i) {
    const JournalRecord& record = scan.records[i];
    if (record.type == JournalRecordType::kDelivered) {
      committed_.insert(record.stream_id, record.sequence);
    }
  }
  count(&ResumeCounters::journal_records_replayed, counters_,
        scan.records.size());
  recovered_ = true;
  return Status();
}

bool ReceiverJournal::seen(std::uint32_t stream_id,
                           std::uint64_t sequence) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_.contains(stream_id, sequence);
}

Status ReceiverJournal::record_delivered(std::uint32_t stream_id,
                                         std::uint64_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  NS_CHECK(recovered_, "ReceiverJournal::recover() must run first");
  NS_RETURN_IF_ERROR(
      append_record(JournalRecord{.type = JournalRecordType::kDelivered,
                                  .stream_id = stream_id,
                                  .sequence = sequence}));
  committed_.insert(stream_id, sequence);
  return Status();
}

std::uint64_t ReceiverJournal::watermark(std::uint32_t stream_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_.watermark(stream_id);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> ReceiverJournal::watermarks()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  return committed_.watermarks();
}

}  // namespace numastream
