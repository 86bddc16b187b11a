#include "core/scrub.h"

#include <algorithm>
#include <atomic>

#include "codec/xxhash.h"

namespace numastream {
namespace {

constexpr std::size_t kChecksumOffset = kJournalRecordSize - 4;

}  // namespace

bool journal_record_valid(const std::uint8_t* rec) {
  const std::uint8_t type = rec[4];
  return load_le32(rec) == kJournalMagic &&
         type >= static_cast<std::uint8_t>(JournalRecordType::kSession) &&
         type <= static_cast<std::uint8_t>(JournalRecordType::kDelivered) &&
         load_le32(rec + kChecksumOffset) ==
             xxhash32(ByteSpan(rec, kChecksumOffset));
}

std::vector<std::uint64_t> find_corrupt_records(ByteSpan journal,
                                                std::uint64_t first_record,
                                                std::uint64_t count) {
  std::vector<std::uint64_t> corrupt;
  const std::uint64_t total = journal.size() / kJournalRecordSize;
  const std::uint64_t end = std::min(total, first_record + count);
  for (std::uint64_t index = first_record; index < end; ++index) {
    if (!journal_record_valid(journal.data() + index * kJournalRecordSize)) {
      corrupt.push_back(index);
    }
  }
  return corrupt;
}

JournalScrubber::JournalScrubber(JournalMedia& media,
                                 const ScrubConfig& config,
                                 ScrubCounters* counters)
    : media_(media), config_(config), counters_(counters) {}

void JournalScrubber::quarantine_locked(std::uint64_t range) {
  if (quarantined_.insert(range).second) {
    count(&ScrubCounters::ranges_quarantined, counters_);
  }
}

Status JournalScrubber::tick() {
  auto data = media_.read_all();
  if (!data.ok()) {
    return data.status();
  }
  const ByteSpan journal(data.value());
  const std::uint64_t total = journal.size() / kJournalRecordSize;

  std::lock_guard<std::mutex> lock(mutex_);
  if (total == 0) {
    cursor_ = 0;
    return Status();
  }
  if (cursor_ >= total) {
    // The journal shrank under us (a stale-replica drop); restart the pass.
    cursor_ = 0;
  }
  const std::uint64_t window =
      std::min<std::uint64_t>(config_.budget_records, total - cursor_);
  for (const std::uint64_t index :
       find_corrupt_records(journal, cursor_, window)) {
    count(&ScrubCounters::corrupt_records_found, counters_);
    quarantine_locked(index / config_.range_records);
  }
  count(&ScrubCounters::records_scanned, counters_, window);
  cursor_ += window;
  if (cursor_ >= total) {
    cursor_ = 0;
    count(&ScrubCounters::scrub_passes, counters_);
  }
  return Status();
}

std::vector<std::uint64_t> JournalScrubber::quarantined_ranges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {quarantined_.begin(), quarantined_.end()};
}

bool JournalScrubber::range_quarantined(std::uint64_t range) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantined_.count(range) != 0;
}

bool JournalScrubber::reverify(std::uint64_t range) {
  auto data = media_.read_all();
  if (!data.ok()) {
    return false;
  }
  const ByteSpan journal(data.value());
  const std::uint64_t first = range * config_.range_records;
  if (!find_corrupt_records(journal, first, config_.range_records).empty()) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_.erase(range) != 0) {
    count(&ScrubCounters::ranges_repaired, counters_);
    return true;
  }
  return false;
}

std::uint64_t JournalScrubber::cursor_record() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cursor_;
}

}  // namespace numastream
