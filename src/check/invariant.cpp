#include "check/invariant.h"

#include <utility>

#include "common/kv.h"
#include "core/journal.h"

namespace numastream {
namespace check {
namespace {

constexpr EnumName<InvariantProbe> kProbeNames[] = {
    {InvariantProbe::kExactlyOnce, "exactly_once"},
    {InvariantProbe::kEpochMonotone, "epoch_monotone"},
    {InvariantProbe::kSinglePrimary, "single_primary"},
    {InvariantProbe::kStandbySuperset, "standby_superset"},
    {InvariantProbe::kLedgerSettle, "ledger_settle"},
    {InvariantProbe::kNoHoles, "no_holes"},
};

}  // namespace

std::string to_string(InvariantProbe probe) {
  const char* name = enum_name(kProbeNames, probe);
  return name != nullptr ? name : "unknown";
}

Result<InvariantProbe> invariant_probe_from_string(const std::string& token) {
  if (const auto probe = enum_value<InvariantProbe>(kProbeNames, token)) {
    return *probe;
  }
  return invalid_argument_error("invariant: unknown probe '" + token + "'");
}

std::string InvariantViolation::to_string() const {
  return "violation " + check::to_string(probe) +
         " stream=" + std::to_string(stream_id) +
         " seq=" + std::to_string(sequence);
}

InvariantMonitor::InvariantMonitor(ChaosCounters* counters)
    : counters_(counters) {}

void InvariantMonitor::note_probe() const {
  if (counters_ != nullptr) {
    counters_->probes_fired.fetch_add(1, std::memory_order_relaxed);
  }
}

void InvariantMonitor::record_violation(InvariantViolation violation) {
  // Caller holds mutex_.
  if (counters_ != nullptr) {
    counters_->violations_found.fetch_add(1, std::memory_order_relaxed);
  }
  violations_.push_back(std::move(violation));
}

void InvariantMonitor::on_delivery(std::uint32_t gateway, std::uint64_t epoch,
                                   std::uint32_t stream_id,
                                   std::uint64_t sequence) {
  note_probe();
  std::lock_guard<std::mutex> lock(mutex_);
  ++deliveries_;
  auto& committed = acked_[stream_id];
  if (!committed.insert(sequence).second) {
    record_violation(
        {InvariantProbe::kExactlyOnce, stream_id, sequence,
         "gateway " + std::to_string(gateway) + " re-delivered stream " +
             std::to_string(stream_id) + " seq " + std::to_string(sequence) +
             " (already committed by the federation)"});
  }
  auto [it, inserted] = primary_at_epoch_.emplace(epoch, gateway);
  if (!inserted && it->second != gateway) {
    record_violation(
        {InvariantProbe::kSinglePrimary, stream_id, sequence,
         "gateways " + std::to_string(it->second) + " and " +
             std::to_string(gateway) +
             " both performed primary delivery at epoch " +
             std::to_string(epoch)});
  }
}

void InvariantMonitor::on_epoch(std::uint64_t session, std::uint64_t epoch) {
  note_probe();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = session_epoch_.emplace(session, epoch);
  if (!inserted) {
    if (epoch < it->second) {
      record_violation(
          {InvariantProbe::kEpochMonotone, 0, epoch,
           "session " + std::to_string(session) + " epoch went backward: " +
               std::to_string(it->second) + " -> " + std::to_string(epoch)});
    } else {
      it->second = epoch;
    }
  }
}

void InvariantMonitor::on_promote(ByteSpan standby_journal) {
  note_probe();
  const JournalScan scan = scan_journal(standby_journal);
  std::set<std::pair<std::uint32_t, std::uint64_t>> replica;
  for (const JournalRecord& record : scan.records) {
    if (record.type == JournalRecordType::kDelivered) {
      replica.emplace(record.stream_id, record.sequence);
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [stream_id, committed] : acked_) {
    std::uint64_t missing = 0;
    std::uint64_t first_missing = 0;
    for (const std::uint64_t sequence : committed) {
      if (replica.find({stream_id, sequence}) == replica.end()) {
        if (missing == 0) {
          first_missing = sequence;
        }
        ++missing;
      }
    }
    if (missing > 0) {
      record_violation(
          {InvariantProbe::kStandbySuperset, stream_id, first_missing,
           "standby promoted while missing " + std::to_string(missing) +
               " acked record(s) on stream " + std::to_string(stream_id) +
               " (first: seq " + std::to_string(first_missing) + ")"});
    }
  }
}

void InvariantMonitor::on_failover_watermark(std::uint32_t stream_id,
                                             std::uint64_t watermark) {
  note_probe();
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t frontier = 0;
  auto it = acked_.find(stream_id);
  if (it != acked_.end() && !it->second.empty()) {
    frontier = *it->second.rbegin() + 1;
  }
  if (watermark < frontier) {
    record_violation(
        {InvariantProbe::kNoHoles, stream_id, watermark,
         "failover successor recovered watermark " +
             std::to_string(watermark) + " on stream " +
             std::to_string(stream_id) + " but the federation acked up to " +
             std::to_string(frontier - 1)});
  }
}

void InvariantMonitor::on_drain(std::uint64_t budget_bytes_held,
                                std::int64_t credits_out) {
  note_probe();
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_bytes_held != 0) {
    record_violation({InvariantProbe::kLedgerSettle, 0, budget_bytes_held,
                      "memory budget still holds " +
                          std::to_string(budget_bytes_held) +
                          " bytes at drain"});
  }
  if (credits_out != 0) {
    record_violation({InvariantProbe::kLedgerSettle, 0,
                      static_cast<std::uint64_t>(credits_out),
                      "credit ledger did not settle: " +
                          std::to_string(credits_out) + " outstanding"});
  }
}

bool InvariantMonitor::clean() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_.empty();
}

std::vector<InvariantViolation> InvariantMonitor::violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return violations_;
}

std::uint64_t InvariantMonitor::deliveries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deliveries_;
}

std::uint64_t InvariantMonitor::acked_frontier(std::uint32_t stream_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = acked_.find(stream_id);
  if (it == acked_.end() || it->second.empty()) {
    return 0;
  }
  return *it->second.rbegin() + 1;
}

ProbeSink::ProbeSink(ChunkSink& inner, InvariantMonitor& monitor,
                     std::uint32_t gateway, std::uint64_t epoch)
    : inner_(inner), monitor_(monitor), gateway_(gateway), epoch_(epoch) {}

void ProbeSink::deliver(Chunk chunk) {
  monitor_.on_delivery(gateway_, epoch_.load(std::memory_order_relaxed),
                       chunk.stream_id, chunk.sequence);
  inner_.deliver(std::move(chunk));
}

void ProbeSink::set_epoch(std::uint64_t epoch) {
  epoch_.store(epoch, std::memory_order_relaxed);
}

}  // namespace check
}  // namespace numastream
