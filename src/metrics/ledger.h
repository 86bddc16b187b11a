// Counter ledgers: one field list per ledger generates everything else.
//
// A ledger (FaultCounters, OverloadCounters, HealthCounters, ResumeCounters,
// FederationCounters, ScrubCounters, ChaosCounters) is written down once, as
// an X-macro list of its counter names in display order, each followed by
// its doc text (see NS_FAULT_COUNTERS in metrics/fault_counters.h). The list
// then generates the two halves of the ledger:
//
//   struct FaultCountersSnapshot {
//     NS_LEDGER_SNAPSHOT(FaultCountersSnapshot, NS_FAULT_COUNTERS)
//   };
//   class FaultCounters {
//     NS_LEDGER_LIVE(FaultCounters, FaultCountersSnapshot, NS_FAULT_COUNTERS)
//   };
//
// The snapshot is a plain comparable aggregate with one `std::uint64_t` per
// counter, a generated to_string() and a static fields() table of
// (name, member) pairs. The live class holds one cache-line-padded atomic
// per counter (PaddedCounter: different threads bump different members) and
// a generated snapshot(). counter_table(), MetricsRegistry::register_ledger
// and any per-field walk read fields(), so no counter name is written out a
// second time. Inside an X-macro list, per-counter docs go in /* */
// comments: a // comment would swallow the continuation line.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "metrics/padded_counter.h"
#include "metrics/table.h"

namespace numastream {

/// One counter of a ledger: its display name and its member in `Owner`
/// (a snapshot's `std::uint64_t` or a live class's PaddedCounter).
template <typename Owner, typename Member>
struct LedgerField {
  const char* name;
  Member Owner::*member;
};

template <typename Owner, typename Member>
LedgerField(const char*, Member Owner::*) -> LedgerField<Owner, Member>;

#define NS_LEDGER_VALUE_MEMBER(name) std::uint64_t name = 0;
#define NS_LEDGER_COUNTER_MEMBER(name) PaddedCounter name;
#define NS_LEDGER_FIELD(name) LedgerField{#name, &Self::name},

/// Snapshot body: the value members in list order, the defaulted
/// operator==, fields() and the one-line to_string().
#define NS_LEDGER_SNAPSHOT(SnapshotType, LIST)                              \
  LIST(NS_LEDGER_VALUE_MEMBER)                                              \
  friend bool operator==(const SnapshotType&, const SnapshotType&) = default; \
  static constexpr auto fields() {                                          \
    using Self = SnapshotType;                                              \
    return std::array{LIST(NS_LEDGER_FIELD)};                               \
  }                                                                         \
  /** One-line summary of the nonzero counters ("clean" when all zero). */  \
  [[nodiscard]] std::string to_string() const {                             \
    return ledger_to_string(*this);                                         \
  }

/// Live-class body: one PaddedCounter per counter, fields() and snapshot().
/// All increments are relaxed: counters are statistics, not synchronization.
#define NS_LEDGER_LIVE(LiveType, SnapshotType, LIST)                        \
 public:                                                                    \
  LIST(NS_LEDGER_COUNTER_MEMBER)                                            \
  static constexpr auto fields() {                                          \
    using Self = LiveType;                                                  \
    return std::array{LIST(NS_LEDGER_FIELD)};                               \
  }                                                                         \
  [[nodiscard]] SnapshotType snapshot() const {                             \
    return ledger_snapshot<SnapshotType>(*this);                            \
  }

template <typename Snapshot>
std::string ledger_to_string(const Snapshot& snapshot) {
  std::string out;
  for (const auto& field : Snapshot::fields()) {
    const std::uint64_t value = snapshot.*field.member;
    if (value == 0) {
      continue;
    }
    if (!out.empty()) {
      out += " ";
    }
    out += field.name;
    out += "=";
    out += std::to_string(value);
  }
  return out.empty() ? "clean" : out;
}

template <typename Snapshot, typename Live>
Snapshot ledger_snapshot(const Live& live) {
  constexpr auto values = Snapshot::fields();
  constexpr auto counters = Live::fields();
  static_assert(values.size() == counters.size());
  Snapshot s;
  for (std::size_t i = 0; i < values.size(); ++i) {
    s.*values[i].member =
        (live.*counters[i].member).load(std::memory_order_relaxed);
  }
  return s;
}

/// Renders a ledger snapshot as a two-column table ("counter", "count").
/// With `nonzero_only`, clean counters are elided so quiet runs print short.
template <typename Snapshot>
TextTable counter_table(const Snapshot& snapshot, bool nonzero_only = false) {
  TextTable table({"counter", "count"});
  for (const auto& field : Snapshot::fields()) {
    const std::uint64_t value = snapshot.*field.member;
    if (nonzero_only && value == 0) {
      continue;
    }
    table.add_row({field.name, std::to_string(value)});
  }
  return table;
}

/// Adds `amount` to one counter of a ledger that may be absent (null).
template <typename Live>
void count(PaddedCounter Live::*counter, Live* ledger,
           std::uint64_t amount = 1) {
  if (ledger != nullptr && amount != 0) {
    (ledger->*counter).fetch_add(amount, std::memory_order_relaxed);
  }
}

}  // namespace numastream
