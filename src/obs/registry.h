// MetricsRegistry: one flat namespace over every number the runtime tracks.
//
// The runtime keeps seven counter ledgers (metrics/ledger.h: fault,
// overload, health, resume, federation, scrub, chaos) plus ad-hoc gauges
// scattered through the stages — queue depths, credit occupancy, budget
// bytes in flight. Each is observable on its own, but correlating them ("did
// the queue spike when the credit window closed?") required hand-stitching
// snapshots. The registry unifies them: counters and gauges register under
// dotted names ("fault.reconnects", "send.queue_depth"), a snapshot reads
// every source at one instant, and the sampler turns periodic snapshots into
// a time series exportable as a table, CSV, or JSONL.
//
// Registration is not hot-path: it takes a mutex and happens at pipeline
// setup/teardown. Reading a counter is a relaxed atomic load; reading a
// gauge calls its closure, which must stay cheap and thread-safe. The
// registry BORROWS every registered source — callers unregister (or let a
// RegistrationGuard do it) before the source dies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace numastream {
class TextTable;
}  // namespace numastream

namespace numastream::obs {

/// One metric read at one instant.
struct MetricSample {
  std::string name;
  double value = 0;

  friend bool operator==(const MetricSample&, const MetricSample&) = default;
};

/// All registered metrics read back-to-back, stamped with the caller's
/// clock (wall seconds in the real pipeline, virtual seconds in simulation).
struct MetricsSnapshot {
  double time_seconds = 0;
  std::vector<MetricSample> samples;  // sorted by name

  /// Value of `name`, or 0 when absent.
  [[nodiscard]] double value(const std::string& name) const noexcept;
  [[nodiscard]] bool has(const std::string& name) const noexcept;
};

class MetricsRegistry {
 public:
  /// Registers a borrowed counter; read with a relaxed load at snapshot
  /// time. INVALID_ARGUMENT on a null pointer or a name that is empty,
  /// taken, or holds a double quote, backslash or control character (names
  /// are exported raw into JSONL).
  Status register_counter(const std::string& name,
                          const std::atomic<std::uint64_t>* counter);

  /// Registers a gauge closure, called at snapshot time. Must be cheap and
  /// safe to call from the sampler thread. Names follow register_counter's
  /// rules.
  Status register_gauge(const std::string& name, std::function<double()> gauge);

  /// Removes a metric; unknown names are a no-op (teardown is idempotent).
  void unregister(const std::string& name);

  /// Registers every counter of a ledger (metrics/ledger.h) under
  /// "<prefix>.<counter>". All names are checked and inserted under one
  /// lock, so a concurrent snapshot sees the whole ledger or none of it,
  /// and a failure registers nothing.
  template <typename Ledger>
  Status register_ledger(const std::string& prefix, const Ledger& ledger) {
    std::vector<Entry> batch;
    for (const auto& field : Ledger::fields()) {
      batch.push_back({prefix + "." + field.name, reader(&(ledger.*field.member))});
    }
    return register_entries(std::move(batch));
  }

  [[nodiscard]] std::size_t size() const;

  /// Reads every metric, sorted by name for deterministic export.
  [[nodiscard]] MetricsSnapshot snapshot(double time_seconds) const;

 private:
  struct Entry {
    std::string name;
    std::function<double()> read;
  };

  static std::function<double()> reader(const std::atomic<std::uint64_t>* counter);
  /// Checks every name, then inserts the whole batch under one lock.
  Status register_entries(std::vector<Entry> batch);

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;  // kept sorted by name
};

/// Unregisters a batch of names on destruction — the RAII companion for
/// sources whose lifetime ends with a pipeline run.
class RegistrationGuard {
 public:
  RegistrationGuard() = default;
  RegistrationGuard(MetricsRegistry* registry, std::vector<std::string> names)
      : registry_(registry), names_(std::move(names)) {}
  RegistrationGuard(const RegistrationGuard&) = delete;
  RegistrationGuard& operator=(const RegistrationGuard&) = delete;
  RegistrationGuard(RegistrationGuard&& other) noexcept { *this = std::move(other); }
  RegistrationGuard& operator=(RegistrationGuard&& other) noexcept {
    release();
    registry_ = other.registry_;
    names_ = std::move(other.names_);
    other.registry_ = nullptr;
    other.names_.clear();
    return *this;
  }
  ~RegistrationGuard() { release(); }

  void release() {
    if (registry_ != nullptr) {
      for (const auto& name : names_) {
        registry_->unregister(name);
      }
    }
    registry_ = nullptr;
    names_.clear();
  }

 private:
  MetricsRegistry* registry_ = nullptr;
  std::vector<std::string> names_;
};

/// Periodic snapshot series plus its exporters. Feed it snapshots yourself
/// (simulation: one per virtual interval) or run a wall-clock sampler
/// thread over a registry.
class SnapshotSeries {
 public:
  void append(MetricsSnapshot snapshot);
  [[nodiscard]] const std::vector<MetricsSnapshot>& snapshots() const noexcept {
    return snapshots_;
  }

  /// Long-format CSV: time_seconds,metric,value — one row per sample,
  /// RFC-4180-escaped via the shared csv_escape().
  [[nodiscard]] std::string to_csv() const;

  /// One JSON object per snapshot: {"time_s":..,"metrics":{"name":value,..}}.
  [[nodiscard]] std::string to_jsonl() const;

  /// Last snapshot as a "metric", "value" table (empty table when no
  /// snapshots were taken).
  [[nodiscard]] TextTable latest_table() const;

 private:
  std::vector<MetricsSnapshot> snapshots_;
};

/// Wall-clock sampler: a background thread snapshotting `registry` every
/// `interval_ms` into a SnapshotSeries. Times are seconds since start().
/// For the simulated runtime, don't use this — drive SnapshotSeries directly
/// on virtual time.
class SnapshotSampler {
 public:
  /// Borrows `registry`, which must outlive the sampler.
  SnapshotSampler(MetricsRegistry* registry, std::uint64_t interval_ms);
  ~SnapshotSampler();
  SnapshotSampler(const SnapshotSampler&) = delete;
  SnapshotSampler& operator=(const SnapshotSampler&) = delete;

  void start();
  /// Stops the thread and takes one final snapshot, so even sub-interval
  /// runs export at least one row.
  void stop();

  /// Only valid after stop(): the sampler thread appends concurrently.
  [[nodiscard]] const SnapshotSeries& series() const noexcept { return series_; }

 private:
  void run();
  [[nodiscard]] double elapsed_seconds() const;

  MetricsRegistry* registry_;
  std::uint64_t interval_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  SnapshotSeries series_;
  std::chrono::steady_clock::time_point start_time_{};
};

}  // namespace numastream::obs
