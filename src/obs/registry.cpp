#include "obs/registry.h"

#include <algorithm>

#include "metrics/table.h"

namespace numastream::obs {

double MetricsSnapshot::value(const std::string& name) const noexcept {
  for (const auto& sample : samples) {
    if (sample.name == name) {
      return sample.value;
    }
  }
  return 0;
}

bool MetricsSnapshot::has(const std::string& name) const noexcept {
  return std::any_of(samples.begin(), samples.end(),
                     [&](const MetricSample& s) { return s.name == name; });
}

namespace {

constexpr auto kByName = [](const auto& entry, const std::string& name) {
  return entry.name < name;
};

}  // namespace

std::function<double()> MetricsRegistry::reader(
    const std::atomic<std::uint64_t>* counter) {
  return [counter] {
    return static_cast<double>(counter->load(std::memory_order_relaxed));
  };
}

Status MetricsRegistry::register_entries(std::vector<Entry> batch) {
  std::sort(batch.begin(), batch.end(),
            [](const Entry& a, const Entry& b) { return a.name < b.name; });
  for (const Entry& entry : batch) {
    if (entry.name.empty()) {
      return invalid_argument_error("registry: metric name must not be empty");
    }
    const bool raw_json_safe =
        std::none_of(entry.name.begin(), entry.name.end(), [](char c) {
          const auto u = static_cast<unsigned char>(c);
          return c == '"' || c == '\\' || u < 0x20 || u == 0x7f;
        });
    if (!raw_json_safe) {
      return invalid_argument_error(
          "registry: metric name must not hold a quote, backslash or control "
          "character");
    }
  }
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string& name = batch[i].name;
    const auto pos =
        std::lower_bound(entries_.begin(), entries_.end(), name, kByName);
    if ((i > 0 && batch[i - 1].name == name) ||
        (pos != entries_.end() && pos->name == name)) {
      return invalid_argument_error("registry: metric '" + name +
                                    "' already registered");
    }
  }
  for (Entry& entry : batch) {
    const auto pos =
        std::lower_bound(entries_.begin(), entries_.end(), entry.name, kByName);
    entries_.insert(pos, std::move(entry));
  }
  return Status::ok();
}

Status MetricsRegistry::register_counter(const std::string& name,
                                         const std::atomic<std::uint64_t>* counter) {
  if (counter == nullptr) {
    return invalid_argument_error("registry: counter '" + name + "' is null");
  }
  std::vector<Entry> batch;
  batch.push_back({name, reader(counter)});
  return register_entries(std::move(batch));
}

Status MetricsRegistry::register_gauge(const std::string& name,
                                       std::function<double()> gauge) {
  if (!gauge) {
    return invalid_argument_error("registry: gauge '" + name + "' has no reader");
  }
  std::vector<Entry> batch;
  batch.push_back({name, std::move(gauge)});
  return register_entries(std::move(batch));
}

void MetricsRegistry::unregister(const std::string& name) {
  std::lock_guard lock(mutex_);
  const auto pos =
      std::lower_bound(entries_.begin(), entries_.end(), name, kByName);
  if (pos != entries_.end() && pos->name == name) {
    entries_.erase(pos);
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

MetricsSnapshot MetricsRegistry::snapshot(double time_seconds) const {
  MetricsSnapshot snap;
  snap.time_seconds = time_seconds;
  std::lock_guard lock(mutex_);
  snap.samples.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    snap.samples.push_back({entry.name, entry.read()});
  }
  return snap;
}

void SnapshotSeries::append(MetricsSnapshot snapshot) {
  snapshots_.push_back(std::move(snapshot));
}

std::string SnapshotSeries::to_csv() const {
  std::string out = "time_seconds,metric,value\n";
  for (const auto& snap : snapshots_) {
    const std::string time = fmt_double(snap.time_seconds, 3);
    for (const auto& sample : snap.samples) {
      out += time;
      out += ',';
      out += csv_escape(sample.name);
      out += ',';
      out += fmt_double(sample.value, 3);
      out += '\n';
    }
  }
  return out;
}

std::string SnapshotSeries::to_jsonl() const {
  std::string out;
  for (const auto& snap : snapshots_) {
    out += "{\"time_s\":";
    out += fmt_double(snap.time_seconds, 3);
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& sample : snap.samples) {
      if (!first) {
        out += ',';
      }
      first = false;
      out += '"';
      out += sample.name;  // registration refuses what JSON would escape
      out += "\":";
      out += fmt_double(sample.value, 3);
    }
    out += "}}\n";
  }
  return out;
}

TextTable SnapshotSeries::latest_table() const {
  TextTable table({"metric", "value"});
  if (snapshots_.empty()) {
    return table;
  }
  for (const auto& sample : snapshots_.back().samples) {
    table.add_row({sample.name, fmt_double(sample.value, 3)});
  }
  return table;
}

SnapshotSampler::SnapshotSampler(MetricsRegistry* registry, std::uint64_t interval_ms)
    : registry_(registry), interval_ms_(interval_ms == 0 ? 1 : interval_ms) {}

SnapshotSampler::~SnapshotSampler() { stop(); }

void SnapshotSampler::start() {
  if (thread_.joinable()) {
    return;
  }
  stop_.store(false, std::memory_order_relaxed);
  start_time_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { run(); });
}

void SnapshotSampler::stop() {
  if (!thread_.joinable()) {
    return;
  }
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
  series_.append(registry_->snapshot(elapsed_seconds()));
}

double SnapshotSampler::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_)
      .count();
}

void SnapshotSampler::run() {
  const auto interval = std::chrono::milliseconds(interval_ms_);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (std::chrono::steady_clock::now() >= next) {
      series_.append(registry_->snapshot(elapsed_seconds()));
      next += interval;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace numastream::obs
