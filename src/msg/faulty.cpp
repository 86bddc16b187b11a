#include "msg/faulty.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "common/assert.h"

namespace numastream {
namespace {

void stall_for(std::uint64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

}  // namespace

Status FaultPlan::validate() const {
  const double probabilities[] = {disconnect_per_write, torn_write_per_write,
                                  bitflip_per_write,    short_write_per_write,
                                  stall_per_write,      throttle_per_write,
                                  crash_per_write,      accept_failure};
  for (const double p : probabilities) {
    // Written so NaN fails too: every comparison with NaN is false.
    if (!(p >= 0.0 && p <= 1.0)) {
      return invalid_argument_error("fault plan: probability outside [0, 1]");
    }
  }
  const double write_sum = disconnect_per_write + torn_write_per_write +
                           bitflip_per_write + short_write_per_write +
                           stall_per_write + throttle_per_write +
                           crash_per_write;
  if (!std::isfinite(write_sum) || write_sum > 1.0) {
    return invalid_argument_error("fault plan: per-write probabilities sum to " +
                                  std::to_string(write_sum) + " > 1");
  }
  if (throttle_per_write > 0 && throttle_bytes_per_sec == 0) {
    return invalid_argument_error(
        "fault plan: throttle_per_write needs throttle_bytes_per_sec > 0");
  }
  if (crash_per_write > 0 && crash_restart_micros == 0) {
    return invalid_argument_error(
        "fault plan: crash_per_write needs crash_restart_micros > 0");
  }
  return Status::ok();
}

FaultInjector::FaultInjector(FaultPlan plan, FaultCounters* counters)
    : plan_(plan),
      counters_(counters),
      accept_rng_(plan.seed ^ 0xACCE57ACCE57ULL) {
  NS_CHECK(plan.validate().is_ok(), "invalid FaultPlan");
}

std::unique_ptr<ByteStream> FaultInjector::wrap(std::unique_ptr<ByteStream> stream) {
  NS_CHECK(stream != nullptr, "FaultInjector::wrap needs a stream");
  const std::uint64_t index =
      next_stream_index_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<FaultyByteStream>(std::move(stream), *this, index);
}

bool FaultInjector::roll_accept_failure() {
  if (plan_.accept_failure <= 0.0) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(accept_mu_);
  if (accept_rng_.next_double() >= plan_.accept_failure) {
    return false;
  }
  if (!take_fault_budget()) {
    return false;
  }
  if (counters_ != nullptr) {
    counters_->injected_accept_failures.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

bool FaultInjector::take_fault_budget() {
  // Optimistic increment with rollback keeps the hot path a single RMW.
  const std::uint64_t taken =
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
  if (taken >= plan_.max_faults) {
    faults_injected_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void FaultInjector::set_crash_hook(std::function<void()> hook) {
  const std::lock_guard<std::mutex> lock(crash_hook_mu_);
  crash_hook_ = std::move(hook);
}

void FaultInjector::trigger_crash(std::uint64_t restart_delay_micros) {
  // Hook first: unflushed state must be gone before any connection observes
  // the death, or a racing worker could "flush" bytes the crash should eat.
  {
    const std::lock_guard<std::mutex> lock(crash_hook_mu_);
    if (crash_hook_) {
      crash_hook_();
    }
  }
  const auto now = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  const std::int64_t until =
      now + static_cast<std::int64_t>(restart_delay_micros);
  // Extend, never shorten, so overlapping crashes keep the longest blackout.
  std::int64_t current = blackout_until_micros_.load(std::memory_order_relaxed);
  while (until > current && !blackout_until_micros_.compare_exchange_weak(
                                current, until, std::memory_order_relaxed)) {
  }
  crash_epoch_.fetch_add(1, std::memory_order_release);
}

bool FaultInjector::in_blackout() const {
  const auto now = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  return now < blackout_until_micros_.load(std::memory_order_relaxed);
}

FaultyByteStream::FaultyByteStream(std::unique_ptr<ByteStream> inner,
                                   FaultInjector& injector,
                                   std::uint64_t stream_index)
    : inner_(std::move(inner)),
      injector_(injector),
      // Per-connection seed: connection k misbehaves the same way in every
      // run, independent of which thread or dial attempt produced it.
      rng_(injector.plan().seed ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1))),
      birth_epoch_(injector.crash_epoch()) {
  NS_CHECK(inner_ != nullptr, "FaultyByteStream needs a stream");
}

Status FaultyByteStream::write_all(ByteSpan data) {
  if (!broken_ && endpoint_crashed()) {
    // The endpoint this connection belonged to died; it never comes back on
    // this socket even after the restart.
    broken_ = true;
    inner_->shutdown_write();
  }
  if (broken_) {
    return unavailable_error("fault: connection broken by injected fault");
  }
  const FaultPlan& plan = injector_.plan();
  FaultKind fault = FaultKind::kNone;
  if (written_ >= plan.fault_free_prefix_bytes && !data.empty()) {
    fault = roll();
    if (fault != FaultKind::kNone && !injector_.take_fault_budget()) {
      fault = FaultKind::kNone;
    }
  }
  written_ += data.size();
  FaultCounters* counters = injector_.counters();
  switch (fault) {
    case FaultKind::kNone:
      return inner_->write_all(data);

    case FaultKind::kDisconnect:
      count(&FaultCounters::injected_disconnects, counters);
      return break_connection();

    case FaultKind::kTornWrite: {
      count(&FaultCounters::injected_torn_writes, counters);
      // Deliver a corrupted prefix — what a peer actually observes when a
      // connection resets mid-message — then break.
      const std::size_t prefix_len = rng_.next_below(data.size());
      if (prefix_len > 0) {
        Bytes prefix(data.begin(),
                     data.begin() + static_cast<std::ptrdiff_t>(prefix_len));
        flip_random_bit(prefix);
        (void)inner_->write_all(prefix);
      }
      return break_connection();
    }

    case FaultKind::kBitFlip: {
      count(&FaultCounters::injected_bitflips, counters);
      Bytes corrupted(data.begin(), data.end());
      flip_random_bit(corrupted);
      return inner_->write_all(corrupted);
    }

    case FaultKind::kShortWrite: {
      count(&FaultCounters::injected_short_writes, counters);
      const std::size_t cut = 1 + rng_.next_below(data.size());
      NS_RETURN_IF_ERROR(inner_->write_all(data.subspan(0, cut)));
      stall_for(plan.stall_micros);
      if (cut < data.size()) {
        return inner_->write_all(data.subspan(cut));
      }
      return Status::ok();
    }

    case FaultKind::kStall:
      count(&FaultCounters::injected_stalls, counters);
      stall_for(plan.stall_micros);
      return inner_->write_all(data);

    case FaultKind::kCrash: {
      count(&FaultCounters::injected_crashes, counters);
      // Abrupt endpoint death: nothing of this write is delivered, every
      // sibling connection breaks, unflushed state dies with the process,
      // and the endpoint stays dark for a seeded restart delay.
      const std::uint64_t restart =
          1 + rng_.next_below(plan.crash_restart_micros);
      injector_.trigger_crash(restart);
      return break_connection();
    }

    case FaultKind::kThrottle: {
      count(&FaultCounters::injected_throttles, counters);
      // Slow drip: small slices, each followed by the stall that holds the
      // configured byte rate. Every byte is delivered intact and in order —
      // the peer sees a healthy-but-crawling connection.
      const std::size_t slice = std::max<std::size_t>(1, data.size() / 8);
      std::uint64_t budget_micros = plan.throttle_max_micros > 0
                                        ? plan.throttle_max_micros
                                        : ~std::uint64_t{0};
      std::size_t offset = 0;
      while (offset < data.size()) {
        const std::size_t n = std::min(slice, data.size() - offset);
        NS_RETURN_IF_ERROR(inner_->write_all(data.subspan(offset, n)));
        offset += n;
        if (offset < data.size()) {
          const std::uint64_t wait = std::min<std::uint64_t>(
              static_cast<std::uint64_t>(n) * 1'000'000 /
                  plan.throttle_bytes_per_sec,
              budget_micros);
          budget_micros -= wait;
          stall_for(wait);
        }
      }
      return Status::ok();
    }
  }
  return internal_error("unreachable fault kind");
}

Result<std::size_t> FaultyByteStream::read_some(MutableByteSpan out) {
  if (endpoint_crashed()) {
    // A dead process's sockets EOF their peers; so does this one. (Other
    // injected faults leave the read side alone — only a crash kills both
    // directions.)
    return std::size_t{0};
  }
  return inner_->read_some(out);
}

void FaultyByteStream::shutdown_write() {
  if (!broken_) {
    inner_->shutdown_write();
  }
}

void FaultyByteStream::cancel() noexcept { inner_->cancel(); }

/// One roll decides the write's fate: cumulative probability bands keep it
/// to a single RNG draw and guarantee at most one fault per write.
FaultyByteStream::FaultKind FaultyByteStream::roll() {
  const FaultPlan& plan = injector_.plan();
  const double r = rng_.next_double();
  double acc = plan.disconnect_per_write;
  if (r < acc) {
    return FaultKind::kDisconnect;
  }
  acc += plan.torn_write_per_write;
  if (r < acc) {
    return FaultKind::kTornWrite;
  }
  acc += plan.bitflip_per_write;
  if (r < acc) {
    return FaultKind::kBitFlip;
  }
  acc += plan.short_write_per_write;
  if (r < acc) {
    return FaultKind::kShortWrite;
  }
  acc += plan.stall_per_write;
  if (r < acc) {
    return FaultKind::kStall;
  }
  acc += plan.throttle_per_write;
  if (r < acc) {
    return FaultKind::kThrottle;
  }
  acc += plan.crash_per_write;
  if (r < acc) {
    return FaultKind::kCrash;
  }
  return FaultKind::kNone;
}

void FaultyByteStream::flip_random_bit(Bytes& bytes) {
  if (bytes.empty()) {
    return;
  }
  const std::uint64_t bit = rng_.next_below(bytes.size() * 8);
  bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
}

Status FaultyByteStream::break_connection() {
  broken_ = true;
  // EOF the peer so its reader observes the break instead of blocking.
  inner_->shutdown_write();
  return unavailable_error("fault: injected disconnect");
}

FaultyListener::FaultyListener(Listener& inner, FaultInjector& injector)
    : inner_(inner), injector_(injector) {}

Result<std::unique_ptr<ByteStream>> FaultyListener::accept() {
  if (injector_.in_blackout()) {
    return unavailable_error("fault: endpoint restarting after crash");
  }
  if (injector_.roll_accept_failure()) {
    return unavailable_error("fault: injected accept failure");
  }
  auto stream = inner_.accept();
  if (!stream.ok()) {
    return stream.status();
  }
  return injector_.wrap(std::move(stream).value());
}

void FaultyListener::close() { inner_.close(); }

DialFn faulty_dialer(DialFn inner, FaultInjector& injector) {
  return [inner = std::move(inner), &injector]() -> Result<std::unique_ptr<ByteStream>> {
    if (injector.in_blackout()) {
      return unavailable_error("fault: endpoint restarting after crash");
    }
    auto stream = inner();
    if (!stream.ok()) {
      return stream.status();
    }
    return injector.wrap(std::move(stream).value());
  };
}

LinkCuts::LinkCuts(std::uint32_t endpoints, ChaosCounters* counters)
    : endpoints_(endpoints),
      counters_(counters),
      cut_(static_cast<std::size_t>(endpoints) * endpoints, 0) {}

std::size_t LinkCuts::index(std::uint32_t from, std::uint32_t to) const {
  NS_CHECK(from < endpoints_ && to < endpoints_,
           "link cuts: endpoint out of range");
  return static_cast<std::size_t>(from) * endpoints_ + to;
}

void LinkCuts::partition(std::uint32_t a, std::uint32_t b) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_[index(a, b)] = 1;
  cut_[index(b, a)] = 1;
  count(&ChaosCounters::partitions_cut, counters_, 2);
}

void LinkCuts::partition_one_way(std::uint32_t from, std::uint32_t to) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_[index(from, to)] = 1;
  count(&ChaosCounters::partitions_cut, counters_);
}

void LinkCuts::heal(std::uint32_t a, std::uint32_t b) {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_[index(a, b)] = 0;
  cut_[index(b, a)] = 0;
  count(&ChaosCounters::partitions_healed, counters_, 2);
}

void LinkCuts::heal_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto severed = static_cast<std::uint64_t>(
      std::count(cut_.begin(), cut_.end(), std::uint8_t{1}));
  std::fill(cut_.begin(), cut_.end(), 0);
  count(&ChaosCounters::partitions_healed, counters_, severed);
}

bool LinkCuts::cut(std::uint32_t from, std::uint32_t to) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cut_[index(from, to)] != 0;
}

}  // namespace numastream
