#include "common/retry.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace numastream {

Status RetryPolicy::validate() const {
  if (max_attempts < 1) {
    return invalid_argument_error("retry: max_attempts must be >= 1");
  }
  // Written as "not in range" so that NaN, which fails every comparison,
  // is rejected too.
  if (!(multiplier >= 1.0) || std::isinf(multiplier)) {
    return invalid_argument_error("retry: multiplier must be finite and >= 1");
  }
  if (!(jitter >= 0.0 && jitter <= 1.0)) {
    return invalid_argument_error("retry: jitter must be in [0, 1]");
  }
  if (max_backoff_us < initial_backoff_us) {
    return invalid_argument_error("retry: max_backoff below initial_backoff");
  }
  return Status::ok();
}

Backoff::Backoff(const RetryPolicy& policy, std::uint64_t seed)
    : policy_(policy),
      rng_(seed),
      base_us_(static_cast<double>(policy.initial_backoff_us)) {}

std::optional<std::chrono::microseconds> Backoff::next_delay() {
  if (retries_ + 1 >= policy_.max_attempts) {
    return std::nullopt;
  }
  if (policy_.max_elapsed_us > 0 && elapsed_us_ >= policy_.max_elapsed_us) {
    return std::nullopt;
  }
  ++retries_;
  const double capped =
      std::min(base_us_, static_cast<double>(policy_.max_backoff_us));
  base_us_ = capped * policy_.multiplier;
  // Uniform in [capped * (1 - jitter), capped]: jitter only ever shortens the
  // wait, so the policy's max_backoff stays a hard ceiling.
  const double jittered = capped - capped * policy_.jitter * rng_.next_double();
  auto delay = std::chrono::microseconds(static_cast<std::int64_t>(jittered));
  if (policy_.max_elapsed_us > 0) {
    // Clip the final delay to the budget remainder so the loop never sleeps
    // past its time cap.
    const std::uint64_t remaining = policy_.max_elapsed_us - elapsed_us_;
    delay = std::min(delay, std::chrono::microseconds(
                                static_cast<std::int64_t>(remaining)));
  }
  elapsed_us_ += static_cast<std::uint64_t>(delay.count());
  return delay;
}

void Backoff::reset() {
  retries_ = 0;
  base_us_ = static_cast<double>(policy_.initial_backoff_us);
  elapsed_us_ = 0;
}

bool interruptible_sleep(std::chrono::microseconds delay,
                         const std::atomic<bool>* cancel) {
  constexpr auto kSlice = std::chrono::milliseconds(10);
  auto remaining = delay;
  while (remaining.count() > 0) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    const auto nap = std::min<std::chrono::microseconds>(remaining, kSlice);
    std::this_thread::sleep_for(nap);
    remaining -= nap;
  }
  return cancel == nullptr || !cancel->load(std::memory_order_relaxed);
}

}  // namespace numastream
