// Fault-injection transport decorators and directed link cuts.
//
// Production streams between facilities see link flaps, peer restarts and
// corrupted frames routinely; nothing in a clean CI box produces those
// conditions. FaultyByteStream / FaultyListener wrap any ByteStream /
// Listener and inject faults according to a seeded FaultPlan, so the exact
// same chaos runs over InprocTransport in tests and TcpTransport in the
// examples — and, because every random decision comes from a per-connection
// deterministic RNG (common/rng.h), the same seed replays the identical
// fault sequence on every run.
//
// The unit of injection is one logical write: one write_all or
// write_all_vec call, which in the runtime always carries one whole NSM1
// message (msg/transport.h). A disconnect therefore falls between messages
// and a torn write inside one.
//
// Fault model (decided independently per logical write, in this order):
//   disconnect  - the connection breaks cleanly: nothing is delivered, the
//                 write and all later ones fail UNAVAILABLE, the peer sees
//                 EOF. Models a reset between messages.
//   torn write  - a corrupted, truncated prefix is delivered, then the
//                 connection breaks as above. Models a reset mid-message:
//                 the peer receives garbage and cuts the connection.
//   bit flip    - one random bit of the write is inverted and the write
//                 "succeeds". Models silent corruption below the transport's
//                 own checksums; only the NSM1/NSF1 checksums catch it.
//   short write - the write is delivered in two fragments with a stall
//                 between them. Exercises partial-read reassembly paths.
//   stall       - the write is delayed by `stall_micros` before delivery.
//                 This is also the link delay.
//   throttle    - the write is delivered as a slow drip of small slices at
//                 `throttle_bytes_per_sec`. Models a degraded-but-alive path
//                 (drooping transceiver, overloaded peer): progress never
//                 stops, it just crawls — the case health monitoring exists
//                 to catch, since no error status ever surfaces.
//   crash       - the whole *endpoint* dies abruptly (kill -9): nothing is
//                 delivered, every connection sharing this injector breaks
//                 (crash-epoch check), unflushed application state is dropped
//                 through the injector's crash hook, and dials/accepts fail
//                 UNAVAILABLE until a seeded restart delay elapses. The
//                 fault the crash-recovery journal (core/journal.h) exists
//                 to survive.
//
// Reads are passed through untouched (except across a crash, where they EOF
// like the dead process's sockets would): injecting on exactly one side
// keeps a fault attributable, and a wrapped peer covers the read direction.
//
// LinkCuts, at the bottom, is the directed partition state for endpoints
// that talk over request/reply links instead of byte streams (DESIGN.md §16).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "metrics/chaos_counters.h"
#include "metrics/fault_counters.h"
#include "msg/transport.h"

namespace numastream {

/// What to inject and how often. All probabilities are per-write (or
/// per-accept) in [0, 1]; they are evaluated in the order documented above,
/// at most one fault fires per call.
struct FaultPlan {
  std::uint64_t seed = 1;

  double disconnect_per_write = 0;
  double torn_write_per_write = 0;
  double bitflip_per_write = 0;
  double short_write_per_write = 0;
  double stall_per_write = 0;
  double throttle_per_write = 0;
  /// Delay injected by stalls and between short-write fragments.
  std::uint64_t stall_micros = 1000;

  /// Drip rate for throttled writes; must be > 0 when throttle_per_write is.
  std::uint64_t throttle_bytes_per_sec = 0;
  /// Cap on the total delay one throttled write may accumulate, so chaos
  /// plans stay test-sized even with large frames (0 = uncapped).
  std::uint64_t throttle_max_micros = 100'000;

  /// Endpoint death: probability one write takes the whole endpoint down
  /// (see the crash entry in the fault model above). Rolled in the same
  /// cumulative band as the per-write faults.
  double crash_per_write = 0;
  /// Upper bound on the seeded restart delay after a crash: the endpoint
  /// stays dark for 1..crash_restart_micros microseconds (drawn from the
  /// crashing connection's RNG) before dials/accepts succeed again.
  std::uint64_t crash_restart_micros = 5000;

  /// FaultyListener: probability an accept() fails once with UNAVAILABLE
  /// (the connection attempt is consumed, as with a dropped SYN).
  double accept_failure = 0;

  /// Never fault the first N bytes written on each connection, so a
  /// connection always makes some progress before breaking (a plan that
  /// kills every connection instantly tests the dialer, not the pipeline).
  std::uint64_t fault_free_prefix_bytes = 0;

  /// Hard cap on faults injected across all streams sharing one injector
  /// (~0ULL = unlimited). Lets a test script a bounded burst of chaos.
  std::uint64_t max_faults = ~std::uint64_t{0};

  [[nodiscard]] Status validate() const;
};

/// Shared state for one chaos domain: hands out per-connection RNG seeds and
/// enforces the plan-wide fault budget. Connection indices are assigned in
/// wrap() call order, so for reproducible runs use one injector per side
/// (dialer vs listener, with distinct seeds): a shared injector's indices
/// depend on how dials interleave with accepts across threads.
class FaultInjector {
 public:
  /// `counters` may be null (faults are then injected but not accounted).
  FaultInjector(FaultPlan plan, FaultCounters* counters);

  /// Wraps a stream; the wrapper owns it. Each call binds the next
  /// connection index, so connection k misbehaves identically across runs
  /// as long as connections are established in a deterministic order.
  std::unique_ptr<ByteStream> wrap(std::unique_ptr<ByteStream> stream);

  /// Decides an accept-failure roll (used by FaultyListener).
  bool roll_accept_failure();

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] FaultCounters* counters() const noexcept { return counters_; }

  /// True while the plan's fault budget has room; consumes one unit.
  bool take_fault_budget();

  // ---- endpoint crashes (DESIGN.md §11) ----

  /// Called at the instant of each crash, before any connection observes it.
  /// Tests hook MemoryJournalMedia::crash() here so unflushed journal bytes
  /// die with the process. The hook must be thread-safe.
  void set_crash_hook(std::function<void()> hook);

  /// Kills the endpoint now: bumps the crash epoch (breaking every live
  /// connection of this injector), runs the crash hook, and keeps dials and
  /// accepts failing for `restart_delay_micros`. Normally triggered by a
  /// seeded kCrash roll; public so tests can script an exact crash point.
  void trigger_crash(std::uint64_t restart_delay_micros);

  /// Crash generation: a stream born under an older epoch is dead.
  [[nodiscard]] std::uint64_t crash_epoch() const noexcept {
    return crash_epoch_.load(std::memory_order_acquire);
  }

  /// True while the endpoint is between death and restart; dials and
  /// accepts must fail UNAVAILABLE.
  [[nodiscard]] bool in_blackout() const;

 private:
  FaultPlan plan_;
  FaultCounters* counters_;
  std::atomic<std::uint64_t> next_stream_index_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  Rng accept_rng_;
  std::mutex accept_mu_;
  std::atomic<std::uint64_t> crash_epoch_{0};
  /// steady_clock microseconds until which the endpoint stays dark.
  std::atomic<std::int64_t> blackout_until_micros_{0};
  std::mutex crash_hook_mu_;
  std::function<void()> crash_hook_;
};

/// The write-side stream decorator (fault model documented at the top of
/// this header). Normally created through FaultInjector::wrap(), which
/// assigns consecutive connection indices; construct directly to pin a
/// specific index in a unit test. One stream belongs to one thread — the
/// fault RNG is unsynchronized by design.
class FaultyByteStream final : public ByteStream {
 public:
  FaultyByteStream(std::unique_ptr<ByteStream> inner, FaultInjector& injector,
                   std::uint64_t stream_index);

  Status write_all(ByteSpan data) override;
  Result<std::size_t> read_some(MutableByteSpan out) override;
  void shutdown_write() override;
  void cancel() noexcept override;

 private:
  enum class FaultKind {
    kNone, kDisconnect, kTornWrite, kBitFlip, kShortWrite, kStall, kThrottle,
    kCrash
  };

  FaultKind roll();
  void flip_random_bit(Bytes& bytes);
  Status break_connection();
  /// True when the endpoint died after this connection was established.
  [[nodiscard]] bool endpoint_crashed() const noexcept {
    return injector_.crash_epoch() > birth_epoch_;
  }

  std::unique_ptr<ByteStream> inner_;
  FaultInjector& injector_;
  Rng rng_;
  std::uint64_t written_ = 0;
  bool broken_ = false;
  const std::uint64_t birth_epoch_;
};

/// Listener decorator: optionally fails accepts, and wraps every accepted
/// stream in the injector's FaultyByteStream. The inner listener is borrowed
/// and must outlive this object.
class FaultyListener final : public Listener {
 public:
  FaultyListener(Listener& inner, FaultInjector& injector);

  Result<std::unique_ptr<ByteStream>> accept() override;
  void close() override;

 private:
  Listener& inner_;
  FaultInjector& injector_;
};

/// Decorates a dial function so every connection it establishes is
/// fault-injected. The injector is borrowed and must outlive the returned
/// function and every stream it produces.
using DialFn = std::function<Result<std::unique_ptr<ByteStream>>()>;
DialFn faulty_dialer(DialFn inner, FaultInjector& injector);

/// Directed cut state between `endpoints` peers. Asymmetry is the point: a
/// symmetric partition is the easy case, where both sides see silence and
/// both converge on "peer dead". The bugs that kill replicated systems live
/// in one-way cuts — a request that lands while its ack dies on the return
/// path, or heartbeats that flow A→B but not B→A. So cut(from, to) is
/// directed; partition() severs both directions, partition_one_way()
/// exactly one. Thread-safe: schedule events and link checks may come from
/// different threads. `counters` may be null; when set, every directed
/// link severed or restored bumps partitions_cut / partitions_healed.
class LinkCuts {
 public:
  explicit LinkCuts(std::uint32_t endpoints, ChaosCounters* counters = nullptr);

  /// Severs both directions between `a` and `b`.
  void partition(std::uint32_t a, std::uint32_t b);

  /// Severs exactly the `from` → `to` direction; the reverse keeps flowing.
  void partition_one_way(std::uint32_t from, std::uint32_t to);

  /// Restores both directions between `a` and `b`.
  void heal(std::uint32_t a, std::uint32_t b);

  /// Restores every link.
  void heal_all();

  /// True when messages from `from` cannot reach `to`.
  [[nodiscard]] bool cut(std::uint32_t from, std::uint32_t to) const;

  /// The ledger the cuts count into (may be null); links that honour the
  /// cuts count their dropped frames and acks there too.
  [[nodiscard]] ChaosCounters* counters() const noexcept { return counters_; }

 private:
  [[nodiscard]] std::size_t index(std::uint32_t from, std::uint32_t to) const;

  const std::uint32_t endpoints_;
  ChaosCounters* counters_;
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> cut_;  ///< endpoints² directed cut flags
};

}  // namespace numastream
