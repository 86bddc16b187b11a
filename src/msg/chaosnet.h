// Deterministic network-chaos mesh (DESIGN.md §16).
//
// The fault layers grown so far each model one adversary: msg/faulty cuts,
// tears and stalls a single byte stream; InprocReplicationLink partitions
// one replication pair; MemoryJournalMedia rots one journal. What none of
// them can express is *weather* — a topology-wide pattern of asymmetric
// partitions, link delays, duplicated and reordered frames that evolves
// over a run and composes with crashes and handoffs. ChaosNetMesh is that
// weather: one object holding the directed link state between N endpoints,
// every decision drawn from one seed, so an entire chaos campaign replays
// bit-identically from a (seed, schedule) pair.
//
// Asymmetry is the point. A symmetric partition is the easy case — both
// sides see silence and both converge on "peer dead". The bugs that kill
// replicated systems live in the one-way cuts: the primary's REPL frame
// reaches the standby (which applies it durably) but the ack dies on the
// return path, so the primary retries into divergence; or heartbeats flow
// A→B but not B→A, so exactly one failure detector trips. cut(from, to)
// is therefore directed state; partition() severs both directions,
// partition_one_way() exactly one.
//
// Granularity is the NSM1 frame, not the byte: ChaosByteStream buffers
// written bytes until a complete header+body frame is assembled (using the
// same decode_message_header validation as PullSocket's strict receive), then
// drops, delays, duplicates or holds-for-reorder whole frames. That keeps
// chaos runs inside the protocol's state machine — a reordered *frame* is
// a legal network, a reordered *byte range* is corruption, and corruption
// is msg/faulty's job.
//
// Time is pluggable: WallChaosClock really sleeps (real-TCP soak tests),
// VirtualChaosClock only accumulates (simulation and unit tests run a
// thousand delayed frames in microseconds). The mesh defaults to virtual
// time; nothing in a default-off build constructs a mesh at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "metrics/chaos_counters.h"
#include "msg/transport.h"

namespace numastream {

/// How the mesh spends a link delay: really (wall clock, for TCP tests)
/// or notionally (virtual accumulator, for simulation and unit tests).
class ChaosClock {
 public:
  virtual ~ChaosClock() = default;

  /// Advances time by `micros` (sleeping or accumulating).
  virtual void advance(std::uint64_t micros) = 0;

  /// Micros advanced through this clock so far.
  [[nodiscard]] virtual std::uint64_t now_micros() const = 0;
};

/// Really sleeps: per-link delays become real latency on a live socket.
class WallChaosClock final : public ChaosClock {
 public:
  void advance(std::uint64_t micros) override;
  [[nodiscard]] std::uint64_t now_micros() const override;

 private:
  std::atomic<std::uint64_t> advanced_{0};
};

/// Only accumulates: delays are bookkeeping, never latency. The default.
class VirtualChaosClock final : public ChaosClock {
 public:
  void advance(std::uint64_t micros) override;
  [[nodiscard]] std::uint64_t now_micros() const override;

 private:
  std::atomic<std::uint64_t> advanced_{0};
};

/// Per-link fault probabilities, applied per frame. All default to zero:
/// a default plan is a perfect network until a partition is scheduled.
struct ChaosLinkPlan {
  double delay_chance = 0.0;         ///< per-frame odds of a link delay
  std::uint64_t delay_micros = 0;    ///< how long each delayed frame waits
  double duplicate_chance = 0.0;     ///< per-frame odds of double delivery
  double reorder_chance = 0.0;       ///< per-frame odds of swapping forward

  [[nodiscard]] Status validate() const;
};

/// What the mesh decided to do with one frame on one directed link.
struct ChaosFrameFate {
  bool delayed = false;
  bool duplicated = false;
  bool reordered = false;
};

/// Directed link state between `endpoints` gateways plus the per-link
/// deterministic RNGs. Thread-safe: schedule events (partition/heal) and
/// frame rolls may arrive from different pipeline threads.
class ChaosNetMesh {
 public:
  /// Every per-link RNG is derived from `seed` and the (from, to) pair via
  /// splitmix64, so traffic on one link never perturbs another link's
  /// decision stream — the property schedule replay rests on.
  ChaosNetMesh(std::uint32_t endpoints, std::uint64_t seed,
               ChaosLinkPlan plan = {}, ChaosClock* clock = nullptr,
               ChaosCounters* counters = nullptr);

  [[nodiscard]] std::uint32_t endpoints() const noexcept { return endpoints_; }

  /// Severs both directions between `a` and `b`.
  void partition(std::uint32_t a, std::uint32_t b);

  /// Severs exactly the `from` → `to` direction; the reverse keeps flowing.
  void partition_one_way(std::uint32_t from, std::uint32_t to);

  /// Restores both directions between `a` and `b`.
  void heal(std::uint32_t a, std::uint32_t b);

  /// Restores every link.
  void heal_all();

  /// True when frames from `from` cannot reach `to`.
  [[nodiscard]] bool cut(std::uint32_t from, std::uint32_t to) const;

  /// Draws this frame's fate from the link's RNG and spends any delay on
  /// the clock. Deterministic per link: the nth frame on a link always
  /// rolls the same fate for a given seed.
  ChaosFrameFate roll(std::uint32_t from, std::uint32_t to);

  /// Counter hooks for decorators that consume mesh state.
  void note_frame_dropped();
  void note_ack_dropped();

  [[nodiscard]] ChaosClock& clock() noexcept { return *clock_; }
  [[nodiscard]] ChaosCounters* counters() const noexcept { return counters_; }

 private:
  [[nodiscard]] std::size_t index(std::uint32_t from, std::uint32_t to) const;

  const std::uint32_t endpoints_;
  const ChaosLinkPlan plan_;
  VirtualChaosClock default_clock_;
  ChaosClock* clock_;
  ChaosCounters* counters_;
  mutable std::mutex mutex_;
  std::vector<std::uint8_t> cut_;  ///< endpoints² directed cut flags
  std::vector<Rng> rng_;           ///< one decision stream per directed link
};

/// ByteStream decorator that applies the mesh's weather at NSM1 frame
/// granularity on the write side (reads pass through untouched, mirroring
/// msg/faulty's convention: wrap both directions to fault both).
///
/// Bytes are buffered until a complete frame (validated 32-byte header +
/// declared body) is assembled, then the frame is dropped (link cut),
/// delayed (clock), duplicated (written twice) or held one slot to swap
/// with the next frame (reorder). Non-NSM1 bytes pass through unframed:
/// chaos at frame granularity is only meaningful on a framed wire.
/// shutdown_write flushes any held frame and partial bytes first, so a
/// clean close never truncates the wire mid-frame.
class ChaosByteStream final : public ByteStream {
 public:
  ChaosByteStream(std::unique_ptr<ByteStream> inner, ChaosNetMesh& mesh,
                  std::uint32_t from, std::uint32_t to);

  Status write_all(ByteSpan data) override;
  Result<std::size_t> read_some(MutableByteSpan out) override;
  void shutdown_write() override;
  void cancel() noexcept override;

 private:
  Status dispatch(Bytes frame);
  Status emit(ByteSpan frame);
  Status flush_held();

  std::unique_ptr<ByteStream> inner_;
  ChaosNetMesh& mesh_;
  const std::uint32_t from_;
  const std::uint32_t to_;
  Bytes pending_;   ///< bytes of a not-yet-complete frame
  Bytes held_;      ///< frame parked by a reorder roll
  bool framed_ = true;  ///< false once non-NSM1 bytes appear: pass through
};

}  // namespace numastream
