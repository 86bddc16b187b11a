// Workloads, the replayed input ring, and the source/sink pair that feeds
// the real pipeline and checks what comes out of it.
//
// The input is a ring of distinct pre-generated tomography chunks built from
// the workload seed. The ring is larger than the last-level cache, so source
// reads are cold as in a real stream, and replaying it keeps TomoGenerator
// (a few hundred MB/s) from capping the pipeline. Chunk g of a run belongs to
// stream g % streams with sequence g / streams and carries ring entry
// g % ring size, so the entry for any (stream, seq) is known to the verifier.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/pipeline.h"
#include "data/tomo.h"

namespace rtbench {

using Clock = std::chrono::steady_clock;

/// One benchmark workload: chunk geometry, codec, thread counts and whether
/// the session machinery (reconnect, resume journals, credits) is on.
struct Workload {
  std::string name;
  std::uint32_t rows = 0;
  std::uint32_t cols = 0;
  std::string codec;
  int compress = 1;
  int send = 1;
  int receive = 1;
  int decompress = 1;
  std::uint32_t streams = 1;
  bool session = false;
  /// Chunks in flight (issued, not yet delivered) the closed loop allows:
  /// its client count. Bounds queue occupancy, so latency and memory follow
  /// throughput instead of which stage happened to fill its queue.
  std::uint64_t window = 8;

  [[nodiscard]] std::size_t chunk_bytes() const noexcept {
    return static_cast<std::size_t>(rows) * cols * 2;
  }
  [[nodiscard]] std::string shape() const;  ///< "2C/1S/1R/2D"
};

/// proj_lz4, proj_null and tile_session, in that order.
const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

/// Sender/receiver configs for `w`. `session_id` names the resume session
/// (used only when the workload turns the session machinery on).
numastream::NodeConfig sender_config(const Workload& w, const std::string& host,
                                     std::uint64_t session_id);
numastream::NodeConfig receiver_config(const Workload& w, const std::string& host,
                                       std::uint64_t session_id);

/// Ring bytes for a last-level cache of `llc_bytes`: 1.25x the LLC, at least
/// 128 MiB, at most 1 GiB.
std::size_t ring_bytes_for_llc(std::size_t llc_bytes);

/// The replayed input: `entries` distinct chunks rendered from the seed.
struct Ring {
  numastream::TomoConfig tomo;
  std::vector<numastream::Bytes> entries;

  /// TomoConfig of entry `i`: every entry renders its own phantom (seed
  /// mixed with i), so the ring averages over phantoms and the compression
  /// ratio and codec speed vary little from seed to seed.
  [[nodiscard]] numastream::TomoConfig entry_config(std::uint64_t i) const;

  /// Renders `count` entries (rounded up to a multiple of `multiple_of`) on
  /// `threads` threads. Entry i is projection i of entry_config(i).
  static Ring generate(const Workload& w, std::uint64_t seed, std::size_t count,
                       std::size_t multiple_of, int threads);

  [[nodiscard]] std::size_t size() const noexcept { return entries.size(); }
  [[nodiscard]] std::size_t bytes() const noexcept;
  [[nodiscard]] const numastream::Bytes& entry_for(std::uint32_t streams,
                                                   std::uint32_t stream,
                                                   std::uint64_t seq) const;
  /// xxHash64 of every entry, for determinism checks.
  [[nodiscard]] std::vector<std::uint64_t> hashes() const;
  /// raw / framed bytes over one pass of the ring with `codec`.
  [[nodiscard]] double compression_ratio(std::string_view codec) const;
};

/// Delivery accounting for one run: which (stream, seq) the source issued,
/// when, and which the sink received. Thread-safe.
class Ledger {
 public:
  /// At most `window` chunks are in flight: issue() waits for a delivery
  /// before claiming more (giving up after a few seconds, so a lost chunk
  /// shows as missing instead of hanging the run).
  explicit Ledger(std::uint32_t streams, std::uint64_t window = ~std::uint64_t{0});

  struct Issue {
    std::uint64_t global = 0;
    std::uint32_t stream = 0;
    std::uint64_t seq = 0;
  };
  /// When a run stops issuing: after `max_chunks`, or at the first multiple
  /// of `pass` once `run_for` has passed since the first issue.
  struct StopRule {
    std::uint64_t max_chunks = ~std::uint64_t{0};
    std::uint64_t pass = 1;
    Clock::duration run_for = Clock::duration::max();
  };
  /// Claims the next global chunk index and stamps its creation time;
  /// nullopt once `rule` stops the run (the ledger then stays closed).
  std::optional<Issue> issue(const StopRule& rule);

  /// Records one delivery; returns its latency in ms, or nullopt when the
  /// (stream, seq) was never issued or was already delivered (a duplicate).
  std::optional<double> deliver(std::uint32_t stream, std::uint64_t seq,
                                Clock::time_point now);

  struct Report {
    std::uint64_t issued = 0;
    std::uint64_t delivered = 0;    ///< distinct issued chunks that arrived
    std::uint64_t missing = 0;
    std::uint64_t duplicate = 0;    ///< repeats and never-issued ids
    std::uint64_t corrupt = 0;      ///< arrived, but not byte-identical
    [[nodiscard]] std::uint64_t errors() const noexcept {
      return missing + duplicate + corrupt;
    }
  };
  void note_corrupt();
  [[nodiscard]] Report report() const;

  [[nodiscard]] std::uint32_t streams() const noexcept { return streams_; }
  [[nodiscard]] std::optional<Clock::time_point> first_issue() const;
  [[nodiscard]] std::optional<Clock::time_point> last_delivery() const;

 private:
  const std::uint32_t streams_;
  const std::uint64_t window_;
  mutable std::mutex mu_;
  std::condition_variable delivered_cv_;
  bool closed_ = false;
  bool window_stalled_ = false;
  std::uint64_t next_ = 0;
  std::uint64_t arrived_ = 0;  ///< first deliveries of issued chunks
  std::vector<std::vector<Clock::time_point>> created_;  // [stream][seq]
  std::vector<std::vector<std::uint8_t>> seen_;          // [stream][seq]
  std::uint64_t duplicate_ = 0;
  std::uint64_t corrupt_ = 0;
  std::optional<Clock::time_point> first_issue_;
  std::optional<Clock::time_point> last_delivery_;
};

/// Replays the ring round-robin over the ledger's streams, one fresh copy of
/// the entry per chunk. With a StopRule whose `pass` is the ring size, a run
/// ends on a whole ring pass, so every entry is streamed equally often and
/// the compression ratio is a property of the ring, not of the run length.
class RingSource final : public numastream::ChunkSource {
 public:
  RingSource(const Ring& ring, Ledger& ledger, Ledger::StopRule rule)
      : ring_(ring), ledger_(ledger), rule_(rule) {}
  std::optional<numastream::Chunk> next() override;

 private:
  const Ring& ring_;
  Ledger& ledger_;
  const Ledger::StopRule rule_;
};

/// Compares every delivered chunk byte for byte with the ring entry named by
/// its (stream, seq) and records its latency. Thread-safe.
class VerifyingSink final : public numastream::ChunkSink {
 public:
  VerifyingSink(const Ring& ring, Ledger& ledger) : ring_(ring), ledger_(ledger) {}
  void deliver(numastream::Chunk chunk) override;

  /// Latencies of every valid delivery, in ms, in arrival order.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  [[nodiscard]] std::uint64_t delivered_bytes() const;

 private:
  const Ring& ring_;
  Ledger& ledger_;
  mutable std::mutex mu_;
  std::vector<double> latencies_ms_;
  std::uint64_t delivered_bytes_ = 0;
};

}  // namespace rtbench
