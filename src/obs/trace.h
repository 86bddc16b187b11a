// Tracer: per-worker span rings and deterministic trace export.
//
// Recording must never perturb the pipeline it observes, so each worker owns
// a SpanRing — a drop-oldest wrapper over the wait-free SpscRing — and a
// record() is two index loads and a 40-byte store. When a ring fills, the
// oldest span is discarded and a per-ring counter notes the loss; tracing
// degrades by forgetting history, never by blocking a stage.
//
// Drop-oldest bends the SPSC contract (the recording thread both pushes and
// pops), which is safe only because drains are phase-separated from
// recording: the real pipeline drains after its workers are joined, and the
// simulated runtime is single-threaded to begin with. SpanRing documents and
// relies on that discipline.
//
// Export is deterministic by construction: drain_sorted() orders spans by a
// total key (start_ns, worker, stage, stream, sequence) and the JSONL /
// Chrome-trace writers format integers only, so two same-seed simulation
// runs emit byte-identical traces.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "concurrency/spsc_ring.h"
#include "obs/span.h"

namespace numastream::obs {

/// Bounded drop-oldest span buffer for one worker thread.
class SpanRing {
 public:
  explicit SpanRing(std::size_t min_capacity) : ring_(min_capacity) {}

  /// Records a span, evicting the oldest one when full. Only the owning
  /// worker thread may call this, and never concurrently with drain().
  void record(const Span& span) noexcept {
    Span item = span;
    while (!ring_.try_push(item)) {
      if (ring_.try_pop()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// Moves out everything buffered, oldest first. Must not race record().
  std::vector<Span> drain() {
    std::vector<Span> out;
    out.reserve(ring_.size_approx());
    while (auto span = ring_.try_pop()) {
      out.push_back(*span);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  SpscRing<Span> ring_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Owns one SpanRing per worker. Sized once before the run starts; workers
/// record into their own ring by index with no coordination.
class Tracer {
 public:
  /// `workers` rings of `ring_capacity` spans each.
  Tracer(std::size_t workers, std::size_t ring_capacity);

  /// Records `span` into worker `span.worker`'s ring. A worker id beyond the
  /// ring set counts the span as dropped rather than aborting: lifecycle
  /// bookkeeping must never take down the pipeline.
  void record(const Span& span) noexcept;

  /// Drains every ring and returns the spans in the canonical deterministic
  /// order (start_ns, worker, stage, stream_id, sequence).
  [[nodiscard]] std::vector<Span> drain_sorted();

  /// Spans evicted ring-full plus spans rejected for bad worker ids.
  [[nodiscard]] std::uint64_t dropped_spans() const noexcept;

 private:
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::atomic<std::uint64_t> rejected_{0};
};

/// One JSON object per line:
/// {"stream":0,"seq":3,"stage":"compress","worker":1,"domain":0,"start_ns":10,"end_ns":25}
/// Integer fields only; byte-identical for identical span sequences.
std::string spans_to_jsonl(const std::vector<Span>& spans);

/// Chrome-trace / Perfetto "traceEvents" JSON: one complete ("ph":"X") event
/// per span, microsecond ts/dur as integer nanoseconds scaled by writing
/// ns/1000 and ns%1000 explicitly — no floating point anywhere.
std::string spans_to_chrome_json(const std::vector<Span>& spans);

}  // namespace numastream::obs
