// The traced run's spans and the decorators that record them.
//
// The benchmark wraps each call it makes into a layer — source next,
// connect/accept, stream write/read, sink deliver and the run() calls — and
// records one span per call into an in-memory store, written out when the
// run ends. Spans of one chunk share an id made from (stream, seq); a
// stream read takes the id of the last message header it touched. No
// observability directive inside the runtime is turned on: these spans sit
// at the boundaries the benchmark itself owns.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "msg/transport.h"
#include "ring.h"

namespace rtbench {

/// Span id of chunk (stream, seq); control frames set the top bit.
std::uint64_t chunk_span_id(std::uint32_t stream, std::uint64_t seq,
                            bool control = false);

struct Span {
  const char* name = "";  ///< static string
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;  ///< since the store's epoch
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;
  std::uint32_t thread = 0;  ///< small per-store thread index
};

class SpanStore {
 public:
  SpanStore() : epoch_(Clock::now()) {}
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  [[nodiscard]] std::int64_t now_ns() const;
  void record(const char* name, std::uint64_t id, std::int64_t start_ns,
              std::int64_t end_ns, std::uint64_t bytes = 0);

  struct Totals {
    std::uint64_t calls = 0;
    double seconds = 0;
    std::uint64_t bytes = 0;
  };
  /// Per span name: calls, summed duration and bytes.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  [[nodiscard]] std::size_t size() const;

  /// Writes every span as CSV (name,id,thread,start_ns,end_ns,bytes).
  bool write_csv(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> threads_;
};

/// Follows NSM1 message boundaries through a byte stream read in arbitrary
/// pieces, touching only the 32-byte headers. consume() returns the span id
/// of the last message whose header or body the piece touched.
class WireCursor {
 public:
  std::uint64_t consume(const std::uint8_t* data, std::size_t size);

 private:
  std::uint8_t header_[32] = {};
  std::size_t have_ = 0;
  std::uint64_t body_left_ = 0;
  std::uint64_t id_ = 0;
};

/// Span id of the message whose header starts `data`, 0 when it is not one.
std::uint64_t message_span_id(numastream::ByteSpan data);

/// Records a span per write/read. `data_writes` says which direction carries
/// chunks on this end: a sender writes data and reads control frames back,
/// a receiver the reverse.
class TracingByteStream final : public numastream::ByteStream {
 public:
  TracingByteStream(std::unique_ptr<numastream::ByteStream> inner, SpanStore& spans,
                    bool data_writes);

  numastream::Status write_all(numastream::ByteSpan data) override;
  numastream::Status write_all_vec(
      std::initializer_list<numastream::ByteSpan> spans) override;
  numastream::Result<std::size_t> read_some(numastream::MutableByteSpan out) override;
  void shutdown_write() override { inner_->shutdown_write(); }
  void cancel() noexcept override { inner_->cancel(); }

 private:
  std::unique_ptr<numastream::ByteStream> inner_;
  SpanStore& spans_;
  const char* write_name_;
  const char* read_name_;
  WireCursor cursor_;
};

/// Records when each accept() returns (the set-up clock needs the last one)
/// and, when `spans` is set, an accept span and a TracingByteStream around
/// each accepted stream. Without spans the streams pass through untouched.
class TimedListener final : public numastream::Listener {
 public:
  TimedListener(numastream::Listener& inner, SpanStore* spans)
      : inner_(inner), spans_(spans) {}

  numastream::Result<std::unique_ptr<numastream::ByteStream>> accept() override;
  void close() override { inner_.close(); }

  /// Return time of the `n`-th successful accept (1-based), if it happened.
  [[nodiscard]] std::optional<Clock::time_point> accepted(std::size_t n) const;

 private:
  numastream::Listener& inner_;
  SpanStore* spans_;
  mutable std::mutex mu_;
  std::vector<Clock::time_point> accepted_;
};

class TracingSource final : public numastream::ChunkSource {
 public:
  TracingSource(numastream::ChunkSource& inner, SpanStore& spans)
      : inner_(inner), spans_(spans) {}
  std::optional<numastream::Chunk> next() override;

 private:
  numastream::ChunkSource& inner_;
  SpanStore& spans_;
};

class TracingSink final : public numastream::ChunkSink {
 public:
  TracingSink(numastream::ChunkSink& inner, SpanStore& spans)
      : inner_(inner), spans_(spans) {}
  void deliver(numastream::Chunk chunk) override;

 private:
  numastream::ChunkSink& inner_;
  SpanStore& spans_;
};

}  // namespace rtbench
