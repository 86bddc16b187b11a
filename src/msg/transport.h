// Transport abstraction: a reliable, ordered, connection-oriented byte
// stream, with two implementations:
//   * TcpTransport (msg/tcp.h)       - real sockets, used host-to-host and in
//                                      the loopback examples,
//   * InprocTransport (msg/inproc.h) - an in-memory pipe for tests and for
//                                      single-process pipelines.
//
// The streaming runtime is written entirely against this interface, so every
// pipeline test can run on inproc and the identical code path ships over TCP.
#pragma once

#include <initializer_list>
#include <memory>

#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

class ByteStream {
 public:
  virtual ~ByteStream() = default;

  /// Writes the entire span (blocking). UNAVAILABLE once the peer is gone.
  virtual Status write_all(ByteSpan data) = 0;

  /// Writes every span, in order, as one logical write (blocking). The wire
  /// bytes are exactly the concatenation — this exists so framed sends
  /// (header + large pooled payload) need not join into a temporary buffer.
  /// The default joins and delegates to write_all, which keeps single-write
  /// semantics for transports whose fault injection or flow control counts
  /// writes (msg/faulty); kernel transports override with real vectored I/O
  /// (TcpStream uses writev).
  ///
  /// Contract the fault layer relies on: the runtime sends one whole NSM1
  /// message per logical write (one write_all or write_all_vec call), never
  /// a message split across calls or two messages joined in one. So each
  /// fault msg/faulty rolls for a write lands on exactly one message.
  virtual Status write_all_vec(std::initializer_list<ByteSpan> spans) {
    std::size_t total = 0;
    for (const ByteSpan& span : spans) {
      total += span.size();
    }
    Bytes joined;
    joined.reserve(total);
    for (const ByteSpan& span : spans) {
      joined.insert(joined.end(), span.begin(), span.end());
    }
    return write_all(joined);
  }

  /// Reads at least 1 and at most `out.size()` bytes (blocking).
  /// Returns 0 exactly once: clean end-of-stream (peer closed after flushing).
  virtual Result<std::size_t> read_some(MutableByteSpan out) = 0;

  /// Closes the write direction; the peer's read_some eventually returns 0.
  /// Reading may continue. Idempotent.
  virtual void shutdown_write() = 0;

  /// Aborts the stream from any thread: blocked and future reads/writes
  /// return promptly (UNAVAILABLE or EOF). The watchdog uses this to turn a
  /// pipeline stuck on a dead peer into a clean timed-out error. Idempotent;
  /// default is a no-op for transports without remote cancellation.
  virtual void cancel() noexcept {}
};

/// Blocking helper: fills `out` completely, or reports why it could not.
/// UNAVAILABLE = clean EOF before any byte; DATA_LOSS = EOF mid-buffer.
Status read_exact(ByteStream& stream, MutableByteSpan out);

class Listener {
 public:
  virtual ~Listener() = default;

  /// Blocks for the next inbound connection. UNAVAILABLE once closed.
  virtual Result<std::unique_ptr<ByteStream>> accept() = 0;

  /// Unblocks pending and future accept() calls.
  virtual void close() = 0;
};

}  // namespace numastream
