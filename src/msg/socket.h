// PushSocket / PullSocket: whole-message send/receive over a ByteStream —
// the ZeroMQ PUSH/PULL shape the paper's runtime is built from. One sending
// thread owns one PushSocket; one receiving thread owns one PullSocket; the
// pair forms one TCP stream of the paper's "x sending threads, x receiving
// threads, x TCP streams" layout.
//
// Each direction of a connection carries its own kinds. Data messages,
// end-of-stream markers included, go forward. Credit grants, RESUME
// handshakes and the end-of-stream echo come back. Any other kind on a
// direction is DATA_LOSS, and ends the connection as a corrupt message does.
#pragma once

#include <memory>

#include "msg/message.h"
#include "msg/transport.h"

namespace numastream {

/// Upper bound on a control frame's body (credit grants are body-less;
/// RESUME bodies grow with stream count — 340 streams fit). The control
/// path checks it against the 32-byte header before reading any body byte,
/// so a peer announcing a larger control body gets a loud DATA_LOSS and
/// buffers nothing. Raise the constant if a deployment ever legitimately
/// resumes >340 streams per connection.
inline constexpr std::size_t kMaxControlBody = 4096;

class PushSocket {
 public:
  explicit PushSocket(std::unique_ptr<ByteStream> stream);

  /// Sends one message (blocking until fully written). Framing is
  /// scatter-gather: the 32-byte header is built on the stack and handed to
  /// the transport together with the message's frame header and its own
  /// body buffer (write_all_vec, three iovecs), so the payload — 11 MiB for
  /// a chunk — is never copied into a join buffer. Wire bytes are identical
  /// to encode_message's.
  Status send(const Message& message);

  /// send() with the body checksum supplied by the caller, who must pass
  /// message_body_hash(message) (see encode_message_header).
  Status send(const Message& message, std::uint32_t body_hash);

  /// Sends the end-of-stream marker and closes the write side. Idempotent.
  Status finish(std::uint32_t stream_id);

  /// Blocks until the peer's next *control* message arrives on the reverse
  /// direction of this connection: a credit grant, a RESUME handshake
  /// (crash recovery, DESIGN.md §11) or the echo of this side's
  /// end-of-stream marker, the only kinds a receiver sends back. A sender
  /// reads only when it needs one (out of credit, awaiting a handshake or
  /// the echo), so there is no select() loop, and the stall is the flow
  /// control.
  ///   UNAVAILABLE - peer closed the reverse channel,
  ///   DATA_LOSS   - the reverse channel carried any other kind, a body
  ///                 over kMaxControlBody, or corrupt framing (sticky).
  Result<Message> recv_control();

  /// Bytes pushed so far, including headers (for throughput accounting).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

 private:
  std::unique_ptr<ByteStream> stream_;
  std::uint64_t bytes_sent_ = 0;
  bool finished_ = false;
  bool control_corrupt_ = false;  ///< the reverse channel violated framing
};

class PullSocket {
 public:
  /// Reads each 32-byte header exactly, then the body straight into the
  /// message's own buffers (a frame body's NSF1 header into frame_header,
  /// its payload into body). Any framing violation cuts the connection:
  /// recv() then fails with sticky DATA_LOSS, and a reconnecting receiver
  /// recycles the connection for the sender's re-dial.
  explicit PullSocket(std::unique_ptr<ByteStream> stream);

  /// Receives the next data message (blocking).
  ///   UNAVAILABLE - clean end of stream (peer finished or disconnected
  ///                 between messages),
  ///   DATA_LOSS   - corrupt framing, a control kind on this data channel,
  ///                 or connection lost mid-message (sticky).
  /// An end-of-stream marker message is delivered like any other; callers
  /// check Message::end_of_stream.
  Result<Message> recv();

  /// Writes a credit grant for `grant` messages on the reverse direction of
  /// this connection (credit-based flow control; the paired PushSocket reads
  /// it via recv_control). Call from the thread that owns this socket.
  Status send_credit(std::uint64_t grant);

  /// Writes a RESUME handshake on the reverse direction of this connection:
  /// the receiver's session id and committed watermarks (the paired
  /// PushSocket reads it via recv_control). Call from the owning thread.
  Status send_resume(std::uint64_t session_id,
                     const std::vector<ResumePoint>& points);

  /// Echoes the peer's end-of-stream marker on the reverse direction once
  /// recv() has returned it: every message the peer wrote on this
  /// connection arrived intact (the paired PushSocket reads the echo via
  /// recv_control). Call from the owning thread.
  Status echo_end_of_stream();

  /// Bytes of the whole verified messages pulled so far, headers included.
  [[nodiscard]] std::uint64_t bytes_received() const noexcept { return bytes_received_; }

 private:
  std::unique_ptr<ByteStream> stream_;
  std::uint64_t bytes_received_ = 0;
  bool corrupt_ = false;  ///< a framing violation was seen
};

}  // namespace numastream
