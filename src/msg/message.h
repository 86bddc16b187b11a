// Wire message format.
//
// The paper uses ZeroMQ PUSH/PULL sockets to move compressed chunks between
// sender and receiver threads. This module provides the same narrow facility
// without the dependency: length-prefixed, checksummed messages over a byte
// stream, with a stream id and sequence number so a multi-stream gateway can
// demultiplex, and an end-of-stream flag so receivers know when a producer
// has finished (ZeroMQ conveys this out of band; we carry it in-band). The
// receiver echoes each end-of-stream marker back on the reverse channel
// (msg/socket.h), so a reconnecting sender learns that its marker landed.
//
// Layout (little-endian):
//   0   4  magic "NSM1"
//   4   4  stream id
//   8   8  sequence number
//   16  2  flags (below)
//   18  2  reserved (0)
//   20  8  body size
//   28  4  body hash (below)
//   32  .. body
//
// A data message's body is normally one NSF1 frame (codec/frame.h). In
// memory a Message holds such a body split: the 32-byte frame header beside
// the payload buffer, never joined, so a chunk's payload is written from
// and read into its own buffer. The wire bytes are the same either way.
//
// The body hash is xxhash32 of the whole body, except for a data body that
// opens with a sealed frame (NSF1 flags bit 0): its body hash is xxhash32
// of just the 32-byte frame header, and the frame's payload seal (an
// xxhash64, whole for a stored frame and its low 32 bits for a compressed
// one) covers the payload. A receiver checks both before it hands the
// message on, so a payload is hashed once per side, by one xxhash64 pass,
// and a payload that fails its seal is a message-layer corruption exactly
// like a body-hash mismatch. The header layout and flags word are the same
// for both forms; which one applies is read from the frame header alone.
//
// Flags word: at most one bit is set. Bit 0 (mask 1) is end-of-stream, on a
// data message only. Each other bit names one control kind (MessageKind),
// added one protocol minor version at a time under the same "NSM1" magic:
//
//   bit 1, mask 2   v1.1 credit grant   receiver -> sender, body-less; the
//                                       grant count rides in the sequence
//                                       field (msg/socket.h)
//   bit 2, mask 4   v1.2 RESUME         receiver -> sender (DESIGN.md §11)
//   bit 3, mask 8   v1.3 REPL           gateway <-> gateway journal
//                                       replication (cluster/replication.h)
//   bit 4, mask 16  v1.4 HANDOFF        gateway <-> gateway planned stream
//                                       transfer (cluster/rebalance.h)
//   bit 5, mask 32  v1.5 SCRUB          gateway <-> gateway anti-entropy
//                                       (cluster/antientropy.h)
//
// A decoder of an older minor version treats an unknown bit as corruption.
// That is safe because a kind is only ever sent when both ends run the
// feature that uses it (the overload or resume directive, or gateway
// federation); without it the wire is bit-identical to the version before. The header check enforces one rule
// for the flags (at most one bit) and one body-size row per kind
// (kMessageKindRules); the REPL, HANDOFF and SCRUB body layouts are
// documented and parsed next to their only consumers in cluster/.
//
// A RESUME body carries the receiver's durable session id and per-stream
// committed-delivery watermarks:
//
//   0   8  session id
//   8   4  stream count N
//   12  .. N x (u32 stream id, u64 watermark)
//
// so a restarted endpoint handshakes back to the exact resume point and the
// peer replays only the gap.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "codec/frame.h"
#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

inline constexpr std::uint32_t kMessageMagic = 0x314D534EU;  // "NSM1"
inline constexpr std::size_t kMessageHeaderSize = 32;
inline constexpr std::uint16_t kMessageFlagEndOfStream = 1;
inline constexpr std::uint16_t kMessageFlagCredit = 2;
inline constexpr std::uint16_t kMessageFlagResume = 4;
inline constexpr std::uint16_t kMessageFlagRepl = 8;
inline constexpr std::uint16_t kMessageFlagHandoff = 16;
inline constexpr std::uint16_t kMessageFlagScrub = 32;
inline constexpr std::uint16_t kMessageKnownFlags =
    kMessageFlagEndOfStream | kMessageFlagCredit | kMessageFlagResume |
    kMessageFlagRepl | kMessageFlagHandoff | kMessageFlagScrub;

/// Fixed prefix of a RESUME body: session id + stream count.
inline constexpr std::size_t kResumeBodyPrefix = 12;
/// Bytes per (stream id, watermark) pair in a RESUME body.
inline constexpr std::size_t kResumePointSize = 12;

/// Refuse absurd body sizes before allocating: protects a receiver from a
/// corrupt or hostile length prefix. Generous relative to the 11 MiB chunks.
inline constexpr std::uint64_t kMaxMessageBody = 1ULL << 30;

/// One stream's resume point: every sequence below `watermark` is committed
/// at the receiver, so a sender replays from `watermark` up.
struct ResumePoint {
  std::uint32_t stream_id = 0;
  std::uint64_t watermark = 0;

  friend bool operator==(const ResumePoint&, const ResumePoint&) = default;
};

/// Decoded payload of a RESUME control frame.
struct ResumeInfo {
  std::uint64_t session_id = 0;
  std::vector<ResumePoint> points;

  friend bool operator==(const ResumeInfo&, const ResumeInfo&) = default;
};

/// What a message is. Data (an end-of-stream marker included) sets no
/// control bit; every other kind sets exactly one.
enum class MessageKind : std::uint8_t {
  kData,     ///< a chunk's frame, or an end-of-stream marker
  kCredit,   ///< receiver -> sender: permission for `sequence` more messages
  kResume,   ///< receiver -> sender: session id + committed watermarks
  kRepl,     ///< gateway <-> gateway: journal replication
  kHandoff,  ///< gateway <-> gateway: planned stream handoff
  kScrub,    ///< gateway <-> gateway: anti-entropy scrub and repair
};

/// What the header check knows about one kind: its name in DATA_LOSS
/// texts, its flag bit, and the body sizes it admits (on top of
/// kMaxMessageBody). The body layouts themselves belong to the kind's
/// consumer, which static_asserts its fixed prefix against `min_body`.
struct MessageKindRule {
  const char* name;
  std::uint16_t flag;
  std::uint64_t min_body;
  std::uint64_t max_body;
};

/// One row per MessageKind, in enum order.
inline constexpr MessageKindRule kMessageKindRules[] = {
    {"data", 0, 0, kMaxMessageBody},
    {"credit", kMessageFlagCredit, 0, 0},
    {"resume", kMessageFlagResume, kResumeBodyPrefix, kMaxMessageBody},
    {"repl", kMessageFlagRepl, 24, kMaxMessageBody},
    {"handoff", kMessageFlagHandoff, 40, 40},
    {"scrub", kMessageFlagScrub, 36, kMaxMessageBody},
};

[[nodiscard]] constexpr const MessageKindRule& message_kind_rule(MessageKind kind) {
  return kMessageKindRules[static_cast<std::size_t>(kind)];
}

struct Message {
  std::uint32_t stream_id = 0;
  /// A data message's chunk sequence. A control kind gives it its own
  /// meaning: the grant count of a credit, the exchange sequence of a REPL,
  /// HANDOFF or SCRUB request, echoed by its reply.
  std::uint64_t sequence = 0;
  MessageKind kind = MessageKind::kData;
  /// Data messages only: the producer has finished this stream.
  bool end_of_stream = false;
  /// Data messages only: the NSF1 header of a frame body, carried beside
  /// `body` instead of in front of it. When set, the wire body is this
  /// header followed by `body`, which holds just the frame's payload (for
  /// a stored chunk, the chunk's own buffer). Receivers set it for a data
  /// body that opens with the NSF1 magic.
  std::optional<FrameHeader> frame_header;
  Bytes body;

  /// Bytes of the wire body: the frame header, when held apart, plus `body`.
  [[nodiscard]] std::size_t wire_body_size() const noexcept {
    return (frame_header ? kFrameHeaderSize : 0) + body.size();
  }

  /// A data message (an end-of-stream marker is data).
  [[nodiscard]] bool is_data() const noexcept { return kind == MessageKind::kData; }

  [[nodiscard]] static Message end_of_stream_marker(std::uint32_t stream_id,
                                                    std::uint64_t sequence) {
    Message m;
    m.stream_id = stream_id;
    m.sequence = sequence;
    m.end_of_stream = true;
    return m;
  }

  /// Credit grant for `grant` more messages (see msg/socket.h).
  [[nodiscard]] static Message credit_grant(std::uint64_t grant) {
    Message m;
    m.sequence = grant;
    m.kind = MessageKind::kCredit;
    return m;
  }

  /// Resume handshake carrying the receiver's committed watermarks.
  [[nodiscard]] static Message resume_frame(std::uint64_t session_id,
                                            const std::vector<ResumePoint>& points);
};

/// Parses a RESUME frame body. INVALID_ARGUMENT when the declared stream
/// count disagrees with the body length.
Result<ResumeInfo> parse_resume_body(ByteSpan body);

/// The wire body's checksum: xxhash32 of the frame header alone when the
/// body opens with a sealed frame, else of the whole wire body (the
/// frame header, when held apart, then `body`, streamed so the two are
/// never joined).
std::uint32_t message_body_hash(const Message& message);

/// Whether a received message's wire body matches the body hash its header
/// carried: message_body_hash, then, for a sealed frame, the payload seal
/// (seal_intact in codec/frame.h). Both receive paths (PullSocket::recv and
/// MessageDecoder::next) reject a message that fails either check.
bool message_body_intact(const Message& message, std::uint32_t body_hash);

/// Serializes a message (header + wire body) into a fresh buffer.
Bytes encode_message(const Message& message);

/// Writes just the 32-byte wire header for `message` (including the body
/// checksum) into `out`, which must hold kMessageHeaderSize bytes. The
/// scatter-gather send path frames with this + the message's frame header
/// and existing body buffer, so the payload is never copied into a join
/// buffer; the wire bytes are identical to encode_message's.
void encode_message_header(const Message& message, MutableByteSpan out);

/// encode_message_header with the body checksum supplied by the caller,
/// who must pass message_body_hash(message): a sender that already hashed
/// the body (the resume journal records the same digest) skips a second
/// pass.
void encode_message_header(const Message& message, MutableByteSpan out,
                           std::uint32_t body_hash);

/// A decoded wire header: the message's identity and flags plus the body
/// length and checksum still to be read. Produced by decode_message_header
/// for PullSocket's receive path, which reads the 32-byte header and
/// then the body directly into the message's own buffers, and for
/// MessageDecoder, which validates every buffered header through it.
struct MessageHeader {
  Message message;          ///< kind/flags/ids decoded; body empty
  std::uint64_t body_size = 0;
  std::uint32_t body_hash = 0;
};

/// Validates and decodes a 32-byte wire header: magic, unknown
/// flags/reserved bits, at most one flag bit, the kind's body-size row
/// (kMessageKindRules), kMaxMessageBody. DATA_LOSS on any violation.
Result<MessageHeader> decode_message_header(ByteSpan header);

/// Incremental decoder: feed() arbitrary byte slices as they arrive from a
/// stream; next() yields complete, checksum-verified messages. Any framing
/// violation is sticky: the stream is unusable after DATA_LOSS, exactly as
/// PullSocket::recv cuts a corrupt connection.
class MessageDecoder {
 public:
  /// Appends received bytes to the internal reassembly buffer.
  void feed(ByteSpan data);

  /// Returns the next complete message, or:
  ///   UNAVAILABLE - need more bytes (not an error; keep feeding),
  ///   DATA_LOSS   - stream corrupt (sticky).
  Result<Message> next();

  /// Bytes currently buffered awaiting completion.
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  Bytes buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

}  // namespace numastream
