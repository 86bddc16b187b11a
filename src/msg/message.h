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
//   16  2  flags (bit 0: end-of-stream, bit 1: credit grant)
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
// Protocol versioning: the "NSM1" magic names wire version 1. Bit 1 of the
// flags word is the v1.1 extension — a body-less *credit grant* control
// frame that flows from receiver to sender on the same connection, carrying
// the grant count in the sequence field. A v1.0 decoder treats the unknown
// flag as corruption, which is safe because credit frames are only ever
// emitted when the operator enables credit flow control in the overload
// directive on both ends (core/config.h); absent that directive the wire is
// bit-identical to v1.0.
//
// Bit 2 is the v1.2 extension — a *RESUME* control frame that flows from
// receiver to sender on the reverse channel during crash recovery
// (DESIGN.md §11). Its body carries the receiver's durable session id and
// per-stream committed-delivery watermarks:
//
//   0   8  session id
//   8   4  stream count N
//   12  .. N x (u32 stream id, u64 watermark)
//
// so a restarted endpoint handshakes back to the exact resume point and the
// peer replays only the gap. Like credits, RESUME frames are only emitted
// when the `resume` directive is configured on both ends; absent that
// directive the wire stays bit-identical to v1.1.
//
// Bit 3 is the v1.3 extension — a *REPL* control frame that carries journal
// replication traffic between federated gateways (DESIGN.md §12). The
// message's sequence field is the replication sequence number (monotone per
// link, echoed back by acks) and the body is:
//
//   0   4  kind (1 hello, 2 append, 3 ack, 4 heartbeat)
//   4   8  session id
//   12  8  epoch
//   20  4  record count N (append frames; 0 otherwise)
//   24  .. N x 37-byte journal records (core/journal.h wire format)
//
// The epoch number fences a stale primary after failover: a standby that
// has been promoted rejects appends stamped with an older epoch. REPL
// frames only appear when the `cluster` directive is configured; absent
// that directive the wire stays bit-identical to v1.2.
//
// Bit 4 is the v1.4 extension — a *HANDOFF* control frame that drives the
// planned, lossless transfer of a live stream between federated gateways
// (DESIGN.md §13). The message's sequence field is the handoff sequence
// number and the body is fixed-size:
//
//   0   4  phase (1 prepare, 2 journal, 3 commit, 4 ack, 5 abort)
//   4   8  session id
//   12  8  epoch
//   20  4  stream id
//   24  4  source gateway
//   28  4  target gateway
//   32  8  watermark (sequence the stream is frozen at)
//
// The three-phase protocol (prepare/drain → journal flush+ship → commit
// with an epoch bump) makes the transfer exactly-once by construction: the
// commit fences the source exactly as a crash failover would, so it can
// never double-deliver. HANDOFF frames only appear when the `rebalance`
// directive is configured; absent that directive the wire stays
// bit-identical to v1.3.
//
// Bit 5 is the v1.5 extension — a *SCRUB* control frame that carries the
// anti-entropy sub-protocol between a primary gateway and its ring buddy
// (DESIGN.md §14). The message's sequence field is the scrub exchange
// sequence number and the body is:
//
//   0   4  kind (1 digest request, 2 digest reply, 3 repair pull,
//           4 repair push, 5 repair reply)
//   4   8  session id
//   12  8  epoch
//   20  8  range index
//   28  4  range size in records (both sides must agree)
//   32  4  count N (digest entries or journal records; 0 otherwise)
//   36  .. N x 16-byte digest entries (digest reply:
//           u64 range index, u32 record count, u32 xxhash32 of the range)
//           or N x 37-byte journal records (repair push / repair reply)
//
// Digest replies let divergence be found without shipping whole journals;
// repair frames move only the divergent ranges, and every shipped record is
// checksum-verified by the *receiving* side before it is installed, so a
// forged digest or a rotted repair can never propagate corruption. The
// epoch fences a stale primary exactly as REPL does: a promoted buddy
// refuses scrub traffic stamped with an older epoch. SCRUB frames only
// appear when the `scrub` directive is configured; absent that directive
// the wire stays bit-identical to v1.4.
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

/// Fixed prefix of a REPL body: kind + session id + epoch + record count.
inline constexpr std::size_t kReplBodyPrefix = 24;
/// Bytes per replicated journal record in a REPL append body. Mirrors
/// kJournalRecordSize (core/journal.h); cluster/replication static_asserts
/// the two constants agree so the grammars cannot drift apart.
inline constexpr std::size_t kReplRecordSize = 37;

/// Exact size of a HANDOFF body: phase + session + epoch + stream +
/// source gateway + target gateway + watermark. HANDOFF frames are always
/// exactly this long; any other length is corruption.
inline constexpr std::size_t kHandoffBodySize = 40;

/// Fixed prefix of a SCRUB body: kind + session + epoch + range index +
/// range size + entry count.
inline constexpr std::size_t kScrubBodyPrefix = 36;
/// Bytes per range-digest entry in a SCRUB digest reply.
inline constexpr std::size_t kScrubDigestSize = 16;
/// Bytes per journal record in a SCRUB repair body. Mirrors
/// kJournalRecordSize (core/journal.h) exactly as kReplRecordSize does;
/// cluster/antientropy static_asserts the agreement.
inline constexpr std::size_t kScrubRecordSize = 37;

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

/// REPL frame kinds: the replication sub-protocol between gateways.
enum class ReplKind : std::uint32_t {
  kHello = 1,      ///< primary -> standby: open a replication session
  kAppend = 2,     ///< primary -> standby: journal records to mirror
  kAck = 3,        ///< standby -> primary: durable through repl sequence
  kHeartbeat = 4,  ///< either direction: liveness probe
};

/// Decoded payload of a REPL control frame.
struct ReplInfo {
  ReplKind kind = ReplKind::kHeartbeat;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  /// kAppend only: concatenated 37-byte journal records, ready for
  /// scan_journal (core/journal.h). Empty for the other kinds.
  Bytes records;

  friend bool operator==(const ReplInfo&, const ReplInfo&) = default;
};

/// HANDOFF frame phases: the planned-transfer sub-protocol between
/// gateways (source drives prepare/journal/commit; the target answers each
/// with an ack or an abort).
enum class HandoffPhase : std::uint32_t {
  kPrepare = 1,  ///< source -> target: stream frozen at `watermark`, drained
  kJournal = 2,  ///< source -> target: journal tail flushed and replicated
  kCommit = 3,   ///< source -> target: transfer ownership (epoch bump fences us)
  kAck = 4,      ///< target -> source: phase accepted
  kAbort = 5,    ///< either: abandon; fall back to crash-failover rules
};

/// Decoded payload of a HANDOFF control frame.
struct HandoffInfo {
  HandoffPhase phase = HandoffPhase::kAbort;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  std::uint32_t stream_id = 0;
  std::uint32_t source_gateway = 0;
  std::uint32_t target_gateway = 0;
  /// Sequence the stream is frozen at: everything below is drained and
  /// replicated before commit, so the target resumes exactly here.
  std::uint64_t watermark = 0;

  friend bool operator==(const HandoffInfo&, const HandoffInfo&) = default;
};

/// SCRUB frame kinds: the anti-entropy sub-protocol between a primary and
/// its ring buddy (the scrubbing side drives requests; the buddy answers).
enum class ScrubKind : std::uint32_t {
  kDigestRequest = 1,  ///< scrubber -> buddy: send your range digests
  kDigestReply = 2,    ///< buddy -> scrubber: per-range digests of the replica
  kRepairPull = 3,     ///< scrubber -> buddy: send range's records verbatim
  kRepairPush = 4,     ///< scrubber -> buddy: install these verified records
  kRepairReply = 5,    ///< buddy -> scrubber: pulled records / push receipt
};

/// One journal range's fingerprint: `records` whole records hashed as raw
/// bytes. Two sides whose (records, digest) pairs agree per range hold
/// byte-identical journals without ever shipping them.
struct ScrubRangeDigest {
  std::uint64_t range = 0;      ///< range index (record index / range size)
  std::uint32_t records = 0;    ///< whole records present in the range
  std::uint32_t digest = 0;     ///< xxhash32 over the range's raw bytes

  friend bool operator==(const ScrubRangeDigest&,
                         const ScrubRangeDigest&) = default;
};

/// Decoded payload of a SCRUB control frame.
struct ScrubInfo {
  ScrubKind kind = ScrubKind::kDigestRequest;
  std::uint64_t session_id = 0;
  std::uint64_t epoch = 0;
  /// Range the frame addresses (repair kinds); ignored for digest kinds,
  /// which always cover the whole journal.
  std::uint64_t range = 0;
  /// Records per range; both sides must agree or the exchange is refused.
  std::uint32_t range_records = 0;
  /// kDigestReply only: the replying side's per-range digests.
  std::vector<ScrubRangeDigest> digests;
  /// kRepairPush / kRepairReply only: concatenated 37-byte journal records.
  Bytes records;

  friend bool operator==(const ScrubInfo&, const ScrubInfo&) = default;
};

struct Message {
  std::uint32_t stream_id = 0;
  std::uint64_t sequence = 0;
  bool end_of_stream = false;
  /// Control frame: receiver->sender permission to send `sequence` more
  /// data messages on this connection (credit-based flow control). Always
  /// body-less.
  bool credit = false;
  /// Control frame: receiver->sender resume handshake; the body carries a
  /// ResumeInfo (session id + committed watermarks, see parse_resume_body).
  bool resume = false;
  /// Control frame: gateway-to-gateway journal replication; the sequence
  /// field is the replication sequence number and the body carries a
  /// ReplInfo (see parse_repl_body).
  bool repl = false;
  /// Control frame: gateway-to-gateway planned stream handoff; the sequence
  /// field is the handoff sequence number and the fixed-size body carries a
  /// HandoffInfo (see parse_handoff_body).
  bool handoff = false;
  /// Control frame: gateway-to-gateway anti-entropy scrub/repair; the
  /// sequence field is the scrub exchange sequence and the body carries a
  /// ScrubInfo (see parse_scrub_body).
  bool scrub = false;
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

  /// A data message: no control flag (an end-of-stream marker is data).
  [[nodiscard]] bool is_data() const noexcept {
    return !credit && !resume && !repl && !handoff && !scrub;
  }

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
    m.credit = true;
    return m;
  }

  /// Resume handshake carrying the receiver's committed watermarks.
  [[nodiscard]] static Message resume_frame(std::uint64_t session_id,
                                            const std::vector<ResumePoint>& points);

  /// Replication frame. `repl_sequence` lands in the message's sequence
  /// field; `records` must be a whole number of 37-byte journal records
  /// (kAppend) or empty (the other kinds).
  [[nodiscard]] static Message repl_frame(ReplKind kind,
                                          std::uint64_t session_id,
                                          std::uint64_t epoch,
                                          std::uint64_t repl_sequence,
                                          ByteSpan records = ByteSpan());

  /// Planned-handoff frame. `handoff_sequence` lands in the message's
  /// sequence field; the fixed-size body carries the rest of `info`.
  [[nodiscard]] static Message handoff_frame(const HandoffInfo& info,
                                             std::uint64_t handoff_sequence = 0);

  /// Anti-entropy scrub frame. `scrub_sequence` lands in the message's
  /// sequence field. `info.digests` must be empty unless the kind is
  /// kDigestReply; `info.records` must be a whole number of 37-byte journal
  /// records and empty unless the kind is kRepairPush or kRepairReply.
  [[nodiscard]] static Message scrub_frame(const ScrubInfo& info,
                                           std::uint64_t scrub_sequence = 0);
};

/// Parses a RESUME frame body. INVALID_ARGUMENT when the declared stream
/// count disagrees with the body length.
Result<ResumeInfo> parse_resume_body(ByteSpan body);

/// Parses a REPL frame body. INVALID_ARGUMENT when the kind is unknown or
/// the declared record count disagrees with the body length.
Result<ReplInfo> parse_repl_body(ByteSpan body);

/// Parses a HANDOFF frame body. INVALID_ARGUMENT when the phase is unknown
/// or the body is not exactly kHandoffBodySize bytes.
Result<HandoffInfo> parse_handoff_body(ByteSpan body);

/// Parses a SCRUB frame body. INVALID_ARGUMENT when the kind is unknown,
/// the declared entry count disagrees with the body length, or a payload
/// rides on a kind that must be payload-less.
Result<ScrubInfo> parse_scrub_body(ByteSpan body);

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
  Message message;          ///< flags/ids decoded; body empty
  std::uint64_t body_size = 0;
  std::uint32_t body_hash = 0;
};

/// Validates and decodes a 32-byte wire header: magic, unknown
/// flags/reserved bits, per-frame-kind body constraints, kMaxMessageBody.
/// DATA_LOSS on any violation.
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
