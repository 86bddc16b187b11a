#include "msg/message.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {
namespace {

/// Sets `message`'s body from its wire body bytes. A data body that opens
/// with an NSF1 frame header keeps that header apart in frame_header.
void assign_body(Message& message, ByteSpan body) {
  if (message.is_data() && body.size() >= kFrameHeaderSize &&
      load_le32(body.data()) == kFrameMagic) {
    FrameHeader& header = message.frame_header.emplace();
    std::memcpy(header.data(), body.data(), kFrameHeaderSize);
    body = body.subspan(kFrameHeaderSize);
  }
  message.body.assign(body.begin(), body.end());
}

/// The sealed frame a data message's wire body opens with: its header
/// (held apart, or the body's first bytes) and its payload.
struct SealedFrame {
  ByteSpan header;
  ByteSpan payload;
};

std::optional<SealedFrame> sealed_frame(const Message& message) {
  if (!message.is_data()) {
    return std::nullopt;
  }
  const ByteSpan body(message.body);
  const bool apart = message.frame_header.has_value();
  const ByteSpan header =
      apart ? ByteSpan(*message.frame_header) : body.first(std::min(body.size(), kFrameHeaderSize));
  if (!frame_sealed(header)) {
    return std::nullopt;
  }
  return SealedFrame{.header = header,
                     .payload = apart ? body : body.subspan(kFrameHeaderSize)};
}

}  // namespace

std::uint32_t message_body_hash(const Message& message) {
  if (const auto sealed = sealed_frame(message)) {
    return xxhash32(sealed->header);
  }
  if (!message.frame_header) {
    return xxhash32(message.body);
  }
  XxHash32 hash;
  hash.update(*message.frame_header);
  hash.update(message.body);
  return hash.digest();
}

bool message_body_intact(const Message& message, std::uint32_t body_hash) {
  if (message_body_hash(message) != body_hash) {
    return false;
  }
  const auto sealed = sealed_frame(message);
  return !sealed || seal_intact(sealed->header, sealed->payload);
}

void encode_message_header(const Message& message, MutableByteSpan out) {
  encode_message_header(message, out, message_body_hash(message));
}

void encode_message_header(const Message& message, MutableByteSpan out,
                           std::uint32_t body_hash) {
  NS_CHECK(out.size() >= kMessageHeaderSize,
           "encode_message_header needs kMessageHeaderSize bytes");
  std::uint8_t* p = out.data();
  store_le32(p, kMessageMagic);
  store_le32(p + 4, message.stream_id);
  store_le64(p + 8, message.sequence);
  store_le16(p + 16,
             static_cast<std::uint16_t>(
                 (message.end_of_stream ? kMessageFlagEndOfStream : 0) |
                 (message.credit ? kMessageFlagCredit : 0) |
                 (message.resume ? kMessageFlagResume : 0) |
                 (message.repl ? kMessageFlagRepl : 0) |
                 (message.handoff ? kMessageFlagHandoff : 0) |
                 (message.scrub ? kMessageFlagScrub : 0)));
  store_le16(p + 18, 0);
  store_le64(p + 20, message.wire_body_size());
  store_le32(p + 28, body_hash);
}

Bytes encode_message(const Message& message) {
  Bytes out(kMessageHeaderSize);
  out.reserve(kMessageHeaderSize + message.wire_body_size());
  encode_message_header(message, MutableByteSpan(out.data(), kMessageHeaderSize));
  if (message.frame_header) {
    out.insert(out.end(), message.frame_header->begin(), message.frame_header->end());
  }
  out.insert(out.end(), message.body.begin(), message.body.end());
  return out;
}

Result<MessageHeader> decode_message_header(ByteSpan header) {
  if (header.size() < kMessageHeaderSize) {
    return data_loss_error("message header: truncated");
  }
  const std::uint8_t* p = header.data();
  if (load_le32(p) != kMessageMagic) {
    return data_loss_error("message: bad magic " +
                           hex_preview(ByteSpan(p, 4)));
  }
  const std::uint16_t flags = load_le16(p + 16);
  const std::uint16_t reserved = load_le16(p + 18);
  const std::uint64_t body_size = load_le64(p + 20);
  if ((flags & ~kMessageKnownFlags) != 0 || reserved != 0) {
    return data_loss_error("message: unknown flags");
  }
  if ((flags & kMessageFlagCredit) != 0 && body_size != 0) {
    return data_loss_error("message: credit frame with a body");
  }
  if ((flags & kMessageFlagResume) != 0) {
    if ((flags & (kMessageFlagCredit | kMessageFlagEndOfStream |
                  kMessageFlagRepl | kMessageFlagHandoff)) != 0) {
      return data_loss_error("message: resume frame with conflicting flags");
    }
    if (body_size < kResumeBodyPrefix) {
      return data_loss_error("message: resume frame body too short");
    }
  }
  if ((flags & kMessageFlagRepl) != 0) {
    if ((flags & (kMessageFlagCredit | kMessageFlagEndOfStream |
                  kMessageFlagHandoff)) != 0) {
      return data_loss_error("message: repl frame with conflicting flags");
    }
    if (body_size < kReplBodyPrefix) {
      return data_loss_error("message: repl frame body too short");
    }
  }
  if ((flags & kMessageFlagHandoff) != 0) {
    if ((flags & (kMessageFlagCredit | kMessageFlagEndOfStream)) != 0) {
      return data_loss_error("message: handoff frame with conflicting flags");
    }
    if (body_size != kHandoffBodySize) {
      return data_loss_error("message: handoff frame body must be " +
                             std::to_string(kHandoffBodySize) + " bytes");
    }
  }
  if ((flags & kMessageFlagScrub) != 0) {
    if ((flags & (kMessageFlagCredit | kMessageFlagEndOfStream |
                  kMessageFlagResume | kMessageFlagRepl |
                  kMessageFlagHandoff)) != 0) {
      return data_loss_error("message: scrub frame with conflicting flags");
    }
    if (body_size < kScrubBodyPrefix) {
      return data_loss_error("message: scrub frame body too short");
    }
  }
  if (body_size > kMaxMessageBody) {
    return data_loss_error("message: body size " + std::to_string(body_size) +
                           " exceeds limit");
  }
  MessageHeader out;
  out.message.stream_id = load_le32(p + 4);
  out.message.sequence = load_le64(p + 8);
  out.message.end_of_stream = (flags & kMessageFlagEndOfStream) != 0;
  out.message.credit = (flags & kMessageFlagCredit) != 0;
  out.message.resume = (flags & kMessageFlagResume) != 0;
  out.message.repl = (flags & kMessageFlagRepl) != 0;
  out.message.handoff = (flags & kMessageFlagHandoff) != 0;
  out.message.scrub = (flags & kMessageFlagScrub) != 0;
  out.body_size = body_size;
  out.body_hash = load_le32(p + 28);
  return out;
}

Message Message::resume_frame(std::uint64_t session_id,
                              const std::vector<ResumePoint>& points) {
  Message m;
  m.resume = true;
  m.body.reserve(kResumeBodyPrefix + points.size() * kResumePointSize);
  ByteWriter w(m.body);
  w.u64(session_id);
  w.u32(static_cast<std::uint32_t>(points.size()));
  for (const ResumePoint& point : points) {
    w.u32(point.stream_id);
    w.u64(point.watermark);
  }
  return m;
}

Message Message::repl_frame(ReplKind kind, std::uint64_t session_id,
                            std::uint64_t epoch, std::uint64_t repl_sequence,
                            ByteSpan records) {
  NS_CHECK(records.size() % kReplRecordSize == 0,
           "repl frame records must be whole journal records");
  NS_CHECK(kind == ReplKind::kAppend || records.empty(),
           "only append frames carry records");
  Message m;
  m.repl = true;
  m.sequence = repl_sequence;
  m.body.reserve(kReplBodyPrefix + records.size());
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(session_id);
  w.u64(epoch);
  w.u32(static_cast<std::uint32_t>(records.size() / kReplRecordSize));
  w.raw(records);
  return m;
}

Message Message::handoff_frame(const HandoffInfo& info,
                               std::uint64_t handoff_sequence) {
  Message m;
  m.handoff = true;
  m.sequence = handoff_sequence;
  m.body.reserve(kHandoffBodySize);
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(info.phase));
  w.u64(info.session_id);
  w.u64(info.epoch);
  w.u32(info.stream_id);
  w.u32(info.source_gateway);
  w.u32(info.target_gateway);
  w.u64(info.watermark);
  NS_CHECK(m.body.size() == kHandoffBodySize,
           "handoff frame body must be exactly kHandoffBodySize");
  return m;
}

Message Message::scrub_frame(const ScrubInfo& info,
                             std::uint64_t scrub_sequence) {
  NS_CHECK(info.kind == ScrubKind::kDigestReply || info.digests.empty(),
           "only digest replies carry digest entries");
  NS_CHECK(info.records.size() % kScrubRecordSize == 0,
           "scrub frame records must be whole journal records");
  NS_CHECK(info.kind == ScrubKind::kRepairPush ||
               info.kind == ScrubKind::kRepairReply || info.records.empty(),
           "only repair push/reply frames carry records");
  Message m;
  m.scrub = true;
  m.sequence = scrub_sequence;
  const std::size_t payload =
      info.kind == ScrubKind::kDigestReply
          ? info.digests.size() * kScrubDigestSize
          : info.records.size();
  m.body.reserve(kScrubBodyPrefix + payload);
  ByteWriter w(m.body);
  w.u32(static_cast<std::uint32_t>(info.kind));
  w.u64(info.session_id);
  w.u64(info.epoch);
  w.u64(info.range);
  w.u32(info.range_records);
  if (info.kind == ScrubKind::kDigestReply) {
    w.u32(static_cast<std::uint32_t>(info.digests.size()));
    for (const ScrubRangeDigest& entry : info.digests) {
      w.u64(entry.range);
      w.u32(entry.records);
      w.u32(entry.digest);
    }
  } else {
    w.u32(static_cast<std::uint32_t>(info.records.size() / kScrubRecordSize));
    w.raw(info.records);
  }
  return m;
}

Result<ResumeInfo> parse_resume_body(ByteSpan body) {
  ByteReader r(body);
  ResumeInfo info;
  std::uint32_t count = 0;
  if (!r.u64(info.session_id).is_ok() || !r.u32(count).is_ok()) {
    return invalid_argument_error("resume frame: body shorter than prefix");
  }
  if (body.size() != kResumeBodyPrefix + std::size_t{count} * kResumePointSize) {
    return invalid_argument_error(
        "resume frame: stream count disagrees with body length");
  }
  info.points.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ResumePoint point;
    NS_RETURN_IF_ERROR(r.u32(point.stream_id));
    NS_RETURN_IF_ERROR(r.u64(point.watermark));
    info.points.push_back(point);
  }
  return info;
}

Result<ReplInfo> parse_repl_body(ByteSpan body) {
  ByteReader r(body);
  ReplInfo info;
  std::uint32_t kind = 0;
  std::uint32_t count = 0;
  if (!r.u32(kind).is_ok() || !r.u64(info.session_id).is_ok() ||
      !r.u64(info.epoch).is_ok() || !r.u32(count).is_ok()) {
    return invalid_argument_error("repl frame: body shorter than prefix");
  }
  if (kind < static_cast<std::uint32_t>(ReplKind::kHello) ||
      kind > static_cast<std::uint32_t>(ReplKind::kHeartbeat)) {
    return invalid_argument_error("repl frame: unknown kind " +
                                  std::to_string(kind));
  }
  info.kind = static_cast<ReplKind>(kind);
  if (body.size() != kReplBodyPrefix + std::size_t{count} * kReplRecordSize) {
    return invalid_argument_error(
        "repl frame: record count disagrees with body length");
  }
  if (count != 0 && info.kind != ReplKind::kAppend) {
    return invalid_argument_error("repl frame: records on a non-append frame");
  }
  info.records.assign(body.begin() + kReplBodyPrefix, body.end());
  return info;
}

Result<HandoffInfo> parse_handoff_body(ByteSpan body) {
  if (body.size() != kHandoffBodySize) {
    return invalid_argument_error(
        "handoff frame: body must be exactly " +
        std::to_string(kHandoffBodySize) + " bytes, got " +
        std::to_string(body.size()));
  }
  ByteReader r(body);
  HandoffInfo info;
  std::uint32_t phase = 0;
  NS_RETURN_IF_ERROR(r.u32(phase));
  if (phase < static_cast<std::uint32_t>(HandoffPhase::kPrepare) ||
      phase > static_cast<std::uint32_t>(HandoffPhase::kAbort)) {
    return invalid_argument_error("handoff frame: unknown phase " +
                                  std::to_string(phase));
  }
  info.phase = static_cast<HandoffPhase>(phase);
  NS_RETURN_IF_ERROR(r.u64(info.session_id));
  NS_RETURN_IF_ERROR(r.u64(info.epoch));
  NS_RETURN_IF_ERROR(r.u32(info.stream_id));
  NS_RETURN_IF_ERROR(r.u32(info.source_gateway));
  NS_RETURN_IF_ERROR(r.u32(info.target_gateway));
  NS_RETURN_IF_ERROR(r.u64(info.watermark));
  return info;
}

Result<ScrubInfo> parse_scrub_body(ByteSpan body) {
  ByteReader r(body);
  ScrubInfo info;
  std::uint32_t kind = 0;
  std::uint32_t count = 0;
  if (!r.u32(kind).is_ok() || !r.u64(info.session_id).is_ok() ||
      !r.u64(info.epoch).is_ok() || !r.u64(info.range).is_ok() ||
      !r.u32(info.range_records).is_ok() || !r.u32(count).is_ok()) {
    return invalid_argument_error("scrub frame: body shorter than prefix");
  }
  if (kind < static_cast<std::uint32_t>(ScrubKind::kDigestRequest) ||
      kind > static_cast<std::uint32_t>(ScrubKind::kRepairReply)) {
    return invalid_argument_error("scrub frame: unknown kind " +
                                  std::to_string(kind));
  }
  info.kind = static_cast<ScrubKind>(kind);
  const std::size_t entry_size =
      info.kind == ScrubKind::kDigestReply ? kScrubDigestSize
                                           : kScrubRecordSize;
  if (body.size() != kScrubBodyPrefix + std::size_t{count} * entry_size) {
    return invalid_argument_error(
        "scrub frame: entry count disagrees with body length");
  }
  if (count != 0 && info.kind != ScrubKind::kDigestReply &&
      info.kind != ScrubKind::kRepairPush &&
      info.kind != ScrubKind::kRepairReply) {
    return invalid_argument_error(
        "scrub frame: payload on a request frame");
  }
  if (info.kind == ScrubKind::kDigestReply) {
    info.digests.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ScrubRangeDigest entry;
      NS_RETURN_IF_ERROR(r.u64(entry.range));
      NS_RETURN_IF_ERROR(r.u32(entry.records));
      NS_RETURN_IF_ERROR(r.u32(entry.digest));
      info.digests.push_back(entry);
    }
  } else {
    info.records.assign(body.begin() + kScrubBodyPrefix, body.end());
  }
  return info;
}

void MessageDecoder::feed(ByteSpan data) {
  // Compact occasionally so the buffer does not grow without bound across a
  // long-lived connection.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

Result<Message> MessageDecoder::next() {
  if (corrupt_) {
    return data_loss_error("message stream previously corrupt");
  }
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kMessageHeaderSize) {
    return unavailable_error("need more bytes for header");
  }
  const std::uint8_t* header = buffer_.data() + consumed_;
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    corrupt_ = true;
    return decoded.status();
  }
  const std::uint64_t body_size = decoded.value().body_size;
  if (available < kMessageHeaderSize + body_size) {
    return unavailable_error("need more bytes for body");
  }
  Message message = std::move(decoded.value().message);
  assign_body(message, ByteSpan(header + kMessageHeaderSize, body_size));
  if (!message_body_intact(message, decoded.value().body_hash)) {
    corrupt_ = true;
    return data_loss_error("message: body checksum mismatch");
  }
  consumed_ += kMessageHeaderSize + body_size;
  return message;
}

}  // namespace numastream
