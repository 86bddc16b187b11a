#include "msg/message.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <string>

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

/// The kind whose flag bit is the highest one set in `control`, the flags
/// word without end-of-stream and, by the time this runs, without unknown
/// bits; data when none is set.
MessageKind kind_of(std::uint16_t control) {
  const std::uint16_t flag = std::bit_floor(control);
  std::size_t kind = 0;
  while (kMessageKindRules[kind].flag != flag) {
    ++kind;
  }
  return static_cast<MessageKind>(kind);
}

std::string body_size_error(const MessageKindRule& rule, std::uint64_t body_size) {
  const std::string frame = std::string("message: ") + rule.name + " frame";
  if (rule.max_body == 0) {
    return frame + " with a body";
  }
  if (rule.min_body == rule.max_body) {
    return frame + " body must be " + std::to_string(rule.min_body) + " bytes";
  }
  if (body_size > kMaxMessageBody) {
    return "message: body size " + std::to_string(body_size) + " exceeds limit";
  }
  return frame + " body too short";
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
  store_le16(p + 16, static_cast<std::uint16_t>(
                         message_kind_rule(message.kind).flag |
                         (message.end_of_stream ? kMessageFlagEndOfStream : 0)));
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
  // One flag bit at most: a control kind never carries end-of-stream, and
  // no message is two kinds.
  const MessageKind kind = kind_of(flags & ~kMessageFlagEndOfStream);
  const MessageKindRule& rule = message_kind_rule(kind);
  if (std::popcount(flags) > 1) {
    return data_loss_error(std::string("message: ") + rule.name +
                           " frame with conflicting flags");
  }
  if (body_size < rule.min_body || body_size > rule.max_body) {
    return data_loss_error(body_size_error(rule, body_size));
  }
  MessageHeader out;
  out.message.stream_id = load_le32(p + 4);
  out.message.sequence = load_le64(p + 8);
  out.message.kind = kind;
  out.message.end_of_stream = (flags & kMessageFlagEndOfStream) != 0;
  out.body_size = body_size;
  out.body_hash = load_le32(p + 28);
  return out;
}

Message Message::resume_frame(std::uint64_t session_id,
                              const std::vector<ResumePoint>& points) {
  Message m;
  m.kind = MessageKind::kResume;
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
