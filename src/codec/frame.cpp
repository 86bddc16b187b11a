#include "codec/frame.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {
namespace {

Status payload_mismatch() {
  return data_loss_error("frame: payload checksum mismatch");
}

Status content_mismatch() {
  return data_loss_error("frame: content checksum mismatch after decompression");
}

/// A joined frame's header and payload: its first kFrameHeaderSize bytes,
/// or all of a shorter frame, whose missing fields then fail as truncation.
std::pair<ByteSpan, ByteSpan> split(ByteSpan frame) {
  const std::size_t header = std::min(frame.size(), kFrameHeaderSize);
  return {frame.first(header), frame.subspan(header)};
}

/// The `codec` encoding of `raw`, or nullopt when the codec is null or does
/// not shrink the input: the frame then stores `raw`. The encoding lives in
/// this thread's scratch buffer until its next call, and the caller copies
/// it out. The scratch only grows and is never zero-filled, so no chunk
/// pays for allocating and filling a bound-sized buffer, only the pages
/// the codec writes become resident, and a payload in flight holds only
/// its own bytes, not the bound's capacity.
std::optional<ByteSpan> compress(const Codec& codec, ByteSpan raw) {
  if (codec.id() == CodecId::kNull) {
    return std::nullopt;
  }
  thread_local std::unique_ptr<std::uint8_t[]> scratch;
  thread_local std::size_t scratch_size = 0;
  const std::size_t bound = codec.max_compressed_size(raw.size());
  if (scratch_size < bound) {
    scratch = std::make_unique_for_overwrite<std::uint8_t[]>(bound);
    scratch_size = bound;
  }
  auto written = codec.compress(raw, MutableByteSpan(scratch.get(), bound));
  NS_CHECK(written.ok(), "compress into a bound-sized buffer must succeed");
  if (written.value() >= raw.size()) {
    return std::nullopt;
  }
  return ByteSpan(scratch.get(), written.value());
}

/// Writes the sealed header of a frame carrying `payload`, the `codec`
/// encoding of `raw`. A stored payload is its own content: one xxhash64 of
/// it fills both hash fields, low word then high word. A compressed frame
/// holds the low words of xxhash64(payload) and xxhash64(raw).
void write_header(std::uint8_t* p, CodecId codec, ByteSpan raw, ByteSpan payload) {
  store_le32(p, kFrameMagic);
  p[4] = static_cast<std::uint8_t>(codec);
  p[5] = kFrameFlagSealed;  // flags
  store_le16(p + 6, 0);     // reserved
  store_le64(p + 8, raw.size());
  store_le64(p + 16, payload.size());
  if (codec == CodecId::kNull) {
    store_le64(p + 24, xxhash64(payload));
  } else {
    store_le32(p + 24, static_cast<std::uint32_t>(xxhash64(payload)));
    store_le32(p + 28, static_cast<std::uint32_t>(xxhash64(raw)));
  }
}

/// Whether `payload` matches a sealed header's payload check, where
/// `fields` holds the header's two hash fields (bytes 24-31): all 64 bits
/// for a stored frame, the low 32 for a compressed one.
bool seal_matches(CodecId codec, std::uint64_t fields, ByteSpan payload) {
  const std::uint64_t digest = xxhash64(payload);
  return codec == CodecId::kNull
             ? digest == fields
             : static_cast<std::uint32_t>(digest) == static_cast<std::uint32_t>(fields);
}

/// A validated frame header.
struct ParsedHeader {
  CodecId codec = CodecId::kNull;
  bool sealed = false;
  std::uint64_t raw_size = 0;
  std::uint32_t payload_hash = 0;
  std::uint32_t content_hash = 0;

  /// The two hash fields as one word, payload check low.
  [[nodiscard]] std::uint64_t fields() const noexcept {
    return (std::uint64_t{content_hash} << 32) | payload_hash;
  }
};

/// Validates a frame header against the `payload_bytes` that follow it.
Result<ParsedHeader> parse_header(ByteSpan header, std::size_t payload_bytes) {
  ByteReader reader(header);
  std::uint32_t magic = 0;
  std::uint8_t codec_id = 0;
  std::uint8_t flags = 0;
  std::uint16_t reserved = 0;
  std::uint64_t payload_size = 0;
  ParsedHeader parsed;

  NS_RETURN_IF_ERROR(reader.u32(magic));
  if (magic != kFrameMagic) {
    return data_loss_error("frame: bad magic (got " + hex_preview(header) + ")");
  }
  NS_RETURN_IF_ERROR(reader.u8(codec_id));
  NS_RETURN_IF_ERROR(reader.u8(flags));
  NS_RETURN_IF_ERROR(reader.u16(reserved));
  if ((flags & ~kFrameFlagSealed) != 0 || reserved != 0) {
    return data_loss_error("frame: nonzero reserved fields (future format?)");
  }
  parsed.sealed = flags == kFrameFlagSealed;
  NS_RETURN_IF_ERROR(reader.u64(parsed.raw_size));
  NS_RETURN_IF_ERROR(reader.u64(payload_size));
  NS_RETURN_IF_ERROR(reader.u32(parsed.payload_hash));
  NS_RETURN_IF_ERROR(reader.u32(parsed.content_hash));

  parsed.codec = static_cast<CodecId>(codec_id);
  if (codec_by_id(parsed.codec) == nullptr) {
    return data_loss_error("frame: unknown codec id " + std::to_string(codec_id));
  }
  if (payload_size != payload_bytes) {
    return data_loss_error("frame: payload size " + std::to_string(payload_size) +
                           " does not match remaining " +
                           std::to_string(payload_bytes) + " bytes");
  }
  // The header is not covered by the payload hash, so raw_size is bounded
  // before anything is sized by it.
  if (parsed.codec == CodecId::kNull ? parsed.raw_size != payload_size
                                     : parsed.raw_size > kMaxFrameRawSize) {
    return data_loss_error("frame: raw size " + std::to_string(parsed.raw_size) +
                           " out of bounds for a " + std::to_string(payload_size) +
                           "-byte payload");
  }
  return parsed;
}

/// The decode every path runs: header, payload check, decompression,
/// content check. A sealed payload is checked once against its seal
/// (skipped when `seal` says the receipt already did), and a compressed
/// sealed frame's content against the low word of its xxhash64. An
/// unsealed frame's payload and content are checked by xxhash32; a stored
/// one's single digest answers both fields, in that order.
/// A stored frame's content is `*owned` moved out when the caller hands
/// over the payload's buffer, else a copy of `payload`; on failure `*owned`
/// is left intact.
Result<Bytes> decode_parts(ByteSpan header, ByteSpan payload, Bytes* owned,
                           SealCheck seal) {
  auto parsed = parse_header(header, payload.size());
  if (!parsed.ok()) {
    return parsed.status();
  }
  const ParsedHeader& frame = parsed.value();
  const bool stored = frame.codec == CodecId::kNull;
  const auto stored_content = [&] {
    return owned != nullptr ? std::move(*owned) : Bytes(payload.begin(), payload.end());
  };
  if (frame.sealed) {
    if (seal == SealCheck::kVerify && !seal_matches(frame.codec, frame.fields(), payload)) {
      return payload_mismatch();
    }
    if (stored) {
      return stored_content();
    }
  } else {
    const std::uint32_t digest = xxhash32(payload);
    if (digest != frame.payload_hash) {
      return payload_mismatch();
    }
    if (stored) {
      if (digest != frame.content_hash) {
        return content_mismatch();
      }
      return stored_content();
    }
  }
  const Codec* codec = codec_by_id(frame.codec);
  NS_CHECK(codec != nullptr, "parse_header validated the codec id");
  Bytes raw(frame.raw_size);
  auto produced = codec->decompress(payload, raw);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw.size()) {
    return data_loss_error("frame: decoded size mismatch");
  }
  const std::uint32_t content = frame.sealed ? static_cast<std::uint32_t>(xxhash64(raw))
                                             : xxhash32(raw);
  if (content != frame.content_hash) {
    return content_mismatch();
  }
  return raw;
}

}  // namespace

SplitFrame encode_frame_split(const Codec& codec, Bytes raw) {
  SplitFrame frame;
  if (const auto packed = compress(codec, raw)) {
    frame.payload.assign(packed->begin(), packed->end());
    write_header(frame.header.data(), codec.id(), raw, frame.payload);
  } else {
    write_header(frame.header.data(), CodecId::kNull, raw, raw);
    frame.payload = std::move(raw);
  }
  return frame;
}

Bytes encode_frame(const Codec& codec, ByteSpan raw) {
  const auto packed = compress(codec, raw);
  const ByteSpan payload = packed.value_or(raw);
  Bytes frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  frame.resize(kFrameHeaderSize);
  frame.insert(frame.end(), payload.begin(), payload.end());
  write_header(frame.data(), packed ? codec.id() : CodecId::kNull, raw, payload);
  return frame;
}

bool frame_sealed(ByteSpan data) {
  return data.size() >= kFrameHeaderSize && load_le32(data.data()) == kFrameMagic &&
         (data[5] & kFrameFlagSealed) != 0;
}

bool seal_intact(ByteSpan header, ByteSpan payload) {
  return seal_matches(static_cast<CodecId>(header[4]), load_le64(header.data() + 24), payload);
}

Result<Bytes> decode_frame_split(ByteSpan header, Bytes payload, SealCheck seal) {
  return decode_parts(header, payload, &payload, seal);
}

Result<Bytes> decode_frame_content(ByteSpan frame) {
  const auto [header, payload] = split(frame);
  return decode_parts(header, payload, nullptr, SealCheck::kVerify);
}

}  // namespace numastream
