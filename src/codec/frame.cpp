#include "codec/frame.h"

#include <algorithm>
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

/// Compresses `raw` into `out` from offset `at`, trimming `out` to the
/// compressed end. Returns false, with `out` cut back to `at`, when the codec
/// is null or does not shrink the input: the frame then stores `raw`.
bool compress_into(const Codec& codec, ByteSpan raw, Bytes& out, std::size_t at) {
  if (codec.id() == CodecId::kNull) {
    return false;
  }
  out.resize(at + codec.max_compressed_size(raw.size()));
  auto written = codec.compress(raw, MutableByteSpan(out.data() + at, out.size() - at));
  NS_CHECK(written.ok(), "compress into a bound-sized buffer must succeed");
  if (written.value() >= raw.size()) {
    out.resize(at);
    return false;
  }
  out.resize(at + written.value());
  return true;
}

/// Writes the header of a frame carrying `payload`, the `codec` encoding of
/// `raw`. A stored payload is its own content: the frame is sealed with one
/// xxhash64 of it, low word then high word in the two hash fields.
void write_header(std::uint8_t* p, CodecId codec, ByteSpan raw, ByteSpan payload) {
  const bool stored = codec == CodecId::kNull;
  store_le32(p, kFrameMagic);
  p[4] = static_cast<std::uint8_t>(codec);
  p[5] = stored ? kFrameFlagSealed : 0;  // flags
  store_le16(p + 6, 0);                  // reserved
  store_le64(p + 8, raw.size());
  store_le64(p + 16, payload.size());
  if (stored) {
    store_le64(p + 24, xxhash64(payload));
  } else {
    store_le32(p + 24, xxhash32(payload));
    store_le32(p + 28, xxhash32(raw));
  }
}

/// A validated frame header.
struct ParsedHeader {
  CodecId codec = CodecId::kNull;
  bool sealed = false;
  std::uint64_t raw_size = 0;
  std::uint32_t payload_hash = 0;
  std::uint32_t content_hash = 0;

  /// A sealed frame's xxhash64 seal, held in the two hash fields.
  [[nodiscard]] std::uint64_t seal() const noexcept {
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
  if (parsed.sealed && parsed.codec != CodecId::kNull) {
    return data_loss_error("frame: sealed flag on a compressed frame");
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

/// The decode every path runs: header, payload checksum, decompression,
/// content checksum. A sealed payload is checked once against its seal
/// (skipped when `seal` says the receipt already did); an unsealed stored
/// payload's one xxhash32 answers both hash fields, checked in that order.
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
  const auto stored = [&] {
    return owned != nullptr ? std::move(*owned) : Bytes(payload.begin(), payload.end());
  };
  if (frame.sealed) {
    if (seal == SealCheck::kVerify && xxhash64(payload) != frame.seal()) {
      return payload_mismatch();
    }
    return stored();
  }
  const std::uint32_t digest = xxhash32(payload);
  if (digest != frame.payload_hash) {
    return payload_mismatch();
  }
  if (frame.codec == CodecId::kNull) {
    if (digest != frame.content_hash) {
      return content_mismatch();
    }
    return stored();
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
  if (xxhash32(raw) != frame.content_hash) {
    return content_mismatch();
  }
  return raw;
}

}  // namespace

SplitFrame encode_frame_split(const Codec& codec, Bytes raw) {
  SplitFrame frame;
  if (compress_into(codec, raw, frame.payload, 0)) {
    write_header(frame.header.data(), codec.id(), raw, frame.payload);
  } else {
    write_header(frame.header.data(), CodecId::kNull, raw, raw);
    frame.payload = std::move(raw);
  }
  return frame;
}

Bytes encode_frame(const Codec& codec, ByteSpan raw) {
  Bytes frame(kFrameHeaderSize);
  CodecId effective = codec.id();
  if (!compress_into(codec, raw, frame, kFrameHeaderSize)) {
    effective = CodecId::kNull;
    frame.reserve(kFrameHeaderSize + raw.size());
    frame.insert(frame.end(), raw.begin(), raw.end());
  }
  write_header(frame.data(), effective, raw, ByteSpan(frame).subspan(kFrameHeaderSize));
  return frame;
}

std::optional<std::uint64_t> frame_seal(ByteSpan data) {
  if (data.size() < kFrameHeaderSize || load_le32(data.data()) != kFrameMagic ||
      (data[5] & kFrameFlagSealed) == 0) {
    return std::nullopt;
  }
  return load_le64(data.data() + 24);
}

Result<Bytes> decode_frame_split(ByteSpan header, Bytes payload, SealCheck seal) {
  return decode_parts(header, payload, &payload, seal);
}

Result<Bytes> decode_frame_content(ByteSpan frame) {
  const auto [header, payload] = split(frame);
  return decode_parts(header, payload, nullptr, SealCheck::kVerify);
}

}  // namespace numastream
