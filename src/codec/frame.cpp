#include "codec/frame.h"

#include <algorithm>
#include <cstring>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {
namespace {

// A stored (null-codec) payload is copied and hashed in blocks this size:
// each block is hashed right after it is copied, while it is still in cache,
// so a stored frame costs one pass over memory on each side of the wire.
constexpr std::size_t kStoredBlockSize = 64 * 1024;

/// Appends `src` to `out` without zero-filling, hashing each block as it
/// lands; returns xxhash32(src). The caller reserves the capacity.
std::uint32_t append_hashed(ByteSpan src, Bytes& out) {
  XxHash32 hash;
  for (std::size_t at = 0; at < src.size(); at += kStoredBlockSize) {
    const ByteSpan block = src.subspan(at, std::min(kStoredBlockSize, src.size() - at));
    out.insert(out.end(), block.begin(), block.end());
    hash.update(ByteSpan(out.data() + out.size() - block.size(), block.size()));
  }
  return hash.digest();
}

Status payload_mismatch() {
  return data_loss_error("frame: payload checksum mismatch");
}

Status content_mismatch() {
  return data_loss_error("frame: content checksum mismatch after decompression");
}

/// A frame whose header is validated but whose payload is not yet hashed.
struct ParsedFrame {
  FrameView view;
  std::uint32_t payload_hash = 0;
};

Result<ParsedFrame> parse_frame(ByteSpan frame) {
  ByteReader reader(frame);
  std::uint32_t magic = 0;
  std::uint8_t codec_id = 0;
  std::uint8_t flags = 0;
  std::uint16_t reserved = 0;
  std::uint64_t raw_size = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_hash = 0;
  std::uint32_t content_hash = 0;

  NS_RETURN_IF_ERROR(reader.u32(magic));
  if (magic != kFrameMagic) {
    return data_loss_error("frame: bad magic (got " + hex_preview(frame) + ")");
  }
  NS_RETURN_IF_ERROR(reader.u8(codec_id));
  NS_RETURN_IF_ERROR(reader.u8(flags));
  NS_RETURN_IF_ERROR(reader.u16(reserved));
  if (flags != 0 || reserved != 0) {
    return data_loss_error("frame: nonzero reserved fields (future format?)");
  }
  NS_RETURN_IF_ERROR(reader.u64(raw_size));
  NS_RETURN_IF_ERROR(reader.u64(payload_size));
  NS_RETURN_IF_ERROR(reader.u32(payload_hash));
  NS_RETURN_IF_ERROR(reader.u32(content_hash));

  const auto codec = static_cast<CodecId>(codec_id);
  if (codec_by_id(codec) == nullptr) {
    return data_loss_error("frame: unknown codec id " + std::to_string(codec_id));
  }
  if (payload_size != reader.remaining()) {
    return data_loss_error("frame: payload size " + std::to_string(payload_size) +
                           " does not match remaining " +
                           std::to_string(reader.remaining()) + " bytes");
  }
  // The header is not covered by the payload hash, so raw_size is bounded
  // before anything is sized by it.
  if (codec == CodecId::kNull ? raw_size != payload_size
                              : raw_size > kMaxFrameRawSize) {
    return data_loss_error("frame: raw size " + std::to_string(raw_size) +
                           " out of bounds for a " + std::to_string(payload_size) +
                           "-byte payload");
  }
  ParsedFrame parsed;
  NS_RETURN_IF_ERROR(reader.raw(payload_size, parsed.view.payload));
  parsed.view.codec = codec;
  parsed.view.raw_size = raw_size;
  parsed.view.content_hash = content_hash;
  parsed.payload_hash = payload_hash;
  return parsed;
}

}  // namespace

Bytes encode_frame(const Codec& codec, ByteSpan raw) {
  Bytes frame;
  encode_frame_into(codec, raw, frame);
  return frame;
}

void encode_frame_into(const Codec& codec, ByteSpan raw, Bytes& out) {
  CodecId effective = codec.id();
  std::uint32_t payload_hash = 0;
  std::uint32_t content_hash = 0;
  if (effective != CodecId::kNull) {
    // Compress straight into the frame's payload region, sized by the
    // codec's bound; no scratch buffer.
    out.resize(kFrameHeaderSize + codec.max_compressed_size(raw.size()));
    auto written = codec.compress(
        raw, MutableByteSpan(out.data() + kFrameHeaderSize,
                             out.size() - kFrameHeaderSize));
    NS_CHECK(written.ok(), "compress into a bound-sized buffer must succeed");
    if (written.value() < raw.size()) {
      out.resize(kFrameHeaderSize + written.value());
      payload_hash = xxhash32(ByteSpan(out.data() + kFrameHeaderSize, written.value()));
      content_hash = xxhash32(raw);
    } else {
      effective = CodecId::kNull;  // store uncompressed: the codec did not help
    }
  }
  if (effective == CodecId::kNull) {
    // A stored payload is its own content: one copy+hash pass fills both
    // hash fields, with the same values two separate hashes would give.
    out.clear();
    out.reserve(kFrameHeaderSize + raw.size());
    out.resize(kFrameHeaderSize);
    payload_hash = append_hashed(raw, out);
    content_hash = payload_hash;
  }

  std::uint8_t* p = out.data();
  store_le32(p, kFrameMagic);
  p[4] = static_cast<std::uint8_t>(effective);
  p[5] = 0;             // flags
  store_le16(p + 6, 0); // reserved
  store_le64(p + 8, raw.size());
  store_le64(p + 16, out.size() - kFrameHeaderSize);
  store_le32(p + 24, payload_hash);
  store_le32(p + 28, content_hash);
}

Result<FrameView> decode_frame(ByteSpan frame) {
  auto parsed = parse_frame(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (xxhash32(parsed.value().view.payload) != parsed.value().payload_hash) {
    return payload_mismatch();
  }
  return parsed.value().view;
}

Result<Bytes> decode_frame_content(ByteSpan frame) {
  auto parsed = parse_frame(frame);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const FrameView& view = parsed.value().view;
  if (view.codec == CodecId::kNull) {
    // Stored payload: copy and hash in one pass. The one digest answers both
    // hash fields, checked in the order the two-pass decode checks them.
    Bytes raw;
    raw.reserve(view.payload.size());
    const std::uint32_t digest = append_hashed(view.payload, raw);
    if (digest != parsed.value().payload_hash) {
      return payload_mismatch();
    }
    if (digest != view.content_hash) {
      return content_mismatch();
    }
    return raw;
  }

  if (xxhash32(view.payload) != parsed.value().payload_hash) {
    return payload_mismatch();
  }
  const Codec* codec = codec_by_id(view.codec);
  NS_CHECK(codec != nullptr, "parse_frame validated the codec id");
  Bytes raw(view.raw_size);
  auto produced = codec->decompress(view.payload, raw);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw.size()) {
    return data_loss_error("frame: decoded size mismatch");
  }
  if (xxhash32(raw) != view.content_hash) {
    return content_mismatch();
  }
  return raw;
}

std::optional<std::size_t> find_frame_magic(ByteSpan data, std::size_t from) {
  std::uint8_t magic[4];
  store_le32(magic, kFrameMagic);
  for (std::size_t pos = from; pos + 4 <= data.size(); ++pos) {
    if (std::memcmp(data.data() + pos, magic, 4) == 0) {
      return pos;
    }
  }
  return std::nullopt;
}

Result<Bytes> decode_frame_content_resync(ByteSpan frame, bool* resynced) {
  if (resynced != nullptr) {
    *resynced = false;
  }
  auto first = decode_frame_content(frame);
  if (first.ok()) {
    return first;
  }
  // The frame at offset 0 is bad; a later magic may still head a valid frame
  // (the checksums make a false positive decoding successfully vanishingly
  // unlikely, so the first decodable candidate is the recovered frame).
  std::size_t search_from = 1;
  while (auto pos = find_frame_magic(frame, search_from)) {
    auto recovered = decode_frame_content(frame.subspan(*pos));
    if (recovered.ok()) {
      if (resynced != nullptr) {
        *resynced = true;
      }
      return recovered;
    }
    search_from = *pos + 1;
  }
  return first.status();
}

}  // namespace numastream
