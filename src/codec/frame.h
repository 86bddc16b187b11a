// Compressed-chunk frame format.
//
// Every data chunk that leaves a compression thread is wrapped in this frame
// before it is handed to a sending thread (Fig. 2 of the paper). The frame is
// self-describing — codec id, raw size, payload checksum, content checksum —
// so the receiving side can route any frame to the right decompressor and
// verify both the bytes it received and the bytes it reconstructed.
//
// Layout (all little-endian):
//   offset size  field
//   0      4     magic "NSF1"
//   4      1     codec id (CodecId)
//   5      1     flags (reserved, must be 0)
//   6      2     reserved (must be 0)
//   8      8     raw (uncompressed) size
//   16     8     payload (compressed) size
//   24     4     xxhash32 of the payload bytes
//   28     4     xxhash32 of the raw content
//   32     ...   payload
//
// A null-codec frame stores the raw bytes as its payload, so its two hash
// fields are always equal; both are written from one digest, and the
// decoder checks one digest against both. The header is not covered by
// either hash, so decoders bound raw size before allocating by it: a null
// frame's raw size must equal its payload size, any other codec's must not
// exceed kMaxFrameRawSize.
//
// The runtime carries a frame as its header plus a separate payload buffer
// and never joins the two (SplitFrame): a stored payload is the chunk's own
// buffer from the source to the sink, hashed in place on each side. The
// joined forms (encode_frame, decode_frame_content) are thin wrappers over
// the same header+payload core.
#pragma once

#include <array>
#include <optional>

#include "codec/codec.h"
#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

inline constexpr std::size_t kFrameHeaderSize = 32;
inline constexpr std::uint32_t kFrameMagic = 0x3146534EU;  // "NSF1" little-endian

/// Largest raw size a compressed frame may declare (1 GiB, the message
/// layer's kMaxMessageBody): a larger value is DATA_LOSS, not an allocation.
inline constexpr std::uint64_t kMaxFrameRawSize = 1ULL << 30;

/// A frame's header, held apart from its payload.
using FrameHeader = std::array<std::uint8_t, kFrameHeaderSize>;

/// A frame as its header plus a separate payload buffer.
struct SplitFrame {
  FrameHeader header{};
  Bytes payload;
};

/// Parsed header plus a view of the payload (borrowing the input buffer).
struct FrameView {
  CodecId codec = CodecId::kNull;
  std::uint64_t raw_size = 0;
  std::uint32_t content_hash = 0;
  ByteSpan payload;
};

/// Compresses `raw` with `codec` into a header and a payload. If the codec
/// is null, or compression would expand the data (incompressible input),
/// the frame is stored: `raw` itself becomes the payload, hashed in place
/// and moved, never copied. The receiver handles both cases identically.
SplitFrame encode_frame_split(const Codec& codec, Bytes raw);

/// encode_frame_split's frame as one buffer, header then payload.
Bytes encode_frame(const Codec& codec, ByteSpan raw);

/// Parses and validates a frame header (raw size bound included) + payload
/// checksum. The returned view borrows `frame`; it is valid while `frame`
/// lives.
Result<FrameView> decode_frame(ByteSpan frame);

/// Decodes a frame held as header + payload: validates the header, checks
/// the payload checksum, decompresses and checks the content checksum. A
/// stored payload is hashed in place and becomes the content itself: the
/// buffer moves through, it is not copied.
Result<Bytes> decode_frame_split(ByteSpan header, Bytes payload);

/// decode_frame_split on a joined frame; a stored payload is copied out.
Result<Bytes> decode_frame_content(ByteSpan frame);

/// Offset of the next "NSF1" magic at or after `from`, or nullopt. Receiver
/// hardening uses this to resync inside a corrupted message body: a frame
/// that fails to decode may still carry a valid frame after garbage (e.g. a
/// corrupted prefix), and scanning for the magic recovers it instead of
/// dropping the whole chunk.
std::optional<std::size_t> find_frame_magic(ByteSpan data, std::size_t from);

/// decode_frame_content with resync: tries the frame at offset 0 and, on
/// failure, at every subsequent magic position. `resynced`, when supplied, is
/// set to true if the successful decode required skipping garbage. Fails with
/// the original offset-0 error when no embedded frame decodes.
Result<Bytes> decode_frame_content_resync(ByteSpan frame, bool* resynced = nullptr);

/// decode_frame_split with decode_frame_content_resync's recovery: when the
/// frame fails, its header and payload are joined once and scanned for an
/// embedded frame exactly as the joined form would be.
Result<Bytes> decode_frame_split_resync(ByteSpan header, Bytes payload,
                                        bool* resynced = nullptr);

}  // namespace numastream
