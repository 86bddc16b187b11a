// Compressed-chunk frame format.
//
// Every data chunk that leaves a compression thread is wrapped in this frame
// before it is handed to a sending thread (Fig. 2 of the paper). The frame is
// self-describing — codec id, raw size, checksums — so the receiving side can
// route any frame to the right decompressor and verify both the bytes it
// received and the bytes it reconstructed.
//
// Layout (all little-endian):
//   offset size  field
//   0      4     magic "NSF1"
//   4      1     codec id (CodecId)
//   5      1     flags (bit 0: sealed; other bits must be 0)
//   6      2     reserved (must be 0)
//   8      8     raw (uncompressed) size
//   16     8     payload (compressed) size
//   24     4     payload check
//   28     4     content check
//   32     ...   payload
//
// Every frame a writer produces is *sealed*: flags bit 0 is set and its
// checks come from xxhash64, one pass over each buffer.
//   * A stored frame (null codec: configured, degraded, or the
//     incompressible fallback) carries the raw bytes as its payload, so
//     payload and content are one thing and need one check: the two fields
//     hold one xxhash64 of the payload, low word at 24, high word at 28.
//   * A compressed frame holds the low 32 bits of xxhash64(payload) at 24
//     and the low 32 bits of xxhash64(content) at 28.
// Decoders still accept the unsealed form every earlier writer produced:
// flags 0, xxhash32 of the payload at 24 and of the content at 28 (for a
// stored frame both are the payload's).
//
// The seal also serves the message layer: an NSM1 message whose body opens
// with a sealed frame hashes only the 32-byte frame header and checks the
// payload seal on receipt (msg/message.h), so a payload is hashed once per
// side, and a compressed frame's content once more after decompression.
// The header is not covered by the frame's own checks, so decoders bound
// raw size before allocating by it: a null frame's raw size must equal its
// payload size, any other codec's must not exceed kMaxFrameRawSize.
//
// The runtime carries a frame as its header plus a separate payload buffer
// and never joins the two (SplitFrame): a stored payload is the chunk's own
// buffer from the source to the sink. The joined forms (encode_frame,
// decode_frame_content) are thin wrappers over the same header+payload core.
#pragma once

#include <array>

#include "codec/codec.h"
#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

inline constexpr std::size_t kFrameHeaderSize = 32;
inline constexpr std::uint32_t kFrameMagic = 0x3146534EU;  // "NSF1" little-endian

/// Largest raw size a compressed frame may declare (1 GiB, the message
/// layer's kMaxMessageBody): a larger value is DATA_LOSS, not an allocation.
inline constexpr std::uint64_t kMaxFrameRawSize = 1ULL << 30;

/// Flags bit 0: a sealed frame (see the layout above).
inline constexpr std::uint8_t kFrameFlagSealed = 1;

/// A frame's header, held apart from its payload.
using FrameHeader = std::array<std::uint8_t, kFrameHeaderSize>;

/// A frame as its header plus a separate payload buffer.
struct SplitFrame {
  FrameHeader header{};
  Bytes payload;
};

/// Whether a decode checks a sealed payload against its seal. A receiving
/// PullSocket verifies the seal of every frame body it accepts
/// (message_body_intact in msg/message.h), so the pipeline decodes a
/// received split frame with kAlreadyVerified; every other decode verifies.
/// A compressed frame's content check runs either way.
enum class SealCheck { kVerify, kAlreadyVerified };

/// Compresses `raw` with `codec` into a header and a payload. If the codec
/// is null, or compression would expand the data (incompressible input),
/// the frame is stored: `raw` itself becomes the payload, hashed in place
/// and moved, never copied. The receiver handles both cases identically.
/// A compressed payload's capacity is its size: the codec writes into a
/// per-thread scratch buffer, and the payload is copied out of it.
SplitFrame encode_frame_split(const Codec& codec, Bytes raw);

/// encode_frame_split's frame as one buffer, header then payload.
Bytes encode_frame(const Codec& codec, ByteSpan raw);

/// Whether `data` opens with an NSF1 header whose sealed flag is set. The
/// flag alone decides; the frame decode validates the rest of the header.
bool frame_sealed(ByteSpan data);

/// Whether `payload` matches the payload seal in `header`, a header for
/// which frame_sealed holds: the whole xxhash64 for a stored frame, its
/// low 32 bits for a compressed one.
bool seal_intact(ByteSpan header, ByteSpan payload);

/// Decodes a frame held as header + payload: validates the header (raw size
/// bound included), checks the payload (unless the frame is sealed and
/// `seal` says its seal was verified on receipt), decompresses and checks
/// the content. A stored payload becomes the content itself: the
/// buffer moves through, it is not copied.
Result<Bytes> decode_frame_split(ByteSpan header, Bytes payload,
                                 SealCheck seal = SealCheck::kVerify);

/// decode_frame_split on a joined frame; a stored payload is copied out.
Result<Bytes> decode_frame_content(ByteSpan frame);

}  // namespace numastream
