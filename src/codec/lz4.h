// LZ4 block compression, implemented from scratch against the published LZ4
// block format specification (token / literals / 2-byte offset / extended
// lengths). The paper streams 11.0592 MB projection chunks through LZ4 at a
// ~2:1 ratio; this is that codec, self-contained so the library has no
// external compression dependency.
//
// The compressor is the greedy single-pass variant — the same design point
// as LZ4's default "fast" mode: favours throughput over ratio, exactly what
// a streaming pipeline that must outrun a 100 Gbps NIC wants. Its match
// table is 2^13 entries of 16-bit positions hashed from 6-byte windows:
// 16 KiB on the stack, small enough to stay in L1 beside the data, and 16
// bits are all a 64 KiB offset window needs (the argument is at the table in
// lz4.cpp). Both compressors extend matches forward 8 bytes at a time (XOR
// of two words, count trailing zeros).
//
// The decompressor is fully bounds-checked and returns DATA_LOSS on any
// malformed input instead of reading or writing out of bounds, because frames
// arrive from a network. Every sequence passes the same checks, then is
// copied one of three ways:
//   * short-sequence path, when both token nibbles are below 15 (no length
//     bytes), the offset is valid and both buffers have room for fixed-size
//     copies: a 16-byte literal copy and an 18-byte match copy (pattern
//     expansion below offset 8), with no branch on the lengths. The room
//     makes every other check hold by construction. On tomography
//     projections about 90% of the ~0.87 M sequences per chunk take it.
//   * fast path, when input and output both have >= 16 bytes of room past
//     the sequence: 16-byte literal block copies, 8-byte match block copies,
//     and pattern expansion for overlapping offsets 1-7 (runs of uint16
//     pixels make offset 2 common). Block copies may overrun the sequence
//     into that room.
//   * checked tail path, near the end of either buffer: exact-length copies.
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

/// Worst-case compressed size for `raw_size` input bytes (incompressible data
/// expands by 1 byte per 255 plus constant framing).
constexpr std::size_t lz4_compress_bound(std::size_t raw_size) noexcept {
  return raw_size + raw_size / 255 + 16;
}

/// Compresses `src` into `dst`. Returns the number of bytes written.
/// Fails with RESOURCE_EXHAUSTED if `dst` is smaller than the compressed
/// output would need (size `dst` with lz4_compress_bound to be safe). Bytes
/// of `dst` past the returned count may be overwritten.
Result<std::size_t> lz4_compress_block(ByteSpan src, MutableByteSpan dst);

/// Decompresses `src` into `dst`. Returns the number of bytes produced.
/// `dst` must be at least the original raw size (callers know it from the
/// frame header). Any malformed sequence yields DATA_LOSS. Bytes of `dst`
/// past the returned count may be overwritten.
Result<std::size_t> lz4_decompress_block(ByteSpan src, MutableByteSpan dst);

/// High-compression variant: hash-chain match search (2^16 heads over 4-byte
/// windows) that examines up to `max_chain` candidates per position and
/// picks the longest match, instead of the fast mode's single-probe greedy
/// scan. Produces the same block format (decompress with
/// lz4_decompress_block), trades ~5-10x compression speed for a better ratio
/// — the right end of the spectrum when the wire, not the sender's cores, is
/// the bottleneck.
Result<std::size_t> lz4hc_compress_block(ByteSpan src, MutableByteSpan dst,
                                         int max_chain = 64);

/// Convenience: compress into a fresh buffer sized by lz4_compress_bound.
Bytes lz4_compress(ByteSpan src);

/// Convenience: high-compression variant of lz4_compress.
Bytes lz4hc_compress(ByteSpan src, int max_chain = 64);

/// Convenience: decompress a block whose raw size is known.
Result<Bytes> lz4_decompress(ByteSpan src, std::size_t raw_size);

}  // namespace numastream
