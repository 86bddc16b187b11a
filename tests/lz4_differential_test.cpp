// LZ4 block codec: differential decoder tests and format-stability pins.
//
// Lz4DifferentialTest drives the library decoder and the exact-copy
// reference decoder (tests/lz4_reference.h) with the same blocks and output
// buffers; for every input they must return the same bytes or the same
// DATA_LOSS. The inputs aim at the fast decoder's edges: every overlapping
// offset, the 15/255 length-encoding boundaries, buffers ending 0-16 bytes
// past the decoded data (where the fast path hands over to the checked tail
// path), and seeded truncations and mutations.
//
// NullFrameDifferentialTest holds the one-pass null-frame decode to the
// generic frame decode on seeded mutations of null frames, and the split
// header+payload decode the pipeline runs to the joined decode.
//
// Lz4GoldenTest pins the compressor's and the frame writer's output bytes on
// fixed inputs, so a change that alters the wire format is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "data/tomo.h"
#include "lz4_reference.h"
#include "msg/message.h"
#include "wire_reference.h"

namespace numastream {
namespace {

/// The nightly chaos job randomizes this via NUMASTREAM_CHAOS_SEED; unset
/// (the tier-1 default), the sweep is fully deterministic.
std::uint64_t chaos_seed(std::uint64_t fallback) {
  const char* env = std::getenv("NUMASTREAM_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  return std::strtoull(env, nullptr, 10);
}

/// Decodes `block` into `dst_size`-byte buffers with both decoders and
/// records a failure unless they agree: the same count and bytes, or the
/// same DATA_LOSS code and message. Returns the reference outcome.
Result<std::size_t> decode_both(ByteSpan block, std::size_t dst_size) {
  Bytes fast(dst_size);
  Bytes reference(dst_size);
  auto got = lz4_decompress_block(block, fast);
  auto want = lz4_reference_decompress_block(block, reference);
  if (got.ok() != want.ok()) {
    ADD_FAILURE() << "decoders disagree on validity: fast "
                  << (got.ok() ? "ok" : got.status().to_string()) << ", reference "
                  << (want.ok() ? "ok" : want.status().to_string());
    return want;
  }
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return want;
  }
  EXPECT_EQ(got.value(), want.value());
  const std::size_t n = std::min(got.value(), want.value());
  EXPECT_TRUE(std::equal(fast.begin(), fast.begin() + static_cast<std::ptrdiff_t>(n),
                         reference.begin()))
      << "decoded bytes differ";
  return want;
}

Bytes random_bytes(std::size_t size, Rng& rng) {
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return data;
}

/// Hand-assembles LZ4 sequences, so a test can place every offset and every
/// length-encoding boundary exactly.
class BlockBuilder {
 public:
  void sequence(ByteSpan literals, std::uint16_t offset, std::size_t match_len) {
    const std::size_t stored = match_len - 4;
    token(literals.size(), stored);
    literal_run(literals);
    block_.push_back(static_cast<std::uint8_t>(offset));
    block_.push_back(static_cast<std::uint8_t>(offset >> 8));
    if (stored >= 15) {
      length(stored - 15);
    }
    decoded_ += literals.size() + match_len;
  }
  void last_literals(ByteSpan literals) {
    token(literals.size(), 0);
    literal_run(literals);
    decoded_ += literals.size();
  }
  [[nodiscard]] const Bytes& block() const noexcept { return block_; }
  [[nodiscard]] std::size_t decoded_size() const noexcept { return decoded_; }

 private:
  void token(std::size_t lit_len, std::size_t stored_match) {
    block_.push_back(static_cast<std::uint8_t>((std::min<std::size_t>(lit_len, 15) << 4) |
                                               std::min<std::size_t>(stored_match, 15)));
  }
  void literal_run(ByteSpan literals) {
    if (literals.size() >= 15) {
      length(literals.size() - 15);
    }
    block_.insert(block_.end(), literals.begin(), literals.end());
  }
  void length(std::size_t value) {
    for (; value >= 255; value -= 255) {
      block_.push_back(255);
    }
    block_.push_back(static_cast<std::uint8_t>(value));
  }

  Bytes block_;
  std::size_t decoded_ = 0;
};

// Corpora across the compressibility spectrum, including the short-period
// runs (uint16 pixels, offset 2) that the pattern expansion serves.
Bytes make_corpus(std::size_t size, int kind, Rng& rng) {
  Bytes data(size);
  switch (kind) {
    case 0:  // zeros
      break;
    case 1:  // uint16 plateaus: offset-2 runs between value changes
      for (std::size_t i = 0; i + 1 < size; i += 2) {
        const std::uint16_t v = static_cast<std::uint16_t>(1000 + 32 * ((i / 96) % 5));
        data[i] = static_cast<std::uint8_t>(v);
        data[i + 1] = static_cast<std::uint8_t>(v >> 8);
      }
      break;
    case 2: {  // periods 1-7 back to back
      std::size_t i = 0;
      while (i < size) {
        const std::size_t period = 1 + rng.next_below(7);
        const Bytes pattern = random_bytes(period, rng);
        const std::size_t run = std::min<std::size_t>(size - i, 8 + rng.next_below(300));
        for (std::size_t k = 0; k < run; ++k) {
          data[i + k] = pattern[k % period];
        }
        i += run;
      }
      break;
    }
    case 3:  // compressible runs with random islands
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = (i / 64) % 3 == 0 ? static_cast<std::uint8_t>(rng.next_u64())
                                    : static_cast<std::uint8_t>(i / 64);
      }
      break;
    default:  // incompressible
      data = random_bytes(size, rng);
      break;
  }
  return data;
}

// ------------------------------------------------------------ differential

TEST(Lz4DifferentialTest, RandomCorporaAtEveryOutputSlack) {
  Rng rng(chaos_seed(1201));
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{13},
                                 std::size_t{16}, std::size_t{17}, std::size_t{100},
                                 std::size_t{1000}, std::size_t{65539}}) {
    for (int kind = 0; kind <= 4; ++kind) {
      const Bytes raw = make_corpus(size, kind, rng);
      for (const Bytes& block : {lz4_compress(raw), lz4hc_compress(raw, 8)}) {
        SCOPED_TRACE("size=" + std::to_string(size) + " kind=" + std::to_string(kind));
        // 0-16 bytes of room past the data, plus one byte too few.
        for (std::size_t slack = 0; slack <= 16; ++slack) {
          auto produced = decode_both(block, raw.size() + slack);
          ASSERT_TRUE(produced.ok());
          EXPECT_EQ(produced.value(), raw.size());
        }
        if (!raw.empty()) {
          EXPECT_FALSE(decode_both(block, raw.size() - 1).ok());
        }
      }
    }
  }
}

TEST(Lz4DifferentialTest, FullTomographyProjections) {
  const TomoGenerator generator{TomoConfig{}};
  for (const std::uint64_t index : {std::uint64_t{0}, std::uint64_t{1}}) {
    const Bytes raw = generator.projection(index);
    const Bytes block = lz4_compress(raw);
    for (const std::size_t slack : {std::size_t{0}, std::size_t{16}}) {
      auto produced = decode_both(block, raw.size() + slack);
      ASSERT_TRUE(produced.ok());
      EXPECT_EQ(produced.value(), raw.size());
    }
    auto decoded = lz4_decompress(block, raw.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), raw);
  }
}

TEST(Lz4DifferentialTest, EveryOffsetAtLengthEncodingBoundaries) {
  // Match lengths around the token nibble (stored 15 = length 19) and the
  // first and second extension bytes (stored 270 and 525).
  constexpr std::size_t kMatchLengths[] = {4,   5,   7,   8,   9,   15,  16,  17,
                                           18,  19,  20,  23,  24,  33,  273, 274,
                                           275, 276, 528, 529, 530};
  Rng rng(chaos_seed(1202));
  for (std::uint16_t offset = 1; offset <= 16; ++offset) {
    for (const std::size_t match_len : kMatchLengths) {
      // The first run is long enough for the offset (14 literals keep both
      // nibbles short); the second sits on the literal nibble boundary.
      // The block ends on a match or on a literal run: 29/30 put the
      // second sequence's input room just under and on the short-sequence
      // path's threshold, and 64 gives both sequences room to take it.
      for (const std::size_t first_lits : {std::size_t{14}, std::size_t{16},
                                           std::size_t{270}}) {
        if (offset > first_lits) {
          continue;
        }
        for (const std::size_t second_lits : {std::size_t{0}, std::size_t{14},
                                              std::size_t{15}}) {
          for (const std::size_t tail : {std::size_t{0}, std::size_t{5}, std::size_t{29},
                                         std::size_t{30}, std::size_t{64}}) {
            BlockBuilder builder;
            builder.sequence(random_bytes(first_lits, rng), offset, match_len);
            builder.sequence(random_bytes(second_lits, rng), offset, match_len);
            if (tail > 0) {
              builder.last_literals(random_bytes(tail, rng));
            }
            SCOPED_TRACE("offset=" + std::to_string(offset) +
                         " match_len=" + std::to_string(match_len) +
                         " literals=" + std::to_string(first_lits) + "/" +
                         std::to_string(second_lits) + " tail=" + std::to_string(tail));
            const std::size_t decoded = builder.decoded_size();
            // Output slack 0-64 walks the output room of both sequences
            // across the short-sequence and fast-path thresholds.
            for (std::size_t slack = 0; slack <= 64; ++slack) {
              auto produced = decode_both(builder.block(), decoded + slack);
              ASSERT_TRUE(produced.ok());
              EXPECT_EQ(produced.value(), decoded);
            }
            EXPECT_FALSE(decode_both(builder.block(), decoded - 1).ok());
          }
        }
      }
    }
  }
}

// A sequence short enough for the short-sequence path, with room to take
// it, whose offset is zero or reaches one byte before the output start:
// the path's one check of its own must refuse it exactly as the general
// path does.
TEST(Lz4DifferentialTest, ShortSequencesWithInvalidOffsets) {
  Rng rng(chaos_seed(1206));
  for (const std::size_t lits : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                 std::size_t{14}}) {
    for (const std::size_t match_len : {std::size_t{4}, std::size_t{11}, std::size_t{18}}) {
      // The first sequence is bad, or a valid first one (14 literals, a
      // 4-byte match) is followed by a bad second one.
      for (const bool second : {false, true}) {
        const std::size_t produced = (second ? 18 : 0) + lits;
        for (const std::size_t offset : {std::size_t{0}, produced + 1, std::size_t{65535}}) {
          BlockBuilder builder;
          if (second) {
            builder.sequence(random_bytes(14, rng), 3, 4);
          }
          builder.sequence(random_bytes(lits, rng), static_cast<std::uint16_t>(offset),
                           match_len);
          builder.last_literals(random_bytes(64, rng));
          SCOPED_TRACE("literals=" + std::to_string(lits) +
                       " match_len=" + std::to_string(match_len) +
                       " offset=" + std::to_string(offset) +
                       (second ? " second" : " first"));
          for (const std::size_t slack : {std::size_t{0}, std::size_t{64}}) {
            EXPECT_FALSE(decode_both(builder.block(), builder.decoded_size() + slack).ok());
          }
        }
      }
    }
  }
}

TEST(Lz4DifferentialTest, SeededTruncationsAndMutations) {
  const std::uint64_t seed = chaos_seed(1203);
  SCOPED_TRACE("NUMASTREAM_CHAOS_SEED=" + std::to_string(seed));
  Rng rng(seed);
  std::vector<Bytes> raws;
  std::vector<Bytes> blocks;
  for (int kind = 0; kind <= 4; ++kind) {
    raws.push_back(make_corpus(4096, kind, rng));
    blocks.push_back(lz4_compress(raws.back()));
  }
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t pick = rng.next_below(blocks.size());
    Bytes block = blocks[pick];
    const std::uint64_t mode = rng.next_below(3);
    if (mode != 1 && !block.empty()) {  // truncate
      block.resize(rng.next_below(block.size()));
    }
    if (mode != 0 && !block.empty()) {  // flip 1-3 bytes
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        block[rng.next_below(block.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    }
    const std::size_t dst_size = raws[pick].size() - 8 + rng.next_below(25);
    (void)decode_both(block, dst_size);
  }
}

// Seeded flips and cuts of a whole projection's block, decoded into
// buffers a few bytes either side of the raw size: corruption deep inside
// a real 5 MB block, where nearly every sequence takes the short-sequence
// path, must end exactly as in the reference decoder.
TEST(Lz4DifferentialTest, SeededMutationsOfAFullProjectionBlock) {
  const std::uint64_t seed = chaos_seed(1205);
  SCOPED_TRACE("NUMASTREAM_CHAOS_SEED=" + std::to_string(seed));
  Rng rng(seed);
  const Bytes raw = TomoGenerator{TomoConfig{}}.projection(2);
  const Bytes block = lz4_compress(raw);
  for (int iter = 0; iter < 8; ++iter) {
    Bytes mutated = block;
    if (iter % 4 == 3) {
      mutated.resize(rng.next_below(mutated.size()));
    } else {
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t f = 0; f < flips; ++f) {
        mutated[rng.next_below(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
    }
    SCOPED_TRACE("iteration " + std::to_string(iter));
    (void)decode_both(mutated, raw.size() - 8 + rng.next_below(25));
  }
}

TEST(Lz4DifferentialTest, RandomGarbage) {
  Rng rng(chaos_seed(1204));
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes garbage = random_bytes(rng.next_below(512), rng);
    (void)decode_both(garbage, rng.next_below(1100));
  }
}

// ------------------------------------------------ the compressor's window

/// Walks a well-formed block and returns each sequence's match offset,
/// recording a failure for an offset of 0 or one that reaches before the
/// start of the data decoded so far (the 16-bit field caps it at 65535).
std::vector<std::size_t> match_offsets(ByteSpan block) {
  std::vector<std::size_t> offsets;
  std::size_t ip = 0;
  std::size_t produced = 0;
  const auto length = [&](std::size_t nibble) {
    std::size_t len = nibble;
    if (nibble == 15) {
      std::uint8_t byte = 0;
      do {
        byte = block[ip++];
        len += byte;
      } while (byte == 255 && ip < block.size());
    }
    return len;
  };
  while (ip < block.size()) {
    const std::uint8_t token = block[ip++];
    const std::size_t literals = length(token >> 4);
    ip += literals;
    produced += literals;
    if (ip >= block.size()) {
      break;
    }
    const std::size_t offset = load_le16(block.data() + ip);
    ip += 2;
    EXPECT_NE(offset, 0U) << "at decoded byte " << produced;
    EXPECT_LE(offset, produced) << "reaches before the input at decoded byte " << produced;
    offsets.push_back(offset);
    produced += length(token & 0x0F) + 4;
  }
  return offsets;
}

/// Compresses `raw` with the fast compressor into an exactly bound-sized
/// heap buffer, checks every offset and decodes it with both decoders into
/// an exactly raw-sized buffer. Returns the block's match offsets.
std::vector<std::size_t> fast_round_trip(ByteSpan raw) {
  const std::size_t bound = lz4_compress_bound(raw.size());
  const auto block = std::make_unique<std::uint8_t[]>(bound);
  auto written = lz4_compress_block(raw, MutableByteSpan(block.get(), bound));
  EXPECT_TRUE(written.ok());
  if (!written.ok()) {
    return {};
  }
  const ByteSpan compressed(block.get(), written.value());
  std::vector<std::size_t> offsets = match_offsets(compressed);
  Bytes decoded(raw.size());
  auto produced = lz4_reference_decompress_block(compressed, decoded);
  EXPECT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_TRUE(std::equal(raw.begin(), raw.end(), decoded.begin())) << "round trip differs";
  EXPECT_TRUE(decode_both(compressed, raw.size()).ok());
  return offsets;
}

// The match table keeps 16-bit positions, so a repeat exactly 65536 bytes
// back (or a multiple of it) wraps to distance 0 and must be refused, while
// one exactly 65535 back is the longest legal offset and is found. A
// random 32-byte block sits at every multiple of the gap, with zeros
// between, so its table entry survives to each repeat.
TEST(Lz4DifferentialTest, RepeatsAtTheEdgeOfTheOffsetWindow) {
  Rng rng(chaos_seed(1207));
  for (const std::size_t gap : {std::size_t{65535}, std::size_t{65536}}) {
    const Bytes block = random_bytes(32, rng);
    Bytes raw(3 * gap + 4096);
    for (std::size_t at = 0; at + block.size() <= raw.size(); at += gap) {
      std::copy(block.begin(), block.end(), raw.begin() + static_cast<std::ptrdiff_t>(at));
    }
    SCOPED_TRACE("gap=" + std::to_string(gap));
    const std::vector<std::size_t> offsets = fast_round_trip(raw);
    if (gap == 65535) {
      EXPECT_NE(std::find(offsets.begin(), offsets.end(), gap), offsets.end())
          << "the repeat at the window's edge was not found";
    }
  }
}

// Random 256-byte blocks repeated across 4 MiB, most of them further back
// than the window: most table entries are older than 64 KiB and alias to a
// nearer position, which only the byte compare can reject.
TEST(Lz4DifferentialTest, StaleTableEntriesAcrossAMultiMebibyteInput) {
  Rng rng(chaos_seed(1208));
  std::vector<Bytes> pool;
  for (int i = 0; i < 64; ++i) {
    pool.push_back(random_bytes(256, rng));
  }
  Bytes raw;
  while (raw.size() < (std::size_t{4} << 20)) {
    if (rng.next_below(4) == 0) {
      const Bytes noise = random_bytes(1 + rng.next_below(300), rng);
      raw.insert(raw.end(), noise.begin(), noise.end());
    } else {
      const Bytes& block = pool[rng.next_below(pool.size())];
      raw.insert(raw.end(), block.begin(), block.end());
    }
  }
  const std::vector<std::size_t> offsets = fast_round_trip(raw);
  EXPECT_GT(offsets.size(), raw.size() / 1024) << "the repeats were not found";
}

// Every input length 0-80, and lengths either side of the 64 KiB wrap, at
// the very end of exactly-sized heap buffers: the 8-byte hash loads must
// stay inside the input (AddressSanitizer checks them).
TEST(Lz4DifferentialTest, EveryShortLengthInAnExactlySizedBuffer) {
  Rng rng(chaos_seed(1209));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 65530; n <= 65542; ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    for (int kind = 0; kind <= 4; ++kind) {
      const Bytes corpus = make_corpus(n, kind, rng);
      const auto raw = std::make_unique<std::uint8_t[]>(n);
      std::copy(corpus.begin(), corpus.end(), raw.get());
      SCOPED_TRACE("size=" + std::to_string(n) + " kind=" + std::to_string(kind));
      (void)fast_round_trip(ByteSpan(raw.get(), n));
    }
  }
}

// ------------------------------------------------------------ golden pins

// Output bytes of the codec on a fixed quarter-size projection: the fast
// compressor's pins were recorded from its 2^13-entry, 16-bit, 6-byte-hash
// table, HC's from its 2^16-head chain matcher. The raw-data pin tells a
// generator change from a codec change.
TEST(Lz4GoldenTest, TomographyProjectionFingerprints) {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  const Bytes raw = TomoGenerator(config).projection(1);
  ASSERT_EQ(xxhash64(raw), 0x4F4A25DD5260309CULL) << "generator output changed";

  const Bytes fast = lz4_compress(raw);
  EXPECT_EQ(fast.size(), 732104U);
  EXPECT_EQ(xxhash64(fast), 0x7E72DB7D6EF0314AULL);
  EXPECT_EQ(xxhash64(lz4hc_compress(raw)), 0x790D89E1459F68AAULL);
  // The sealed frame; unsealed again it is the frame the xxhash32 writer
  // would write around the same block.
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), raw);
  EXPECT_EQ(frame[5], kFrameFlagSealed);
  EXPECT_EQ(xxhash64(frame), 0x111FF6A0AA627EB0ULL);
  EXPECT_EQ(xxhash64(unseal_frame(frame)), 0xD7C5CE0C0D23BA4BULL);
}

// ------------------------------------------------------ null frame decode

/// The generic frame decode, written from the layout in codec/frame.h with
/// every check in the library's order and text: the header fields, the
/// payload check (a sealed frame's xxhash64 seal, all 64 bits for a null
/// frame and the low 32 for any other; else the payload xxhash32), the
/// codec's decompress into a raw_size buffer, then the content check (the
/// low 32 bits of xxhash64 when sealed, else xxhash32; a sealed null
/// frame's seal already covers it). A null frame takes that same
/// decompress path here.
Result<Bytes> decode_frame_generic(ByteSpan frame) {
  const ByteSpan header = frame.first(std::min(frame.size(), kFrameHeaderSize));
  const ByteSpan payload = frame.subspan(header.size());
  ByteReader reader(header);
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
    return data_loss_error("frame: bad magic (got " + hex_preview(header) + ")");
  }
  NS_RETURN_IF_ERROR(reader.u8(codec_id));
  NS_RETURN_IF_ERROR(reader.u8(flags));
  NS_RETURN_IF_ERROR(reader.u16(reserved));
  if ((flags & ~kFrameFlagSealed) != 0 || reserved != 0) {
    return data_loss_error("frame: nonzero reserved fields (future format?)");
  }
  NS_RETURN_IF_ERROR(reader.u64(raw_size));
  NS_RETURN_IF_ERROR(reader.u64(payload_size));
  NS_RETURN_IF_ERROR(reader.u32(payload_hash));
  NS_RETURN_IF_ERROR(reader.u32(content_hash));
  const Codec* codec = codec_by_id(static_cast<CodecId>(codec_id));
  if (codec == nullptr) {
    return data_loss_error("frame: unknown codec id " + std::to_string(codec_id));
  }
  const bool null = codec->id() == CodecId::kNull;
  const bool sealed = flags == kFrameFlagSealed;
  if (payload_size != payload.size()) {
    return data_loss_error("frame: payload size " + std::to_string(payload_size) +
                           " does not match remaining " + std::to_string(payload.size()) +
                           " bytes");
  }
  if (null ? raw_size != payload_size : raw_size > kMaxFrameRawSize) {
    return data_loss_error("frame: raw size " + std::to_string(raw_size) +
                           " out of bounds for a " + std::to_string(payload_size) +
                           "-byte payload");
  }
  const std::uint64_t seal = (std::uint64_t{content_hash} << 32) | payload_hash;
  bool payload_ok = xxhash32(payload) == payload_hash;
  if (sealed) {
    payload_ok = null ? xxhash64(payload) == seal
                      : static_cast<std::uint32_t>(xxhash64(payload)) == payload_hash;
  }
  if (!payload_ok) {
    return data_loss_error("frame: payload checksum mismatch");
  }
  Bytes raw(raw_size);
  auto produced = codec->decompress(payload, raw);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw.size()) {
    return data_loss_error("frame: decoded size mismatch");
  }
  const bool content_ok = sealed ? null || static_cast<std::uint32_t>(xxhash64(raw)) ==
                                                content_hash
                                  : xxhash32(raw) == content_hash;
  if (!content_ok) {
    return data_loss_error("frame: content checksum mismatch after decompression");
  }
  return raw;
}

/// Records a failure unless decode_frame_content and the generic decode
/// agree on `frame`: the same bytes, or the same error code and message.
void expect_same_verdict(ByteSpan frame, const std::string& what) {
  SCOPED_TRACE(what);
  const auto got = decode_frame_content(frame);
  const auto want = decode_frame_generic(frame);
  ASSERT_EQ(got.ok(), want.ok())
      << "one-pass " << (got.ok() ? "ok" : got.status().to_string()) << ", generic "
      << (want.ok() ? "ok" : want.status().to_string());
  if (want.ok()) {
    EXPECT_EQ(got.value(), want.value());
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(NullFrameDifferentialTest, MutatedFramesMatchTheGenericDecode) {
  constexpr std::size_t kBlock = 64 * 1024;  // the one-pass copy+hash block
  Rng rng(chaos_seed(1401));
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        kBlock - 1, kBlock, kBlock + 1, 2 * kBlock + 3}) {
    const Bytes raw = random_bytes(size, rng);
    const Bytes frame = encode_frame(*codec_by_id(CodecId::kNull), raw);
    ASSERT_EQ(frame[4], static_cast<std::uint8_t>(CodecId::kNull));
    const std::string at_size = "size=" + std::to_string(size);
    expect_same_verdict(frame, at_size + " unmutated");
    ASSERT_TRUE(decode_frame_content(frame).ok());
    EXPECT_EQ(decode_frame_content(frame).value(), raw);

    std::vector<std::size_t> offsets;  // frame offsets to flip
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
      offsets.push_back(i);
    }
    if (size > 0) {
      offsets.push_back(kFrameHeaderSize);
      offsets.push_back(kFrameHeaderSize + size - 1);
    }
    for (std::size_t boundary = kBlock; boundary <= size; boundary += kBlock) {
      for (const std::size_t at : {boundary - 1, boundary, boundary + 1}) {
        if (at < size) {
          offsets.push_back(kFrameHeaderSize + at);
        }
      }
    }
    for (int extra = 0; extra < 4 && size > 0; ++extra) {
      offsets.push_back(kFrameHeaderSize + rng.next_below(size));
    }
    for (const std::size_t offset : offsets) {
      Bytes mutated = frame;
      mutated[offset] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      expect_same_verdict(mutated, at_size + " flip@" + std::to_string(offset));
    }
    // The raw-size and codec-id fields rewritten whole, and a payload one
    // byte short or long.
    for (const std::uint64_t raw_size :
         {std::uint64_t{0}, std::uint64_t{size + 1}, kMaxFrameRawSize + 1, ~std::uint64_t{0}}) {
      Bytes mutated = frame;
      store_le64(mutated.data() + 8, raw_size);
      expect_same_verdict(mutated, at_size + " raw_size=" + std::to_string(raw_size));
    }
    for (const std::uint8_t id : {1, 2, 3, 200}) {
      Bytes mutated = frame;
      mutated[4] = id;
      expect_same_verdict(mutated, at_size + " codec=" + std::to_string(id));
    }
    Bytes longer = frame;
    longer.push_back(0);
    expect_same_verdict(longer, at_size + " one byte long");
    expect_same_verdict(ByteSpan(frame).first(frame.size() - 1), at_size + " one byte short");
  }
}

/// Records a failure unless `got` and `want` agree: the same bytes, or the
/// same error code and message.
void expect_same_result(const Result<Bytes>& got, const Result<Bytes>& want) {
  ASSERT_EQ(got.ok(), want.ok())
      << "split " << (got.ok() ? "ok" : got.status().to_string()) << ", joined "
      << (want.ok() ? "ok" : want.status().to_string());
  if (want.ok()) {
    EXPECT_EQ(got.value(), want.value());
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

/// Splits `frame` as a receiver does (the first kFrameHeaderSize bytes
/// apart, the rest in a payload buffer of its own) and records a failure
/// unless the split decode agrees with the joined one: decode_frame_split
/// with the generic decode.
void expect_split_matches_joined(ByteSpan frame, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_GE(frame.size(), kFrameHeaderSize);
  const ByteSpan header = frame.first(kFrameHeaderSize);
  const Bytes payload(frame.begin() + kFrameHeaderSize, frame.end());
  expect_same_result(decode_frame_split(header, payload), decode_frame_generic(frame));
}

TEST(NullFrameDifferentialTest, SplitDecodeMatchesTheJoinedDecode) {
  constexpr std::size_t kBlock = 64 * 1024;
  Rng rng(chaos_seed(1402));
  std::vector<std::pair<std::string, Bytes>> frames;
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, std::size_t{1000}, kBlock + 1}) {
    frames.emplace_back("null size=" + std::to_string(size),
                        encode_frame(*codec_by_id(CodecId::kNull), random_bytes(size, rng)));
  }
  Bytes pattern(20'000);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>((i / 7) % 13);
  }
  frames.emplace_back("lz4", encode_frame(*codec_by_id(CodecId::kLz4), pattern));
  frames.emplace_back("lz4 stored fallback",
                      encode_frame(*codec_by_id(CodecId::kLz4), random_bytes(5000, rng)));

  for (const auto& [name, frame] : frames) {
    expect_split_matches_joined(frame, name + " unmutated");
    std::vector<std::size_t> offsets;  // every header byte, first/last payload byte
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
      offsets.push_back(i);
    }
    if (frame.size() > kFrameHeaderSize) {
      offsets.push_back(kFrameHeaderSize);
      offsets.push_back(frame.size() - 1);
    }
    for (const std::size_t offset : offsets) {
      Bytes mutated = frame;
      mutated[offset] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      expect_split_matches_joined(mutated, name + " flip@" + std::to_string(offset));
    }
    for (const std::uint64_t raw_size : {std::uint64_t{0}, kMaxFrameRawSize + 1}) {
      Bytes mutated = frame;
      store_le64(mutated.data() + 8, raw_size);
      expect_split_matches_joined(mutated, name + " raw_size=" + std::to_string(raw_size));
    }
    Bytes longer = frame;
    longer.push_back(0);
    expect_split_matches_joined(longer, name + " one byte long");
  }

  // A frame whose header fails but whose payload carries a whole valid
  // frame fails split exactly as joined: nothing scans for the inner one.
  const Bytes inner = encode_frame(*codec_by_id(CodecId::kNull), random_bytes(700, rng));
  Bytes outer = encode_frame(*codec_by_id(CodecId::kNull), inner);
  outer[24] ^= 0x01;  // the outer payload hash no longer matches
  EXPECT_FALSE(decode_frame_content(outer).ok());
  expect_split_matches_joined(outer, "embedded frame");
}

// Stored payloads: the null codec on the same projection, and LZ4's
// incompressible-input fallback to a null frame. Both are sealed (one
// xxhash64 of the payload in the two hash fields). Unsealed again
// (unseal_frame, tests/wire_reference.h), each must be byte for byte the
// frame the two-pass writer produced before the seal, whose digests are
// the second of each pair.
TEST(Lz4GoldenTest, StoredFrameFingerprints) {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  const Bytes raw = TomoGenerator(config).projection(1);
  const Bytes stored = encode_frame(*codec_by_id(CodecId::kNull), raw);
  EXPECT_EQ(stored[5], kFrameFlagSealed);
  EXPECT_EQ(xxhash64(stored), 0x1BBC761199A6FB33ULL);
  EXPECT_EQ(xxhash64(unseal_frame(stored)), 0xC482DB440B434D37ULL);

  Rng rng(2023);
  const Bytes noise = random_bytes(300'001, rng);
  const Bytes fallback = encode_frame(*codec_by_id(CodecId::kLz4), noise);
  ASSERT_EQ(fallback[4], static_cast<std::uint8_t>(CodecId::kNull));
  EXPECT_EQ(fallback[5], kFrameFlagSealed);
  EXPECT_EQ(xxhash64(fallback), 0x6C69FC608B4B6294ULL);
  EXPECT_EQ(xxhash64(unseal_frame(fallback)), 0xC798B678BACB1C66ULL);
}

// A compressible LZ4 chunk's whole NSM1 message, held split as a sender
// holds it and joined. Its frame is sealed, so the body hash covers only
// the frame header. Unsealed again (unseal_wire, tests/wire_reference.h),
// the message must be byte for byte the one the xxhash32 writer would
// write around the same block (whose digest is the second pin), so the seal
// is the only change.
TEST(Lz4GoldenTest, CompressedMessageFingerprint) {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  const Bytes raw = TomoGenerator(config).projection(1);
  SplitFrame frame = encode_frame_split(*codec_by_id(CodecId::kLz4), raw);
  ASSERT_EQ(frame.header[5], kFrameFlagSealed);
  Message split;
  split.stream_id = 3;
  split.sequence = 7;
  split.frame_header = frame.header;
  split.body = std::move(frame.payload);
  Message joined;
  joined.stream_id = 3;
  joined.sequence = 7;
  joined.body = encode_frame(*codec_by_id(CodecId::kLz4), raw);
  const Bytes wire = encode_message(split);
  EXPECT_EQ(wire.size(), 732168U);
  EXPECT_EQ(xxhash64(wire), 0x1093C8989E191AE7ULL);
  EXPECT_EQ(xxhash64(unseal_wire(wire)), 0x37C308B0261CA684ULL);
  EXPECT_EQ(encode_message(joined), wire);
}

}  // namespace
}  // namespace numastream
