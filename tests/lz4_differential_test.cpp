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
// Lz4GoldenTest pins the compressor's output bytes on a fixed tomography
// projection, so a matcher change that alters the wire format is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "data/tomo.h"
#include "lz4_reference.h"

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
      // The first run is long enough for the offset; the second sits on the
      // literal nibble boundary; the block ends on a match or on literals.
      for (const std::size_t first_lits : {std::size_t{16}, std::size_t{270}}) {
        for (const std::size_t second_lits : {std::size_t{0}, std::size_t{14},
                                              std::size_t{15}}) {
          for (const std::size_t tail : {std::size_t{0}, std::size_t{5}}) {
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
            for (std::size_t slack = 0; slack <= 16; ++slack) {
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

TEST(Lz4DifferentialTest, RandomGarbage) {
  Rng rng(chaos_seed(1204));
  for (int iter = 0; iter < 2000; ++iter) {
    const Bytes garbage = random_bytes(rng.next_below(512), rng);
    (void)decode_both(garbage, rng.next_below(1100));
  }
}

// ------------------------------------------------------------ golden pins

// Output bytes of the codec on a fixed quarter-size projection, recorded from
// the byte-at-a-time matcher. The raw-data pin tells a generator change from
// a codec change.
TEST(Lz4GoldenTest, TomographyProjectionFingerprints) {
  TomoConfig config;
  config.rows = 512;
  config.cols = 1350;
  const Bytes raw = TomoGenerator(config).projection(1);
  ASSERT_EQ(xxhash64(raw), 0x4F4A25DD5260309CULL) << "generator output changed";

  const Bytes fast = lz4_compress(raw);
  EXPECT_EQ(fast.size(), 705575U);
  EXPECT_EQ(xxhash64(fast), 0x4E6FD6C0D7623550ULL);
  EXPECT_EQ(xxhash64(lz4hc_compress(raw)), 0x790D89E1459F68AAULL);
  EXPECT_EQ(xxhash64(encode_frame(*codec_by_id(CodecId::kLz4), raw)),
            0x04E31892DF201BA5ULL);
}

}  // namespace
}  // namespace numastream
