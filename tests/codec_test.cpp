#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "codec/delta_rle.h"
#include "codec/frame.h"
#include "codec/lz4.h"
#include "codec/xxhash.h"
#include "common/rng.h"

namespace numastream {
namespace {

Bytes from_string(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---------------------------------------------------------------- xxhash

// Reference vectors from the xxHash specification / reference implementation.
TEST(XxHashTest, Known32BitVectors) {
  EXPECT_EQ(xxhash32({}, 0), 0x02CC5D05U);
  const Bytes abc = from_string("abc");
  EXPECT_EQ(xxhash32(abc, 0), 0x32D153FFU);
}

TEST(XxHashTest, Known64BitVectors) {
  EXPECT_EQ(xxhash64({}, 0), 0xEF46DB3751D8E999ULL);
  const Bytes abc = from_string("abc");
  EXPECT_EQ(xxhash64(abc, 0), 0x44BC2CF5AD770999ULL);
}

TEST(XxHashTest, SeedChangesDigest) {
  const Bytes data = from_string("numastream");
  EXPECT_NE(xxhash32(data, 0), xxhash32(data, 1));
  EXPECT_NE(xxhash64(data, 0), xxhash64(data, 1));
}

TEST(XxHashTest, SingleBitFlipsDigest) {
  Bytes data(1024);
  Rng rng(1);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const std::uint32_t h32 = xxhash32(data);
  const std::uint64_t h64 = xxhash64(data);
  data[512] ^= 1;
  EXPECT_NE(xxhash32(data), h32);
  EXPECT_NE(xxhash64(data), h64);
}

// Golden digests recorded from the byte-loop loads: every length 0-100
// (covering the 16- and 32-byte stripe loops and every tail) plus 1 MiB, and
// each repeated at pointer offsets 1-7 so the unaligned loads are exercised.
// The per-length digests are folded into one pin per hash.
TEST(XxHashTest, GoldenDigestsAcrossLengthsAndAlignments) {
  constexpr std::size_t kMiB = std::size_t{1} << 20;
  Bytes data(kMiB + 8);
  Rng rng(0x60D);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  Bytes shifted(data.size() + 8);

  std::uint64_t fold32 = 0;
  std::uint64_t fold64 = 0;
  for (std::size_t len = 0; len <= 100; ++len) {
    const std::uint32_t h32 = xxhash32(ByteSpan(data.data(), len));
    const std::uint64_t h64 = xxhash64(ByteSpan(data.data(), len));
    fold32 = fold32 * 1000003 + h32;
    fold64 = fold64 * 1000003 + h64;
    for (std::size_t offset = 1; offset < 8; ++offset) {
      std::memcpy(shifted.data() + offset, data.data(), len);
      const ByteSpan view(shifted.data() + offset, len);
      EXPECT_EQ(xxhash32(view), h32) << "len=" << len << " offset=" << offset;
      EXPECT_EQ(xxhash64(view), h64) << "len=" << len << " offset=" << offset;
    }
  }
  EXPECT_EQ(fold32, 0x22A99DC9223A34A5ULL);
  EXPECT_EQ(fold64, 0xA9CC9FD9CD9DFED1ULL);

  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::memcpy(shifted.data() + offset, data.data(), kMiB);
    const ByteSpan view(shifted.data() + offset, kMiB);
    EXPECT_EQ(xxhash32(view), 0x28A07F37U) << "offset=" << offset;
    EXPECT_EQ(xxhash64(view), 0x542DFB8F9227267DULL) << "offset=" << offset;
  }
}

// Property: the streaming hasher matches the one-shot hash for any split of
// the input into updates.
class XxHashStreaming : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XxHashStreaming, MatchesOneShotForAnyChunking) {
  const std::size_t total = GetParam();
  Bytes data(total);
  Rng rng(total + 17);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const std::uint32_t expected = xxhash32(data, 42);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                                  std::size_t{17}, std::size_t{1000}}) {
    XxHash32 hasher(42);
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t n = std::min(chunk, data.size() - pos);
      hasher.update(ByteSpan(data.data() + pos, n));
      pos += n;
    }
    EXPECT_EQ(hasher.digest(), expected) << "total=" << total << " chunk=" << chunk;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, XxHashStreaming,
                         ::testing::Values(0, 1, 4, 15, 16, 17, 31, 32, 33, 255, 4096,
                                           100001));

// ---------------------------------------------------------------- lz4

// Deterministic corpus generators covering the compressibility spectrum.
Bytes make_corpus(std::size_t size, int entropy_class, std::uint64_t seed) {
  Bytes data(size);
  Rng rng(seed);
  switch (entropy_class) {
    case 0:  // all zero
      break;
    case 1:  // short repeating pattern (high compressibility, overlap matches)
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>("abcabc"[i % 6]);
      }
      break;
    case 2:  // long repeating pattern
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = static_cast<std::uint8_t>(i % 251);
      }
      break;
    case 3:  // text-like: random words from a small dictionary
    {
      static const char* kWords[] = {"stream", "numa", "chunk", "socket",
                                     "throughput", "gateway", "detector", "x-ray"};
      std::size_t pos = 0;
      while (pos < size) {
        const char* word = kWords[rng.next_below(8)];
        const std::size_t len = std::min(std::strlen(word), size - pos);
        std::memcpy(data.data() + pos, word, len);
        pos += len;
        if (pos < size) {
          data[pos++] = ' ';
        }
      }
      break;
    }
    case 4:  // mixed: compressible runs with random islands
      for (std::size_t i = 0; i < size; ++i) {
        data[i] = (i / 64) % 3 == 0 ? static_cast<std::uint8_t>(rng.next_u64())
                                    : static_cast<std::uint8_t>(i / 64);
      }
      break;
    default:  // incompressible random
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
  }
  return data;
}

class Lz4RoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, std::uint64_t>> {};

TEST_P(Lz4RoundTrip, CompressDecompressIdentity) {
  const auto [size, entropy, seed] = GetParam();
  const Bytes original = make_corpus(size, entropy, seed);
  const Bytes compressed = lz4_compress(original);
  EXPECT_LE(compressed.size(), lz4_compress_bound(original.size()));
  auto decoded = lz4_decompress(compressed, original.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Lz4RoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 4, 11, 12, 13, 64, 65, 1000, 65536,
                                         65537, 1 << 20),
                       ::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(1, 99)));

TEST(Lz4Test, CompressesRepetitiveDataWell) {
  const Bytes original = make_corpus(1 << 20, 0, 0);  // zeros
  const Bytes compressed = lz4_compress(original);
  EXPECT_LT(compressed.size(), original.size() / 100);
}

TEST(Lz4Test, HandlesIncompressibleDataWithinBound) {
  const Bytes original = make_corpus(1 << 18, 5, 3);
  const Bytes compressed = lz4_compress(original);
  EXPECT_LE(compressed.size(), lz4_compress_bound(original.size()));
  EXPECT_GE(compressed.size(), original.size());  // random data cannot shrink
}

TEST(Lz4Test, MatchAtMaxOffsetBoundary) {
  // Two copies of a block separated by exactly 65535 filler bytes: the match
  // offset is representable. Then separated by 65536: it is not, and the
  // compressor must fall back to literals — round trip must hold either way.
  for (const std::size_t gap : {std::size_t{65535 - 32}, std::size_t{65536}}) {
    Bytes data;
    const Bytes block = make_corpus(32, 3, 7);
    data.insert(data.end(), block.begin(), block.end());
    Rng rng(11);
    for (std::size_t i = 0; i < gap; ++i) {
      data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    data.insert(data.end(), block.begin(), block.end());
    const Bytes compressed = lz4_compress(data);
    auto decoded = lz4_decompress(compressed, data.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), data);
  }
}

TEST(Lz4Test, DestinationTooSmallIsResourceExhausted) {
  const Bytes original = make_corpus(4096, 5, 1);
  Bytes tiny(16);
  auto written = lz4_compress_block(original, tiny);
  EXPECT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kResourceExhausted);
}

// The compressor is the binding stage of compressed streaming; its entry is
// pinned to a cache line so unrelated code size changes cannot shift it.
TEST(Lz4Test, CompressBlockStartsOnACacheLine) {
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&lz4_compress_block) % 64, 0U);
}

TEST(Lz4Test, DecodeRejectsTruncatedStream) {
  const Bytes original = make_corpus(4096, 1, 1);
  Bytes compressed = lz4_compress(original);
  for (const std::size_t cut : {compressed.size() / 2, compressed.size() - 1}) {
    Bytes truncated(compressed.begin(),
                    compressed.begin() + static_cast<std::ptrdiff_t>(cut));
    Bytes out(original.size());
    auto produced = lz4_decompress_block(truncated, out);
    // Either an explicit error, or (for a cut that lands on a sequence
    // boundary) a short decode — never a crash or overrun.
    if (produced.ok()) {
      EXPECT_LT(produced.value(), original.size());
    } else {
      EXPECT_EQ(produced.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(Lz4Test, DecodeRejectsZeroOffset) {
  // token: 1 literal, then a match with offset 0 (illegal).
  const Bytes bad = {0x10, 'A', 0x00, 0x00};
  Bytes out(64);
  auto produced = lz4_decompress_block(bad, out);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kDataLoss);
}

TEST(Lz4Test, DecodeRejectsOffsetBeforeOutputStart) {
  // 1 literal then a match reaching 2 bytes back: only 1 byte exists.
  const Bytes bad = {0x10, 'A', 0x02, 0x00};
  Bytes out(64);
  auto produced = lz4_decompress_block(bad, out);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kDataLoss);
}

TEST(Lz4Test, DecodeRejectsOutputOverflow) {
  const Bytes original = make_corpus(4096, 0, 0);
  const Bytes compressed = lz4_compress(original);
  Bytes out(original.size() - 1);  // one byte too small
  auto produced = lz4_decompress_block(compressed, out);
  ASSERT_FALSE(produced.ok());
  EXPECT_EQ(produced.status().code(), StatusCode::kDataLoss);
}

TEST(Lz4Test, DecodeHandcraftedSequence) {
  // "aaaaaaaaaaaaaaaa" (16 a's) encoded by hand:
  //   token 0x1B: 1 literal ('a'), match len 11+4=15? -> use: literal 'a',
  //   offset 1, matchlen token 11 -> 11+4 = 15 copies. 1 + 15 = 16 bytes.
  const Bytes handmade = {0x1B, 'a', 0x01, 0x00};
  Bytes out(16);
  auto produced = lz4_decompress_block(handmade, out);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_EQ(produced.value(), 16U);
  EXPECT_EQ(out, Bytes(16, 'a'));
}

TEST(Lz4Test, FuzzDecodeNeverCrashes) {
  // Random garbage through the decoder: any result is fine, UB is not.
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes garbage(rng.next_below(512));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    Bytes out(1024);
    (void)lz4_decompress_block(garbage, out);
  }
  SUCCEED();
}

TEST(Lz4Test, MutatedValidStreamNeverCrashes) {
  const Bytes original = make_corpus(8192, 4, 5);
  const Bytes compressed = lz4_compress(original);
  Rng rng(77);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes mutated = compressed;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    Bytes out(original.size());
    (void)lz4_decompress_block(mutated, out);  // must not crash or overrun
  }
  SUCCEED();
}

// ---------------------------------------------------------------- delta_rle

Bytes make_u16_field(std::size_t n_samples, int kind, std::uint64_t seed) {
  Bytes data(n_samples * 2);
  Rng rng(seed);
  std::uint16_t value = 1000;
  for (std::size_t i = 0; i < n_samples; ++i) {
    switch (kind) {
      case 0:  // constant
        break;
      case 1:  // slow ramp (small deltas)
        value = static_cast<std::uint16_t>(value + 1);
        break;
      case 2:  // smooth-ish random walk
        value = static_cast<std::uint16_t>(value + rng.next_in_range(-5, 5));
        break;
      default:  // white noise
        value = static_cast<std::uint16_t>(rng.next_u64());
        break;
    }
    store_le16(data.data() + 2 * i, value);
  }
  return data;
}

class DeltaRleRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, bool>> {};

TEST_P(DeltaRleRoundTrip, Identity) {
  const auto [n_samples, kind, odd] = GetParam();
  Bytes original = make_u16_field(n_samples, kind, n_samples + kind);
  if (odd) {
    original.push_back(0x5A);
  }
  Bytes compressed(delta_rle_compress_bound(original.size()));
  auto written = delta_rle_compress(original, compressed);
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  compressed.resize(written.value());

  Bytes decoded(original.size());
  auto produced = delta_rle_decompress(compressed, decoded);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_EQ(decoded, original);
}

INSTANTIATE_TEST_SUITE_P(Corpus, DeltaRleRoundTrip,
                         ::testing::Combine(::testing::Values(0, 1, 2, 7, 100, 10000),
                                            ::testing::Values(0, 1, 2, 3),
                                            ::testing::Bool()));

TEST(DeltaRleTest, ConstantFieldCompressesExtremelyWell) {
  const Bytes original = make_u16_field(100000, 0, 1);
  Bytes compressed(delta_rle_compress_bound(original.size()));
  auto written = delta_rle_compress(original, compressed);
  ASSERT_TRUE(written.ok());
  EXPECT_LT(written.value(), original.size() / 50);
}

TEST(DeltaRleTest, SmoothWalkApproachesOneBytePerSample) {
  // Deltas in [-5, 5] zigzag into single varint bytes: the encoded size is
  // ~1 byte per 2-byte sample plus RLE literal-token overhead (1 per 127).
  const Bytes original = make_u16_field(100000, 2, 1);
  Bytes compressed(delta_rle_compress_bound(original.size()));
  auto written = delta_rle_compress(original, compressed);
  ASSERT_TRUE(written.ok());
  EXPECT_LT(written.value(), original.size() * 52 / 100);
}

TEST(DeltaRleTest, FuzzDecodeNeverCrashes) {
  Rng rng(31);
  for (int iter = 0; iter < 500; ++iter) {
    Bytes garbage(rng.next_below(256));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    Bytes out(500);
    (void)delta_rle_decompress(garbage, out);
  }
  SUCCEED();
}

// ---------------------------------------------------------------- registry

TEST(CodecRegistryTest, LookupById) {
  ASSERT_NE(codec_by_id(CodecId::kNull), nullptr);
  ASSERT_NE(codec_by_id(CodecId::kLz4), nullptr);
  ASSERT_NE(codec_by_id(CodecId::kDeltaRle), nullptr);
  ASSERT_NE(codec_by_id(CodecId::kLz4Hc), nullptr);
  EXPECT_EQ(codec_by_id(static_cast<CodecId>(200)), nullptr);
}

TEST(CodecRegistryTest, LookupByName) {
  EXPECT_EQ(codec_by_name("lz4")->id(), CodecId::kLz4);
  EXPECT_EQ(codec_by_name("null")->id(), CodecId::kNull);
  EXPECT_EQ(codec_by_name("delta_rle")->id(), CodecId::kDeltaRle);
  EXPECT_EQ(codec_by_name("lz4hc")->id(), CodecId::kLz4Hc);
  EXPECT_EQ(codec_by_name("zstd"), nullptr);
}

TEST(CodecRegistryTest, IdsAndNamesAreConsistent) {
  for (const Codec* codec : all_codecs()) {
    EXPECT_EQ(codec_by_id(codec->id()), codec);
    EXPECT_EQ(codec_by_name(codec->name()), codec);
  }
}

// Property: every registered codec round-trips every corpus class.
class AllCodecsRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t, int>> {};

TEST_P(AllCodecsRoundTrip, Identity) {
  const auto [name, size, entropy] = GetParam();
  const Codec* codec = codec_by_name(name);
  ASSERT_NE(codec, nullptr);
  const Bytes original = make_corpus(size, entropy, size * 31 + entropy);

  Bytes compressed(codec->max_compressed_size(original.size()));
  auto written = codec->compress(original, compressed);
  ASSERT_TRUE(written.ok()) << written.status().to_string();
  compressed.resize(written.value());

  Bytes decoded(original.size());
  auto produced = codec->decompress(compressed, decoded);
  ASSERT_TRUE(produced.ok()) << produced.status().to_string();
  EXPECT_EQ(produced.value(), original.size());
  EXPECT_EQ(decoded, original);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllCodecsRoundTrip,
    ::testing::Combine(::testing::Values("null", "lz4", "delta_rle", "lz4hc"),
                       ::testing::Values(0, 1, 100, 4096, 100000),
                       ::testing::Values(0, 2, 4, 5)));

// ---------------------------------------------------------------- lz4hc

class Lz4HcRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, std::uint64_t>> {};

TEST_P(Lz4HcRoundTrip, CompressDecompressIdentity) {
  const auto [size, entropy, seed] = GetParam();
  const Bytes original = make_corpus(size, entropy, seed);
  const Bytes compressed = lz4hc_compress(original);
  EXPECT_LE(compressed.size(), lz4_compress_bound(original.size()));
  auto decoded = lz4_decompress(compressed, original.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), original);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, Lz4HcRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 12, 13, 1000, 65537, 1 << 19),
                       ::testing::Values(0, 1, 2, 3, 4, 5), ::testing::Values(7)));

TEST(Lz4HcTest, NeverWorseRatioThanFastModeOnCompressibleData) {
  for (const int entropy : {1, 2, 3, 4}) {
    const Bytes original = make_corpus(1 << 18, entropy, entropy + 11);
    const Bytes fast = lz4_compress(original);
    const Bytes hc = lz4hc_compress(original);
    EXPECT_LE(hc.size(), fast.size()) << "entropy class " << entropy;
  }
}

TEST(Lz4HcTest, DeeperChainsNeverHurtRatio) {
  const Bytes original = make_corpus(1 << 18, 3, 5);
  const Bytes shallow = lz4hc_compress(original, /*max_chain=*/2);
  const Bytes deep = lz4hc_compress(original, /*max_chain=*/256);
  EXPECT_LE(deep.size(), shallow.size());
}

TEST(Lz4HcTest, OutputDecodesWithTheSharedDecoder) {
  // HC output is spec-format: the fast decoder consumes it with no flags.
  const Bytes original = make_corpus(100000, 4, 9);
  Bytes out(original.size());
  auto produced = lz4_decompress_block(lz4hc_compress(original), out);
  ASSERT_TRUE(produced.ok());
  EXPECT_EQ(produced.value(), original.size());
  EXPECT_EQ(out, original);
}

TEST(Lz4HcTest, DestinationTooSmallIsResourceExhausted) {
  const Bytes original = make_corpus(4096, 5, 1);
  Bytes tiny(16);
  auto written = lz4hc_compress_block(original, tiny);
  ASSERT_FALSE(written.ok());
  EXPECT_EQ(written.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------- frame

TEST(FrameTest, RoundTripLz4) {
  const Bytes raw = make_corpus(100000, 1, 1);
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), raw);
  EXPECT_LT(frame.size(), raw.size());  // compressible input actually shrank
  auto decoded = decode_frame_content(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), raw);
}

TEST(FrameTest, IncompressibleFallsBackToNullCodec) {
  const Bytes raw = make_corpus(4096, 5, 1);
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), raw);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(CodecId::kNull));
  EXPECT_EQ(frame[5], kFrameFlagSealed);  // a stored frame is sealed
  EXPECT_EQ(frame.size(), kFrameHeaderSize + raw.size());
  auto decoded = decode_frame_content(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), raw);
}

TEST(FrameTest, EmptyContent) {
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), {});
  auto decoded = decode_frame_content(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(FrameTest, HeaderFieldsAreCorrect) {
  const Bytes raw = make_corpus(5000, 1, 2);
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), raw);
  ASSERT_TRUE(decode_frame_content(frame).ok());
  const ByteSpan payload = ByteSpan(frame).subspan(kFrameHeaderSize);
  EXPECT_EQ(load_le32(frame.data()), kFrameMagic);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(CodecId::kLz4));
  EXPECT_EQ(frame[5], kFrameFlagSealed);  // a compressed frame is sealed too
  EXPECT_EQ(load_le64(frame.data() + 8), raw.size());
  EXPECT_EQ(load_le64(frame.data() + 16), payload.size());
  EXPECT_EQ(load_le32(frame.data() + 24), static_cast<std::uint32_t>(xxhash64(payload)));
  EXPECT_EQ(load_le32(frame.data() + 28), static_cast<std::uint32_t>(xxhash64(raw)));
}

TEST(FrameTest, StoredFrameIsSealedWithOneXxHash64) {
  const Bytes raw = make_corpus(5000, 1, 2);
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kNull), raw);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(CodecId::kNull));
  EXPECT_EQ(frame[5], kFrameFlagSealed);
  EXPECT_EQ(load_le64(frame.data() + 8), raw.size());
  EXPECT_EQ(load_le64(frame.data() + 16), raw.size());
  EXPECT_EQ(load_le32(frame.data() + 24), static_cast<std::uint32_t>(xxhash64(raw)));
  EXPECT_EQ(load_le32(frame.data() + 28), static_cast<std::uint32_t>(xxhash64(raw) >> 32));
  EXPECT_TRUE(frame_sealed(frame));
  const ByteSpan header = ByteSpan(frame).first(kFrameHeaderSize);
  EXPECT_TRUE(seal_intact(header, raw));

  // The seal is checked on decode, all 64 bits of it: a payload whose low
  // word still matches fails on the high word.
  Bytes flipped = frame;
  flipped[kFrameHeaderSize + 2500] ^= 0x08;
  EXPECT_FALSE(seal_intact(header, ByteSpan(flipped).subspan(kFrameHeaderSize)));
  EXPECT_EQ(decode_frame_content(flipped).status().message(),
            "frame: payload checksum mismatch");
  Bytes high_word = frame;
  high_word[28] ^= 0x01;
  EXPECT_FALSE(seal_intact(ByteSpan(high_word).first(kFrameHeaderSize), raw));
  EXPECT_EQ(decode_frame_content(high_word).status().message(),
            "frame: payload checksum mismatch");

  // Relabelled as LZ4, the stored frame passes the 32-bit payload check
  // (its low word is the same) and fails in the decoder.
  Bytes relabelled = frame;
  relabelled[4] = static_cast<std::uint8_t>(CodecId::kLz4);
  EXPECT_EQ(decode_frame_content(relabelled).status().code(), StatusCode::kDataLoss);
}

// A compressed frame is sealed with the low words of two xxhash64s: of the
// payload, checked on receipt (or by a verifying decode), and of the
// content, checked after decompression by every decode.
TEST(FrameTest, CompressedFrameIsSealedWithTwoXxHash64Words) {
  const Bytes raw = make_corpus(20000, 1, 3);
  const SplitFrame frame = encode_frame_split(*codec_by_id(CodecId::kLz4), raw);
  ASSERT_EQ(frame.header[4], static_cast<std::uint8_t>(CodecId::kLz4));
  ASSERT_LT(frame.payload.size(), raw.size());
  EXPECT_EQ(frame.payload.capacity(), frame.payload.size());  // right-sized
  EXPECT_TRUE(frame_sealed(frame.header));
  EXPECT_TRUE(seal_intact(frame.header, frame.payload));
  for (const SealCheck check : {SealCheck::kVerify, SealCheck::kAlreadyVerified}) {
    auto decoded = decode_frame_split(frame.header, frame.payload, check);
    ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
    EXPECT_EQ(decoded.value(), raw);
  }

  // A flipped payload fails its seal. Told the receipt verified it, the
  // decode skips that pass, and the content check or the decoder still
  // refuses the result.
  for (const std::size_t at : {std::size_t{0}, frame.payload.size() / 2,
                               frame.payload.size() - 1}) {
    Bytes payload = frame.payload;
    payload[at] ^= 0x04;
    EXPECT_FALSE(seal_intact(frame.header, payload)) << at;
    EXPECT_EQ(decode_frame_split(frame.header, payload).status().message(),
              "frame: payload checksum mismatch")
        << at;
    const auto trusted = decode_frame_split(frame.header, payload, SealCheck::kAlreadyVerified);
    ASSERT_FALSE(trusted.ok()) << at;
    EXPECT_EQ(trusted.status().code(), StatusCode::kDataLoss) << at;
  }

  // Each hash field is checked where it belongs: the payload word by the
  // seal, the content word after decompression.
  FrameHeader payload_field = frame.header;
  payload_field[24] ^= 0x01;
  EXPECT_FALSE(seal_intact(payload_field, frame.payload));
  EXPECT_EQ(decode_frame_split(payload_field, frame.payload).status().message(),
            "frame: payload checksum mismatch");
  FrameHeader content_field = frame.header;
  content_field[28] ^= 0x01;
  EXPECT_TRUE(seal_intact(content_field, frame.payload));
  for (const SealCheck check : {SealCheck::kVerify, SealCheck::kAlreadyVerified}) {
    EXPECT_EQ(decode_frame_split(content_field, frame.payload, check).status().message(),
              "frame: content checksum mismatch after decompression");
  }

  // Every header byte's top bit flipped: each field's check refuses it
  // (a raw size of 2^23 + 20000 fails as a decoded-size mismatch).
  for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
    FrameHeader flipped = frame.header;
    flipped[i] ^= 0x80;
    const auto decoded = decode_frame_split(flipped, frame.payload);
    EXPECT_FALSE(decoded.ok()) << "header byte " << i;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << "header byte " << i;
  }
}

// Compat: the unsealed compressed frame every earlier writer produced
// (flags 0, xxhash32 of payload and content) still decodes, both fields
// checked by xxhash32.
TEST(FrameTest, UnsealedCompressedFrameStillDecodes) {
  const Bytes raw = make_corpus(20000, 1, 4);
  SplitFrame frame = encode_frame_split(*codec_by_id(CodecId::kLz4), raw);
  frame.header[5] = 0;
  store_le32(frame.header.data() + 24, xxhash32(frame.payload));
  store_le32(frame.header.data() + 28, xxhash32(raw));
  EXPECT_FALSE(frame_sealed(frame.header));
  auto decoded = decode_frame_split(frame.header, frame.payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), raw);

  Bytes payload = frame.payload;
  payload[7] ^= 0x02;
  EXPECT_EQ(decode_frame_split(frame.header, payload).status().message(),
            "frame: payload checksum mismatch");
  FrameHeader content_field = frame.header;
  content_field[29] ^= 0x02;
  EXPECT_EQ(decode_frame_split(content_field, frame.payload).status().message(),
            "frame: content checksum mismatch after decompression");
}

TEST(FrameTest, BadMagicRejected) {
  Bytes frame = encode_frame(*codec_by_id(CodecId::kNull), make_corpus(64, 1, 1));
  frame[0] ^= 0xFF;
  const Status status = decode_frame_content(frame).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message().rfind("frame: bad magic (got ", 0), 0U) << status.message();
}

TEST(FrameTest, PayloadCorruptionDetected) {
  Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), make_corpus(8192, 1, 1));
  frame[kFrameHeaderSize + 5] ^= 0x40;
  const Status status = decode_frame_content(frame).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "frame: payload checksum mismatch");
}

TEST(FrameTest, TruncationDetected) {
  const Bytes frame = encode_frame(*codec_by_id(CodecId::kLz4), make_corpus(8192, 1, 1));
  const std::string payload_size = std::to_string(frame.size() - kFrameHeaderSize);
  const std::pair<std::size_t, std::string> cuts[] = {
      {0, "byte stream truncated"},
      {10, "byte stream truncated"},
      {kFrameHeaderSize,
       "frame: payload size " + payload_size + " does not match remaining 0 bytes"},
      {frame.size() - 1, "frame: payload size " + payload_size +
                             " does not match remaining " +
                             std::to_string(frame.size() - kFrameHeaderSize - 1) + " bytes"},
  };
  for (const auto& [cut, text] : cuts) {
    Bytes truncated(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(cut));
    const Status status = decode_frame_content(truncated).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << "cut=" << cut;
    EXPECT_EQ(status.message(), text) << "cut=" << cut;
  }
}

TEST(FrameTest, UnknownCodecRejected) {
  Bytes frame = encode_frame(*codec_by_id(CodecId::kNull), make_corpus(64, 1, 1));
  frame[4] = 99;  // codec id byte
  const Status status = decode_frame_content(frame).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "frame: unknown codec id 99");
}

TEST(FrameTest, FuzzDecodeNeverCrashes) {
  Rng rng(555);
  for (int iter = 0; iter < 1000; ++iter) {
    Bytes garbage(rng.next_below(200));
    for (auto& b : garbage) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    (void)decode_frame_content(garbage);
  }

  // Valid frames of every codec id with one header field rewritten. The
  // header is not covered by the payload hash, so each of these reaches the
  // decoder with an intact payload; none may throw (an oversized raw size
  // used to end in bad_alloc / length_error), and every failure is DATA_LOSS.
  constexpr std::uint64_t kHuge[] = {kMaxFrameRawSize + 1, 1ULL << 40, ~0ULL};
  const Bytes raw = make_u16_field(3000, 0, 9);
  for (const Codec* codec : all_codecs()) {
    const Bytes frame = encode_frame(*codec, raw);
    ASSERT_EQ(frame[4], static_cast<std::uint8_t>(codec->id())) << codec->name();
    const std::uint64_t payload_size = frame.size() - kFrameHeaderSize;
    std::vector<Bytes> mutants;
    const auto with = [&](std::size_t offset, std::size_t width, std::uint64_t value) {
      Bytes m = frame;
      for (std::size_t i = 0; i < width; ++i) {
        m[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
      }
      mutants.push_back(std::move(m));
    };
    for (const std::uint64_t id : {0, 1, 2, 3, 200}) {
      with(4, 1, id);
    }
    with(5, 1, 1);       // flags
    with(6, 2, 0x8000);  // reserved
    for (const std::uint64_t size : {std::uint64_t{0}, raw.size() - 1, raw.size() + 1,
                                     payload_size, kHuge[0], kHuge[1], kHuge[2]}) {
      with(8, 8, size);   // raw size
      with(16, 8, size);  // payload size
    }
    with(24, 4, load_le32(frame.data() + 24) ^ 1U);  // payload hash
    with(28, 4, load_le32(frame.data() + 28) ^ 1U);  // content hash
    for (const Bytes& m : mutants) {
      Result<Bytes> decoded = data_loss_error("not run");
      EXPECT_NO_THROW(decoded = decode_frame_content(m)) << codec->name();
      if (!decoded.ok()) {
        EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << codec->name();
      }
    }
    // Raw sizes the header check itself must refuse; a stored payload is its
    // raw content, so a null frame's raw size is exact.
    std::vector<std::uint64_t> refused(std::begin(kHuge), std::end(kHuge));
    if (codec->id() == CodecId::kNull) {
      refused.insert(refused.end(), {payload_size - 1, payload_size + 1});
    }
    for (const std::uint64_t raw_size : refused) {
      Bytes m = frame;
      store_le64(m.data() + 8, raw_size);
      auto decoded = decode_frame_content(m);
      ASSERT_FALSE(decoded.ok()) << codec->name() << " raw_size " << raw_size;
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(decoded.status().message(),
                "frame: raw size " + std::to_string(raw_size) + " out of bounds for a " +
                    std::to_string(payload_size) + "-byte payload")
          << codec->name();
    }
  }
}

}  // namespace
}  // namespace numastream
