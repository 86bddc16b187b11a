#include <gtest/gtest.h>

#include <set>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/units.h"

namespace numastream {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = data_loss_error("bad frame");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.message(), "bad frame");
  EXPECT_EQ(s.to_string(), "DATA_LOSS: bad frame");
}

TEST(StatusTest, AllConstructorsMapToTheirCode) {
  EXPECT_EQ(invalid_argument_error("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out_of_range_error("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(data_loss_error("x").code(), StatusCode::kDataLoss);
  EXPECT_EQ(unavailable_error("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(resource_exhausted_error("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(internal_error("x").code(), StatusCode::kInternal);
  EXPECT_EQ(unimplemented_error("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(unavailable_error("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.value_or(-1), -1);
}

Status fail_then_return() {
  NS_RETURN_IF_ERROR(internal_error("boom"));
  return Status::ok();
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  EXPECT_EQ(fail_then_return().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowStaysInBound) {
  Rng rng(9);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRangeUniformly) {
  Rng rng(4242);
  std::vector<int> counts(8, 0);
  const int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) {
    counts[rng.next_below(8)]++;
  }
  // Expected 10000 each; a deterministic seed keeps this stable. 5% slack.
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 / 20);
  }
}

TEST(RngTest, NextInRangeInclusiveBounds) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7U);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(77);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, GaussianMomentsLookNormal) {
  Rng rng(31337);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

// ---------------------------------------------------------------- units

TEST(UnitsTest, GbpsRoundTrip) {
  EXPECT_DOUBLE_EQ(gbps_to_bytes_per_sec(8.0), 1e9);
  EXPECT_DOUBLE_EQ(bytes_per_sec_to_gbps(gbps_to_bytes_per_sec(123.4)), 123.4);
}

TEST(UnitsTest, ProjectionChunkIsElevenPointZeroFiveNineTwoMegabytes) {
  // The paper's unit of streaming: 11.0592 MB (decimal).
  EXPECT_EQ(kProjectionChunkBytes, 11059200ULL);
  EXPECT_EQ(kProjectionChunkBytes, 2048ULL * 2700ULL * 2ULL);
}

TEST(UnitsTest, FormatBytesPicksUnits) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(format_bytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(format_bytes(5 * kGiB), "5.00 GiB");
}

TEST(UnitsTest, FormatGbps) {
  EXPECT_EQ(format_gbps(gbps_to_bytes_per_sec(97.0)), "97.00 Gbps");
}

// ---------------------------------------------------------------- bytes

TEST(BytesTest, StoreLoadRoundTrip) {
  std::uint8_t buf[8];
  store_le16(buf, 0xBEEF);
  EXPECT_EQ(load_le16(buf), 0xBEEF);
  store_le32(buf, 0xDEADBEEFU);
  EXPECT_EQ(load_le32(buf), 0xDEADBEEFU);
  store_le64(buf, 0x0123456789ABCDEFULL);
  EXPECT_EQ(load_le64(buf), 0x0123456789ABCDEFULL);
}

TEST(BytesTest, UnalignedStoreLoadRoundTrip) {
  std::uint8_t buf[24] = {};
  for (std::size_t offset = 0; offset < 8; ++offset) {
    std::uint8_t* p = buf + offset;
    store_le16(p, 0xA1B2);
    EXPECT_EQ(load_le16(p), 0xA1B2) << "offset=" << offset;
    EXPECT_EQ(p[0], 0xB2);
    store_le32(p, 0xC1D2E3F4U);
    EXPECT_EQ(load_le32(p), 0xC1D2E3F4U) << "offset=" << offset;
    EXPECT_EQ(p[0], 0xF4);
    EXPECT_EQ(p[3], 0xC1);
    store_le64(p, 0x0102030405060708ULL);
    EXPECT_EQ(load_le64(p), 0x0102030405060708ULL) << "offset=" << offset;
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(p[i], 8 - i) << "offset=" << offset << " byte=" << i;
    }
    EXPECT_EQ(p[8], 0) << "store ran past its word";
    store_le64(p, 0);
  }
}

TEST(BytesTest, LittleEndianLayout) {
  std::uint8_t buf[4];
  store_le32(buf, 0x04030201U);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  Bytes out;
  ByteWriter w(out);
  w.u8(7);
  w.u16(1000);
  w.u32(70000);
  w.u64(1ULL << 40);
  const Bytes blob = {1, 2, 3};
  w.raw(blob);

  ByteReader r(out);
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  std::uint32_t c = 0;
  std::uint64_t d = 0;
  ByteSpan raw;
  ASSERT_TRUE(r.u8(a).is_ok());
  ASSERT_TRUE(r.u16(b).is_ok());
  ASSERT_TRUE(r.u32(c).is_ok());
  ASSERT_TRUE(r.u64(d).is_ok());
  ASSERT_TRUE(r.raw(3, raw).is_ok());
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 1000);
  EXPECT_EQ(c, 70000U);
  EXPECT_EQ(d, 1ULL << 40);
  EXPECT_EQ(raw[2], 3);
  EXPECT_EQ(r.remaining(), 0U);
}

TEST(BytesTest, ReaderReportsTruncation) {
  const Bytes data = {1, 2, 3};
  ByteReader r(data);
  std::uint32_t v = 0;
  EXPECT_EQ(r.u32(v).code(), StatusCode::kDataLoss);
  // A failed read leaves the position untouched, so smaller reads still work.
  std::uint16_t small = 0;
  EXPECT_TRUE(r.u16(small).is_ok());
}

TEST(BytesTest, ReaderSkip) {
  const Bytes data = {1, 2, 3, 4};
  ByteReader r(data);
  ASSERT_TRUE(r.skip(3).is_ok());
  std::uint8_t v = 0;
  ASSERT_TRUE(r.u8(v).is_ok());
  EXPECT_EQ(v, 4);
  EXPECT_FALSE(r.skip(1).is_ok());
}

TEST(BytesTest, HexPreviewTruncates) {
  const Bytes data(32, 0xAB);
  const std::string preview = hex_preview(data, 4);
  EXPECT_EQ(preview, "ab ab ab ab ...");
}

}  // namespace
}  // namespace numastream
