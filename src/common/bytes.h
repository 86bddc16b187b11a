// Byte-buffer utilities: endian-stable integer packing and a growable byte
// sink used by the codec frame writer and the wire protocol.
//
// All on-disk and on-wire formats in numastream are little-endian regardless
// of host order, written through these helpers so the format is defined in
// exactly one place.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/status.h"

namespace numastream {

using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;
using MutableByteSpan = std::span<std::uint8_t>;

// ---- unchecked little-endian stores/loads (caller guarantees bounds) ----
//
// On little-endian hosts each helper is one unaligned memcpy, which compilers
// lower to a single load or store; GCC keeps the portable byte loops as loops
// at -O2, and these helpers run on every LZ4 hash probe and xxHash stripe.
// Big-endian hosts take the byte-loop path.

namespace detail {
template <typename T>
inline T load_le(const std::uint8_t* src) noexcept {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, src, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (T{src[i]} << (8 * i)));
    }
  }
  return v;
}
template <typename T>
inline void store_le(std::uint8_t* dst, T v) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}
}  // namespace detail

inline void store_le16(std::uint8_t* dst, std::uint16_t v) noexcept {
  detail::store_le(dst, v);
}
inline void store_le32(std::uint8_t* dst, std::uint32_t v) noexcept {
  detail::store_le(dst, v);
}
inline void store_le64(std::uint8_t* dst, std::uint64_t v) noexcept {
  detail::store_le(dst, v);
}

inline std::uint16_t load_le16(const std::uint8_t* src) noexcept {
  return detail::load_le<std::uint16_t>(src);
}
inline std::uint32_t load_le32(const std::uint8_t* src) noexcept {
  return detail::load_le<std::uint32_t>(src);
}
inline std::uint64_t load_le64(const std::uint8_t* src) noexcept {
  return detail::load_le<std::uint64_t>(src);
}

/// Appends little-endian encoded values and raw spans to a Bytes vector.
/// Used by every format writer in the codebase.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) noexcept : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 2);
    store_le16(out_.data() + n, v);
  }
  void u32(std::uint32_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 4);
    store_le32(out_.data() + n, v);
  }
  void u64(std::uint64_t v) {
    const std::size_t n = out_.size();
    out_.resize(n + 8);
    store_le64(out_.data() + n, v);
  }
  void raw(ByteSpan data) { out_.insert(out_.end(), data.begin(), data.end()); }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

 private:
  Bytes& out_;
};

/// Bounds-checked sequential reader over a byte span. Every read reports
/// truncation through Status instead of invoking undefined behaviour, so
/// format decoders can be driven with corrupt/adversarial input in tests.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) noexcept : data_(data) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  Status u8(std::uint8_t& v) noexcept {
    if (remaining() < 1) return truncated();
    v = data_[pos_++];
    return Status::ok();
  }
  Status u16(std::uint16_t& v) noexcept {
    if (remaining() < 2) return truncated();
    v = load_le16(data_.data() + pos_);
    pos_ += 2;
    return Status::ok();
  }
  Status u32(std::uint32_t& v) noexcept {
    if (remaining() < 4) return truncated();
    v = load_le32(data_.data() + pos_);
    pos_ += 4;
    return Status::ok();
  }
  Status u64(std::uint64_t& v) noexcept {
    if (remaining() < 8) return truncated();
    v = load_le64(data_.data() + pos_);
    pos_ += 8;
    return Status::ok();
  }
  /// Returns a view of the next `n` bytes and advances past them.
  Status raw(std::size_t n, ByteSpan& out) noexcept {
    if (remaining() < n) return truncated();
    out = data_.subspan(pos_, n);
    pos_ += n;
    return Status::ok();
  }
  Status skip(std::size_t n) noexcept {
    if (remaining() < n) return truncated();
    pos_ += n;
    return Status::ok();
  }

 private:
  static Status truncated() {
    return data_loss_error("byte stream truncated");
  }

  ByteSpan data_;
  std::size_t pos_ = 0;
};

/// Constant-size hex rendering of a byte span prefix (for error messages).
std::string hex_preview(ByteSpan data, std::size_t max_bytes = 16);

}  // namespace numastream
