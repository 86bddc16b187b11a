// Reference LZ4 block decoder for differential tests: the straightforward
// exact-copy decoder (no block overruns, byte-at-a-time overlapping matches)
// that src/codec/lz4.cpp's fast decoder must agree with on every input —
// same bytes on success, the same DATA_LOSS on malformed input. Test-only,
// so the library keeps exactly one decoder.
#pragma once

#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace numastream {

inline Result<std::size_t> lz4_reference_decompress_block(ByteSpan src,
                                                          MutableByteSpan dst) {
  constexpr std::size_t kMinMatch = 4;
  constexpr std::size_t kTokenMax = 15;

  const std::uint8_t* ip = src.data();
  const std::uint8_t* const iend = ip + src.size();
  std::uint8_t* op = dst.data();
  std::uint8_t* const oend = op + dst.size();

  const auto corrupt = [](const char* what) {
    return data_loss_error(std::string("lz4: malformed block: ") + what);
  };

  if (src.empty()) {
    return std::size_t{0};
  }

  const auto read_length = [&](std::size_t base_len, std::size_t& out) -> bool {
    std::size_t len = base_len;
    if (base_len == kTokenMax) {
      std::uint8_t byte = 0;
      do {
        if (ip >= iend) {
          return false;
        }
        byte = *ip++;
        len += byte;
        if (len > dst.size() + src.size()) {
          return false;
        }
      } while (byte == 255);
    }
    out = len;
    return true;
  };

  while (ip < iend) {
    const std::uint8_t token = *ip++;

    std::size_t lit_len = 0;
    if (!read_length(token >> 4, lit_len)) {
      return corrupt("bad literal length");
    }
    if (static_cast<std::size_t>(iend - ip) < lit_len) {
      return corrupt("literal run past end of input");
    }
    if (static_cast<std::size_t>(oend - op) < lit_len) {
      return corrupt("literal run past end of output");
    }
    for (std::size_t i = 0; i < lit_len; ++i) {
      *op++ = *ip++;
    }

    if (ip == iend) {
      break;
    }

    if (iend - ip < 2) {
      return corrupt("truncated offset");
    }
    const std::uint16_t offset = static_cast<std::uint16_t>(ip[0] | (ip[1] << 8));
    ip += 2;
    if (offset == 0) {
      return corrupt("zero offset");
    }
    if (static_cast<std::size_t>(op - dst.data()) < offset) {
      return corrupt("offset reaches before output start");
    }

    std::size_t match_len = 0;
    if (!read_length(token & 0x0F, match_len)) {
      return corrupt("bad match length");
    }
    match_len += kMinMatch;
    if (static_cast<std::size_t>(oend - op) < match_len) {
      return corrupt("match past end of output");
    }

    const std::uint8_t* match = op - offset;
    for (std::size_t i = 0; i < match_len; ++i) {
      *op++ = *match++;
    }
  }

  return static_cast<std::size_t>(op - dst.data());
}

}  // namespace numastream
