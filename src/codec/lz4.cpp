#include "codec/lz4.h"

#include <bit>
#include <cstring>

namespace numastream {
namespace {

// Format constants from the LZ4 block specification.
constexpr std::size_t kMinMatch = 4;          // shortest encodable match
constexpr std::size_t kMfLimit = 12;          // last match starts >= 12 bytes from end
constexpr std::size_t kLastLiterals = 5;      // final 5 bytes are always literals
constexpr std::size_t kMaxOffset = 65535;     // 16-bit match offset
constexpr unsigned kTokenMax = 15;            // nibble saturation value

// The fast compressor's match table: 2^13 16-bit entries, 16 KiB, so it
// stays in L1 next to the data it probes. The hash covers 6 bytes (the low
// 48 bits of an 8-byte load, with liblz4's 6-byte prime), so a slot is
// shared only by windows alike in 6 bytes: on tomography projections that
// finds longer matches than a 4-byte hash, about 30% fewer sequences per
// block, which also makes the block faster to decode.
constexpr int kFastHashLog = 13;
constexpr std::uint64_t kPrime6Bytes = 227718039650203ULL;

inline std::uint32_t hash6(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(((value << 16) * kPrime6Bytes) >> (64 - kFastHashLog));
}

// HC's chain heads: 2^16 entries over 4-byte windows.
constexpr int kHcHashLog = 16;
constexpr std::uint32_t kHashMultiplier = 2654435761U;  // Knuth multiplicative

inline std::uint32_t hash4(std::uint32_t value) noexcept {
  return (value * kHashMultiplier) >> (32 - kHcHashLog);
}

// Emits an LZ4 length using the 15 + 255* + remainder scheme.
// Returns false if dst space ran out.
inline bool emit_length(std::size_t value, std::uint8_t*& op,
                        const std::uint8_t* const oend) noexcept {
  while (value >= 255) {
    if (op >= oend) {
      return false;
    }
    *op++ = 255;
    value -= 255;
  }
  if (op >= oend) {
    return false;
  }
  *op++ = static_cast<std::uint8_t>(value);
  return true;
}

// Length of the common run of `p` and `match`, stopping at `limit` (p's
// bound; match < p, so it stays in bounds too). Compares 8 bytes per step:
// the lowest set bit of the XOR of two little-endian words marks the first
// differing byte.
inline std::size_t match_length(const std::uint8_t* p, const std::uint8_t* match,
                                const std::uint8_t* const limit) noexcept {
  const std::uint8_t* const start = p;
  while (limit - p >= 8) {
    const std::uint64_t diff = load_le64(p) ^ load_le64(match);
    if (diff != 0) {
      return static_cast<std::size_t>(p - start) +
             static_cast<std::size_t>(std::countr_zero(diff) >> 3);
    }
    p += 8;
    match += 8;
  }
  while (p < limit && *p == *match) {
    ++p;
    ++match;
  }
  return static_cast<std::size_t>(p - start);
}

// Block copies run up to 15 bytes past the copied range, so they are used
// only where both the source and the destination have this much room left
// beyond it; elsewhere copies are exact.
constexpr std::size_t kWildSlack = 16;

// Copies [src, src + n) to dst in `Step`-byte blocks, writing (and reading)
// up to Step - 1 bytes past the end. Blocks never overlap when dst - src >=
// Step, which is what makes the 8-byte form a valid LZ4 match copy.
template <std::size_t Step>
inline void wild_copy(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n) noexcept {
  std::uint8_t* const end = dst + n;
  do {
    std::memcpy(dst, src, Step);
    dst += Step;
    src += Step;
  } while (dst < end);
}

// Offsets 1-7 overlap within an 8-byte block. Writes op[0, 8) from the
// pattern at op - offset and returns the source re-based to a distance
// from op + 8 that is a multiple of the offset and at least 8, from which
// 8-byte block copies are safe (the table pair LZ4's reference decoder
// uses).
inline const std::uint8_t* expand_pattern(std::uint8_t* op, std::size_t offset) noexcept {
  static constexpr std::size_t kInc[8] = {0, 1, 2, 1, 0, 4, 4, 4};
  static constexpr std::ptrdiff_t kDec[8] = {0, 0, 0, -1, -4, 1, 2, 3};
  const std::uint8_t* match = op - offset;
  op[0] = match[0];
  op[1] = match[1];
  op[2] = match[2];
  op[3] = match[3];
  match += kInc[offset];
  std::memcpy(op + 4, match, 4);
  return match - kDec[offset];
}

// Match copy for the decoder's fast path (output has kWildSlack bytes of room
// past op + len): 8-byte blocks, after a pattern expansion for offsets 1-7.
inline void copy_match_fast(std::uint8_t* op, std::size_t offset,
                            std::size_t len) noexcept {
  if (offset >= 8) {
    wild_copy<8>(op, op - offset, len);
    return;
  }
  const std::uint8_t* const match = expand_pattern(op, offset);
  if (len > 8) {
    wild_copy<8>(op + 8, match, len - 8);
  }
}

// Appends sequences to a compressor's output; each call returns false when
// dst is too small. Shared by the fast and HC compressors.
class SequenceWriter {
 public:
  SequenceWriter(MutableByteSpan dst, const std::uint8_t* src_end) noexcept
      : start_(dst.data()), op_(dst.data()), oend_(dst.data() + dst.size()),
        src_end_(src_end) {}

  /// Literal run [anchor, lit_end) followed by a match.
  bool sequence(const std::uint8_t* anchor, const std::uint8_t* lit_end,
                std::size_t offset, std::size_t match_len) noexcept {
    std::uint8_t* const token = op_;
    if (!literals(anchor, lit_end) || oend_ - op_ < 2) {
      return false;
    }
    store_le16(op_, static_cast<std::uint16_t>(offset));
    op_ += 2;
    const std::size_t stored = match_len - kMinMatch;  // stored as length - 4
    if (stored >= kTokenMax) {
      *token |= static_cast<std::uint8_t>(kTokenMax);
      return emit_length(stored - kTokenMax, op_, oend_);
    }
    *token |= static_cast<std::uint8_t>(stored);
    return true;
  }

  /// The closing literal-only sequence [anchor, end of input).
  bool last_literals(const std::uint8_t* anchor) noexcept {
    return literals(anchor, src_end_);
  }

  [[nodiscard]] std::size_t written() const noexcept {
    return static_cast<std::size_t>(op_ - start_);
  }

 private:
  // The token (its literal half) and the literal run.
  bool literals(const std::uint8_t* anchor, const std::uint8_t* lit_end) noexcept {
    const std::size_t lit_len = static_cast<std::size_t>(lit_end - anchor);
    if (op_ >= oend_) {
      return false;
    }
    std::uint8_t* const token = op_++;
    if (lit_len >= kTokenMax) {
      *token = static_cast<std::uint8_t>(kTokenMax << 4);
      if (!emit_length(lit_len - kTokenMax, op_, oend_)) {
        return false;
      }
    } else {
      *token = static_cast<std::uint8_t>(lit_len << 4);
    }
    const std::size_t room = static_cast<std::size_t>(oend_ - op_);
    if (room < lit_len) {
      return false;
    }
    // Runs are mostly a few bytes; a block copy avoids a memcpy call.
    if (room - lit_len >= kWildSlack &&
        static_cast<std::size_t>(src_end_ - lit_end) >= kWildSlack) {
      wild_copy<16>(op_, anchor, lit_len);
    } else if (lit_len > 0) {
      std::memcpy(op_, anchor, lit_len);
    }
    op_ += lit_len;
    return true;
  }

  std::uint8_t* const start_;
  std::uint8_t* op_;
  const std::uint8_t* const oend_;
  const std::uint8_t* const src_end_;
};

Status overflow(const char* codec) {
  return resource_exhausted_error(std::string(codec) + ": destination buffer too small");
}

}  // namespace

// 64-byte aligned: the compressor's speed must not depend on link placement.
[[gnu::aligned(64)]] Result<std::size_t> lz4_compress_block(ByteSpan src,
                                                             MutableByteSpan dst) {
  const std::uint8_t* const base = src.data();
  const std::size_t src_size = src.size();
  if (src_size == 0) {
    return std::size_t{0};
  }
  SequenceWriter out(dst, base + src_size);
  const std::uint8_t* anchor = base;

  // Inputs too small to ever contain a legal match are a single literal run.
  if (src_size >= kMfLimit + 1) {
    // Match table: each entry holds the low 16 bits of a position. A probe
    // at position p recovers the candidate's distance as d = uint16(p -
    // entry) and takes the candidate at ip - d. d == 0 means the entry is
    // empty (p == 0) or exactly 65536 bytes back, so it is rejected. Every
    // other d, 1-65535, is a legal offset, and the candidate is never before
    // src: below 64 KiB every entry is an earlier position or the table's
    // zero fill (d = p, candidate = src), and from 64 KiB on ip - d > src.
    // An entry older than the window aliases to a nearer position; the
    // 4-byte compare rejects it unless that position really matches, and
    // any real match inside the window is a legal one.
    std::uint16_t table[std::size_t{1} << kFastHashLog] = {};
    const auto position = [base](const std::uint8_t* p) {
      return static_cast<std::uint16_t>(p - base);
    };

    const std::uint8_t* ip = base;
    const std::uint8_t* const mflimit = base + src_size - kMfLimit;
    const std::uint8_t* const matchlimit = base + src_size - kLastLiterals;

    // Skip acceleration (LZ4's fast-mode heuristic): after every 64 failed
    // probes the scan step grows by one, so incompressible regions are
    // crossed in O(n/step) probes instead of stalling the compressor at one
    // hash lookup per byte. Any match resets the step to 1.
    constexpr unsigned kSkipTrigger = 6;
    unsigned search_count = 1U << kSkipTrigger;

    // ip < mflimit, 12 bytes before the end, keeps every 8-byte hash load
    // inside src.
    while (ip < mflimit) {
      const std::uint64_t window = load_le64(ip);
      const std::uint32_t h = hash6(window);
      const std::uint16_t distance = static_cast<std::uint16_t>(position(ip) - table[h]);
      table[h] = position(ip);
      const std::uint8_t* const candidate = ip - distance;

      if (distance == 0 || load_le32(candidate) != static_cast<std::uint32_t>(window)) {
        ip += search_count++ >> kSkipTrigger;
        continue;
      }
      search_count = 1U << kSkipTrigger;

      // Extend the match backward over pending literals.
      const std::uint8_t* match = candidate;
      while (ip > anchor && match > base && ip[-1] == match[-1]) {
        --ip;
        --match;
      }

      // Extend forward (first 4 bytes already verified when not backed up;
      // after backing up the verified region only grew).
      const std::size_t match_len =
          kMinMatch + match_length(ip + kMinMatch, match + kMinMatch, matchlimit);
      if (!out.sequence(anchor, ip, static_cast<std::size_t>(ip - match), match_len)) {
        return overflow("lz4");
      }
      ip += match_len;
      anchor = ip;

      // Seed the table near the match end so the next search can chain into
      // data we just skipped over.
      if (ip - 2 > base && ip < mflimit) {
        table[hash6(load_le64(ip - 2))] = position(ip - 2);
      }
    }
  }

  if (!out.last_literals(anchor)) {
    return overflow("lz4");
  }
  return out.written();
}

Result<std::size_t> lz4_decompress_block(ByteSpan src, MutableByteSpan dst) {
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

  // Reads an extended length; fails on truncation or absurd accumulation.
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
          return false;  // cannot be a valid length for these buffers
        }
      } while (byte == 255);
    }
    out = len;
    return true;
  };

  // Every sequence passes all checks first; only the copy strategy differs
  // between the fast path (block copies into >= kWildSlack bytes of room)
  // and the checked tail path (exact copies near the end of either buffer).
  while (ip < iend) {
    const std::uint8_t token = *ip++;

    // Short sequence: both nibbles below 15, so no length bytes follow, the
    // literal run is at most 14 bytes and the match 4-18. With at least
    // kShortIn input bytes after the token, the literals, the 2-byte offset
    // and kWildSlack more lie inside the input: the run is not the last
    // sequence, the offset is not truncated, and the 16-byte literal copy
    // reads in bounds. With at least kShortOut output bytes, the 16-byte
    // literal copy and an 18-byte match copy from op + 14 end by op + 32,
    // and a pattern expansion plus two 8-byte blocks by op + 38: inside the
    // output with kWildSlack to spare, so neither run can pass its end. A
    // valid offset is the one remaining check; a sequence that fails any of
    // these takes the general path below, which reports exactly what it
    // would have.
    constexpr std::size_t kShortIn = 16 + 2 + kWildSlack;
    constexpr std::size_t kShortOut = 32 + kWildSlack;
    const std::size_t short_lits = token >> 4;
    const std::size_t short_match = token & 0x0F;
    if (short_lits < kTokenMax && short_match < kTokenMax &&
        static_cast<std::size_t>(iend - ip) >= kShortIn &&
        static_cast<std::size_t>(oend - op) >= kShortOut) {
      const std::size_t offset = load_le16(ip + short_lits);
      if (offset != 0 && offset <= static_cast<std::size_t>(op - dst.data()) + short_lits) {
        std::memcpy(op, ip, 16);
        op += short_lits;
        ip += short_lits + 2;
        if (offset >= 8) {
          // Three sequential block copies, each at least 8 bytes behind its
          // destination: an overlapping match reads what the copy before
          // it wrote, which is LZ4's defined semantics.
          const std::uint8_t* const match = op - offset;
          std::memcpy(op, match, 8);
          std::memcpy(op + 8, match + 8, 8);
          std::memcpy(op + 16, match + 16, 2);
        } else {
          const std::uint8_t* const match = expand_pattern(op, offset);
          std::memcpy(op + 8, match, 8);
          std::memcpy(op + 16, match + 8, 8);
        }
        op += short_match + kMinMatch;
        continue;
      }
    }

    // Literals.
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
    if (static_cast<std::size_t>(iend - ip) - lit_len >= kWildSlack &&
        static_cast<std::size_t>(oend - op) - lit_len >= kWildSlack) {
      wild_copy<16>(op, ip, lit_len);
    } else if (lit_len > 0) {
      std::memcpy(op, ip, lit_len);
    }
    ip += lit_len;
    op += lit_len;

    if (ip == iend) {
      break;  // last sequence carries no match
    }

    // Match offset.
    if (iend - ip < 2) {
      return corrupt("truncated offset");
    }
    const std::uint16_t offset = load_le16(ip);
    ip += 2;
    if (offset == 0) {
      return corrupt("zero offset");
    }
    if (static_cast<std::size_t>(op - dst.data()) < offset) {
      return corrupt("offset reaches before output start");
    }

    // Match length.
    std::size_t match_len = 0;
    if (!read_length(token & 0x0F, match_len)) {
      return corrupt("bad match length");
    }
    match_len += kMinMatch;
    if (static_cast<std::size_t>(oend - op) < match_len) {
      return corrupt("match past end of output");
    }

    if (static_cast<std::size_t>(oend - op) - match_len >= kWildSlack) {
      copy_match_fast(op, offset, match_len);
      op += match_len;
      continue;
    }
    // Tail path. An overlapping copy replicates the pattern byte by byte,
    // which is the defined semantics (offset 1 produces a run).
    const std::uint8_t* match = op - offset;
    if (offset >= 8) {
      std::size_t remaining = match_len;
      while (remaining >= 8) {
        std::memcpy(op, match, 8);
        op += 8;
        match += 8;
        remaining -= 8;
      }
      std::memcpy(op, match, remaining);
      op += remaining;
    } else {
      for (std::size_t i = 0; i < match_len; ++i) {
        *op = *match;
        ++op;
        ++match;
      }
    }
  }

  return static_cast<std::size_t>(op - dst.data());
}

Result<std::size_t> lz4hc_compress_block(ByteSpan src, MutableByteSpan dst,
                                         int max_chain) {
  NS_CHECK(max_chain > 0, "lz4hc needs a positive chain depth");
  const std::uint8_t* const base = src.data();
  const std::size_t src_size = src.size();
  if (src_size == 0) {
    return std::size_t{0};
  }
  SequenceWriter out(dst, base + src_size);
  const std::uint8_t* anchor = base;

  if (src_size >= kMfLimit + 1) {
    // Hash heads + a window-sized chain: chain[p & 0xFFFF] links position p
    // to the previous position with the same hash. Positions further back
    // than the 64 KiB offset limit are unreachable anyway, so the masked
    // chain loses nothing.
    constexpr std::uint32_t kNoPos = 0xFFFFFFFFU;
    std::vector<std::uint32_t> head(std::size_t{1} << kHcHashLog, kNoPos);
    std::vector<std::uint32_t> chain(kMaxOffset + 1, kNoPos);

    const auto insert_position = [&](std::size_t pos) {
      const std::uint32_t h = hash4(load_le32(base + pos));
      chain[pos & kMaxOffset] = head[h];
      head[h] = static_cast<std::uint32_t>(pos);
    };

    const std::uint8_t* ip = base;
    const std::uint8_t* const mflimit = base + src_size - kMfLimit;
    const std::uint8_t* const matchlimit = base + src_size - kLastLiterals;

    while (ip < mflimit) {
      const std::size_t pos = static_cast<std::size_t>(ip - base);
      const std::uint32_t sequence = load_le32(ip);

      // Walk the chain for the longest reachable match.
      const std::uint8_t* best_match = nullptr;
      std::size_t best_len = kMinMatch - 1;
      std::uint32_t candidate = head[hash4(sequence)];
      for (int depth = 0; depth < max_chain && candidate != kNoPos; ++depth) {
        if (pos - candidate > kMaxOffset) {
          break;  // chain has left the window
        }
        const std::uint8_t* cand_ptr = base + candidate;
        if (load_le32(cand_ptr) == sequence) {
          const std::size_t len =
              kMinMatch + match_length(ip + kMinMatch, cand_ptr + kMinMatch, matchlimit);
          if (len > best_len) {
            best_len = len;
            best_match = cand_ptr;
          }
        }
        candidate = chain[candidate & kMaxOffset];
      }
      insert_position(pos);

      if (best_match == nullptr) {
        ++ip;
        continue;
      }

      // Extend backward over pending literals.
      const std::uint8_t* match = best_match;
      while (ip > anchor && match > base && ip[-1] == match[-1]) {
        --ip;
        --match;
        ++best_len;
      }
      if (!out.sequence(anchor, ip, static_cast<std::size_t>(ip - match), best_len)) {
        return overflow("lz4hc");
      }

      // Index every covered position so later matches can chain into it.
      const std::uint8_t* const match_end = ip + best_len;
      for (const std::uint8_t* p = ip + 1; p < match_end && p < mflimit; ++p) {
        insert_position(static_cast<std::size_t>(p - base));
      }
      ip = match_end;
      anchor = ip;
    }
  }

  if (!out.last_literals(anchor)) {
    return overflow("lz4hc");
  }
  return out.written();
}

Bytes lz4hc_compress(ByteSpan src, int max_chain) {
  Bytes out(lz4_compress_bound(src.size()));
  auto written = lz4hc_compress_block(src, out, max_chain);
  NS_CHECK(written.ok(), "lz4hc_compress with a bound-sized buffer cannot fail");
  out.resize(written.value());
  return out;
}

Bytes lz4_compress(ByteSpan src) {
  Bytes out(lz4_compress_bound(src.size()));
  auto written = lz4_compress_block(src, out);
  NS_CHECK(written.ok(), "lz4_compress with a bound-sized buffer cannot fail");
  out.resize(written.value());
  return out;
}

Result<Bytes> lz4_decompress(ByteSpan src, std::size_t raw_size) {
  Bytes out(raw_size);
  auto produced = lz4_decompress_block(src, out);
  if (!produced.ok()) {
    return produced.status();
  }
  if (produced.value() != raw_size) {
    return data_loss_error("lz4: block decoded to " + std::to_string(produced.value()) +
                           " bytes, expected " + std::to_string(raw_size));
  }
  return out;
}

}  // namespace numastream
