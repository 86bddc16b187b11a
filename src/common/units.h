// Unit helpers shared by the runtime, the simulator and the benchmarks.
//
// Throughputs in this codebase are carried as double "bytes per second" and
// only converted to Gbps/GiB at presentation boundaries, mirroring how the
// paper reports its results (network figures in Gbps, codec figures in GB/s).
#pragma once

#include <cstdint>
#include <string>

namespace numastream {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// The paper's unit of streaming work: one X-ray projection of
/// 2048 x 2700 uint16 pixels = 11.0592 MB exactly.
inline constexpr std::uint64_t kProjectionChunkBytes = 11'059'200ULL;

/// Decimal gigabit per second expressed in bytes per second.
inline constexpr double kGbpsInBytesPerSec = 1e9 / 8.0;

constexpr double gbps_to_bytes_per_sec(double gbps) noexcept {
  return gbps * kGbpsInBytesPerSec;
}

constexpr double bytes_per_sec_to_gbps(double bytes_per_sec) noexcept {
  return bytes_per_sec / kGbpsInBytesPerSec;
}

/// "12.34 Gbps" with two decimals; for log lines and bench tables.
std::string format_gbps(double bytes_per_sec);

/// "1.23 GiB" / "45.6 MiB" / "789 B" — picks the largest sensible unit.
std::string format_bytes(std::uint64_t bytes);

}  // namespace numastream
