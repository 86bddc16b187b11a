// Small statistics and environment helpers for the benchmark.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace rtbench {

/// Percentile `p` in [0, 100] of `samples` by linear interpolation between
/// closest ranks (the numpy / Excel PERCENTILE.INC definition). 0 when empty.
double percentile(std::vector<double> samples, double p);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// Process user+sys CPU seconds so far.
double process_cpu_seconds();

/// Returns freed heap memory to the kernel (glibc malloc_trim), so a run
/// starts from the same resident baseline whatever ran before it.
void trim_heap();

/// Samples the process's resident set every 2 ms on its own thread and keeps
/// the peak: the high-water mark of one run, which getrusage cannot give
/// once an earlier run set a higher one.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the peak resident set seen, in MiB.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> peak_pages_{0};
  std::thread thread_;
};

/// Last-level cache size in bytes from sysfs, 0 when unknown.
std::size_t llc_bytes();

/// The machine and build a result was measured on.
struct Environment {
  int nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::size_t llc_bytes = 0;

  static Environment probe();
  [[nodiscard]] std::string describe() const;
};

}  // namespace rtbench
