#include "stats.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

namespace rtbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

namespace {

/// Resident pages from /proc/self/statm (second field), 0 on failure.
std::uint64_t resident_pages(int fd) {
  char buf[128];
  const ssize_t n = pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) {
    return 0;
  }
  buf[n] = '\0';
  char* end = nullptr;
  std::strtoull(buf, &end, 10);  // total program size
  return std::strtoull(end, nullptr, 10);
}

}  // namespace

RssSampler::RssSampler() {
  thread_ = std::thread([this] {
    const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::uint64_t pages = resident_pages(fd);
      if (pages > peak_pages_.load(std::memory_order_relaxed)) {
        peak_pages_.store(pages, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::close(fd);
  });
}

RssSampler::~RssSampler() { stop(); }

double RssSampler::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) {
    thread_.join();
  }
  return static_cast<double>(peak_pages_.load() * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE))) /
         (1024.0 * 1024.0);
}

std::size_t llc_bytes() {
  std::size_t best = 0;
  int best_level = 0;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream size_file(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size) || size.empty()) {
      continue;
    }
    std::size_t bytes = std::stoull(size);
    const char unit = size.back();
    if (unit == 'K') {
      bytes <<= 10;
    } else if (unit == 'M') {
      bytes <<= 20;
    }
    if (level > best_level || (level == best_level && bytes > best)) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

Environment Environment::probe() {
  Environment env;
  env.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      env.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + __VERSION__;
#else
  env.compiler = "unknown";
#endif
  env.build_type = RTBENCH_BUILD_TYPE;
  env.llc_bytes = rtbench::llc_bytes();
  return env;
}

std::string Environment::describe() const {
  return "nproc=" + std::to_string(nproc) + "  cpu=\"" + cpu_model +
         "\"  compiler=\"" + compiler + "\"  build=" + build_type +
         "  llc=" + std::to_string(llc_bytes >> 20) + "MiB";
}

}  // namespace rtbench
