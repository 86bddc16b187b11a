#include "ring.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/xxhash.h"

namespace rtbench {

using namespace numastream;

std::string Workload::shape() const {
  return std::to_string(compress) + "C/" + std::to_string(send) + "S/" +
         std::to_string(receive) + "R/" + std::to_string(decompress) + "D";
}

const std::vector<Workload>& workloads() {
  // Each workload stresses a different layer (BENCHMARK.json has the
  // one-line reasons). Windows: proj_lz4 is compress-bound, so 8 never
  // binds; proj_null has four near-equal stages, and 3 in flight keeps any
  // one of them from filling its queue; tile_session needs depth for
  // per-message pipelining.
  static const std::vector<Workload> kWorkloads = {
      // The paper's compression-bound config (A/B): the codec does ~90% of
      // the CPU work.
      Workload{.name = "proj_lz4",
               .rows = 2048,
               .cols = 2700,
               .codec = "lz4",
               .compress = 2,
               .send = 1,
               .receive = 1,
               .decompress = 2,
               .window = 8},
      // Single-threaded baseline: bulk copies, frame hashing, buffer
      // allocation and socket I/O carry the run.
      Workload{.name = "proj_null",
               .rows = 2048,
               .cols = 2700,
               .codec = "null",
               .compress = 1,
               .send = 1,
               .receive = 1,
               .decompress = 1,
               .window = 3},
      // Per-message cost: queue handoffs, NSM1 headers, credit/RESUME
      // control frames, journal appends and dedup ledgers at ~9k msgs/s.
      Workload{.name = "tile_session",
               .rows = 128,
               .cols = 256,
               .codec = "null",
               .compress = 2,
               .send = 2,
               .receive = 2,
               .decompress = 2,
               .streams = 4,
               .session = true,
               .window = 32},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

NodeConfig base_config(const Workload& w, const std::string& host, NodeRole role,
                       std::uint64_t session_id) {
  NodeConfig config;
  config.node_name = host;
  config.role = role;
  config.codec_name = w.codec;
  config.chunk_bytes = w.chunk_bytes();
  if (w.session) {
    config.recovery.reconnect = true;
    config.resume.session = session_id;
    config.resume.ack_interval = 8;
    config.overload.credit_window = 8;
  }
  return config;
}

}  // namespace

NodeConfig sender_config(const Workload& w, const std::string& host,
                         std::uint64_t session_id) {
  NodeConfig config = base_config(w, host, NodeRole::kSender, session_id);
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = w.compress},
      TaskGroupConfig{.type = TaskType::kSend, .count = w.send},
  };
  return config;
}

NodeConfig receiver_config(const Workload& w, const std::string& host,
                           std::uint64_t session_id) {
  NodeConfig config = base_config(w, host, NodeRole::kReceiver, session_id);
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = w.receive},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = w.decompress},
  };
  return config;
}

std::size_t ring_bytes_for_llc(std::size_t llc_bytes) {
  constexpr std::size_t kMin = std::size_t{128} << 20;
  constexpr std::size_t kMax = std::size_t{1} << 30;
  return std::clamp(llc_bytes + llc_bytes / 4, kMin, kMax);
}

Ring Ring::generate(const Workload& w, std::uint64_t seed, std::size_t count,
                    std::size_t multiple_of, int threads) {
  Ring ring;
  ring.tomo.rows = w.rows;
  ring.tomo.cols = w.cols;
  ring.tomo.seed = seed;
  const std::size_t m = std::max<std::size_t>(1, multiple_of);
  count = std::max<std::size_t>(1, (count + m - 1) / m) * m;
  ring.entries.resize(count);
  std::vector<std::thread> pool;
  const int n = std::max(1, threads);
  for (int t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < count;
           i += static_cast<std::size_t>(n)) {
        ring.entries[i] = TomoGenerator(ring.entry_config(i)).projection(i);
      }
    });
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return ring;
}

TomoConfig Ring::entry_config(std::uint64_t i) const {
  TomoConfig config = tomo;
  config.seed = tomo.seed * 0x9E3779B97F4A7C15ULL + i;
  return config;
}

std::size_t Ring::bytes() const noexcept {
  std::size_t total = 0;
  for (const Bytes& entry : entries) {
    total += entry.size();
  }
  return total;
}

const Bytes& Ring::entry_for(std::uint32_t streams, std::uint32_t stream,
                             std::uint64_t seq) const {
  return entries[(seq * streams + stream) % entries.size()];
}

std::vector<std::uint64_t> Ring::hashes() const {
  std::vector<std::uint64_t> out;
  out.reserve(entries.size());
  for (const Bytes& entry : entries) {
    out.push_back(xxhash64(entry));
  }
  return out;
}

double Ring::compression_ratio(std::string_view codec_name) const {
  const Codec* codec = codec_by_name(codec_name);
  if (codec == nullptr) {
    return 0;
  }
  double raw = 0;
  double framed = 0;
  for (const Bytes& entry : entries) {
    raw += static_cast<double>(entry.size());
    framed += static_cast<double>(encode_frame(*codec, entry).size());
  }
  return framed > 0 ? raw / framed : 0;
}

Ledger::Ledger(std::uint32_t streams, std::uint64_t window)
    : streams_(std::max<std::uint32_t>(1, streams)),
      window_(std::max<std::uint64_t>(1, window)),
      created_(streams_),
      seen_(streams_) {}

std::optional<Ledger::Issue> Ledger::issue(const StopRule& rule) {
  std::unique_lock<std::mutex> lock(mu_);
  // A window that stays full for seconds means a chunk was lost; stop
  // waiting for good so the run ends and reports it as missing.
  if (!delivered_cv_.wait_for(lock, std::chrono::seconds(5), [&] {
        return closed_ || window_stalled_ || next_ - arrived_ < window_;
      })) {
    window_stalled_ = true;
  }
  const Clock::time_point now = Clock::now();
  const bool pass_boundary = next_ > 0 && next_ % std::max<std::uint64_t>(1, rule.pass) == 0;
  if (closed_ || next_ >= rule.max_chunks ||
      (pass_boundary && now - *first_issue_ >= rule.run_for)) {
    closed_ = true;
    return std::nullopt;
  }
  if (!first_issue_) {
    first_issue_ = now;
  }
  const Issue out{next_, static_cast<std::uint32_t>(next_ % streams_), next_ / streams_};
  ++next_;
  created_[out.stream].push_back(now);
  seen_[out.stream].push_back(0);
  return out;
}

std::optional<double> Ledger::deliver(std::uint32_t stream, std::uint64_t seq,
                                      Clock::time_point now) {
  const std::lock_guard<std::mutex> lock(mu_);
  last_delivery_ = now;
  if (stream >= streams_ || seq >= seen_[stream].size() || seen_[stream][seq] != 0) {
    ++duplicate_;
    return std::nullopt;
  }
  seen_[stream][seq] = 1;
  ++arrived_;
  delivered_cv_.notify_one();
  return std::chrono::duration<double, std::milli>(now - created_[stream][seq]).count();
}

void Ledger::note_corrupt() {
  const std::lock_guard<std::mutex> lock(mu_);
  ++corrupt_;
}

Ledger::Report Ledger::report() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Report out;
  out.issued = next_;
  for (const auto& stream : seen_) {
    for (const std::uint8_t seen : stream) {
      out.delivered += seen;
    }
  }
  out.missing = out.issued - out.delivered;
  out.duplicate = duplicate_;
  out.corrupt = corrupt_;
  return out;
}

std::optional<Clock::time_point> Ledger::first_issue() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return first_issue_;
}

std::optional<Clock::time_point> Ledger::last_delivery() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_delivery_;
}

std::optional<Chunk> RingSource::next() {
  const auto issue = ledger_.issue(rule_);
  if (!issue) {
    return std::nullopt;
  }
  const Bytes& entry = ring_.entries[issue->global % ring_.size()];
  Chunk chunk;
  chunk.stream_id = issue->stream;
  chunk.sequence = issue->seq;
  chunk.payload.assign(entry.begin(), entry.end());
  return chunk;
}

void VerifyingSink::deliver(Chunk chunk) {
  const Clock::time_point now = Clock::now();
  const std::uint32_t streams = ledger_.streams();
  const bool intact =
      chunk.stream_id < streams &&
      [&] {
        const Bytes& expect = ring_.entry_for(streams, chunk.stream_id, chunk.sequence);
        return chunk.payload.size() == expect.size() &&
               std::memcmp(chunk.payload.data(), expect.data(), expect.size()) == 0;
      }();
  const auto latency = ledger_.deliver(chunk.stream_id, chunk.sequence, now);
  if (!latency) {
    return;  // duplicate or unknown id: counted by the ledger
  }
  if (!intact) {
    ledger_.note_corrupt();
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  latencies_ms_.push_back(*latency);
  delivered_bytes_ += chunk.payload.size();
}

std::vector<double> VerifyingSink::latencies_ms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return latencies_ms_;
}

std::uint64_t VerifyingSink::delivered_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return delivered_bytes_;
}

}  // namespace rtbench
