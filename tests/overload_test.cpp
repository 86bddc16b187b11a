// Overload-protection tests: the memory-budget ledger, credit-based flow
// control on the wire, drop-newest load shedding in the real pipeline, the
// graceful-drain protocol, the overload directive in the config grammar,
// and chaos x overload interplay (seeded transport faults while the credit
// window and the shed policy are active).
//
// Determinism policy: the simulated runtime asserts exact counter equality
// (see simrt_test.cpp); the real threaded pipeline here asserts the
// timing-independent invariants — peak in-flight bytes never exceed the cap,
// and every chunk is delivered or accounted in exactly one counter.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "codec/xxhash.h"
#include "common/rng.h"
#include "core/budget.h"
#include "core/drain.h"
#include "core/pipeline.h"
#include "metrics/overload_counters.h"
#include "msg/faulty.h"
#include "msg/inproc.h"
#include "msg/socket.h"
#include "topo/discover.h"

namespace numastream {
namespace {

MachineTopology host_topology() {
  auto topo = discover_topology();
  NS_CHECK(topo.ok(), "overload tests need a discoverable host");
  return std::move(topo).value();
}

/// Chaos suites read NUMASTREAM_CHAOS_SEED so the nightly job can randomize
/// them; unset (the tier-1 default) they stay fully deterministic.
std::uint64_t chaos_seed(std::uint64_t fallback) {
  const char* env = std::getenv("NUMASTREAM_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  return std::strtoull(env, nullptr, 10);
}

Bytes pattern_payload(std::uint64_t sequence, std::size_t size) {
  Bytes payload(size);
  Rng rng(sequence * 0x9E3779B97F4A7C15ULL + 1);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return payload;
}

/// Serves `count` deterministic chunks (contents depend only on sequence).
class PatternSource final : public ChunkSource {
 public:
  PatternSource(std::uint32_t stream_id, std::uint64_t count, std::size_t size)
      : stream_id_(stream_id), count_(count), size_(size) {}

  std::optional<Chunk> next() override {
    const std::uint64_t index = issued_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count_) {
      return std::nullopt;
    }
    Chunk chunk;
    chunk.stream_id = stream_id_;
    chunk.sequence = index;
    chunk.payload = pattern_payload(index, size_);
    return chunk;
  }

 private:
  std::uint32_t stream_id_;
  std::uint64_t count_;
  std::size_t size_;
  std::atomic<std::uint64_t> issued_{0};
};

/// Sleeps per delivery — the throttled consumer every overload scenario
/// needs. Roughly 10x slower than the sender produces in these tests.
class SlowSink final : public ChunkSink {
 public:
  explicit SlowSink(std::chrono::milliseconds delay) : delay_(delay) {}

  void deliver(Chunk chunk) override {
    std::this_thread::sleep_for(delay_);
    chunks_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(chunk.payload.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t chunks() const noexcept { return chunks_.load(); }

 private:
  std::chrono::milliseconds delay_;
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

/// Records a content hash per (stream, sequence) and counts re-deliveries.
class VerifySink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, fresh] = hashes_.emplace(
        std::make_pair(chunk.stream_id, chunk.sequence), xxhash32(chunk.payload));
    (void)it;
    if (!fresh) {
      ++duplicates_;
    }
  }

  [[nodiscard]] std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t>
  hashes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hashes_;
  }

  [[nodiscard]] std::uint64_t duplicates() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return duplicates_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> hashes_;
  std::uint64_t duplicates_ = 0;
};

NodeConfig sender_config(int compress, int send) {
  NodeConfig config;
  config.node_name = "otest-sender";
  config.role = NodeRole::kSender;
  config.chunk_bytes = 2048;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = compress},
      TaskGroupConfig{.type = TaskType::kSend, .count = send},
  };
  return config;
}

NodeConfig receiver_config(int receive, int decompress) {
  NodeConfig config;
  config.node_name = "otest-receiver";
  config.role = NodeRole::kReceiver;
  config.chunk_bytes = 2048;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = receive},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = decompress},
  };
  return config;
}

// ------------------------------------------------------------ MemoryBudget

TEST(MemoryBudgetTest, TryAcquireChargesAndRejectsOverCap) {
  MemoryBudget budget(1000);
  EXPECT_TRUE(budget.try_acquire(1, 600).is_ok());
  EXPECT_EQ(budget.used(), 600U);
  EXPECT_EQ(budget.stream_bytes(1), 600U);
  EXPECT_EQ(budget.try_acquire(2, 500).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 600U);  // the rejected charge left no trace
  EXPECT_TRUE(budget.try_acquire(2, 400).is_ok());
  EXPECT_EQ(budget.used(), 1000U);
  budget.release(1, 600);
  EXPECT_EQ(budget.used(), 400U);
  EXPECT_EQ(budget.stream_bytes(1), 0U);
  EXPECT_EQ(budget.peak(), 1000U);  // high-water mark persists
  EXPECT_LE(budget.peak(), budget.cap());
}

TEST(MemoryBudgetTest, ChargeLargerThanCapIsInvalidNotDeadlock) {
  MemoryBudget budget(100);
  EXPECT_EQ(budget.try_acquire(1, 101).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(budget.acquire(1, 101).code(), StatusCode::kInvalidArgument);
}

TEST(MemoryBudgetTest, PerStreamAccountingIsSortedAndElided) {
  MemoryBudget budget(1000);
  ASSERT_TRUE(budget.try_acquire(7, 100).is_ok());
  ASSERT_TRUE(budget.try_acquire(3, 200).is_ok());
  ASSERT_TRUE(budget.try_acquire(5, 300).is_ok());
  budget.release(5, 300);  // back to zero: elided from the report
  const auto usage = budget.per_stream();
  ASSERT_EQ(usage.size(), 2U);
  EXPECT_EQ(usage[0], (MemoryBudget::StreamUsage{3, 200}));
  EXPECT_EQ(usage[1], (MemoryBudget::StreamUsage{7, 100}));
}

TEST(MemoryBudgetTest, AcquireBlocksUntilReleaseAndCountsStall) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.try_acquire(1, 100).is_ok());
  std::atomic<std::uint64_t> stalled{0};
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(budget.acquire(2, 50, nullptr, &stalled).is_ok());
    admitted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());
  budget.release(1, 100);
  waiter.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(stalled.load(), 1U);
  EXPECT_EQ(budget.used(), 50U);
}

TEST(MemoryBudgetTest, AcquireAbortsOnCancel) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.try_acquire(1, 100).is_ok());
  std::atomic<bool> cancel{false};
  std::thread waiter([&] {
    EXPECT_EQ(budget.acquire(2, 50, &cancel).code(), StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancel = true;
  waiter.join();
  EXPECT_EQ(budget.used(), 100U);  // the aborted acquire charged nothing
}

// -------------------------------------------------------- overload counters

TEST(OverloadCountersTest, SnapshotTotalsAndPeak) {
  OverloadCounters counters;
  counters.shed_newest = 3;
  counters.record_peak(500);
  counters.record_peak(300);  // monotonic gauge: lower values don't regress it
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.shed_newest, 3U);
  EXPECT_EQ(snapshot.peak_bytes_in_flight, 500U);
  EXPECT_NE(snapshot.to_string(), OverloadCountersSnapshot{}.to_string());
  EXPECT_EQ(OverloadCountersSnapshot{}.to_string(), "clean");
}

TEST(OverloadCountersTest, TableElidesZeroRowsWhenAsked) {
  OverloadCounters counters;
  counters.credit_stalls = 4;
  const auto full = counter_table(counters.snapshot(), false).render();
  const auto terse = counter_table(counters.snapshot(), true).render();
  EXPECT_LT(terse.size(), full.size());
  EXPECT_NE(terse.find("credit_stalls"), std::string::npos);
  EXPECT_EQ(terse.find("shed_newest"), std::string::npos);
}

// ------------------------------------------------------------ credit frames

TEST(CreditFrameTest, EncodeDecodeRoundTrip) {
  const Message grant = Message::credit_grant(17);
  MessageDecoder decoder;
  const Bytes wire = encode_message(grant);
  decoder.feed(ByteSpan(wire.data(), wire.size()));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().kind, MessageKind::kCredit);
  EXPECT_FALSE(decoded.value().end_of_stream);
  EXPECT_EQ(decoded.value().sequence, 17U);
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(CreditFrameTest, CreditFrameWithBodyIsCorruption) {
  Message bogus = Message::credit_grant(4);
  bogus.body = Bytes(16, 0xAB);  // control frames are body-less by contract
  MessageDecoder decoder;
  const Bytes wire = encode_message(bogus);
  decoder.feed(ByteSpan(wire.data(), wire.size()));
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

TEST(CreditFrameTest, SocketRoundTripOverInproc) {
  InprocListener listener;
  auto client = listener.connect();
  ASSERT_TRUE(client.ok());
  auto server = listener.accept();
  ASSERT_TRUE(server.ok());

  PushSocket push(std::move(client).value());
  PullSocket pull(std::move(server).value());
  ASSERT_TRUE(pull.send_credit(8).is_ok());
  ASSERT_TRUE(pull.send_credit(3).is_ok());
  auto first = push.recv_control();
  auto second = push.recv_control();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().kind, MessageKind::kCredit);
  EXPECT_EQ(second.value().kind, MessageKind::kCredit);
  EXPECT_EQ(first.value().sequence, 8U);
  EXPECT_EQ(second.value().sequence, 3U);
}

TEST(CreditFrameTest, DataMessageOnReverseChannelIsDataLoss) {
  InprocListener listener;
  auto client = listener.connect();
  ASSERT_TRUE(client.ok());
  auto server = listener.accept();
  ASSERT_TRUE(server.ok());

  PushSocket push(std::move(client).value());
  Message data;
  data.stream_id = 1;
  data.body = Bytes(64, 0x11);
  ASSERT_TRUE(server.value()->write_all(encode_message(data)).is_ok());
  EXPECT_EQ(push.recv_control().status().code(), StatusCode::kDataLoss);
}

// --------------------------------------------------------- config directive

TEST(OverloadConfigTest, SerializeParseRoundTrip) {
  NodeConfig config = sender_config(2, 2);
  config.overload.budget_bytes = 1 << 20;
  config.overload.credit_window = 4;
  config.overload.shed_policy = ShedPolicy::kDropNewest;
  config.overload.high_watermark = 6;
  config.overload.low_watermark = 2;
  config.overload.drain_deadline_ms = 1500;

  auto parsed = NodeConfig::parse(config.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().overload, config.overload);
  EXPECT_EQ(parsed.value().serialize(), config.serialize());
}

TEST(OverloadConfigTest, AbsentDirectiveStaysAbsentAndDisabled) {
  NodeConfig config = sender_config(1, 1);
  EXPECT_FALSE(config.overload.enabled());
  const std::string text = config.serialize();
  EXPECT_EQ(text.find("overload"), std::string::npos);
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().overload.is_default());
}

TEST(OverloadConfigTest, ShedPolicyNamesRoundTrip) {
  const auto text = [](const std::string& shed) {
    return "node n\nrole sender\ntask compress count=1\ntask send count=1\n"
           "overload shed=" + shed + " high_watermark=1\n";
  };
  for (const ShedPolicy policy : {ShedPolicy::kBlock, ShedPolicy::kDropNewest}) {
    auto parsed = NodeConfig::parse(text(to_string(policy)));
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().overload.shed_policy, policy);
    const std::string serialized = parsed.value().serialize();
    EXPECT_NE(serialized.find(" shed=" + to_string(policy) + " "),
              std::string::npos)
        << serialized;
    auto again = NodeConfig::parse(serialized);
    ASSERT_TRUE(again.ok()) << again.status().to_string();
    EXPECT_EQ(again.value().overload, parsed.value().overload);
  }
  EXPECT_FALSE(NodeConfig::parse(text("yolo")).ok());
}

TEST(OverloadConfigTest, MalformedDirectivesFailWithDescriptiveErrors) {
  const auto expect_parse_error = [](const std::string& line,
                                     const std::string& needle) {
    const std::string text = "node n\nrole sender\ntask compress count=1\n"
                             "task send count=1\n" + line + "\n";
    auto parsed = NodeConfig::parse(text);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << line;
    EXPECT_NE(parsed.status().message().find(needle), std::string::npos)
        << "error for '" << line << "' was: " << parsed.status().to_string();
  };
  expect_parse_error("overload shed=sideways", "shed");
  expect_parse_error("overload budget_bytes=banana", "budget_bytes");
  expect_parse_error("overload frobnicate=1", "frobnicate");
  // A minus sign, trailing characters or a too-wide value is an error, not
  // a wrapped, truncated or narrowed number.
  expect_parse_error("overload credit_window=-2", "credit_window");
  expect_parse_error("recovery max_attempts=3x", "max_attempts");
  expect_parse_error("recovery max_attempts=4294967298", "max_attempts");
}

TEST(OverloadConfigTest, ValidateRejectsInconsistentKnobs) {
  const MachineTopology topo = host_topology();
  const auto expect_invalid = [&](auto mutate) {
    NodeConfig config = sender_config(1, 1);
    mutate(config);
    EXPECT_FALSE(config.validate(topo).is_ok());
  };
  // A window of 1 deadlocks: the replenishment grant (window/2) would be 0.
  expect_invalid([](NodeConfig& c) { c.overload.credit_window = 1; });
  expect_invalid([](NodeConfig& c) {
    c.overload.high_watermark = c.queue_capacity + 1;
  });
  expect_invalid([](NodeConfig& c) {
    c.overload.high_watermark = 2;
    c.overload.low_watermark = 3;
  });
  // A non-blocking shed policy without a watermark would never engage.
  expect_invalid([](NodeConfig& c) {
    c.overload.shed_policy = ShedPolicy::kDropNewest;
  });
  // A budget smaller than one chunk could never admit anything.
  expect_invalid([](NodeConfig& c) { c.overload.budget_bytes = 100; });
}

TEST(OverloadConfigTest, ValidateAcceptsBoundaryValues) {
  const MachineTopology topo = host_topology();
  NodeConfig config = sender_config(1, 1);
  config.overload.credit_window = 2;  // smallest legal window
  config.overload.shed_policy = ShedPolicy::kDropNewest;
  config.overload.high_watermark = config.queue_capacity;  // inclusive bound
  config.overload.low_watermark = config.queue_capacity;
  config.overload.budget_bytes = config.chunk_bytes;  // exactly one chunk
  EXPECT_TRUE(config.validate(topo).is_ok()) << config.validate(topo).to_string();
}

// RecoveryConfig boundary values ride along: the smallest legal retry policy
// and a degrade watermark exactly at capacity must round-trip and validate.
TEST(RecoveryConfigBoundaryTest, MinimalKnobsRoundTripAndValidate) {
  const MachineTopology topo = host_topology();
  NodeConfig config = sender_config(1, 1);
  config.recovery.retry.max_attempts = 1;  // "try once" is legal
  config.recovery.retry.jitter = 0.0;
  config.recovery.retry.max_backoff_us = config.recovery.retry.initial_backoff_us;
  config.recovery.degrade_watermark = config.queue_capacity;
  EXPECT_TRUE(config.validate(topo).is_ok()) << config.validate(topo).to_string();
  auto parsed = NodeConfig::parse(config.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().recovery, config.recovery);
}

// ------------------------------------------------- end to end: overloaded

struct OverloadRunResult {
  Result<SenderStats> sender_stats = Result<SenderStats>(SenderStats{});
  Result<ReceiverStats> receiver_stats = Result<ReceiverStats>(ReceiverStats{});
  OverloadCountersSnapshot sender;
  OverloadCountersSnapshot receiver;
};

/// Runs sender -> inproc -> receiver with the given configs, hooks supplied
/// per side. `drain`, when non-null, is attached to the sender's ingest.
OverloadRunResult run_overload_pipeline(const MachineTopology& topo,
                                        NodeConfig sender_cfg,
                                        NodeConfig receiver_cfg,
                                        ChunkSource& source, ChunkSink& sink,
                                        MemoryBudget* sender_budget = nullptr,
                                        DrainController* drain = nullptr) {
  InprocListener listener;
  OverloadCounters sender_counters;
  OverloadCounters receiver_counters;
  OverloadRunResult run;

  std::thread sender_thread([&] {
    StreamSender sender(topo, std::move(sender_cfg));
    run.sender_stats = sender.run(
        source, [&] { return listener.connect(); }, nullptr, nullptr,
        OverloadHooks{.budget = sender_budget,
                      .counters = &sender_counters,
                      .drain = drain});
  });
  StreamReceiver receiver(topo, std::move(receiver_cfg));
  run.receiver_stats =
      receiver.run(listener, sink, nullptr, nullptr,
                   OverloadHooks{.counters = &receiver_counters});
  sender_thread.join();
  run.sender = sender_counters.snapshot();
  run.receiver = receiver_counters.snapshot();
  return run;
}

// The acceptance scenario: receiver throttled to ~10% of the sender's rate,
// credit + budget + shedding all on. Peak resident bytes must respect the
// cap, drops must be visible in the counters, and every chunk must be either
// delivered or accounted shed.
TEST(OverloadPipelineTest, ThrottledReceiverRespectsBudgetAndSheds) {
  const MachineTopology topo = host_topology();
  const std::uint64_t kChunks = 60;
  const std::uint64_t kBudget = 64 * 1024;

  NodeConfig sender_cfg = sender_config(2, 1);
  sender_cfg.queue_capacity = 4;
  sender_cfg.overload.budget_bytes = kBudget;
  sender_cfg.overload.credit_window = 4;
  sender_cfg.overload.shed_policy = ShedPolicy::kDropNewest;
  sender_cfg.overload.high_watermark = 3;
  sender_cfg.overload.low_watermark = 1;
  NodeConfig receiver_cfg = receiver_config(1, 1);
  receiver_cfg.overload.budget_bytes = kBudget;
  receiver_cfg.overload.credit_window = 4;

  PatternSource source(1, kChunks, 2048);
  SlowSink sink(std::chrono::milliseconds(10));
  MemoryBudget ledger(kBudget);
  const OverloadRunResult run = run_overload_pipeline(
      topo, sender_cfg, receiver_cfg, source, sink, &ledger);

  ASSERT_TRUE(run.sender_stats.ok()) << run.sender_stats.status().to_string();
  ASSERT_TRUE(run.receiver_stats.ok()) << run.receiver_stats.status().to_string();

  // The throttled receiver forced the protections to engage.
  EXPECT_GT(run.sender.shed_newest, 0U) << run.sender.to_string();
  EXPECT_GT(run.receiver.credit_grants, 0U);

  // Peak resident bytes respected the cap on both sides, and the shared
  // sender ledger drained back to zero (charge/release conservation).
  EXPECT_GT(run.sender.peak_bytes_in_flight, 0U);
  EXPECT_LE(run.sender.peak_bytes_in_flight, kBudget);
  EXPECT_GT(run.receiver.peak_bytes_in_flight, 0U);
  EXPECT_LE(run.receiver.peak_bytes_in_flight, kBudget);
  EXPECT_EQ(ledger.peak(), run.sender.peak_bytes_in_flight);
  EXPECT_EQ(ledger.used(), 0U);

  // Accountability: delivered + shed == produced, nothing silently gone.
  EXPECT_EQ(sink.chunks() + run.sender.shed_newest, kChunks);
}

// Same scenario with the blocking policy: nothing may be shed — the budget
// and credit window throttle the source instead, losslessly.
TEST(OverloadPipelineTest, BlockPolicyIsLosslessUnderPressure) {
  const MachineTopology topo = host_topology();
  const std::uint64_t kChunks = 30;

  NodeConfig sender_cfg = sender_config(2, 1);
  sender_cfg.overload.budget_bytes = 16 * 1024;  // ~7 frames of headroom
  sender_cfg.overload.credit_window = 2;
  NodeConfig receiver_cfg = receiver_config(1, 1);
  receiver_cfg.overload.credit_window = 2;

  PatternSource source(1, kChunks, 2048);
  SlowSink sink(std::chrono::milliseconds(5));
  const OverloadRunResult run =
      run_overload_pipeline(topo, sender_cfg, receiver_cfg, source, sink);

  ASSERT_TRUE(run.sender_stats.ok()) << run.sender_stats.status().to_string();
  ASSERT_TRUE(run.receiver_stats.ok()) << run.receiver_stats.status().to_string();
  EXPECT_EQ(sink.chunks(), kChunks);
  EXPECT_EQ(run.sender.shed_newest, 0U);
  EXPECT_GT(run.sender.credit_stalls + run.sender.budget_stalls, 0U)
      << run.sender.to_string();
  EXPECT_LE(run.sender.peak_bytes_in_flight, 16U * 1024U);
}

// --------------------------------------------------------- graceful drain

TEST(OverloadPipelineTest, DrainRequestStopsIngestCleanly) {
  const MachineTopology topo = host_topology();
  const std::uint64_t kChunks = 200;

  NodeConfig sender_cfg = sender_config(1, 1);
  sender_cfg.overload.drain_deadline_ms = 10000;  // generous: drain completes
  // Credit keeps ingest paced by the slow sink — without it the whole
  // dataset would buffer into the transport before the drain request lands.
  sender_cfg.overload.credit_window = 2;
  NodeConfig receiver_cfg = receiver_config(1, 1);
  receiver_cfg.overload.credit_window = 2;

  PatternSource source(1, kChunks, 2048);
  SlowSink sink(std::chrono::milliseconds(5));
  DrainController drain;
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    drain.request();
  });
  const OverloadRunResult run = run_overload_pipeline(
      topo, sender_cfg, receiver_cfg, source, sink, nullptr, &drain);
  trigger.join();

  // The drain was graceful: both sides ended OK, in-flight frames flushed,
  // no deadline forcing — but ingest stopped well short of the dataset.
  ASSERT_TRUE(run.sender_stats.ok()) << run.sender_stats.status().to_string();
  ASSERT_TRUE(run.receiver_stats.ok()) << run.receiver_stats.status().to_string();
  EXPECT_EQ(run.sender.drain_requests, 1U);
  EXPECT_EQ(run.sender.drain_timeouts, 0U);
  EXPECT_GT(sink.chunks(), 0U);
  EXPECT_LT(sink.chunks(), kChunks);
  EXPECT_EQ(sink.chunks(), run.sender_stats.value().chunks);
}

TEST(OverloadPipelineTest, DrainDeadlineForcesTimeoutOnStuckFlush) {
  const MachineTopology topo = host_topology();
  const std::uint64_t kChunks = 10;

  NodeConfig sender_cfg = sender_config(1, 1);
  NodeConfig receiver_cfg = receiver_config(1, 1);
  // The receiver's flush can't finish in time: ~60ms per queued frame
  // against a 100ms budget for the whole drain.
  receiver_cfg.overload.drain_deadline_ms = 100;

  PatternSource source(1, kChunks, 2048);
  SlowSink sink(std::chrono::milliseconds(60));
  const OverloadRunResult run =
      run_overload_pipeline(topo, sender_cfg, receiver_cfg, source, sink);

  ASSERT_TRUE(run.sender_stats.ok()) << run.sender_stats.status().to_string();
  ASSERT_FALSE(run.receiver_stats.ok());
  EXPECT_EQ(run.receiver_stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(run.receiver.drain_timeouts, 1U);
  EXPECT_LT(sink.chunks(), kChunks);  // the forced drop was real
}

TEST(OverloadPipelineTest, DrainWithinDeadlineEndsClean) {
  const MachineTopology topo = host_topology();
  const std::uint64_t kChunks = 20;

  NodeConfig sender_cfg = sender_config(1, 1);
  sender_cfg.overload.drain_deadline_ms = 10000;
  NodeConfig receiver_cfg = receiver_config(1, 1);
  receiver_cfg.overload.drain_deadline_ms = 10000;

  PatternSource source(1, kChunks, 2048);
  CountingSink sink;
  const OverloadRunResult run =
      run_overload_pipeline(topo, sender_cfg, receiver_cfg, source, sink);

  ASSERT_TRUE(run.sender_stats.ok()) << run.sender_stats.status().to_string();
  ASSERT_TRUE(run.receiver_stats.ok()) << run.receiver_stats.status().to_string();
  EXPECT_EQ(sink.chunks(), kChunks);
  EXPECT_EQ(run.sender.drain_timeouts, 0U);
  EXPECT_EQ(run.receiver.drain_timeouts, 0U);
}

// ------------------------------------------------------- chaos x overload

struct ChaosOverloadRun {
  FaultCountersSnapshot faults;
  OverloadCountersSnapshot sender;
  OverloadCountersSnapshot receiver;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::uint32_t> delivered;
  std::uint64_t duplicates = 0;
};

/// Chaos on the sender's data direction (disconnects + torn writes) while
/// credit flow control, the memory budget and a shed policy are live. The
/// accept side is left clean so the reverse (credit) channel stays intact —
/// data-direction faults already force redials, which reset and re-grant the
/// credit window.
ChaosOverloadRun run_chaos_overload(const MachineTopology& topo,
                                    const FaultPlan& plan,
                                    NodeConfig sender_cfg,
                                    NodeConfig receiver_cfg,
                                    std::uint64_t chunk_count) {
  FaultCounters fault_counters;
  FaultInjector dial_injector(plan, &fault_counters);
  InprocListener listener;
  const auto dial = faulty_dialer([&] { return listener.connect(); },
                                  dial_injector);

  PatternSource source(1, chunk_count, 2048);
  VerifySink sink;
  OverloadCounters sender_counters;
  OverloadCounters receiver_counters;

  Result<SenderStats> sender_stats = Result<SenderStats>(SenderStats{});
  std::thread sender_thread([&] {
    StreamSender sender(topo, std::move(sender_cfg));
    sender_stats = sender.run(source, dial, nullptr, &fault_counters,
                              OverloadHooks{.counters = &sender_counters});
  });
  StreamReceiver receiver(topo, std::move(receiver_cfg));
  auto receiver_stats =
      receiver.run(listener, sink, nullptr, &fault_counters,
                   OverloadHooks{.counters = &receiver_counters});
  sender_thread.join();
  EXPECT_TRUE(sender_stats.ok()) << sender_stats.status().to_string();
  EXPECT_TRUE(receiver_stats.ok()) << receiver_stats.status().to_string();

  ChaosOverloadRun run;
  run.faults = fault_counters.snapshot();
  run.sender = sender_counters.snapshot();
  run.receiver = receiver_counters.snapshot();
  run.delivered = sink.hashes();
  run.duplicates = sink.duplicates();
  return run;
}

// Lossless overload (block policy + credit + budget) under chaos: every
// chunk must survive disconnects and torn writes bit-exact, exactly once,
// and the same seed must reproduce the identical fault counters.
TEST(ChaosOverloadTest, CreditAndBudgetSurviveChaosDeterministically) {
  const MachineTopology topo = host_topology();
  FaultPlan plan;
  plan.seed = chaos_seed(20260806);
  plan.disconnect_per_write = 0.05;
  plan.torn_write_per_write = 0.05;
  plan.fault_free_prefix_bytes = 2048;
  plan.max_faults = 8;

  const std::uint64_t kChunks = 30;
  const auto run_once = [&] {
    NodeConfig sender_cfg = sender_config(1, 1);
    sender_cfg.recovery.reconnect = true;
    sender_cfg.recovery.retry.max_attempts = 8;
    sender_cfg.recovery.retry.initial_backoff_us = 100;
    sender_cfg.recovery.retry.max_backoff_us = 5000;
    sender_cfg.overload.credit_window = 4;
    sender_cfg.overload.budget_bytes = 64 * 1024;
    NodeConfig receiver_cfg = receiver_config(1, 1);
    receiver_cfg.recovery.reconnect = true;
    receiver_cfg.overload.credit_window = 4;
    return run_chaos_overload(topo, plan, sender_cfg, receiver_cfg, kChunks);
  };

  const ChaosOverloadRun first = run_once();

  // Chaos actually happened and the overload machinery was live through it.
  EXPECT_GT(first.faults.injected_disconnects + first.faults.injected_torn_writes,
            0U);
  EXPECT_GT(first.faults.reconnects, 0U);
  EXPECT_GT(first.receiver.credit_grants, 0U);

  // Lossless: every chunk delivered exactly once, bit-exact.
  EXPECT_EQ(first.duplicates, 0U);
  ASSERT_EQ(first.delivered.size(), kChunks);
  for (std::uint64_t seq = 0; seq < kChunks; ++seq) {
    const auto it = first.delivered.find({1, seq});
    ASSERT_NE(it, first.delivered.end()) << "chunk " << seq << " lost";
    EXPECT_EQ(it->second, xxhash32(pattern_payload(seq, 2048)))
        << "chunk " << seq << " corrupted";
  }

  // Same seed, same faults, same outcome.
  const ChaosOverloadRun second = run_once();
  EXPECT_EQ(first.faults, second.faults)
      << "first:\n" << first.faults.to_string()
      << "second:\n" << second.faults.to_string();
  EXPECT_EQ(first.delivered, second.delivered);
}

// Shedding under chaos: the shed policy and the fault recovery must not
// corrupt each other's accounting — whatever was not shed arrives exactly
// once and bit-exact, with no duplicates from retransmission.
TEST(ChaosOverloadTest, SheddingAndRecoveryKeepExactlyOnceDelivery) {
  const MachineTopology topo = host_topology();
  FaultPlan plan;
  plan.seed = chaos_seed(99);
  plan.disconnect_per_write = 0.04;
  plan.torn_write_per_write = 0.04;
  plan.fault_free_prefix_bytes = 2048;
  plan.max_faults = 10;

  NodeConfig sender_cfg = sender_config(2, 1);
  sender_cfg.queue_capacity = 4;
  sender_cfg.recovery.reconnect = true;
  sender_cfg.recovery.retry.max_attempts = 8;
  sender_cfg.recovery.retry.initial_backoff_us = 100;
  sender_cfg.recovery.retry.max_backoff_us = 5000;
  sender_cfg.overload.credit_window = 2;
  sender_cfg.overload.shed_policy = ShedPolicy::kDropNewest;
  sender_cfg.overload.high_watermark = 3;
  sender_cfg.overload.low_watermark = 1;
  NodeConfig receiver_cfg = receiver_config(1, 1);
  receiver_cfg.recovery.reconnect = true;
  receiver_cfg.overload.credit_window = 2;

  const std::uint64_t kChunks = 60;
  const ChaosOverloadRun run =
      run_chaos_overload(topo, plan, sender_cfg, receiver_cfg, kChunks);

  EXPECT_EQ(run.duplicates, 0U);
  // Conservation across both subsystems: a chunk was delivered or shed —
  // transport faults alone never lose one (failed sends are re-sent).
  EXPECT_EQ(run.delivered.size() + run.sender.shed_newest, kChunks);
  for (const auto& [key, hash] : run.delivered) {
    EXPECT_EQ(hash, xxhash32(pattern_payload(key.second, 2048)))
        << "chunk " << key.second << " corrupted";
  }
}

}  // namespace
}  // namespace numastream
