#include <gtest/gtest.h>

#include <thread>

#include "core/advisor.h"
#include "core/config.h"
#include "core/config_generator.h"
#include "core/placement.h"
#include "core/pipeline.h"
#include "msg/inproc.h"
#include "topo/discover.h"
#include "topo/topology.h"

namespace numastream {
namespace {

// ---------------------------------------------------------------- tables

TEST(PlacementTest, Table1HasEightConfigsInOrder) {
  const auto& configs = table1_configs();
  ASSERT_EQ(configs.size(), 8U);
  EXPECT_EQ(configs[0].label, 'A');
  EXPECT_EQ(configs[7].label, 'H');
  // Spot-check the paper's rows: B = data in 0, exec in 1.
  EXPECT_EQ(configs[1].memory_domain, 0);
  EXPECT_EQ(configs[1].execution, ExecutionDomainPolicy::kDomain1);
  // E/F split, G/H OS-managed.
  EXPECT_EQ(configs[4].execution, ExecutionDomainPolicy::kSplit);
  EXPECT_EQ(configs[6].execution, ExecutionDomainPolicy::kOsManaged);
}

TEST(PlacementTest, Table2HasFiveConfigs) {
  const auto& configs = table2_configs();
  ASSERT_EQ(configs.size(), 5U);
  // B and D put receivers on NUMA 1 (the NIC domain).
  EXPECT_EQ(configs[1].receiver, ExecutionDomainPolicy::kDomain1);
  EXPECT_EQ(configs[3].receiver, ExecutionDomainPolicy::kDomain1);
  EXPECT_EQ(configs[4].sender, ExecutionDomainPolicy::kOsManaged);
}

TEST(PlacementTest, Table3MatchesThePaper) {
  const auto& configs = table3_configs();
  ASSERT_EQ(configs.size(), 7U);
  EXPECT_EQ(configs[0].compression_threads, 8);
  EXPECT_EQ(configs[0].decompression_threads, 4);
  EXPECT_EQ(configs[6].compression_threads, 32);
  EXPECT_EQ(configs[6].decompression_threads, 16);
}

TEST(PlacementTest, BindingsForPolicy) {
  auto split = bindings_for_policy(ExecutionDomainPolicy::kSplit, 1);
  ASSERT_EQ(split.size(), 2U);
  EXPECT_EQ(split[0].execution_domain, 0);
  EXPECT_EQ(split[1].execution_domain, 1);
  EXPECT_EQ(split[0].memory_domain, 1);

  auto os = bindings_for_policy(ExecutionDomainPolicy::kOsManaged, 0);
  ASSERT_EQ(os.size(), 1U);
  EXPECT_TRUE(os[0].os_managed());
}

// ---------------------------------------------------------------- config

NodeConfig sample_receiver_config() {
  NodeConfig config;
  config.node_name = "lynxdtn";
  config.role = NodeRole::kReceiver;
  config.codec_name = "lz4";
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive,
                      .count = 4,
                      .bindings = {NumaBinding{.execution_domain = 1, .memory_domain = 1}},
                      .stream_id = 0},
      TaskGroupConfig{.type = TaskType::kDecompress,
                      .count = 4,
                      .bindings = {NumaBinding{.execution_domain = 0, .memory_domain = 0}},
                      .stream_id = 0},
  };
  return config;
}

TEST(ConfigTest, SerializeParseRoundTrip) {
  const NodeConfig original = sample_receiver_config();
  const std::string text = original.serialize();
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().node_name, "lynxdtn");
  EXPECT_EQ(parsed.value().role, NodeRole::kReceiver);
  EXPECT_EQ(parsed.value().codec_name, "lz4");
  ASSERT_EQ(parsed.value().tasks.size(), 2U);
  EXPECT_EQ(parsed.value().tasks[0].type, TaskType::kReceive);
  EXPECT_EQ(parsed.value().tasks[0].count, 4);
  EXPECT_EQ(parsed.value().tasks[0].bindings[0].execution_domain, 1);
  EXPECT_EQ(parsed.value().tasks[0].stream_id, 0);
  // Round-trip is a fixed point.
  EXPECT_EQ(parsed.value().serialize(), text);
}

TEST(ConfigTest, ParseHandlesCommentsAndSplitExec) {
  const std::string text = R"(# the receiver side
node lynxdtn
role receiver
codec lz4
task receive count=2 exec=1 mem=1   # pinned to the NIC domain
task decompress count=8 exec=0,1 mem=os
)";
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().tasks.size(), 2U);
  ASSERT_EQ(parsed.value().tasks[1].bindings.size(), 2U);
  EXPECT_EQ(parsed.value().tasks[1].bindings[1].execution_domain, 1);
  EXPECT_TRUE(parsed.value().tasks[1].bindings[0].memory_domain ==
              NumaBinding::kOsChoice);
}

TEST(ConfigTest, ParseErrorsCarryLineNumbers) {
  const auto status = NodeConfig::parse("node x\ntask frobnicate count=1\n").status();
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, ParseRejectsMalformed) {
  EXPECT_FALSE(NodeConfig::parse("").ok());                       // no node
  EXPECT_FALSE(NodeConfig::parse("node x\nrole pirate\n").ok());  // bad role
  EXPECT_FALSE(NodeConfig::parse("node x\ntask send\n").ok());    // no count
  EXPECT_FALSE(NodeConfig::parse("node x\ntask send count=x\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\ntask send count=1 exec=9x\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\nbogus y\n").ok());
  // Values are read whole: no sign wrap, no dropped trailing characters,
  // no silent all-streams group, no ignored extra tokens.
  EXPECT_FALSE(NodeConfig::parse("node x\nchunk_bytes -1\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\nchunk_bytes 12abc\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\ntask receive count=2x\n").ok());
  EXPECT_FALSE(
      NodeConfig::parse("node x\ntask receive count=1 stream=-7\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node a b c\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\nrole receiver extra\n").ok());
  EXPECT_FALSE(NodeConfig::parse("node x\nqueue_capacity 8 9 10\n").ok());
}

TEST(ConfigTest, RetiredDirectivesAreUnknown) {
  // `fastpath` and `chaos` were once parsed; now they are unknown like any
  // other misspelling, so a stale config fails loudly instead of silently
  // meaning nothing.
  const std::string base = sample_receiver_config().serialize();
  ASSERT_TRUE(NodeConfig::parse(base).ok());
  for (const char* line : {"fastpath rings=on\n", "chaos seed=1\n"}) {
    const auto status = NodeConfig::parse(base + line).status();
    ASSERT_FALSE(status.is_ok()) << line;
    EXPECT_NE(status.message().find("unknown directive"), std::string::npos)
        << status.message();
  }
}

TEST(ConfigTest, ValidateAgainstTopology) {
  const MachineTopology topo = lynxdtn_topology();
  EXPECT_TRUE(sample_receiver_config().validate(topo).is_ok());

  NodeConfig bad = sample_receiver_config();
  bad.tasks[0].bindings[0].execution_domain = 7;
  EXPECT_FALSE(bad.validate(topo).is_ok());

  NodeConfig wrong_role = sample_receiver_config();
  wrong_role.tasks[0].type = TaskType::kSend;  // send task on a receiver
  EXPECT_FALSE(wrong_role.validate(topo).is_ok());

  NodeConfig bad_codec = sample_receiver_config();
  bad_codec.codec_name = "gzip";
  EXPECT_FALSE(bad_codec.validate(topo).is_ok());

  NodeConfig no_tasks = sample_receiver_config();
  no_tasks.tasks.clear();
  EXPECT_FALSE(no_tasks.validate(topo).is_ok());
}

TEST(ConfigTest, ThreadCount) {
  const NodeConfig config = sample_receiver_config();
  EXPECT_EQ(config.thread_count(TaskType::kReceive), 4);
  EXPECT_EQ(config.thread_count(TaskType::kDecompress), 4);
  EXPECT_EQ(config.thread_count(TaskType::kSend), 0);
}

// ---------------------------------------------------------------- generator

TEST(ConfigGeneratorTest, PaperScenarioFourStreams) {
  // The Fig. 13/14 setup: updraft1, updraft2, polaris1, polaris2 -> lynxdtn.
  ConfigGenerator generator(
      lynxdtn_topology(),
      {updraft_topology("updraft1"), updraft_topology("updraft2"),
       polaris_topology("polaris1"), polaris_topology("polaris2")});
  WorkloadSpec spec;
  spec.num_streams = 4;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  // Paper: 16 NIC-domain cores / 4 streams = 4 receive threads per stream,
  // all on NUMA 1; 4 decompression threads per stream on NUMA 0; senders use
  // all 32 cores for compression.
  const NodeConfig& receiver = plan.value().receiver;
  EXPECT_EQ(receiver.thread_count(TaskType::kReceive, 0), 4);
  EXPECT_EQ(receiver.thread_count(TaskType::kReceive), 16);
  EXPECT_EQ(receiver.thread_count(TaskType::kDecompress, 2), 4);
  for (const auto& group : receiver.tasks) {
    if (group.type == TaskType::kReceive) {
      ASSERT_EQ(group.bindings.size(), 1U);
      EXPECT_EQ(group.bindings[0].execution_domain, 1);
    } else {
      for (const auto& binding : group.bindings) {
        EXPECT_EQ(binding.execution_domain, 0);
      }
    }
  }
  ASSERT_EQ(plan.value().senders.size(), 4U);
  for (const auto& sender : plan.value().senders) {
    EXPECT_EQ(sender.thread_count(TaskType::kCompress), 32);
    EXPECT_EQ(sender.thread_count(TaskType::kSend), 4);
  }
  EXPECT_NE(plan.value().rationale.find("NUMA 1"), std::string::npos);
}

TEST(ConfigGeneratorTest, OsStrategyLeavesPlacementToTheOs) {
  ConfigGenerator generator(lynxdtn_topology(), {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kOsManaged);
  ASSERT_TRUE(plan.ok());
  for (const auto& group : plan.value().receiver.tasks) {
    for (const auto& binding : group.bindings) {
      EXPECT_TRUE(binding.os_managed());
    }
  }
  // Same thread counts as the NUMA-aware plan (the comparison is fair).
  auto aware = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(aware.ok());
  EXPECT_EQ(plan.value().receiver.thread_count(TaskType::kReceive),
            aware.value().receiver.thread_count(TaskType::kReceive));
}

TEST(ConfigGeneratorTest, ExplicitThreadCountsAreHonored) {
  ConfigGenerator generator(lynxdtn_topology(), {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 1;
  spec.compression_threads = 8;
  spec.transfer_threads = 2;
  spec.decompression_threads = 6;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().senders[0].thread_count(TaskType::kCompress), 8);
  EXPECT_EQ(plan.value().senders[0].thread_count(TaskType::kSend), 2);
  EXPECT_EQ(plan.value().receiver.thread_count(TaskType::kReceive), 2);
  EXPECT_EQ(plan.value().receiver.thread_count(TaskType::kDecompress), 6);
}

TEST(ConfigGeneratorTest, CompressionNeverExceedsCores) {
  ConfigGenerator generator(lynxdtn_topology(), {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 1;
  spec.compression_threads = 500;  // absurd request (Obs. 2 caps it)
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().senders[0].thread_count(TaskType::kCompress), 32);
}

TEST(ConfigGeneratorTest, TooManyStreamsRejected) {
  ConfigGenerator generator(lynxdtn_topology(),
                            std::vector<MachineTopology>(32, updraft_topology()));
  WorkloadSpec spec;
  spec.num_streams = 32;  // 16 NIC cores cannot serve 32 x >=1 thread... they
                          // can at exactly 1 thread each; 33 would fail.
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_FALSE(plan.ok());  // 32 streams x 1 thread = 32 > 16 cores
}

TEST(ConfigGeneratorTest, MismatchedSenderCountRejected) {
  ConfigGenerator generator(lynxdtn_topology(), {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 2;
  EXPECT_FALSE(generator.generate(spec, PlacementStrategy::kNumaAware).ok());
}

TEST(ConfigGeneratorTest, NoNicNoDecision) {
  std::vector<NumaDomain> domains = {
      {.id = 0, .cpus = CpuSet::range(0, 3), .memory_bytes = 0}};
  const MachineTopology no_nic("headless", std::move(domains), {});
  ConfigGenerator generator(no_nic, {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 1;
  EXPECT_FALSE(generator.generate(spec, PlacementStrategy::kNumaAware).ok());
}

TEST(ConfigGeneratorTest, SingleSocketReceiverStillWorks) {
  // Decompressors fall back to the NIC domain when there is no other socket.
  ConfigGenerator generator(polaris_topology("gateway"), {updraft_topology()});
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_GT(plan.value().receiver.thread_count(TaskType::kDecompress), 0);
}

// ---------------------------------------------------------------- pipeline

// Runs a full sender->receiver pipeline over in-process transport on the
// host topology and verifies delivery end to end.
struct PipelineResult {
  SenderStats sender;
  ReceiverStats receiver;
  std::uint64_t delivered_chunks = 0;
  std::uint64_t delivered_bytes = 0;
};

PipelineResult run_pipeline(const std::string& codec, int compress_threads,
                            int send_threads, int recv_threads, int decomp_threads,
                            std::uint64_t chunk_count, std::uint32_t chunk_rows = 64,
                            std::uint32_t chunk_cols = 100) {
  auto topo = discover_topology();
  EXPECT_TRUE(topo.ok());

  TomoConfig tomo;
  tomo.rows = chunk_rows;
  tomo.cols = chunk_cols;
  tomo.num_spheres = 4;

  NodeConfig sender_config;
  sender_config.node_name = "sender";
  sender_config.role = NodeRole::kSender;
  sender_config.codec_name = codec;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = compress_threads},
      TaskGroupConfig{.type = TaskType::kSend, .count = send_threads},
  };

  NodeConfig receiver_config;
  receiver_config.node_name = "receiver";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.codec_name = codec;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = recv_threads},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = decomp_threads},
  };

  InprocListener listener;
  TomoChunkSource source(tomo, /*stream_id=*/1, chunk_count);
  CountingSink sink;

  PipelineResult result;
  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), sender_config);
    auto stats = sender.run(source, [&] { return listener.connect(); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    result.sender = stats.value();
  });

  StreamReceiver receiver(topo.value(), receiver_config);
  auto stats = receiver.run(listener, sink);
  sender_thread.join();
  EXPECT_TRUE(stats.ok()) << stats.status().to_string();
  if (stats.ok()) {
    result.receiver = stats.value();
  }
  result.delivered_chunks = sink.chunks();
  result.delivered_bytes = sink.bytes();
  return result;
}

class PipelineShapes
    : public ::testing::TestWithParam<std::tuple<std::string, int, int, int, int>> {};

TEST_P(PipelineShapes, DeliversEveryChunkIntact) {
  const auto [codec, c, s, r, d] = GetParam();
  const std::uint64_t kChunks = 12;
  const PipelineResult result = run_pipeline(codec, c, s, r, d, kChunks);
  EXPECT_EQ(result.sender.chunks, kChunks);
  EXPECT_EQ(result.delivered_chunks, kChunks);
  EXPECT_EQ(result.receiver.corrupt_frames, 0U);
  EXPECT_EQ(result.delivered_bytes, result.sender.raw_bytes);
  EXPECT_EQ(result.receiver.raw_bytes, result.sender.raw_bytes);
  // Wire accounting matches on both sides.
  EXPECT_EQ(result.receiver.wire_bytes, result.sender.wire_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineShapes,
    ::testing::Values(std::make_tuple("lz4", 1, 1, 1, 1),
                      std::make_tuple("lz4", 4, 2, 2, 4),
                      std::make_tuple("lz4", 2, 4, 4, 2),
                      std::make_tuple("null", 3, 3, 3, 3),
                      std::make_tuple("delta_rle", 2, 2, 2, 2)));

TEST(PipelineTest, CompressionReducesWireBytes) {
  const PipelineResult result = run_pipeline("lz4", 2, 2, 2, 2, 8);
  EXPECT_LT(result.sender.wire_bytes, result.sender.raw_bytes);
  EXPECT_GT(result.sender.compression_ratio(), 1.2);
}

TEST(PipelineTest, NullCodecWireBytesExceedRaw) {
  const PipelineResult result = run_pipeline("null", 1, 1, 1, 1, 4);
  // Raw plus framing overhead.
  EXPECT_GT(result.sender.wire_bytes, result.sender.raw_bytes);
}

TEST(PipelineTest, ZeroChunksCompletesCleanly) {
  const PipelineResult result = run_pipeline("lz4", 2, 2, 2, 2, 0);
  EXPECT_EQ(result.sender.chunks, 0U);
  EXPECT_EQ(result.delivered_chunks, 0U);
}

TEST(PipelineTest, SenderConfigRejectedOnReceiver) {
  auto topo = discover_topology();
  ASSERT_TRUE(topo.ok());
  NodeConfig config;
  config.node_name = "x";
  config.role = NodeRole::kSender;
  config.tasks = {TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
                  TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  StreamSender sender(topo.value(), config);
  // Break the config after construction: unknown codec.
  NodeConfig bad = config;
  bad.codec_name = "bogus";
  StreamSender bad_sender(topo.value(), bad);
  TomoConfig tomo;
  tomo.rows = 8;
  tomo.cols = 8;
  TomoChunkSource source(tomo, 0, 1);
  InprocListener listener;
  auto stats = bad_sender.run(source, [&] { return listener.connect(); });
  EXPECT_FALSE(stats.ok());
}

TEST(PipelineTest, TomoChunkSourceIsExactlyCountedAndThreadSafe) {
  TomoConfig tomo;
  tomo.rows = 16;
  tomo.cols = 16;
  TomoChunkSource source(tomo, 5, 20);
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (source.next()) {
        total.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(total.load(), 20);
}

}  // namespace
}  // namespace numastream

namespace numastream {
namespace {


TEST(ObservationTest, RealPipelineProducesAdvisorObservation) {
  // Compression-heavy run: one compression thread on a multi-chunk stream
  // must read as the busiest stage.
  const PipelineResult result = run_pipeline("lz4", 1, 1, 1, 1, 10, 128, 200);
  const PipelineObservation observation =
      make_observation(result.sender, result.receiver);
  EXPECT_EQ(observation.compress.threads, 1);
  EXPECT_EQ(observation.send.threads, 1);
  EXPECT_EQ(observation.receive.threads, 1);
  EXPECT_EQ(observation.decompress.threads, 1);
  for (const StageObservation* stage :
       {&observation.compress, &observation.send, &observation.receive,
        &observation.decompress}) {
    EXPECT_GE(stage->utilization, 0.0);
    EXPECT_LE(stage->utilization, 1.0);
  }
  EXPECT_NEAR(observation.raw_throughput, result.receiver.raw_rate(), 1.0);
  // Compression dominates the CPU budget of this pipeline.
  EXPECT_GE(observation.compress.utilization, observation.send.utilization);
}

TEST(ObservationTest, AdvisorConsumesRealObservation) {
  const PipelineResult result = run_pipeline("lz4", 1, 1, 1, 1, 10, 128, 200);
  const PipelineObservation observation =
      make_observation(result.sender, result.receiver);
  const BottleneckAdvisor advisor;
  const AdvisorReport report = advisor.analyze(observation);
  // Whatever the verdict, it must be well-formed.
  if (report.bottleneck != StageKind::kNone) {
    EXPECT_GT(report.recommended_threads, 0);
    EXPECT_GT(report.bottleneck_per_thread, 0);
  }
  EXPECT_FALSE(report.rationale.empty());
}

}  // namespace
}  // namespace numastream
