#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <tuple>

#include "core/config_generator.h"
#include "simrt/driver.h"
#include "simrt/pipeline.h"

namespace numastream::simrt {
namespace {

/// Builds a single-stream pipeline on lynxdtn-like hardware for direct tests.
struct Rig {
  sim::Simulation sim;
  MachineTopology lynx_topo = lynxdtn_topology();
  MachineTopology updraft_topo = updraft_topology();
  std::unique_ptr<SimHost> lynx;
  std::unique_ptr<SimHost> updraft;
  std::unique_ptr<SimLink> link;
  Calibration calib;

  explicit Rig(double link_gbps = 100) {
    lynx = std::make_unique<SimHost>(sim, lynx_topo, HostParams{});
    updraft = std::make_unique<SimHost>(sim, updraft_topo, HostParams{});
    link = std::make_unique<SimLink>(sim, "path",
                                     LinkParams{.bandwidth_gbps = link_gbps});
  }

  StreamPipeline::Spec base_spec(std::uint64_t chunks) {
    StreamPipeline::Spec spec;
    spec.chunks = chunks;
    spec.sender_host = updraft.get();
    spec.receiver_host = lynx.get();
    spec.link = link.get();
    spec.sender_nic = updraft->nic_resource("mlx5_stream").value();
    spec.receiver_nic = lynx->nic_resource("mlx5_stream").value();
    spec.receiver_nic_domain = 1;
    return spec;
  }
};

double gbps(double bytes, double seconds) {
  return bytes_per_sec_to_gbps(bytes / seconds);
}

TEST(StreamPipelineTest, NetworkOnlySingleThreadMatchesCalibration) {
  Rig rig;
  auto spec = rig.base_spec(200);
  spec.compress = false;
  spec.send_workers = {{.core = 16}};
  spec.receive_workers = {{.core = 16}};  // NIC domain: local packets
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  // One receive core at 4 GB/s = 32 Gbps is the bottleneck.
  EXPECT_NEAR(gbps(pipeline.wire_bytes_received(), pipeline.finished_at()), 32.0, 1.0);
  EXPECT_EQ(pipeline.chunks_delivered(), 200U);
}

TEST(StreamPipelineTest, RemoteReceiverLosesFifteenPercent) {
  auto run = [](int recv_core) {
    Rig rig;
    auto spec = rig.base_spec(200);
    spec.compress = false;
    spec.send_workers = {{.core = 16}};
    spec.receive_workers = {{.core = recv_core}};
    StreamPipeline pipeline(rig.sim, rig.calib, spec);
    pipeline.launch();
    rig.sim.run();
    return gbps(pipeline.wire_bytes_received(), pipeline.finished_at());
  };
  const double local = run(16);   // domain 1 = NIC domain
  const double remote = run(0);   // domain 0: cross-socket packet reads
  EXPECT_NEAR(remote / local, 1.0 / 1.176, 0.01);  // the paper's ~15%
}

TEST(StreamPipelineTest, CompressedStreamHalvesWireBytes) {
  Rig rig;
  auto spec = rig.base_spec(60);
  spec.compress_workers = StreamPipeline::pinned_workers({0, 1, 2, 3});
  spec.send_workers = {{.core = 16}, {.core = 17}};
  spec.receive_workers = {{.core = 16}, {.core = 17}};
  spec.decompress_workers = StreamPipeline::pinned_workers({0, 1});
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  EXPECT_EQ(pipeline.chunks_delivered(), 60U);
  EXPECT_NEAR(pipeline.raw_bytes_delivered() / pipeline.wire_bytes_received(),
              rig.calib.compression_ratio, 1e-9);
}

TEST(StreamPipelineTest, CompressionThreadScalingIsLinearBelowCores) {
  auto run = [](int comp_threads) {
    Rig rig(200);
    auto spec = rig.base_spec(150);
    std::vector<int> cores;
    for (int i = 0; i < comp_threads; ++i) {
      cores.push_back(i);  // all domain 0, <= 16 threads
    }
    spec.compress_workers = StreamPipeline::pinned_workers(cores);
    spec.send_workers = {{.core = 16}, {.core = 17}, {.core = 18}, {.core = 19}};
    spec.receive_workers = {{.core = 16}, {.core = 17}, {.core = 18}, {.core = 19}};
    spec.decompress_workers =
        StreamPipeline::pinned_workers({0, 1, 2, 3, 4, 5, 6, 7});
    StreamPipeline pipeline(rig.sim, rig.calib, spec);
    pipeline.launch();
    rig.sim.run();
    return gbps(pipeline.raw_bytes_delivered(), pipeline.finished_at());
  };
  const double four = run(4);
  const double eight = run(8);
  EXPECT_NEAR(eight / four, 2.0, 0.1);  // Observation 2: linear scaling
}

TEST(StreamPipelineTest, OversubscribedCompressionStopsScaling) {
  // 32 threads on the 16 cores of one domain must not beat 16 threads.
  auto run = [](int comp_threads) {
    Rig rig(200);
    auto spec = rig.base_spec(150);
    std::vector<int> cores;
    for (int i = 0; i < comp_threads; ++i) {
      cores.push_back(i % 16);
    }
    spec.compress_workers = StreamPipeline::pinned_workers(cores);
    spec.send_workers = {{.core = 16}, {.core = 17}, {.core = 18}, {.core = 19}};
    spec.receive_workers = {{.core = 16}, {.core = 17}, {.core = 18}, {.core = 19}};
    spec.decompress_workers =
        StreamPipeline::pinned_workers({0, 1, 2, 3, 4, 5, 6, 7});
    StreamPipeline pipeline(rig.sim, rig.calib, spec);
    pipeline.launch();
    rig.sim.run();
    return gbps(pipeline.raw_bytes_delivered(), pipeline.finished_at());
  };
  EXPECT_LT(run(32), run(16) * 1.001);  // Observation 2: decline past cores
}

TEST(StreamPipelineTest, SourceRateCapBindsThePipeline) {
  Rig rig;
  auto spec = rig.base_spec(100);
  spec.compress = false;
  spec.send_workers = {{.core = 16}, {.core = 17}};
  spec.receive_workers = {{.core = 16}, {.core = 17}};
  spec.source_bytes_per_sec = gbps_to_bytes_per_sec(10.0);
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  EXPECT_NEAR(gbps(pipeline.wire_bytes_received(), pipeline.finished_at()), 10.0, 0.5);
}

TEST(StreamPipelineTest, PerConnectionCapBinds) {
  Rig rig;
  auto spec = rig.base_spec(100);
  spec.compress = false;
  spec.send_workers = {{.core = 16}};
  spec.receive_workers = {{.core = 16}};
  spec.per_connection_cap = gbps_to_bytes_per_sec(8.0);
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  EXPECT_NEAR(gbps(pipeline.wire_bytes_received(), pipeline.finished_at()), 8.0, 0.5);
}

TEST(StreamPipelineTest, DeterministicAcrossRuns) {
  auto run = [] {
    Rig rig;
    auto spec = rig.base_spec(50);
    spec.compress_workers = StreamPipeline::pinned_workers({0, 1});
    spec.send_workers = {{.core = 16}};
    spec.receive_workers = {{.core = 17}};
    spec.decompress_workers = StreamPipeline::pinned_workers({2});
    StreamPipeline pipeline(rig.sim, rig.calib, spec);
    pipeline.launch();
    rig.sim.run();
    return pipeline.finished_at();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// ----------------------------------------------------- overload protection

// Shared shape for the overload tests: a receiver whose decompress stage
// runs at ~10% of the senders' pace, so upstream pressure is guaranteed.
StreamPipeline::Spec throttled_spec(Rig& rig, std::uint64_t chunks) {
  rig.calib.decompress_bytes_per_sec /= 10.0;
  auto spec = rig.base_spec(chunks);
  spec.compress_workers = StreamPipeline::pinned_workers({0, 1, 2, 3});
  spec.send_workers = {{.core = 16}, {.core = 17}};
  spec.receive_workers = {{.core = 16}, {.core = 17}};
  spec.decompress_workers = StreamPipeline::pinned_workers({0});
  return spec;
}

TEST(StreamPipelineTest, CreditWindowStallsSenderBehindSlowReceiver) {
  Rig rig;
  auto spec = throttled_spec(rig, 40);
  spec.overload.credit_window = 2;
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  // Flow control is lossless: everything still arrives, the sender just waits.
  EXPECT_EQ(pipeline.chunks_delivered(), 40U);
  EXPECT_GT(pipeline.credit_stalls(), 0U);
  EXPECT_EQ(pipeline.shed_chunks(), 0U);
}

TEST(StreamPipelineTest, MemoryBudgetCapsPeakInFlightBytes) {
  Rig rig;
  auto spec = throttled_spec(rig, 40);
  const double wire_chunk = spec.chunk_bytes / rig.calib.compression_ratio;
  spec.overload.budget_bytes = static_cast<std::uint64_t>(3 * wire_chunk);
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  EXPECT_EQ(pipeline.chunks_delivered(), 40U);
  EXPECT_GT(pipeline.budget_stalls(), 0U);
  // The acceptance invariant: the high-water mark never exceeds the cap.
  EXPECT_GT(pipeline.peak_bytes_in_flight(), 0.0);
  EXPECT_LE(pipeline.peak_bytes_in_flight(),
            static_cast<double>(spec.overload.budget_bytes));
}

TEST(StreamPipelineTest, ShedWatermarksDropButConserveAccounting) {
  Rig rig;
  auto spec = throttled_spec(rig, 60);
  spec.overload.shed_policy = ShedPolicy::kDropNewest;
  spec.overload.high_watermark = 4;
  spec.overload.low_watermark = 1;
  StreamPipeline pipeline(rig.sim, rig.calib, spec);
  pipeline.launch();
  rig.sim.run();
  EXPECT_GT(pipeline.shed_chunks(), 0U);
  // Every chunk is either delivered or counted shed — never silently gone.
  EXPECT_EQ(pipeline.chunks_delivered() + pipeline.shed_chunks(), 60U);
}

TEST(StreamPipelineTest, OverloadCountersAreDeterministic) {
  struct Counters {
    std::uint64_t delivered, shed, credit, budget, peak;
    bool operator==(const Counters&) const = default;
  };
  auto run = [] {
    Rig rig;
    auto spec = throttled_spec(rig, 50);
    spec.overload.credit_window = 2;
    spec.overload.budget_bytes = static_cast<std::uint64_t>(
        4 * spec.chunk_bytes / rig.calib.compression_ratio);
    spec.overload.shed_policy = ShedPolicy::kDropNewest;
    spec.overload.high_watermark = 5;
    spec.overload.low_watermark = 2;
    StreamPipeline pipeline(rig.sim, rig.calib, spec);
    pipeline.launch();
    rig.sim.run();
    return Counters{pipeline.chunks_delivered(), pipeline.shed_chunks(),
                    pipeline.credit_stalls(), pipeline.budget_stalls(),
                    static_cast<std::uint64_t>(pipeline.peak_bytes_in_flight())};
  };
  EXPECT_TRUE(run() == run());
}

TEST(DriverTest, OverloadOptionsFlowThroughToStreamResults) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec workload;
  workload.num_streams = 1;
  workload.compression_threads = 16;
  workload.transfer_threads = 2;
  workload.decompression_threads = 2;
  auto plan = generator.generate(workload, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());
  plan.value().senders[0].overload.credit_window = 2;
  plan.value().receiver.overload.credit_window = 2;

  ExperimentOptions options;
  options.chunks_per_stream = 40;
  options.calib.decompress_bytes_per_sec /= 20.0;
  auto result = run_plan(senders, lynx, plan.value(), options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  ASSERT_EQ(result.value().streams.size(), 1U);
  EXPECT_GT(result.value().streams[0].credit_stalls, 0U);
  EXPECT_GT(result.value().observation.overload.credit_stalls, 0U);
}

// ---------------------------------------------------------------- driver

ExperimentOptions fast_options() {
  ExperimentOptions options;
  options.chunks_per_stream = 60;
  options.link.bandwidth_gbps = 200;
  return options;
}

TEST(DriverTest, PaperScenarioRuntimeBeatsOs) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {
      updraft_topology("updraft1"), updraft_topology("updraft2"),
      polaris_topology("polaris1"), polaris_topology("polaris2")};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 4;
  spec.compression_threads = 32;
  spec.transfer_threads = 4;
  spec.decompression_threads = 4;

  ExperimentOptions options = fast_options();
  options.source_gbps = 100;

  auto runtime_plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  auto os_plan = generator.generate(spec, PlacementStrategy::kOsManaged);
  ASSERT_TRUE(runtime_plan.ok());
  ASSERT_TRUE(os_plan.ok());

  auto runtime = run_plan(senders, lynx, runtime_plan.value(), options);
  auto os = run_plan(senders, lynx, os_plan.value(), options);
  ASSERT_TRUE(runtime.ok()) << runtime.status().to_string();
  ASSERT_TRUE(os.ok()) << os.status().to_string();

  // The paper's headline: ~1.48x. Accept anything solidly above 1.2x here
  // (the exact factor is asserted by the fig14 bench with full chunk counts).
  EXPECT_GT(runtime.value().e2e_gbps, os.value().e2e_gbps * 1.2);
  // End-to-end = 2x network (the 2:1 codec identity of Fig. 14).
  EXPECT_NEAR(runtime.value().e2e_gbps / runtime.value().network_gbps, 2.0, 1e-6);
  EXPECT_EQ(runtime.value().streams.size(), 4U);
  for (const auto& stream : runtime.value().streams) {
    EXPECT_EQ(stream.chunks, options.chunks_per_stream);
  }
}

TEST(DriverTest, ReceiverUsageShowsNicDomainActivity) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());
  auto result = run_plan(senders, lynx, plan.value(), fast_options());
  ASSERT_TRUE(result.ok());
  // Receive threads were pinned to domain 1 (cores 16+): some activity there.
  double domain1 = 0;
  for (int core = 16; core < 32; ++core) {
    domain1 += result.value().receiver_core_utilization[static_cast<std::size_t>(core)];
  }
  EXPECT_GT(domain1, 0.1);
}

TEST(DriverTest, RemoteAccessAppearsWhenReceiversOnWrongSocket) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  NodeConfig sender;
  sender.node_name = "updraft1";
  sender.role = NodeRole::kSender;
  sender.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress,
                      .count = 8,
                      .bindings = {NumaBinding{.execution_domain = 0,
                                               .memory_domain = 0}}},
      TaskGroupConfig{.type = TaskType::kSend,
                      .count = 2,
                      .bindings = {NumaBinding{.execution_domain = 1,
                                               .memory_domain = 1}}},
  };
  NodeConfig receiver;
  receiver.node_name = "lynxdtn";
  receiver.role = NodeRole::kReceiver;
  receiver.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive,
                      .count = 2,
                      .bindings = {NumaBinding{.execution_domain = 0,  // wrong socket
                                               .memory_domain = 0}}},
      TaskGroupConfig{.type = TaskType::kDecompress,
                      .count = 4,
                      .bindings = {NumaBinding{.execution_domain = 0,
                                               .memory_domain = 0}}},
  };
  auto result = run_experiment(senders, {sender}, lynx, receiver, fast_options());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  // Fig. 7's signature: remote access concentrated on the receiving cores.
  double remote_total = 0;
  for (const double v : result.value().receiver_remote_normalized) {
    remote_total += v;
  }
  EXPECT_GT(remote_total, 0.5);
}

TEST(DriverTest, AsymmetricSendReceiveRejected) {
  const MachineTopology lynx = lynxdtn_topology();
  NodeConfig sender;
  sender.node_name = "s";
  sender.role = NodeRole::kSender;
  sender.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
      TaskGroupConfig{.type = TaskType::kSend, .count = 3},
  };
  NodeConfig receiver;
  receiver.node_name = "r";
  receiver.role = NodeRole::kReceiver;
  receiver.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},  // != 3 senders
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };
  auto result = run_experiment({updraft_topology()}, {sender}, lynx, receiver,
                               fast_options());
  EXPECT_FALSE(result.ok());
}

TEST(DriverTest, MismatchedTopologyCountRejected) {
  NodeConfig config;
  config.node_name = "x";
  auto result = run_experiment({}, {}, lynxdtn_topology(), config, fast_options());
  EXPECT_FALSE(result.ok());
}

/// One change to a generated single-stream plan (and the options it runs
/// under), named for failure messages.
struct PlanEdit {
  const char* name;
  void (*apply)(StreamingPlan& plan, ExperimentOptions& options);
};

/// Runs the default single-stream plan with `edits` applied in order.
Result<ExperimentResult> run_edited(std::initializer_list<PlanEdit> edits,
                                    ExperimentOptions options) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  auto plan = generator.generate(WorkloadSpec{}, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation must succeed");
  for (const PlanEdit& edit : edits) {
    edit.apply(plan.value(), options);
  }
  return run_plan(senders, lynx, plan.value(), options);
}

// Every pipeline knob the simulator models is read from the configs it runs:
// moving one in the plan changes the simulated run.
TEST(DriverTest, ConfigPolicyReachesTheSimulator) {
  ExperimentOptions options = fast_options();
  options.chunks_per_stream = 200;
  options.calib.decompress_bytes_per_sec /= 20.0;  // pressure on every queue
  // A budget no run reaches makes peak_bytes_in_flight read the depth the
  // queues and windows let the pipeline hold.
  const PlanEdit base = {"roomy budget", [](StreamingPlan& plan, ExperimentOptions&) {
    plan.senders[0].overload.budget_bytes = 64 * kProjectionChunkBytes;
  }};
  const auto fingerprint = [](const ExperimentResult& result) {
    const StreamResult& stream = result.streams.at(0);
    return std::make_tuple(result.elapsed_seconds, stream.peak_bytes_in_flight,
                           stream.credit_stalls, stream.shed_chunks);
  };
  const auto baseline = run_edited({base}, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();
  const PlanEdit edits[] = {
      {"sender queue_capacity",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].queue_capacity = 2;
       }},
      {"receiver queue_capacity",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.receiver.queue_capacity = 2;
       }},
      {"chunk_bytes",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].chunk_bytes = kProjectionChunkBytes / 2;
       }},
      {"credit_window",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].overload.credit_window = 2;
         plan.receiver.overload.credit_window = 2;
       }},
      {"budget_bytes",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].overload.budget_bytes = 2 * kProjectionChunkBytes;
       }},
      {"shed=drop_newest",
       [](StreamingPlan& plan, ExperimentOptions&) {
         OverloadConfig& overload = plan.senders[0].overload;
         overload.shed_policy = ShedPolicy::kDropNewest;
         overload.high_watermark = 4;
         overload.low_watermark = 1;
       }},
  };
  for (const PlanEdit& edit : edits) {
    const auto result = run_edited({base, edit}, options);
    ASSERT_TRUE(result.ok()) << edit.name << ": " << result.status().to_string();
    EXPECT_NE(fingerprint(result.value()), fingerprint(baseline.value()))
        << edit.name;
  }
}

// Configs that validate() accepts but the simulator cannot run are
// INVALID_ARGUMENT, never an abort inside the pipeline.
TEST(DriverTest, UnsimulatableConfigIsRejected) {
  const PlanEdit edits[] = {
      {"budget 1",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].overload.budget_bytes = 1;
       }},
      {"budget -5",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].overload.budget_bytes = static_cast<std::uint64_t>(-5);
       }},
      {"budget below one wire chunk",
       [](StreamingPlan& plan, ExperimentOptions& options) {
         options.calib.compression_ratio = 0.5;  // the wire chunk doubles
         plan.senders[0].overload.budget_bytes = plan.senders[0].chunk_bytes;
       }},
      {"high watermark 100",
       [](StreamingPlan& plan, ExperimentOptions&) {
         OverloadConfig& overload = plan.senders[0].overload;
         overload.shed_policy = ShedPolicy::kDropNewest;
         overload.high_watermark = 100;
       }},
      {"low 4 / high 2",
       [](StreamingPlan& plan, ExperimentOptions&) {
         OverloadConfig& overload = plan.senders[0].overload;
         overload.shed_policy = ShedPolicy::kDropNewest;
         overload.high_watermark = 2;
         overload.low_watermark = 4;
       }},
      {"shedding without compress",
       [](StreamingPlan& plan, ExperimentOptions& options) {
         options.compress = false;
         OverloadConfig& overload = plan.senders[0].overload;
         overload.shed_policy = ShedPolicy::kDropNewest;
         overload.high_watermark = 6;
         overload.low_watermark = 2;
       }},
      {"sender without compress threads",
       [](StreamingPlan& plan, ExperimentOptions&) {
         std::erase_if(plan.senders[0].tasks, [](const TaskGroupConfig& group) {
           return group.type == TaskType::kCompress;
         });
       }},
      {"credit on the sender only",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.senders[0].overload.credit_window = 2;
       }},
      {"credit on the receiver only",
       [](StreamingPlan& plan, ExperimentOptions&) {
         plan.receiver.overload.credit_window = 2;
       }},
  };
  for (const PlanEdit& edit : edits) {
    EXPECT_EQ(run_edited({edit}, fast_options()).status().code(),
              StatusCode::kInvalidArgument)
        << edit.name;
  }
}

TEST(DriverTest, DeterministicWithFixedSeeds) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kOsManaged);
  ASSERT_TRUE(plan.ok());
  auto a = run_plan(senders, lynx, plan.value(), fast_options());
  auto b = run_plan(senders, lynx, plan.value(), fast_options());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a.value().e2e_gbps, b.value().e2e_gbps);
}

TEST(DriverTest, OsSeedChangesOsPlacementOutcome) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kOsManaged);
  ASSERT_TRUE(plan.ok());
  ExperimentOptions options = fast_options();
  auto a = run_plan(senders, lynx, plan.value(), options);
  options.os_seed = 99;
  auto b = run_plan(senders, lynx, plan.value(), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().e2e_gbps, b.value().e2e_gbps);
}

}  // namespace
}  // namespace numastream::simrt

namespace numastream::simrt {
namespace {

TEST(DriverTest, TimelinesShowRampAndPlateau) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());

  ExperimentOptions options;
  options.chunks_per_stream = 200;
  options.link.bandwidth_gbps = 200;
  options.timeline_bucket_seconds = 0.01;
  auto result = run_plan(senders, lynx, plan.value(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().stream_timelines.size(), 1U);

  const RateTimeline& timeline = result.value().stream_timelines[0];
  EXPECT_GT(timeline.bucket_count(), 3U);
  // The plateau rate seen by the timeline matches the reported average.
  EXPECT_NEAR(bytes_per_sec_to_gbps(timeline.mean_active_rate()),
              result.value().streams[0].e2e_gbps, result.value().streams[0].e2e_gbps * 0.2);
  // Total bytes across buckets equal the delivered volume.
  double total = 0;
  for (const double rate : timeline.rates()) {
    total += rate * timeline.bucket_seconds();
  }
  EXPECT_NEAR(total,
              static_cast<double>(options.chunks_per_stream) * kProjectionChunkBytes,
              1.0);
}

TEST(DriverTest, TimelinesOffByDefault) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(plan.ok());
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  auto result = run_plan(senders, lynx, plan.value(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().stream_timelines.empty());
}

}  // namespace
}  // namespace numastream::simrt
