// Observability subsystem tests (DESIGN.md §10): latency histograms, span
// rings and trace export, the MetricsRegistry, the `observe` config
// directive, the real pipeline's instrumentation, and — the property the
// whole design leans on — byte-identical traces from same-seed simulations.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "core/config_generator.h"
#include "core/pipeline.h"
#include "metrics/chaos_counters.h"
#include "metrics/fault_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/health_counters.h"
#include "metrics/overload_counters.h"
#include "metrics/resume_counters.h"
#include "metrics/scrub_counters.h"
#include "metrics/table.h"
#include "msg/tcp.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "simrt/driver.h"
#include "topo/discover.h"

namespace numastream {
namespace {

using obs::LatencyHistogram;
using obs::LatencySnapshot;
using obs::MetricsRegistry;
using obs::Span;
using obs::SpanRing;
using obs::Stage;
using obs::StageLatencies;
using obs::Tracer;

// ---------------------------------------------------------------- histogram

TEST(LatencyHistogramTest, BucketIndexIsLog2WithZeroBucket) {
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(0), 0U);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(1), 1U);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(2), 3U);
  EXPECT_EQ(LatencyHistogram::bucket_upper_ns(10), 1023U);
}

TEST(LatencyHistogramTest, PercentilesReportBucketUpperBounds) {
  LatencyHistogram histogram;
  for (int i = 0; i < 50; ++i) {
    histogram.record(1);
  }
  for (int i = 0; i < 50; ++i) {
    histogram.record(1000);  // bucket 10, upper bound 1023
  }
  EXPECT_EQ(histogram.count(), 100U);
  EXPECT_EQ(histogram.percentile_ns(0.50), 1U);
  EXPECT_EQ(histogram.percentile_ns(0.99), 1023U);
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100U);
  EXPECT_EQ(snap.p50_ns, 1U);
  EXPECT_EQ(snap.p99_ns, 1023U);
  EXPECT_EQ(snap.p999_ns, 1023U);
  EXPECT_EQ(snap.max_ns, 1023U);
}

TEST(LatencyHistogramTest, EmptySnapshotIsAllZero) {
  const LatencyHistogram histogram;
  EXPECT_EQ(histogram.snapshot(), LatencySnapshot{});
}

TEST(StageLatenciesTest, SplitsByStageAndDomain) {
  StageLatencies latencies(2);
  latencies.record(Stage::kCompress, 0, 100);
  latencies.record(Stage::kCompress, 1, 200);
  latencies.record(Stage::kCompress, -1, 300);  // OS-managed worker
  latencies.record(Stage::kSend, 0, 400);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kCompress).count, 3U);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kSend).count, 1U);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kReceive).count, 0U);
  EXPECT_EQ(latencies.domain_snapshot(Stage::kCompress, 0).count, 1U);
  EXPECT_EQ(latencies.domain_snapshot(Stage::kCompress, 1).count, 1U);
  EXPECT_EQ(latencies.domain_snapshot(Stage::kCompress, -1).count, 1U);
}

TEST(StageLatenciesTest, OutOfRangeDomainFoldsIntoOverallOnly) {
  StageLatencies latencies(2);
  latencies.record(Stage::kReceive, 7, 50);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kReceive).count, 1U);
  EXPECT_EQ(latencies.domain_snapshot(Stage::kReceive, 7).count, 0U);
}

TEST(StageLatenciesTest, TablesListOnlyStagesWithTraffic) {
  StageLatencies latencies(2);
  latencies.record(Stage::kDecompress, 1, 5000);
  EXPECT_EQ(latencies.table().row_count(), 1U);
  EXPECT_EQ(latencies.domain_table().row_count(), 1U);
  EXPECT_NE(latencies.table().render().find("decompress"), std::string::npos);
}

// ---------------------------------------------------------------- tracing

Span make_span(std::uint64_t sequence, std::uint32_t worker,
               std::uint64_t start_ns) {
  Span span;
  span.stream_id = 1;
  span.sequence = sequence;
  span.stage = Stage::kCompress;
  span.worker = worker;
  span.domain = 0;
  span.start_ns = start_ns;
  span.end_ns = start_ns + 10;
  return span;
}

TEST(SpanRingTest, DropsOldestAndCountsTheLoss) {
  SpanRing ring(4);
  const std::uint64_t kTotal = 100;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    ring.record(make_span(i, 0, i));
  }
  const auto spans = ring.drain();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(ring.dropped(), kTotal - spans.size());
  // Drop-oldest: what survives is the newest suffix, in record order.
  EXPECT_EQ(spans.back().sequence, kTotal - 1);
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].sequence, spans[i - 1].sequence + 1);
  }
}

TEST(TracerTest, RejectsOutOfRangeWorkerIdsAsDropped) {
  Tracer tracer(2, 16);
  tracer.record(make_span(0, 5, 0));  // no worker 5
  EXPECT_EQ(tracer.dropped_spans(), 1U);
  EXPECT_TRUE(tracer.drain_sorted().empty());
}

TEST(TracerTest, DrainSortedOrdersByStartTime) {
  Tracer tracer(3, 16);
  tracer.record(make_span(0, 2, 300));
  tracer.record(make_span(1, 0, 100));
  tracer.record(make_span(2, 1, 200));
  const auto spans = tracer.drain_sorted();
  ASSERT_EQ(spans.size(), 3U);
  EXPECT_EQ(spans[0].start_ns, 100U);
  EXPECT_EQ(spans[1].start_ns, 200U);
  EXPECT_EQ(spans[2].start_ns, 300U);
  EXPECT_EQ(tracer.dropped_spans(), 0U);
}

TEST(TraceExportTest, JsonlIsExactIntegerBytes) {
  Span span;
  span.stream_id = 2;
  span.sequence = 7;
  span.stage = Stage::kReceive;
  span.worker = 3;
  span.domain = 1;
  span.start_ns = 1000;
  span.end_ns = 2500;
  EXPECT_EQ(obs::spans_to_jsonl({span}),
            "{\"stream\":2,\"seq\":7,\"stage\":\"receive\",\"worker\":3,"
            "\"domain\":1,\"start_ns\":1000,\"end_ns\":2500}\n");
}

TEST(TraceExportTest, ChromeJsonUsesIntegerMicroseconds) {
  Span span;
  span.stream_id = 0;
  span.sequence = 1;
  span.stage = Stage::kSend;
  span.worker = 4;
  span.domain = -1;  // unbound worker -> pid 0
  span.start_ns = 1234567;
  span.end_ns = 1234567 + 2005;
  const std::string json = obs::spans_to_chrome_json({span});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1234.567"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.005"), std::string::npos);
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, SnapshotReadsSortedByName) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{42};
  ASSERT_TRUE(registry.register_counter("z.count", &counter).is_ok());
  ASSERT_TRUE(registry.register_gauge("a.depth", [] { return 3.5; }).is_ok());
  const auto snap = registry.snapshot(1.5);
  EXPECT_DOUBLE_EQ(snap.time_seconds, 1.5);
  ASSERT_EQ(snap.samples.size(), 2U);
  EXPECT_EQ(snap.samples[0].name, "a.depth");
  EXPECT_DOUBLE_EQ(snap.samples[0].value, 3.5);
  EXPECT_EQ(snap.samples[1].name, "z.count");
  EXPECT_DOUBLE_EQ(snap.samples[1].value, 42.0);
  EXPECT_TRUE(snap.has("z.count"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_DOUBLE_EQ(snap.value("missing"), 0.0);
}

TEST(MetricsRegistryTest, RejectsDuplicatesEmptyNamesAndNullCounters) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{0};
  ASSERT_TRUE(registry.register_counter("x", &counter).is_ok());
  EXPECT_EQ(registry.register_counter("x", &counter).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.register_counter("", &counter).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.register_counter("y", nullptr).code(),
            StatusCode::kInvalidArgument);
  // Names go raw into JSONL, so anything JSON would have to escape is
  // refused; commas stay legal (CSV quotes them).
  const std::vector<std::string> hostile = {
      "a\"b\\c",  "quote\"",     "back\\slash", "new\nline",
      "tab\there", "del\x7f", std::string("nul\0byte", 8)};
  for (const std::string& bad : hostile) {
    EXPECT_EQ(registry.register_counter(bad, &counter).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(registry.register_gauge(bad, [] { return 1.0; }).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(registry.size(), 1U);
}

TEST(MetricsRegistryTest, UnregisterIsIdempotent) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{0};
  ASSERT_TRUE(registry.register_counter("x", &counter).is_ok());
  registry.unregister("x");
  registry.unregister("x");  // unknown name: no-op
  EXPECT_EQ(registry.size(), 0U);
  // The name is free again after unregistration.
  EXPECT_TRUE(registry.register_counter("x", &counter).is_ok());
}

TEST(MetricsRegistryTest, LedgerRegistrationIsPrefixedAndAtomic) {
  MetricsRegistry registry;
  FaultCounters faults;
  faults.reconnects.fetch_add(3);
  ASSERT_TRUE(registry.register_ledger("fault", faults).is_ok());
  const auto snap = registry.snapshot(0);
  EXPECT_DOUBLE_EQ(snap.value("fault.reconnects"), 3.0);
  EXPECT_TRUE(snap.has("fault.corrupt_frames"));

  // All-or-nothing: a colliding name rolls the whole batch back.
  MetricsRegistry clashing;
  std::atomic<std::uint64_t> squatter{0};
  ASSERT_TRUE(clashing.register_counter("fault.reconnects", &squatter).is_ok());
  EXPECT_FALSE(clashing.register_ledger("fault", faults).is_ok());
  EXPECT_EQ(clashing.size(), 1U);  // only the squatter remains
}

// Every ledger reaches the registry through register_ledger: the whole
// field list under "<prefix>.<counter>", read live at snapshot time.
template <typename Ledger>
void expect_ledger_registered(MetricsRegistry& registry, const std::string& prefix,
                              Ledger& ledger, std::size_t expected_count) {
  const auto fields = Ledger::fields();
  ASSERT_EQ(fields.size(), expected_count) << prefix;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    (ledger.*fields[i].member).store(i + 1);
  }
  const std::size_t before = registry.size();
  ASSERT_TRUE(registry.register_ledger(prefix, ledger).is_ok()) << prefix;
  EXPECT_EQ(registry.size(), before + expected_count) << prefix;
  const auto snap = registry.snapshot(0);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::string name = prefix + "." + fields[i].name;
    EXPECT_TRUE(snap.has(name)) << name;
    EXPECT_DOUBLE_EQ(snap.value(name), static_cast<double>(i + 1)) << name;
  }
}

TEST(MetricsRegistryTest, EveryLedgerRegistersUnderItsPrefix) {
  MetricsRegistry registry;
  FaultCounters fault;
  OverloadCounters overload;
  HealthCounters health;
  ResumeCounters resume;
  FederationCounters federation;
  ScrubCounters scrub;
  ChaosCounters chaos;
  expect_ledger_registered(registry, "fault", fault, 15);
  expect_ledger_registered(registry, "overload", overload, 8);
  expect_ledger_registered(registry, "health", health, 6);
  expect_ledger_registered(registry, "resume", resume, 10);
  expect_ledger_registered(registry, "federation", federation, 17);
  expect_ledger_registered(registry, "scrub", scrub, 16);
  expect_ledger_registered(registry, "chaos", chaos, 10);
  EXPECT_EQ(registry.size(), 82U);

  const auto snap = registry.snapshot(0);
  EXPECT_TRUE(snap.has("fault.watchdog_trips"));
  EXPECT_TRUE(snap.has("overload.peak_bytes_in_flight"));
  EXPECT_TRUE(snap.has("health.time_in_degraded_ms"));
  EXPECT_TRUE(snap.has("resume.duplicate_deliveries_suppressed"));
  EXPECT_TRUE(snap.has("federation.epoch"));
  EXPECT_TRUE(snap.has("scrub.failover_lost_records"));
  EXPECT_TRUE(snap.has("chaos.schedules_shrunk"));

  // Reads are live: a later bump shows in the next snapshot.
  scrub.records_pulled.fetch_add(100);
  EXPECT_DOUBLE_EQ(registry.snapshot(1).value("scrub.records_pulled"), 110.0);

  // A collision anywhere in a non-fault ledger registers none of it.
  MetricsRegistry clashing;
  std::atomic<std::uint64_t> squatter{0};
  ASSERT_TRUE(clashing.register_counter("scrub.ranges_diverged", &squatter).is_ok());
  EXPECT_EQ(clashing.register_ledger("scrub", scrub).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(clashing.size(), 1U);
  EXPECT_TRUE(clashing.register_ledger("scrub2", scrub).is_ok());
  EXPECT_EQ(clashing.size(), 17U);
}

// A snapshot taken while ledgers register never sees part of one: every
// prefix it holds carries all of that ledger's names.
TEST(MetricsRegistryTest, ConcurrentSnapshotsNeverSeeHalfALedger) {
  constexpr int kLedgers = 200;
  const std::size_t per_ledger = FaultCounters::fields().size();
  MetricsRegistry registry;
  FaultCounters faults;
  std::atomic<bool> done{false};
  int partial_snapshots = 0;
  int snapshots = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const auto snap = registry.snapshot(0);
      ++snapshots;
      std::map<std::string, std::size_t> per_prefix;
      for (const auto& sample : snap.samples) {
        ++per_prefix[sample.name.substr(0, sample.name.find('.'))];
      }
      for (const auto& [prefix, names] : per_prefix) {
        if (names != per_ledger) {
          ++partial_snapshots;
          break;
        }
      }
    }
  });
  int failed_registrations = 0;
  for (int i = 0; i < kLedgers; ++i) {
    if (!registry.register_ledger("l" + std::to_string(i), faults).is_ok()) {
      ++failed_registrations;
    }
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(failed_registrations, 0);
  EXPECT_EQ(partial_snapshots, 0) << "of " << snapshots << " snapshots";
  EXPECT_EQ(registry.size(), kLedgers * per_ledger);
}

TEST(MetricsRegistryTest, RegistrationGuardUnregistersOnDestruction) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{0};
  {
    ASSERT_TRUE(registry.register_counter("guarded", &counter).is_ok());
    obs::RegistrationGuard guard(&registry, {"guarded"});
    EXPECT_EQ(registry.size(), 1U);
  }
  EXPECT_EQ(registry.size(), 0U);
}

TEST(SnapshotSeriesTest, ExportsCsvAndJsonl) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{5};
  ASSERT_TRUE(registry.register_counter("queue,depth", &counter).is_ok());
  obs::SnapshotSeries series;
  series.append(registry.snapshot(0.5));
  counter.store(9);
  series.append(registry.snapshot(1.0));

  const auto rows = parse_csv(series.to_csv());
  ASSERT_EQ(rows.size(), 3U);
  EXPECT_EQ(rows[0],
            (std::vector<std::string>{"time_seconds", "metric", "value"}));
  EXPECT_EQ(rows[1][1], "queue,depth");  // hostile name survives round-trip
  EXPECT_EQ(rows[2][2].substr(0, 1), "9");

  const std::string jsonl = series.to_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("\"time_s\":"), std::string::npos);

  const TextTable table = series.latest_table();
  EXPECT_EQ(table.row_count(), 1U);
}

TEST(SnapshotSamplerTest, SamplesUntilStopped) {
  MetricsRegistry registry;
  std::atomic<std::uint64_t> counter{1};
  ASSERT_TRUE(registry.register_counter("c", &counter).is_ok());
  obs::SnapshotSampler sampler(&registry, 5);
  sampler.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.stop();
  // stop() takes a final snapshot, so even slow machines see at least one.
  ASSERT_GE(sampler.series().snapshots().size(), 1U);
  EXPECT_DOUBLE_EQ(sampler.series().snapshots().back().value("c"), 1.0);
}

// ---------------------------------------------------------------- config

TEST(ObserveConfigTest, DefaultConfigSerializesWithoutTheDirective) {
  NodeConfig config;
  config.node_name = "n";
  config.tasks = {TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
                  TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  const std::string text = config.serialize();
  EXPECT_EQ(text.find("observe"), std::string::npos);
  // Byte-identical round-trip: configs that never mention observe must
  // serialize exactly as they did before the directive existed.
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().serialize(), text);
  EXPECT_TRUE(parsed.value().observe.is_default());
  EXPECT_FALSE(parsed.value().observe.enabled());
}

TEST(ObserveConfigTest, DirectiveRoundTrips) {
  NodeConfig config;
  config.node_name = "n";
  config.observe.trace = true;
  config.observe.latency = true;
  config.tasks = {TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
                  TaskGroupConfig{.type = TaskType::kSend, .count = 1}};
  const std::string text = config.serialize();
  EXPECT_NE(text.find("observe trace=on latency=on"), std::string::npos);
  auto parsed = NodeConfig::parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().observe, config.observe);
  EXPECT_TRUE(parsed.value().observe.enabled());
  EXPECT_EQ(parsed.value().serialize(), text);
}

TEST(ObserveConfigTest, DuplicateDirectiveIsAParseError) {
  const std::string text =
      "node n\nrole sender\nobserve trace=on\nobserve latency=on\n"
      "task compress count=1 exec=os mem=os\ntask send count=1 exec=os mem=os\n";
  auto parsed = NodeConfig::parse(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("duplicate"), std::string::npos);
}

TEST(ObserveConfigTest, BadAttributeValuesAreParseErrors) {
  const std::string prefix =
      "node n\nrole sender\n";
  const std::string suffix =
      "\ntask compress count=1 exec=os mem=os\ntask send count=1 exec=os mem=os\n";
  EXPECT_FALSE(NodeConfig::parse(prefix + "observe trace=maybe" + suffix).ok());
  EXPECT_FALSE(NodeConfig::parse(prefix + "observe latency=1" + suffix).ok());
  EXPECT_FALSE(NodeConfig::parse(prefix + "observe ring_capacity=huge" + suffix).ok());
  EXPECT_FALSE(NodeConfig::parse(prefix + "observe wat=1" + suffix).ok());
  EXPECT_FALSE(NodeConfig::parse(prefix + "observe trace" + suffix).ok());
}

}  // namespace
}  // namespace numastream

// ------------------------------------------------------- real pipeline

namespace numastream {
namespace {

TomoConfig obs_tomo() {
  TomoConfig config;
  config.rows = 64;
  config.cols = 100;
  config.num_spheres = 4;
  return config;
}

struct PipelineRun {
  SenderStats sender;
  ReceiverStats receiver;
  std::uint64_t delivered = 0;
};

/// Runs the real TCP-loopback pipeline with the given observe policy and
/// obs hooks on both ends (2 compress, 2 send / 2 receive, 2 decompress).
PipelineRun run_observed_pipeline(const ObserveConfig& observe,
                                  ObsHooks sender_hooks, ObsHooks receiver_hooks,
                                  std::uint64_t chunks) {
  auto topo = discover_topology();
  NS_CHECK(topo.ok(), "tests need a discoverable host");
  const TomoConfig tomo = obs_tomo();

  NodeConfig sender_config;
  sender_config.node_name = "obs-sender";
  sender_config.role = NodeRole::kSender;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.observe = observe;
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 2},
      TaskGroupConfig{.type = TaskType::kSend, .count = 2},
  };
  NodeConfig receiver_config;
  receiver_config.node_name = "obs-receiver";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.observe = observe;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  NS_CHECK(listener.ok(), "bind failed");
  const std::uint16_t port = listener.value()->port();

  TomoChunkSource source(tomo, 1, chunks);
  CountingSink sink;
  PipelineRun run;

  std::thread sender_thread([&] {
    StreamSender sender(topo.value(), sender_config);
    auto stats = sender.run(
        source, [&] { return tcp_connect("127.0.0.1", port); }, nullptr,
        nullptr, {}, {}, sender_hooks);
    NS_CHECK(stats.ok(), "sender failed");
    run.sender = stats.value();
  });
  StreamReceiver receiver(topo.value(), receiver_config);
  auto stats = receiver.run(*listener.value(), sink, nullptr, nullptr, {}, {},
                            receiver_hooks);
  sender_thread.join();
  NS_CHECK(stats.ok(), "receiver failed");
  run.receiver = stats.value();
  run.delivered = sink.chunks();
  return run;
}

TEST(PipelineObservabilityTest, DefaultConfigRecordsNothingEvenWithHooks) {
  Tracer tracer(4, 64);
  StageLatencies latencies(2);
  MetricsRegistry registry;
  const ObsHooks hooks{.tracer = &tracer,
                       .latencies = &latencies,
                       .registry = &registry};
  const PipelineRun run =
      run_observed_pipeline(ObserveConfig{}, hooks, hooks, 10);
  EXPECT_EQ(run.delivered, 10U);
  // Observability defaults off: hooks alone must not enable anything.
  EXPECT_TRUE(tracer.drain_sorted().empty());
  EXPECT_EQ(tracer.dropped_spans(), 0U);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kCompress).count, 0U);
  EXPECT_EQ(registry.size(), 0U);
}

TEST(PipelineObservabilityTest, TracingCoversTheChunkLifecycle) {
  ObserveConfig observe;
  observe.trace = true;
  observe.latency = true;
  // Worker-id layouts: sender compress [0,2) + send [2,4); receiver
  // receive [0,2) + decompress [2,4).
  Tracer sender_tracer(4, 1024);
  Tracer receiver_tracer(4, 1024);
  StageLatencies latencies(4);
  MetricsRegistry registry;
  const std::uint64_t kChunks = 20;
  const PipelineRun run = run_observed_pipeline(
      observe,
      ObsHooks{.tracer = &sender_tracer,
               .latencies = &latencies,
               .registry = &registry},
      ObsHooks{.tracer = &receiver_tracer,
               .latencies = &latencies,
               .registry = &registry},
      kChunks);
  EXPECT_EQ(run.delivered, kChunks);

  std::array<std::uint64_t, obs::kStageCount> by_stage{};
  for (const Span& span : sender_tracer.drain_sorted()) {
    ASSERT_LE(span.start_ns, span.end_ns);
    ++by_stage[static_cast<int>(span.stage)];
  }
  for (const Span& span : receiver_tracer.drain_sorted()) {
    ASSERT_LE(span.start_ns, span.end_ns);
    ++by_stage[static_cast<int>(span.stage)];
  }
  // Every chunk passes every stage exactly once (no drops in this run).
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kGenerate)], kChunks);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kCompress)], kChunks);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kSend)], kChunks);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kReceive)], kChunks);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kDecompress)], kChunks);
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kSink)], kChunks);
  // Enqueue spans come from both the compress and the receive side.
  EXPECT_EQ(by_stage[static_cast<int>(Stage::kEnqueue)], 2 * kChunks);

  EXPECT_EQ(latencies.stage_snapshot(Stage::kCompress).count, kChunks);
  EXPECT_EQ(latencies.stage_snapshot(Stage::kDecompress).count, kChunks);
  // Gauges were unregistered when the runs ended.
  EXPECT_EQ(registry.size(), 0U);
}

TEST(PipelineObservabilityTest, LatencySnapshotsFlowIntoTheObservation) {
  ObserveConfig observe;
  observe.latency = true;
  StageLatencies latencies(4);
  const ObsHooks hooks{.latencies = &latencies};
  const PipelineRun run = run_observed_pipeline(observe, hooks, hooks, 15);
  const PipelineObservation observation =
      make_observation(run.sender, run.receiver, nullptr, &latencies);
  EXPECT_TRUE(observation.latency.any());
  EXPECT_EQ(observation.latency.compress.count, 15U);
  EXPECT_EQ(observation.latency.receive.count, 15U);
  EXPECT_GT(observation.latency.compress.p99_ns, 0U);
}

}  // namespace
}  // namespace numastream

// ------------------------------------------------------- sim determinism

namespace numastream::simrt {
namespace {

ExperimentOptions observed_options() {
  ExperimentOptions options;
  options.chunks_per_stream = 40;
  options.link.bandwidth_gbps = 200;
  options.observe.trace = true;
  options.observe.latency = true;
  return options;
}

Result<ExperimentResult> run_observed_plan(const ExperimentOptions& options) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology("updraft1"),
                                                updraft_topology("updraft2")};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec workload;
  workload.num_streams = 2;
  workload.compression_threads = 8;
  workload.transfer_threads = 2;
  workload.decompression_threads = 2;
  auto plan = generator.generate(workload, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");
  return run_plan(senders, lynx, plan.value(), options);
}

TEST(TraceDeterminismTest, SameSeedRunsEmitByteIdenticalTraces) {
  auto first = run_observed_plan(observed_options());
  auto second = run_observed_plan(observed_options());
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  ASSERT_FALSE(first.value().spans.empty());
  EXPECT_EQ(first.value().dropped_spans, 0U);

  const std::string jsonl1 = obs::spans_to_jsonl(first.value().spans);
  const std::string jsonl2 = obs::spans_to_jsonl(second.value().spans);
  EXPECT_FALSE(jsonl1.empty());
  EXPECT_EQ(jsonl1, jsonl2);  // byte-identical, the tentpole guarantee
  EXPECT_EQ(obs::spans_to_chrome_json(first.value().spans),
            obs::spans_to_chrome_json(second.value().spans));
  EXPECT_EQ(first.value().observation.latency.receive,
            second.value().observation.latency.receive);
}

TEST(TraceDeterminismTest, SimSpansCoverEveryStage) {
  auto result = run_observed_plan(observed_options());
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  std::array<std::uint64_t, obs::kStageCount> by_stage{};
  for (const obs::Span& span : result.value().spans) {
    ASSERT_LE(span.start_ns, span.end_ns);
    ++by_stage[static_cast<int>(span.stage)];
  }
  for (std::uint64_t count : by_stage) {
    EXPECT_GT(count, 0U);
  }
  // Both streams delivered every chunk, so sink spans count them all.
  EXPECT_EQ(by_stage[static_cast<int>(obs::Stage::kSink)], 2U * 40U);
  EXPECT_TRUE(result.value().observation.latency.any());
}

TEST(TraceDeterminismTest, ObservationOffLeavesResultEmpty) {
  ExperimentOptions options = observed_options();
  options.observe = ObserveConfig{};
  auto result = run_observed_plan(options);
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().spans.empty());
  EXPECT_EQ(result.value().dropped_spans, 0U);
  EXPECT_FALSE(result.value().observation.latency.any());
}

}  // namespace
}  // namespace numastream::simrt
