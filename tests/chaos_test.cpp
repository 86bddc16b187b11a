// Chaos subsystem tests (DESIGN.md §16): the protocol invariant catalog,
// the two-gateway chaos harness over directed link cuts, and the
// random-walk explorer with shrinking repro bundles. The link cuts and the
// byte-level faults themselves are tested in fault_test.cpp.
//
// The acceptance spine lives here: 200 randomized episodes must pass every
// probe on the real protocol stack, and the deliberately planted fencing
// bug must be found, shrunk to a handful of events, and replayed
// bit-identically from its serialized bundle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/explorer.h"
#include "check/harness.h"
#include "check/invariant.h"
#include "check/schedule.h"
#include "cluster/failover.h"
#include "core/config.h"
#include "core/journal.h"
#include "metrics/chaos_counters.h"
#include "msg/faulty.h"

namespace numastream {
namespace {

using check::ChaosEvent;
using check::ChaosEventKind;
using check::ChaosExplorer;
using check::ChaosExplorerOptions;
using check::ChaosHarness;
using check::ChaosHarnessOptions;
using check::ChaosSchedule;
using check::InvariantMonitor;
using check::InvariantProbe;
using check::InvariantViolation;
using check::ReproBundle;

// ---------------------------------------------------------------- config

constexpr const char* kBaseConfig =
    "node x\n"
    "role receiver\n"
    "codec lz4\n"
    "task receive count=1 exec=0 mem=0\n"
    "task decompress count=1 exec=0 mem=0\n";

TEST(ConfigDuplicateDirectiveTest, EverySingletonDirectiveIsChecked) {
  const struct {
    const char* name;
    const char* extra;
  } kCases[] = {
      // kBaseConfig already carries one of each, so a single extra line is
      // the duplicate.
      {"node", "node y\n"},
      {"role", "role sender\n"},
      {"codec", "codec zstd\n"},
  };
  for (const auto& test_case : kCases) {
    const auto status =
        NodeConfig::parse(std::string(kBaseConfig) + test_case.extra).status();
    ASSERT_FALSE(status.is_ok()) << test_case.name;
    EXPECT_NE(status.message().find("duplicate"), std::string::npos)
        << test_case.name << ": " << status.message();
    EXPECT_NE(status.message().find(test_case.name), std::string::npos)
        << status.message();
  }
  // chunk_bytes/queue_capacity are not in kBaseConfig; explicit pairs.
  EXPECT_FALSE(NodeConfig::parse(std::string(kBaseConfig) +
                                 "chunk_bytes 64\nchunk_bytes 64\n")
                   .ok());
  EXPECT_FALSE(NodeConfig::parse(std::string(kBaseConfig) +
                                 "queue_capacity 4\nqueue_capacity 4\n")
                   .ok());
}

// -------------------------------------------------------------- invariant

Bytes journal_with_deliveries(std::uint32_t stream_id,
                              std::uint64_t sequences) {
  Bytes journal;
  for (std::uint64_t sequence = 0; sequence < sequences; ++sequence) {
    JournalRecord record;
    record.type = JournalRecordType::kDelivered;
    record.stream_id = stream_id;
    record.sequence = sequence;
    record.offset = sequence;
    const Bytes encoded = encode_journal_record(record);
    journal.insert(journal.end(), encoded.begin(), encoded.end());
  }
  return journal;
}

TEST(InvariantMonitorTest, CleanRunStaysClean) {
  InvariantMonitor monitor;
  monitor.on_epoch(7, 1);
  monitor.on_delivery(0, 1, 0, 0);
  monitor.on_delivery(0, 1, 0, 1);
  monitor.on_epoch(7, 2);
  monitor.on_drain(0, 0);
  EXPECT_TRUE(monitor.clean());
  EXPECT_EQ(monitor.deliveries(), 2U);
  EXPECT_EQ(monitor.acked_frontier(0), 2U);
}

TEST(InvariantMonitorTest, DuplicateDeliveryTripsExactlyOnce) {
  ChaosCounters counters;
  InvariantMonitor monitor(&counters);
  monitor.on_delivery(0, 1, 5, 0);
  monitor.on_delivery(1, 2, 5, 0);  // different gateway, same (stream, seq)
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kExactlyOnce);
  EXPECT_EQ(monitor.violations()[0].stream_id, 5U);
  EXPECT_EQ(counters.violations_found.load(), 1U);
}

TEST(InvariantMonitorTest, TwoPrimariesAtOneEpochCaught) {
  InvariantMonitor monitor;
  monitor.on_delivery(0, 4, 1, 0);
  monitor.on_delivery(1, 4, 1, 1);  // distinct seq, same epoch, other gateway
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kSinglePrimary);
}

TEST(InvariantMonitorTest, EpochRollbackCaught) {
  InvariantMonitor monitor;
  monitor.on_epoch(7, 3);
  monitor.on_epoch(7, 4);
  EXPECT_TRUE(monitor.clean());
  monitor.on_epoch(7, 2);
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kEpochMonotone);
}

TEST(InvariantMonitorTest, PromoteRequiresSuperset) {
  InvariantMonitor monitor;
  for (std::uint64_t sequence = 0; sequence < 3; ++sequence) {
    monitor.on_delivery(0, 1, 2, sequence);
  }
  // A standby journal holding all three acked records: clean.
  monitor.on_promote(journal_with_deliveries(2, 3));
  EXPECT_TRUE(monitor.clean());
  // One holding only the first: the promote would lose acked data.
  monitor.on_promote(journal_with_deliveries(2, 1));
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kStandbySuperset);
  EXPECT_EQ(monitor.violations()[0].sequence, 1U);  // first missing seq
}

TEST(InvariantMonitorTest, WatermarkBelowFrontierIsAHole) {
  InvariantMonitor monitor;
  for (std::uint64_t sequence = 0; sequence < 5; ++sequence) {
    monitor.on_delivery(0, 1, 9, sequence);
  }
  monitor.on_failover_watermark(9, 5);  // exactly the frontier: clean
  EXPECT_TRUE(monitor.clean());
  monitor.on_failover_watermark(9, 3);
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kNoHoles);
}

TEST(InvariantMonitorTest, UnsettledLedgersCaughtAtDrain) {
  InvariantMonitor monitor;
  monitor.on_drain(4096, 0);
  monitor.on_drain(0, -2);
  const auto violations = monitor.violations();
  ASSERT_EQ(violations.size(), 2U);
  EXPECT_EQ(violations[0].probe, InvariantProbe::kLedgerSettle);
  EXPECT_EQ(violations[1].probe, InvariantProbe::kLedgerSettle);
}

TEST(InvariantMonitorTest, ProbeNamesRoundTrip) {
  for (const InvariantProbe probe :
       {InvariantProbe::kExactlyOnce, InvariantProbe::kEpochMonotone,
        InvariantProbe::kSinglePrimary, InvariantProbe::kStandbySuperset,
        InvariantProbe::kLedgerSettle, InvariantProbe::kNoHoles}) {
    auto parsed = check::invariant_probe_from_string(check::to_string(probe));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), probe);
  }
  EXPECT_FALSE(check::invariant_probe_from_string("telepathy").ok());
}

class CollectSink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override { chunks.push_back(std::move(chunk)); }
  std::vector<Chunk> chunks;
};

TEST(ProbeSinkTest, ReportsAndForwards) {
  InvariantMonitor monitor;
  CollectSink inner;
  check::ProbeSink sink(inner, monitor, /*gateway=*/0, /*epoch=*/1);

  Chunk chunk;
  chunk.stream_id = 4;
  chunk.sequence = 0;
  chunk.payload = Bytes{1, 2, 3};
  sink.deliver(chunk);
  EXPECT_TRUE(monitor.clean());
  ASSERT_EQ(inner.chunks.size(), 1U);
  EXPECT_EQ(inner.chunks[0].payload, (Bytes{1, 2, 3}));

  sink.deliver(chunk);  // same (stream, seq) again
  EXPECT_FALSE(monitor.clean());
  EXPECT_EQ(inner.chunks.size(), 2U);  // forwarded regardless: passive probe
}

// ---------------------------------------------------------------- schedule

TEST(ChaosScheduleTest, SerializationRoundTrips) {
  Rng rng(99);
  const ChaosSchedule schedule = check::random_schedule(rng, 32, 3);
  ASSERT_EQ(schedule.size(), 32U);
  const std::string text = check::serialize_schedule(schedule);
  auto parsed = check::parse_schedule(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().size(), schedule.size());
  EXPECT_EQ(check::serialize_schedule(parsed.value()), text);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(parsed.value()[i], schedule[i]) << i;
  }
}

TEST(ChaosScheduleTest, MalformedLinesRejected) {
  EXPECT_FALSE(check::parse_schedule("event teleport a=0 b=0 n=0\n").ok());
  EXPECT_FALSE(check::parse_schedule("event deliver a=0 b=0\n").ok());
  EXPECT_FALSE(check::parse_schedule("deliver a=0 b=0 n=1\n").ok());
  EXPECT_FALSE(check::parse_schedule("event deliver a=zap b=0 n=1\n").ok());
  EXPECT_FALSE(
      check::parse_schedule("event partition a=4294967297 b=0 n=0\n").ok());
  EXPECT_FALSE(check::parse_schedule("event deliver a=-1 b=0 n=1\n").ok());
  EXPECT_FALSE(check::parse_schedule("event deliver a=0 b=0 n=1x\n").ok());
  EXPECT_TRUE(check::parse_schedule("").ok());
}

// ----------------------------------------------------------------- harness

ChaosEvent deliver_event(std::uint32_t stream_id, std::uint64_t count) {
  ChaosEvent event;
  event.kind = ChaosEventKind::kDeliver;
  event.a = stream_id;
  event.n = count;
  return event;
}

ChaosEvent plain_event(ChaosEventKind kind, std::uint32_t a = 0,
                       std::uint32_t b = 0, std::uint64_t n = 0) {
  ChaosEvent event;
  event.kind = kind;
  event.a = a;
  event.b = b;
  event.n = n;
  return event;
}

TEST(ChaosHarnessTest, OptionsRoundTrip) {
  ChaosHarnessOptions options;
  options.seed = 123456789;
  options.streams = 3;
  options.plant_fencing_bug = true;
  const std::string line = check::serialize_options(options);
  auto parsed = check::parse_options(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), options);
  EXPECT_EQ(check::serialize_options(parsed.value()), line);

  EXPECT_FALSE(check::parse_options("options seed=1").ok());  // missing keys
  EXPECT_FALSE(check::parse_options("optoins seed=1 streams=1 "
                                    "plant_fencing_bug=off")
                   .ok());
  EXPECT_FALSE(check::parse_options("options seed=-1 streams=2 "
                                    "plant_fencing_bug=off")
                   .ok());
  EXPECT_FALSE(check::parse_options("options seed=1 streams=4294967298 "
                                    "plant_fencing_bug=off")
                   .ok());
}

TEST(ChaosHarnessTest, CleanDeliveryCommits) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({deliver_event(0, 3), deliver_event(1, 2),
               plain_event(ChaosEventKind::kDrain)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 3U);
  EXPECT_EQ(harness.committed(1), 2U);
  EXPECT_EQ(harness.acting_owner(), 0);
}

TEST(ChaosHarnessTest, FailoverPromotesStandbyAndFencesTheOldOwner) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({deliver_event(0, 2), plain_event(ChaosEventKind::kFailover),
               deliver_event(0, 2)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 4U);
  EXPECT_EQ(harness.acting_owner(), 1);
  EXPECT_TRUE(harness.fenced(0));  // learned its fate on the first re-ship
  EXPECT_FALSE(harness.believes_owner(0));
}

TEST(ChaosHarnessTest, PlantedFencingBugSplitBrains) {
  ChaosHarnessOptions options;
  options.plant_fencing_bug = true;
  InvariantMonitor monitor;
  ChaosHarness harness(options, monitor);
  // The 2-event kill shot: promote the standby, then deliver — the stale
  // primary ignores its fence verdict and both sides commit sequence 0.
  harness.run({plain_event(ChaosEventKind::kFailover), deliver_event(0, 1)});
  ASSERT_FALSE(monitor.clean());
  EXPECT_EQ(monitor.violations()[0].probe, InvariantProbe::kExactlyOnce);

  // The identical schedule on an unplanted harness is clean: the fence
  // holds and exactly one side commits.
  InvariantMonitor clean_monitor;
  ChaosHarness clean_harness({}, clean_monitor);
  clean_harness.run(
      {plain_event(ChaosEventKind::kFailover), deliver_event(0, 1)});
  EXPECT_TRUE(clean_monitor.clean());
}

TEST(ChaosHarnessTest, CrashRestartRecoversFromTheJournal) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({deliver_event(0, 3), plain_event(ChaosEventKind::kCrash, 0),
               plain_event(ChaosEventKind::kFailover),
               deliver_event(0, 2),  // blocked: buddy (g0) is dead
               plain_event(ChaosEventKind::kRestart, 0),
               deliver_event(0, 2)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 5U);
  EXPECT_EQ(harness.acting_owner(), 1);
}

TEST(ChaosHarnessTest, OneWayAckLossNeverViolatesSafety) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  // Cut only the ack path (g1 -> g0): the standby keeps applying, the
  // primary keeps failing its flush — blocked, never wrong.
  harness.run({deliver_event(0, 2),
               plain_event(ChaosEventKind::kPartitionOneWay, 1, 0),
               deliver_event(0, 2)});
  EXPECT_EQ(harness.committed(0), 2U);  // nothing acked past the cut
  harness.run({plain_event(ChaosEventKind::kHeal),
               plain_event(ChaosEventKind::kFailover), deliver_event(0, 1)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.acting_owner(), 1);
}

TEST(ChaosHarnessTest, CutsCountDroppedFramesAndAcks) {
  ChaosCounters counters;
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor, &counters);
  harness.run({deliver_event(0, 1)});  // opens the REPL session cleanly
  EXPECT_EQ(counters.frames_dropped.load(), 0U);
  EXPECT_EQ(counters.acks_dropped.load(), 0U);

  // Forward cut (g0 -> g1): the ship dies on the way out, unapplied.
  harness.run({plain_event(ChaosEventKind::kPartitionOneWay, 0, 1),
               deliver_event(0, 1)});
  EXPECT_EQ(counters.frames_dropped.load(), 1U);
  EXPECT_EQ(counters.acks_dropped.load(), 0U);

  // Reverse cut (g1 -> g0): the standby applies the ship, the ack dies.
  harness.run({plain_event(ChaosEventKind::kHeal),
               plain_event(ChaosEventKind::kPartitionOneWay, 1, 0),
               deliver_event(0, 1)});
  EXPECT_EQ(counters.frames_dropped.load(), 1U);
  EXPECT_EQ(counters.acks_dropped.load(), 1U);
  EXPECT_EQ(harness.committed(0), 1U);  // neither cut let a commit through
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
}

TEST(ChaosHarnessTest, PlannedHandoffTransfersOwnership) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({deliver_event(0, 2), plain_event(ChaosEventKind::kHandoff, 0),
               deliver_event(0, 2)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 4U);
  EXPECT_EQ(harness.acting_owner(), 1);
  EXPECT_TRUE(harness.fenced(0));
}

TEST(ChaosHarnessTest, RotScrubAndFailoverCompose) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({deliver_event(0, 4), plain_event(ChaosEventKind::kRot, 0, 0, 2),
               plain_event(ChaosEventKind::kScrub),
               plain_event(ChaosEventKind::kFailover), deliver_event(0, 1),
               plain_event(ChaosEventKind::kDrain)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 5U);
}

TEST(ChaosHarnessTest, OverloadSettlesItsLedgers) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);
  harness.run({plain_event(ChaosEventKind::kOverload, 0, 0, 4),
               plain_event(ChaosEventKind::kDrain)});
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 4U);
}

// Satellite 4: asymmetric replication partitions. A one-way cut must trip
// the failure detector on exactly one side, and the subsequent takeover
// must never leave two unfenced primaries committing.
TEST(AsymmetricPartitionTest, OneWayLossTripsExactlyOneDetector) {
  ClusterConfig config;
  config.gateways = 2;
  config.self = 0;
  LinkCuts cuts(2);
  cluster::PeerFailureDetector detector(config);
  // watch[g] = gateway g's view of its peer (1 - g).
  const int watch[2] = {detector.track("gateway-1"), detector.track("gateway-0")};
  for (int window = 0; window < 4; ++window) {
    detector.observe(watch[0], 1.0);
    detector.observe(watch[1], 1.0);
  }

  // Heartbeats flow 1 -> 0 but not 0 -> 1: gateway 1 hears silence from
  // its peer, gateway 0 hears a perfectly healthy one.
  cuts.partition_one_way(0, 1);
  for (int window = 0; window < config.miss_windows + 2; ++window) {
    detector.observe(watch[0], cuts.cut(1, 0) ? 0.0 : 1.0);
    detector.observe(watch[1], cuts.cut(0, 1) ? 0.0 : 1.0);
  }
  EXPECT_FALSE(detector.dead(watch[0]));  // g0 still hears g1
  EXPECT_TRUE(detector.dead(watch[1]));   // g1 lost g0: exactly one trips
}

TEST(AsymmetricPartitionTest, TakeoverAfterOneWayCutNeverSplitBrains) {
  InvariantMonitor monitor;
  ChaosHarness harness({}, monitor);

  (void)harness.apply(deliver_event(0, 2));
  EXPECT_EQ(harness.committed(0), 2U);

  // Cut the REPL request path (g0 -> g1): the old owner can no longer get
  // anything acked, so it blocks rather than committing.
  (void)harness.apply(plain_event(ChaosEventKind::kPartitionOneWay, 0, 1));
  (void)harness.apply(deliver_event(0, 1));
  EXPECT_EQ(harness.committed(0), 2U);

  // The standby takes over. NOW both gateways believe they own the
  // session — the classic split-brain *belief* — but neither can commit:
  // the stale side's requests die on the cut link, and the new primary's
  // acks die on the same link in the other role. One directed cut blocks
  // both round-trips while tripping only one detector, and blocked is
  // always safe.
  (void)harness.apply(plain_event(ChaosEventKind::kFailover));
  EXPECT_TRUE(harness.believes_owner(0));
  EXPECT_TRUE(harness.believes_owner(1));
  EXPECT_FALSE(harness.fenced(0));
  (void)harness.apply(deliver_event(0, 2));
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_EQ(harness.committed(0), 2U);  // nobody committed across the cut

  // Heal and deliver again: the stale side's first exchange sees the
  // higher epoch and it is fenced — belief collapses to one primary, and
  // only then does the new primary's commit stream advance.
  (void)harness.apply(plain_event(ChaosEventKind::kHeal));
  (void)harness.apply(deliver_event(0, 1));
  EXPECT_TRUE(monitor.clean()) << monitor.violations()[0].to_string();
  EXPECT_TRUE(harness.fenced(0));
  EXPECT_FALSE(harness.believes_owner(0));
  EXPECT_FALSE(harness.fenced(1));
  EXPECT_EQ(harness.acting_owner(), 1);
  EXPECT_EQ(harness.committed(0), 3U);
  const int unfenced_primaries =
      (harness.believes_owner(0) && !harness.fenced(0) ? 1 : 0) +
      (harness.believes_owner(1) && !harness.fenced(1) ? 1 : 0);
  EXPECT_EQ(unfenced_primaries, 1);
}

// ---------------------------------------------------------------- explorer

TEST(ChaosExplorerTest, BundleSerializationIsBitIdentical) {
  ReproBundle bundle;
  bundle.seed = 987654321;
  bundle.episode = 17;
  bundle.options.seed = 1111;
  bundle.options.streams = 2;
  bundle.options.plant_fencing_bug = true;
  bundle.schedule = {plain_event(ChaosEventKind::kFailover),
                     deliver_event(0, 1)};
  bundle.violation.probe = InvariantProbe::kExactlyOnce;
  bundle.violation.stream_id = 0;
  bundle.violation.sequence = 0;

  const std::string text = check::serialize_bundle(bundle);
  auto parsed = check::parse_bundle(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().seed, bundle.seed);
  EXPECT_EQ(parsed.value().episode, bundle.episode);
  EXPECT_EQ(parsed.value().options, bundle.options);
  EXPECT_EQ(parsed.value().violation.probe, bundle.violation.probe);
  ASSERT_EQ(parsed.value().schedule.size(), 2U);
  EXPECT_EQ(check::serialize_bundle(parsed.value()), text);
}

TEST(ChaosExplorerTest, BundleParserRejectsDamage) {
  EXPECT_FALSE(check::parse_bundle("").ok());
  EXPECT_FALSE(check::parse_bundle("chaosbundle v2\n").ok());
  ReproBundle bundle;
  bundle.options.seed = 1;
  bundle.schedule = {deliver_event(0, 1)};
  std::string text = check::serialize_bundle(bundle);
  // Truncate the schedule while the count still claims one event.
  const auto last_event = text.rfind("event ");
  ASSERT_NE(last_event, std::string::npos);
  EXPECT_FALSE(check::parse_bundle(text.substr(0, last_event)).ok());
}

TEST(ChaosExplorerTest, BundleNumbersAreReadWhole) {
  ReproBundle bundle;
  bundle.options.seed = 1;
  bundle.schedule = {deliver_event(0, 1)};
  const std::string text = check::serialize_bundle(bundle);
  ASSERT_TRUE(check::parse_bundle(text).ok());
  const auto damaged = [&](const std::string& from, const std::string& to) {
    std::string copy = text;
    const auto at = copy.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return copy.replace(at, from.size(), to);
  };
  EXPECT_FALSE(check::parse_bundle(damaged("seed 0", "seed -1")).ok());
  EXPECT_FALSE(
      check::parse_bundle(damaged("episode 0", "episode 4294967296")).ok());
  EXPECT_FALSE(check::parse_bundle(damaged("stream=0", "stream=0x")).ok());
  EXPECT_FALSE(check::parse_bundle(damaged("seq=0", "seq=0 extra")).ok());
  EXPECT_FALSE(check::parse_bundle(damaged("schedule 1", "schedule 1z")).ok());
}

TEST(ChaosExplorerTest, TwoHundredRandomEpisodesPassEveryProbe) {
  ChaosExplorerOptions options;
  options.seed = 0xC0FFEE;
  options.episodes = 200;
  options.events = 12;
  ChaosCounters counters;
  ChaosExplorer explorer(options, &counters);
  const auto report = explorer.explore();
  EXPECT_FALSE(report.found) << check::serialize_bundle(report.bundle);
  EXPECT_EQ(report.episodes_run, 200U);
  EXPECT_EQ(counters.episodes_run.load(), 200U);
  EXPECT_EQ(counters.violations_found.load(), 0U);
  EXPECT_GT(counters.events_injected.load(), 0U);
}

TEST(ChaosExplorerTest, FindsThePlantedFencingBugAndShrinksIt) {
  ChaosExplorerOptions options;
  options.seed = 0xBAD5EED;
  options.episodes = 50;  // bounded budget from the acceptance criteria
  options.events = 12;
  options.plant_fencing_bug = true;
  ChaosCounters counters;
  ChaosExplorer explorer(options, &counters);
  const auto report = explorer.explore();
  ASSERT_TRUE(report.found);
  EXPECT_LE(report.bundle.schedule.size(), 6U)
      << check::serialize_bundle(report.bundle);
  EXPECT_GE(counters.schedules_shrunk.load(), 1U);
  EXPECT_GT(counters.shrink_steps.load(), 0U);

  // The bundle replays deterministically: same violation, twice.
  EXPECT_TRUE(ChaosExplorer::replay(report.bundle).is_ok());
  EXPECT_TRUE(ChaosExplorer::replay(report.bundle).is_ok());

  // And the whole exploration is deterministic: a second explorer with the
  // same options produces a bit-identical bundle.
  ChaosExplorer again(options);
  const auto second = again.explore();
  ASSERT_TRUE(second.found);
  EXPECT_EQ(check::serialize_bundle(second.bundle),
            check::serialize_bundle(report.bundle));

  // 1-minimality: removing ANY single event stops reproducing the probe.
  for (std::size_t skip = 0; skip < report.bundle.schedule.size(); ++skip) {
    ChaosSchedule reduced;
    for (std::size_t i = 0; i < report.bundle.schedule.size(); ++i) {
      if (i != skip) {
        reduced.push_back(report.bundle.schedule[i]);
      }
    }
    bool reproduced = false;
    for (const InvariantViolation& violation :
         ChaosExplorer::run_schedule(report.bundle.options, reduced)) {
      reproduced |= violation.probe == report.bundle.violation.probe;
    }
    EXPECT_FALSE(reproduced) << "event " << skip << " is removable";
  }
}

// Recorded before the chaos mesh was folded into the byte-level fault
// layer: the harness drew nothing from the mesh's per-link RNGs, so the
// planted-bug find and the clean sweep's counters must not move.
TEST(ChaosPinTest, PlantedBugBundleAndCleanSweepCounters) {
  ChaosExplorerOptions planted;
  planted.seed = 0xBAD5EED;
  planted.episodes = 50;
  planted.events = 12;
  planted.plant_fencing_bug = true;
  const auto found = ChaosExplorer(planted).explore();
  ASSERT_TRUE(found.found);
  EXPECT_EQ(check::serialize_bundle(found.bundle),
            "chaosbundle v1\n"
            "seed 195911405\n"
            "episode 0\n"
            "options seed=2622493724182900236 streams=2 plant_fencing_bug=on\n"
            "violation exactly_once stream=0 seq=0\n"
            "schedule 2\n"
            "event failover a=0 b=0 n=0\n"
            "event overload a=0 b=0 n=3\n");

  ChaosExplorerOptions sweep;
  sweep.seed = 0xC0FFEE;
  sweep.episodes = 200;
  sweep.events = 12;
  ChaosCounters counters;
  ASSERT_FALSE(ChaosExplorer(sweep, &counters).explore().found);
  const ChaosCountersSnapshot sum = counters.snapshot();
  EXPECT_EQ(sum.partitions_cut, 348U);
  EXPECT_EQ(sum.partitions_healed, 79U);
  EXPECT_EQ(sum.frames_dropped, 374U);
  EXPECT_EQ(sum.acks_dropped, 90U);
  EXPECT_EQ(sum.episodes_run, 200U);
  EXPECT_EQ(sum.events_injected, 2600U);
  EXPECT_EQ(sum.probes_fired, 2617U);
  EXPECT_EQ(sum.violations_found, 0U);
  EXPECT_EQ(sum.shrink_steps, 0U);
  EXPECT_EQ(sum.schedules_shrunk, 0U);
}

TEST(ChaosExplorerTest, ReplayRejectsABundleThatDoesNotReproduce) {
  ReproBundle bundle;
  bundle.options.seed = 5;
  bundle.schedule = {deliver_event(0, 1)};  // clean schedule, no bug
  bundle.violation.probe = InvariantProbe::kExactlyOnce;
  const Status replayed = ChaosExplorer::replay(bundle);
  ASSERT_FALSE(replayed.is_ok());
  EXPECT_EQ(replayed.code(), StatusCode::kDataLoss);
}

TEST(ChaosCountersTest, TableAndStringRender) {
  ChaosCounters counters;
  EXPECT_NE(counters.snapshot().to_string().find("clean"), std::string::npos);
  counters.episodes_run.fetch_add(3);
  counters.frames_dropped.fetch_add(2);
  const auto snapshot = counters.snapshot();
  EXPECT_EQ(snapshot.episodes_run, 3U);
  EXPECT_EQ(snapshot.frames_dropped, 2U);
  const std::string table =
      counter_table(snapshot, /*nonzero_only=*/true).render();
  EXPECT_NE(table.find("episodes_run"), std::string::npos);
  EXPECT_EQ(table.find("acks_dropped"), std::string::npos);
}

}  // namespace
}  // namespace numastream
