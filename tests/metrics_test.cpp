#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "metrics/chaos_counters.h"
#include "metrics/core_usage.h"
#include "metrics/fault_counters.h"
#include "metrics/federation_counters.h"
#include "metrics/health_counters.h"
#include "metrics/overload_counters.h"
#include "metrics/remote_access.h"
#include "metrics/resume_counters.h"
#include "metrics/scrub_counters.h"
#include "metrics/table.h"
#include "metrics/throughput.h"
#include "metrics/timeline.h"

namespace numastream {
namespace {

TEST(ThroughputMeterTest, CountsBytesFromManyThreads) {
  ThroughputMeter meter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        meter.add_bytes(10);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(meter.total_bytes(), 40000U);
}

TEST(ThroughputMeterTest, RateIsBytesOverElapsed) {
  ThroughputMeter meter;
  meter.start();
  meter.add_bytes(1000000);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double rate = meter.bytes_per_second();
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 1000000.0 / 0.045);  // can't be faster than elapsed allows
}

// Regression: bytes recorded before start() (connection warm-up) used to be
// counted in the measurement window, inflating every reported rate. start()
// must snapshot a baseline that excludes them.
TEST(ThroughputMeterTest, StartExcludesBytesRecordedBeforeIt) {
  ThroughputMeter meter;
  meter.add_bytes(1'000'000'000);  // warm-up traffic before the clock starts
  meter.start();
  EXPECT_EQ(meter.window_bytes(), 0U);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // With an empty window the rate must be exactly 0 — the old code divided
  // the warm-up gigabyte by 20ms and reported ~400 Gbps here.
  EXPECT_DOUBLE_EQ(meter.bytes_per_second(), 0.0);
  meter.add_bytes(500);
  EXPECT_EQ(meter.window_bytes(), 500U);
  EXPECT_EQ(meter.total_bytes(), 1'000'000'500U);
}

TEST(ThroughputMeterTest, RestartResetsTheWindow) {
  ThroughputMeter meter;
  meter.start();
  meter.add_bytes(100);
  meter.start();  // second window
  EXPECT_EQ(meter.window_bytes(), 0U);
  meter.add_bytes(7);
  EXPECT_EQ(meter.window_bytes(), 7U);
}

TEST(SummaryStatsTest, Empty) {
  const SummaryStats stats = SummaryStats::from({});
  EXPECT_EQ(stats.count, 0U);
  EXPECT_DOUBLE_EQ(stats.mean, 0);
}

TEST(SummaryStatsTest, SingleValue) {
  const SummaryStats stats = SummaryStats::from({5.0});
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_DOUBLE_EQ(stats.min, 5.0);
  EXPECT_DOUBLE_EQ(stats.max, 5.0);
  EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
}

TEST(SummaryStatsTest, KnownValues) {
  const SummaryStats stats = SummaryStats::from({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(stats.mean, 5.0);
  EXPECT_DOUBLE_EQ(stats.min, 2.0);
  EXPECT_DOUBLE_EQ(stats.max, 9.0);
  // Sample stddev of this classic set is sqrt(32/7).
  EXPECT_NEAR(stats.stddev, std::sqrt(32.0 / 7.0), 1e-12);
}

// ---------------------------------------------------------------- usage

TEST(CoreUsageMatrixTest, UtilizationIsBusyOverElapsed) {
  CoreUsageMatrix usage(4);
  usage.add_busy_time(0, 5.0);
  usage.add_busy_time(1, 10.0);
  usage.set_elapsed(10.0);
  EXPECT_DOUBLE_EQ(usage.utilization(0), 0.5);
  EXPECT_DOUBLE_EQ(usage.utilization(1), 1.0);
  EXPECT_DOUBLE_EQ(usage.utilization(2), 0.0);
}

TEST(CoreUsageMatrixTest, OversubscriptionClampsToOne) {
  CoreUsageMatrix usage(1);
  usage.add_busy_time(0, 25.0);
  usage.set_elapsed(10.0);
  EXPECT_DOUBLE_EQ(usage.utilization(0), 1.0);
}

TEST(CoreUsageMatrixTest, ZeroElapsedReadsZero) {
  CoreUsageMatrix usage(2);
  usage.add_busy_time(0, 1.0);
  EXPECT_DOUBLE_EQ(usage.utilization(0), 0.0);
}

TEST(CoreUsageMatrixTest, RenderColumnShades) {
  CoreUsageMatrix usage(4);
  usage.add_busy_time(0, 0.0);
  usage.add_busy_time(1, 5.0);
  usage.add_busy_time(2, 10.0);
  usage.set_elapsed(10.0);
  const std::string column = usage.render_column();
  ASSERT_EQ(column.size(), 4U);
  EXPECT_EQ(column[0], ' ');   // idle
  EXPECT_EQ(column[1], '5');   // 50%
  EXPECT_EQ(column[2], '#');   // saturated
  EXPECT_EQ(column[3], ' ');
}

TEST(CoreUsageMatrixTest, CsvHasOneRowPerCore) {
  CoreUsageMatrix usage(3);
  usage.add_busy_time(1, 1.0);
  usage.set_elapsed(2.0);
  const std::string csv = usage.to_csv("cfg");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("cfg,1,0.5000"), std::string::npos);
}

TEST(CoreUsageMatrixTest, HeatmapLaysOutColumns) {
  CoreUsageMatrix a(2);
  a.add_busy_time(0, 1.0);
  a.set_elapsed(1.0);
  CoreUsageMatrix b(2);
  b.add_busy_time(1, 1.0);
  b.set_elapsed(1.0);
  const std::string map = render_usage_heatmap({"cfgA", "cfgB"}, {a, b});
  EXPECT_NE(map.find("core  0"), std::string::npos);
  EXPECT_NE(map.find("cfgA"), std::string::npos);
  EXPECT_NE(map.find("cfgB"), std::string::npos);
  EXPECT_NE(map.find('#'), std::string::npos);
}

// ---------------------------------------------------------------- remote

TEST(RemoteAccessCounterTest, TracksLocalAndRemote) {
  RemoteAccessCounter counter(4);
  counter.add_local_bytes(0, 100);
  counter.add_remote_bytes(0, 300);
  counter.add_remote_bytes(1, 600);
  EXPECT_EQ(counter.local_bytes(0), 100U);
  EXPECT_EQ(counter.remote_bytes(0), 300U);
  EXPECT_DOUBLE_EQ(counter.remote_fraction(0), 0.75);
  EXPECT_DOUBLE_EQ(counter.remote_fraction(3), 0.0);  // idle core
}

TEST(RemoteAccessCounterTest, NormalizedAgainstPeakCore) {
  RemoteAccessCounter counter(3);
  counter.add_remote_bytes(0, 500);
  counter.add_remote_bytes(2, 1000);
  const auto normalized = counter.normalized_remote();
  EXPECT_DOUBLE_EQ(normalized[0], 0.5);
  EXPECT_DOUBLE_EQ(normalized[1], 0.0);
  EXPECT_DOUBLE_EQ(normalized[2], 1.0);
}

TEST(RemoteAccessCounterTest, AllZeroWhenNoRemoteTraffic) {
  RemoteAccessCounter counter(2);
  counter.add_local_bytes(0, 100);
  const auto normalized = counter.normalized_remote();
  EXPECT_DOUBLE_EQ(normalized[0], 0.0);
  EXPECT_DOUBLE_EQ(normalized[1], 0.0);
}

TEST(RemoteAccessCounterTest, Csv) {
  RemoteAccessCounter counter(2);
  counter.add_local_bytes(0, 10);
  counter.add_remote_bytes(1, 20);
  const std::string csv = counter.to_csv("run");
  EXPECT_NE(csv.find("run,0,10,0,0.0000"), std::string::npos);
  EXPECT_NE(csv.find("run,1,0,20,1.0000"), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable table({"config", "paper", "ours"});
  table.add_row({"A", "37.0", "36.5"});
  table.add_row({"G-N1", "97.0", "96.1"});
  const std::string text = table.render();
  EXPECT_NE(text.find("config"), std::string::npos);
  EXPECT_NE(text.find("G-N1"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(TextTableTest, NumericRowHelper) {
  TextTable table({"x", "a", "b"});
  table.add_row("row", {1.234, 5.0}, 1);
  EXPECT_NE(table.render().find("1.2"), std::string::npos);
  EXPECT_NE(table.render().find("5.0"), std::string::npos);
}

TEST(TextTableTest, Csv) {
  TextTable table({"h1", "h2"});
  table.add_row({"a", "b"});
  EXPECT_EQ(table.to_csv(), "h1,h2\na,b\n");
}

TEST(TextTableTest, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

// Regression: fmt_double used a fixed 32-byte buffer, truncating wide values;
// it now sizes the string from the snprintf return value.
TEST(TextTableTest, FmtDoubleNeverTruncatesWideValues) {
  const std::string wide = fmt_double(1e300, 6);
  EXPECT_GT(wide.size(), 300U);
  EXPECT_EQ(wide.find('e'), std::string::npos);  // %f, not scientific
  EXPECT_EQ(wide.substr(0, 2), "10");
  EXPECT_EQ(wide.substr(wide.size() - 7), ".000000");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape(""), "");
}

// Regression: labels containing commas used to shift every downstream CSV
// column. The round-trip property pins the fix: parse_csv(to_csv()) must
// reproduce the cells exactly.
TEST(TextTableTest, CsvRoundTripsHostileCells) {
  TextTable table({"config", "note"});
  table.add_row({"2 NICs, pinned", "say \"hi\""});
  table.add_row({"plain", "multi\nline"});
  const auto rows = parse_csv(table.to_csv());
  ASSERT_EQ(rows.size(), 3U);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"config", "note"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"2 NICs, pinned", "say \"hi\""}));
  EXPECT_EQ(rows[2], (std::vector<std::string>{"plain", "multi\nline"}));
}

}  // namespace
}  // namespace numastream

namespace numastream {
namespace {

// ---------------------------------------------------------------- timeline

TEST(RateTimelineTest, BucketsAccumulateAndConvertToRates) {
  RateTimeline timeline(0.5);
  timeline.record(0.1, 100);
  timeline.record(0.4, 100);
  timeline.record(0.6, 300);
  const auto rates = timeline.rates();
  ASSERT_EQ(rates.size(), 2U);
  EXPECT_DOUBLE_EQ(rates[0], 400.0);  // 200 bytes / 0.5 s
  EXPECT_DOUBLE_EQ(rates[1], 600.0);
  EXPECT_DOUBLE_EQ(timeline.peak_rate(), 600.0);
}

TEST(RateTimelineTest, GapsAreZeroBuckets) {
  RateTimeline timeline(1.0);
  timeline.record(0.5, 10);
  timeline.record(3.5, 10);
  const auto rates = timeline.rates();
  ASSERT_EQ(rates.size(), 4U);
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_DOUBLE_EQ(rates[2], 0.0);
}

TEST(RateTimelineTest, MeanActiveRateIgnoresIdleBuckets) {
  RateTimeline timeline(1.0);
  timeline.record(0.0, 100);
  timeline.record(5.0, 300);
  EXPECT_DOUBLE_EQ(timeline.mean_active_rate(), 200.0);
}

TEST(RateTimelineTest, EmptyTimeline) {
  RateTimeline timeline(1.0);
  EXPECT_EQ(timeline.bucket_count(), 0U);
  EXPECT_DOUBLE_EQ(timeline.peak_rate(), 0.0);
  EXPECT_DOUBLE_EQ(timeline.mean_active_rate(), 0.0);
  EXPECT_TRUE(timeline.sparkline().empty());
}

TEST(RateTimelineTest, SparklineScalesToPeak) {
  RateTimeline timeline(1.0);
  timeline.record(0.0, 800);   // peak -> '@'
  timeline.record(1.0, 100);   // 1/8 of peak -> lowest non-empty level
  timeline.record(3.0, 400);   // half of peak
  const std::string line = timeline.sparkline();
  ASSERT_EQ(line.size(), 4U);
  EXPECT_EQ(line[0], '@');
  EXPECT_EQ(line[2], ' ');  // empty bucket
  EXPECT_NE(line[1], ' ');
  EXPECT_LT(line[1], line[3]);  // ramp characters are ordered by intensity
}

TEST(RateTimelineTest, CsvHasOneRowPerBucket) {
  RateTimeline timeline(2.0);
  timeline.record(0.0, 10);
  timeline.record(2.5, 30);
  const std::string csv = timeline.to_csv("run");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
  EXPECT_NE(csv.find("run,0,5.0"), std::string::npos);
  EXPECT_NE(csv.find("run,1,15.0"), std::string::npos);
}

TEST(RateTimelineTest, CsvEscapesHostileLabels) {
  RateTimeline timeline(1.0);
  timeline.record(0.0, 10);
  const auto rows = parse_csv(timeline.to_csv("2 NICs, pinned"));
  ASSERT_EQ(rows.size(), 1U);
  ASSERT_EQ(rows[0].size(), 3U);
  EXPECT_EQ(rows[0][0], "2 NICs, pinned");
  EXPECT_EQ(rows[0][1], "0");
}

// Regression: record() used to funnel hostile timestamps straight into a
// vector resize — a NaN or a 1e12 s sample could throw bad_alloc mid-run.
TEST(RateTimelineTest, RecordRejectsHostileTimestamps) {
  RateTimeline timeline(1.0);
  EXPECT_EQ(timeline.record(std::nan(""), 10).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(timeline.record(std::numeric_limits<double>::infinity(), 10).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(timeline.record(-1.0, 10).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(timeline.record(1e12, 10).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(timeline.bucket_count(), 0U);  // rejected samples leave no trace
}

TEST(RateTimelineTest, TinyNegativeTimesClampToZero) {
  RateTimeline timeline(1.0);
  // Float rounding of "now - start" can land a hair below zero; that is a
  // bucket-0 sample, not an error.
  EXPECT_TRUE(timeline.record(-1e-9, 42).is_ok());
  ASSERT_EQ(timeline.bucket_count(), 1U);
  EXPECT_DOUBLE_EQ(timeline.rates()[0], 42.0);
}

TEST(RateTimelineTest, AllZeroBucketsSparklineIsBlank) {
  RateTimeline timeline(1.0);
  EXPECT_TRUE(timeline.record(0.5, 0).is_ok());
  EXPECT_TRUE(timeline.record(2.5, 0).is_ok());
  const std::string line = timeline.sparkline();
  ASSERT_EQ(line.size(), 3U);
  EXPECT_EQ(line, "   ");  // zero peak must not divide by zero
}

// ---------------------------------------------------------------- ledgers
//
// One case per counter ledger. Counter i is set to i + 1 on the live class;
// the case pins the snapshot's one-line text, the full table, and the
// nonzero_only table with every other counter cleared, so names, their order
// and the rendering are all fixed. Every field must also take part in the
// snapshot's operator==.

template <typename Snapshot>
void expect_each_field_counts(
    const Snapshot& full, const std::vector<std::uint64_t Snapshot::*>& fields) {
  EXPECT_EQ(sizeof(Snapshot), fields.size() * sizeof(std::uint64_t));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    EXPECT_EQ(full.*fields[i], i + 1) << "field " << i;
    Snapshot cleared = full;
    cleared.*fields[i] = 0;
    EXPECT_FALSE(cleared == full) << "field " << i;
  }
  EXPECT_EQ(Snapshot{}.to_string(), "clean");
}

template <typename Snapshot>
Snapshot every_other_cleared(
    Snapshot snapshot, const std::vector<std::uint64_t Snapshot::*>& fields) {
  for (std::size_t i = 1; i < fields.size(); i += 2) {
    snapshot.*fields[i] = 0;
  }
  return snapshot;
}

TEST(CounterLedgerTest, Fault) {
  FaultCounters live;
  live.injected_disconnects = 1;
  live.injected_torn_writes = 2;
  live.injected_bitflips = 3;
  live.injected_short_writes = 4;
  live.injected_stalls = 5;
  live.injected_throttles = 6;
  live.injected_crashes = 7;
  live.injected_accept_failures = 8;
  live.reconnects = 9;
  live.dial_retries = 10;
  live.connections_recycled = 11;
  live.corrupt_frames = 12;
  live.duplicate_frames = 13;
  live.degraded_chunks = 14;
  live.watchdog_trips = 15;
  const FaultCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t FaultCountersSnapshot::*> fields = {
      &FaultCountersSnapshot::injected_disconnects,
      &FaultCountersSnapshot::injected_torn_writes,
      &FaultCountersSnapshot::injected_bitflips,
      &FaultCountersSnapshot::injected_short_writes,
      &FaultCountersSnapshot::injected_stalls,
      &FaultCountersSnapshot::injected_throttles,
      &FaultCountersSnapshot::injected_crashes,
      &FaultCountersSnapshot::injected_accept_failures,
      &FaultCountersSnapshot::reconnects,
      &FaultCountersSnapshot::dial_retries,
      &FaultCountersSnapshot::connections_recycled,
      &FaultCountersSnapshot::corrupt_frames,
      &FaultCountersSnapshot::duplicate_frames,
      &FaultCountersSnapshot::degraded_chunks,
      &FaultCountersSnapshot::watchdog_trips,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "injected_disconnects=1 injected_torn_writes=2 "
            "injected_bitflips=3 injected_short_writes=4 "
            "injected_stalls=5 injected_throttles=6 injected_crashes=7 "
            "injected_accept_failures=8 reconnects=9 dial_retries=10 "
            "connections_recycled=11 corrupt_frames=12 duplicate_frames=13 "
            "degraded_chunks=14 watchdog_trips=15");
  EXPECT_EQ(counter_table(full).render(), R"(counter                   count
-------------------------------
injected_disconnects          1
injected_torn_writes          2
injected_bitflips             3
injected_short_writes         4
injected_stalls               5
injected_throttles            6
injected_crashes              7
injected_accept_failures      8
reconnects                    9
dial_retries                 10
connections_recycled         11
corrupt_frames               12
duplicate_frames             13
degraded_chunks              14
watchdog_trips               15
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter               count
---------------------------
injected_disconnects      1
injected_bitflips         3
injected_stalls           5
injected_crashes          7
reconnects                9
connections_recycled     11
duplicate_frames         13
watchdog_trips           15
)");
}

TEST(CounterLedgerTest, Overload) {
  OverloadCounters live;
  live.shed_newest = 1;
  live.credit_stalls = 2;
  live.credit_grants = 3;
  live.budget_stalls = 4;
  live.budget_rejections = 5;
  live.drain_requests = 6;
  live.drain_timeouts = 7;
  live.peak_bytes_in_flight = 8;
  const OverloadCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t OverloadCountersSnapshot::*> fields = {
      &OverloadCountersSnapshot::shed_newest,
      &OverloadCountersSnapshot::credit_stalls,
      &OverloadCountersSnapshot::credit_grants,
      &OverloadCountersSnapshot::budget_stalls,
      &OverloadCountersSnapshot::budget_rejections,
      &OverloadCountersSnapshot::drain_requests,
      &OverloadCountersSnapshot::drain_timeouts,
      &OverloadCountersSnapshot::peak_bytes_in_flight,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "shed_newest=1 credit_stalls=2 credit_grants=3 budget_stalls=4 "
            "budget_rejections=5 drain_requests=6 drain_timeouts=7 "
            "peak_bytes_in_flight=8");
  EXPECT_EQ(counter_table(full).render(), R"(counter               count
---------------------------
shed_newest               1
credit_stalls             2
credit_grants             3
budget_stalls             4
budget_rejections         5
drain_requests            6
drain_timeouts            7
peak_bytes_in_flight      8
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter            count
------------------------
shed_newest            1
credit_grants          3
budget_rejections      5
drain_timeouts         7
)");
}

TEST(CounterLedgerTest, Health) {
  HealthCounters live;
  live.degraded_detections = 1;
  live.failure_detections = 2;
  live.recoveries = 3;
  live.replans = 4;
  live.migrations = 5;
  live.time_in_degraded_ms = 6;
  const HealthCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t HealthCountersSnapshot::*> fields = {
      &HealthCountersSnapshot::degraded_detections,
      &HealthCountersSnapshot::failure_detections,
      &HealthCountersSnapshot::recoveries,
      &HealthCountersSnapshot::replans,
      &HealthCountersSnapshot::migrations,
      &HealthCountersSnapshot::time_in_degraded_ms,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "degraded_detections=1 failure_detections=2 recoveries=3 "
            "replans=4 migrations=5 time_in_degraded_ms=6");
  EXPECT_EQ(counter_table(full).render(), R"(counter              count
--------------------------
degraded_detections      1
failure_detections       2
recoveries               3
replans                  4
migrations               5
time_in_degraded_ms      6
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter              count
--------------------------
degraded_detections      1
recoveries               3
migrations               5
)");
}

TEST(CounterLedgerTest, Resume) {
  ResumeCounters live;
  live.crashes_observed = 1;
  live.resume_handshakes = 2;
  live.journal_records_written = 3;
  live.journal_records_replayed = 4;
  live.torn_records_truncated = 5;
  live.duplicates_suppressed = 6;
  live.duplicate_deliveries_suppressed = 7;
  live.replayed_chunks = 8;
  live.rework_bytes = 9;
  live.recovery_wall_ms = 10;
  const ResumeCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t ResumeCountersSnapshot::*> fields = {
      &ResumeCountersSnapshot::crashes_observed,
      &ResumeCountersSnapshot::resume_handshakes,
      &ResumeCountersSnapshot::journal_records_written,
      &ResumeCountersSnapshot::journal_records_replayed,
      &ResumeCountersSnapshot::torn_records_truncated,
      &ResumeCountersSnapshot::duplicates_suppressed,
      &ResumeCountersSnapshot::duplicate_deliveries_suppressed,
      &ResumeCountersSnapshot::replayed_chunks,
      &ResumeCountersSnapshot::rework_bytes,
      &ResumeCountersSnapshot::recovery_wall_ms,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "crashes_observed=1 resume_handshakes=2 "
            "journal_records_written=3 journal_records_replayed=4 "
            "torn_records_truncated=5 duplicates_suppressed=6 "
            "duplicate_deliveries_suppressed=7 replayed_chunks=8 "
            "rework_bytes=9 recovery_wall_ms=10");
  EXPECT_EQ(counter_table(full).render(), R"(counter                          count
--------------------------------------
crashes_observed                     1
resume_handshakes                    2
journal_records_written              3
journal_records_replayed             4
torn_records_truncated               5
duplicates_suppressed                6
duplicate_deliveries_suppressed      7
replayed_chunks                      8
rework_bytes                         9
recovery_wall_ms                    10
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter                          count
--------------------------------------
crashes_observed                     1
journal_records_written              3
torn_records_truncated               5
duplicate_deliveries_suppressed      7
rework_bytes                         9
)");
}

TEST(CounterLedgerTest, Federation) {
  FederationCounters live;
  live.repl_records_shipped = 1;
  live.repl_appends_acked = 2;
  live.repl_lag_records_max = 3;
  live.heartbeats_sent = 4;
  live.peer_failures_detected = 5;
  live.degraded_peers_detected = 6;
  live.failovers = 7;
  live.streams_reresolved = 8;
  live.failover_wall_ms = 9;
  live.epoch = 10;
  live.fenced_appends_rejected = 11;
  live.rebalance_triggers = 12;
  live.handoffs_planned = 13;
  live.handoffs_completed = 14;
  live.handoffs_aborted = 15;
  live.handoff_streams_moved = 16;
  live.handoff_wall_ms = 17;
  const FederationCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t FederationCountersSnapshot::*> fields = {
      &FederationCountersSnapshot::repl_records_shipped,
      &FederationCountersSnapshot::repl_appends_acked,
      &FederationCountersSnapshot::repl_lag_records_max,
      &FederationCountersSnapshot::heartbeats_sent,
      &FederationCountersSnapshot::peer_failures_detected,
      &FederationCountersSnapshot::degraded_peers_detected,
      &FederationCountersSnapshot::failovers,
      &FederationCountersSnapshot::streams_reresolved,
      &FederationCountersSnapshot::failover_wall_ms,
      &FederationCountersSnapshot::epoch,
      &FederationCountersSnapshot::fenced_appends_rejected,
      &FederationCountersSnapshot::rebalance_triggers,
      &FederationCountersSnapshot::handoffs_planned,
      &FederationCountersSnapshot::handoffs_completed,
      &FederationCountersSnapshot::handoffs_aborted,
      &FederationCountersSnapshot::handoff_streams_moved,
      &FederationCountersSnapshot::handoff_wall_ms,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "repl_records_shipped=1 repl_appends_acked=2 "
            "repl_lag_records_max=3 heartbeats_sent=4 "
            "peer_failures_detected=5 degraded_peers_detected=6 "
            "failovers=7 streams_reresolved=8 failover_wall_ms=9 "
            "epoch=10 fenced_appends_rejected=11 rebalance_triggers=12 "
            "handoffs_planned=13 handoffs_completed=14 "
            "handoffs_aborted=15 handoff_streams_moved=16 "
            "handoff_wall_ms=17");
  EXPECT_EQ(counter_table(full).render(), R"(counter                  count
------------------------------
repl_records_shipped         1
repl_appends_acked           2
repl_lag_records_max         3
heartbeats_sent              4
peer_failures_detected       5
degraded_peers_detected      6
failovers                    7
streams_reresolved           8
failover_wall_ms             9
epoch                       10
fenced_appends_rejected     11
rebalance_triggers          12
handoffs_planned            13
handoffs_completed          14
handoffs_aborted            15
handoff_streams_moved       16
handoff_wall_ms             17
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter                  count
------------------------------
repl_records_shipped         1
repl_lag_records_max         3
peer_failures_detected       5
failovers                    7
failover_wall_ms             9
fenced_appends_rejected     11
handoffs_planned            13
handoffs_aborted            15
handoff_wall_ms             17
)");
}

TEST(CounterLedgerTest, Scrub) {
  ScrubCounters live;
  live.records_scanned = 1;
  live.scrub_passes = 2;
  live.corrupt_records_found = 3;
  live.ranges_quarantined = 4;
  live.ranges_repaired = 5;
  live.ranges_unrepairable = 6;
  live.digest_rounds = 7;
  live.ranges_compared = 8;
  live.ranges_diverged = 9;
  live.records_pulled = 10;
  live.records_pushed = 11;
  live.repair_verify_failures = 12;
  live.fenced_scrubs_rejected = 13;
  live.records_rotted = 14;
  live.stale_records_dropped = 15;
  live.failover_lost_records = 16;
  const ScrubCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t ScrubCountersSnapshot::*> fields = {
      &ScrubCountersSnapshot::records_scanned,
      &ScrubCountersSnapshot::scrub_passes,
      &ScrubCountersSnapshot::corrupt_records_found,
      &ScrubCountersSnapshot::ranges_quarantined,
      &ScrubCountersSnapshot::ranges_repaired,
      &ScrubCountersSnapshot::ranges_unrepairable,
      &ScrubCountersSnapshot::digest_rounds,
      &ScrubCountersSnapshot::ranges_compared,
      &ScrubCountersSnapshot::ranges_diverged,
      &ScrubCountersSnapshot::records_pulled,
      &ScrubCountersSnapshot::records_pushed,
      &ScrubCountersSnapshot::repair_verify_failures,
      &ScrubCountersSnapshot::fenced_scrubs_rejected,
      &ScrubCountersSnapshot::records_rotted,
      &ScrubCountersSnapshot::stale_records_dropped,
      &ScrubCountersSnapshot::failover_lost_records,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "records_scanned=1 scrub_passes=2 corrupt_records_found=3 "
            "ranges_quarantined=4 ranges_repaired=5 "
            "ranges_unrepairable=6 digest_rounds=7 ranges_compared=8 "
            "ranges_diverged=9 records_pulled=10 records_pushed=11 "
            "repair_verify_failures=12 fenced_scrubs_rejected=13 "
            "records_rotted=14 stale_records_dropped=15 "
            "failover_lost_records=16");
  EXPECT_EQ(counter_table(full).render(), R"(counter                 count
-----------------------------
records_scanned             1
scrub_passes                2
corrupt_records_found       3
ranges_quarantined          4
ranges_repaired             5
ranges_unrepairable         6
digest_rounds               7
ranges_compared             8
ranges_diverged             9
records_pulled             10
records_pushed             11
repair_verify_failures     12
fenced_scrubs_rejected     13
records_rotted             14
stale_records_dropped      15
failover_lost_records      16
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter                 count
-----------------------------
records_scanned             1
corrupt_records_found       3
ranges_repaired             5
digest_rounds               7
ranges_diverged             9
records_pushed             11
fenced_scrubs_rejected     13
stale_records_dropped      15
)");
}

TEST(CounterLedgerTest, Chaos) {
  ChaosCounters live;
  live.partitions_cut = 1;
  live.partitions_healed = 2;
  live.frames_dropped = 3;
  live.acks_dropped = 4;
  live.episodes_run = 5;
  live.events_injected = 6;
  live.probes_fired = 7;
  live.violations_found = 8;
  live.shrink_steps = 9;
  live.schedules_shrunk = 10;
  const ChaosCountersSnapshot full = live.snapshot();
  const std::vector<std::uint64_t ChaosCountersSnapshot::*> fields = {
      &ChaosCountersSnapshot::partitions_cut,
      &ChaosCountersSnapshot::partitions_healed,
      &ChaosCountersSnapshot::frames_dropped,
      &ChaosCountersSnapshot::acks_dropped,
      &ChaosCountersSnapshot::episodes_run,
      &ChaosCountersSnapshot::events_injected,
      &ChaosCountersSnapshot::probes_fired,
      &ChaosCountersSnapshot::violations_found,
      &ChaosCountersSnapshot::shrink_steps,
      &ChaosCountersSnapshot::schedules_shrunk,
  };
  expect_each_field_counts(full, fields);
  EXPECT_EQ(full.to_string(),
            "partitions_cut=1 partitions_healed=2 frames_dropped=3 "
            "acks_dropped=4 episodes_run=5 "
            "events_injected=6 probes_fired=7 violations_found=8 "
            "shrink_steps=9 schedules_shrunk=10");
  EXPECT_EQ(counter_table(full).render(), R"(counter            count
------------------------
partitions_cut         1
partitions_healed      2
frames_dropped         3
acks_dropped           4
episodes_run           5
events_injected        6
probes_fired           7
violations_found       8
shrink_steps           9
schedules_shrunk      10
)");
  EXPECT_EQ(counter_table(every_other_cleared(full, fields), /*nonzero_only=*/true)
                .render(),
            R"(counter         count
---------------------
partitions_cut      1
frames_dropped      3
episodes_run        5
probes_fired        7
shrink_steps        9
)");
}

}  // namespace
}  // namespace numastream
