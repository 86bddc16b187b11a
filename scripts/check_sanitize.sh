#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and runs
# the suites that exercise the codec, transport, fault-injection and recovery
# paths. A clean exit means the LZ4 fast decoder's block copies (checked
# against the reference decoder by Lz4DifferentialTest) and the chaos tests
# (torn writes, reconnect storms, watchdog cancellation) are free of memory
# errors and UB, not just functionally green.
#
#   $ scripts/check_sanitize.sh [extra ctest args...]
#
# Uses a separate build-sanitize/ tree so the regular build/ stays fast.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-sanitize -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNUMASTREAM_SANITIZE="address;undefined"
cmake --build build-sanitize

export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

ctest --test-dir build-sanitize --output-on-failure \
  -R '^(BytesTest|XxHashTest|XxHashStreaming|Lz4.*|AllCodecsRoundTrip|FrameTest|MessageTest|MessageDecoderTest|InprocTest|InprocListenerTest|TcpTest|PushPullTest|DecoderResyncTest|FrameResyncTest|ConfigTest|ConfigFileTest|ConfigGeneratorTest|PipelineTest|TcpPipelineTest|PlacementTest|RecoveryConfigTest|BackoffTest|RetryPolicyTest|WithRetryTest|FaultPlanTest|FaultyStreamTest|FaultyListenerTest|FaultCountersTest|ChaosPipelineTest|DegradationTest|WatchdogTest|StreamRegistryTest|DeterminismTest|GatewayTest|MemoryBudgetTest|OverloadCountersTest|CreditFrameTest|OverloadConfigTest|RecoveryConfigBoundaryTest|OverloadPipelineTest|ChaosOverloadTest|HealthConfigTest|HealthMonitorTest|MigrationCoordinatorTest|HealthMaskTest|ReplanTest|HealthCountersTest|DegradationScheduleTest|DegradationInjectorTest|MigrationPipelineTest|WatchdogDrainTest|SimRecoveryTest|ChaosDegradationTest|LatencyHistogramTest|StageLatenciesTest|SpanRingTest|TracerTest|TraceExportTest|MetricsRegistryTest|SnapshotSeriesTest|SnapshotSamplerTest|ObserveConfigTest|PipelineObservabilityTest|TraceDeterminismTest|ThroughputMeterTest|RateTimelineTest|CsvEscapeTest|TextTableTest|JournalRecordTest|MemoryJournalMediaTest|SenderJournalTest|ReceiverJournalTest|ResumeFrameTest|ResumeConfigTest|ResumePipelineTest|ChaosResumeTest|SimResumeTest|MessageFuzzTest|RingTest|ReplFrameTest|ClusterConfigTest|ReplicationTest|EpochFenceTest|JournalMediaFaultTest|PeerFailureDetectorTest|FailoverCoordinatorTest|GatewayFailoverTest|SimFederationTest|HandoffFrameTest|RebalanceConfigTest|GrayFailureDetectorTest|RebalanceControllerTest|HandoffProtocolTest|ChaosHandoffTest|SimRebalanceTest|ScrubFrameTest|ScrubConfigTest|JournalScrubberTest|RangeDigestTest|AntiEntropyTest|JournalDirsyncTest|ScrubFaultInjectionTest|SimScrubTest|MpscRingTest|FanInQueueTest|CancelSignalTest|StageChannelTest|ChunkPoolTest|FastPathConfigTest|ControlFrameBoundaryTest|ScatterGatherTest|FastpathPipelineTest|ChaosConfigTest|ConfigDuplicateDirectiveTest|ChaosNetTest|InvariantMonitorTest|ProbeSinkTest|ChaosScheduleTest|ChaosHarnessTest|AsymmetricPartitionTest|ChaosExplorerTest|ChaosCountersTest)' \
  "$@"

echo
echo "sanitizer check passed (ASan + UBSan)"
