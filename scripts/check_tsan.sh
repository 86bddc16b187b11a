#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-heavy suites:
# the bounded queue (blocking, cancel, MPMC stress), the memory
# budget ledger (shared by sender and receiver threads), the overload
# pipelines where credit grants, shedding and drain deadlines all race real
# worker threads, and the observability layer (span rings written by worker
# threads while the registry's sampler thread reads gauges), plus the
# crash-resumption pipelines where journal appends and watermark reads race
# send/receive workers across endpoint restarts, and the federation layer
# where the replication tee, the standby's apply/promote race and a live
# gateway takeover all share the journal with pipeline workers, and the
# anti-entropy layer where a background scrubber re-reads the journal while
# appenders extend it and a promotion fences a mid-round repair, and the
# wire pins and split-receive fault matrix, which hand frame buffers
# between real sender and receiver pipeline threads, and the sealed-frame
# pipeline, whose receive stage checks each stored payload's seal before a
# reconnect replays the flipped chunks, and the credit wedge, where every
# flipped message cuts its connection under credit flow control. A clean
# exit means the credit/budget/drain/observe machinery is free of data
# races, not just functionally green.
#
#   $ scripts/check_tsan.sh [extra ctest args...]
#
# Uses a separate build-tsan/ tree so the regular build/ stays fast.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DNUMASTREAM_SANITIZE="thread"
cmake --build build-tsan

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

suites=(
  BoundedQueueTest BoundedQueueMpmc SpscRingTest MemoryBudgetTest
  OverloadCountersTest OverloadPipelineTest ChaosOverloadTest PipelineTest
  TcpPipelineTest ChaosPipelineTest WatchdogTest MigrationCoordinatorTest
  MigrationPipelineTest WatchdogDrainTest SpanRingTest TracerTest
  StageLatenciesTest MetricsRegistryTest SnapshotSamplerTest
  PipelineObservabilityTest ThroughputMeterTest ResumePipelineTest
  ChaosResumeTest ReplicationTest EpochFenceTest GatewayFailoverTest
  HandoffProtocolTest ChaosHandoffTest AntiEntropyTest ScrubConcurrencyTest
  CancelSignalTest ChunkPoolTest LinkCutsTest ChaosHarnessTest
  AsymmetricPartitionTest ChaosExplorerTest WirePinTest DedupPinTest
  StrictReceiverTest SequenceLedgerTest SealedPipelineTest CreditWedgeTest
  ControlKindPinTest ChannelKindTest
)
scripts/run_suites.sh build-tsan "${suites[@]}" -- "$@"

echo
echo "sanitizer check passed (TSan)"
