// RuntimeConfig: the configuration files of Fig. 4.
//
// The paper's "runtime configuration generator" emits one configuration per
// node, specifying "the type of tasks designated to individual sockets, the
// number of tasks, and the task execution location". NodeConfig is that
// document: a node role, codec and chunk geometry, and a list of task groups
// each with a thread count and NUMA bindings. It serializes to a small
// line-oriented text format so configurations can be inspected, diffed, and
// shipped to remote nodes, and parses back with full validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "affinity/binding.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/units.h"
#include "topo/topology.h"

namespace numastream {

/// The four task types of the heterogeneous pipeline (Fig. 2).
enum class TaskType { kCompress, kSend, kReceive, kDecompress };

std::string to_string(TaskType type);

enum class NodeRole { kSender, kReceiver };

/// One group of identical worker threads.
struct TaskGroupConfig {
  TaskType type = TaskType::kCompress;
  int count = 1;
  /// Applied round-robin over the group's workers; one entry pins the whole
  /// group to a domain, two alternate it across domains (split placement).
  std::vector<NumaBinding> bindings = {NumaBinding{}};
  /// Stream this group serves, or -1 for all streams on this node.
  int stream_id = -1;
};

/// Fault-recovery policy for one node's pipeline. Everything defaults to
/// off/strict, matching the pre-recovery behavior: a peer disconnect is
/// fatal, a corrupt frame is fatal, chunks are never degraded, and hangs are
/// the operator's problem. Production deployments turn the knobs on.
struct RecoveryConfig {
  /// Senders: re-dial on UNAVAILABLE and re-send the in-flight message.
  /// Receivers: recycle a connection that breaks or carries a corrupt
  /// message (re-accept) instead of failing the run.
  bool reconnect = false;
  /// Dial/backoff schedule used when `reconnect` is on.
  RetryPolicy retry;
  /// Senders: when the compress->send queue reaches this depth, compress
  /// workers switch to the passthrough codec until it drains to half the
  /// watermark. 0 disables degradation.
  std::size_t degrade_watermark = 0;
  /// Trip a watchdog when no pipeline stage makes progress for this many
  /// milliseconds, converting hangs into DEADLINE_EXCEEDED. 0 disables.
  std::uint64_t watchdog_ms = 0;

  [[nodiscard]] bool is_default() const { return *this == RecoveryConfig{}; }
  friend bool operator==(const RecoveryConfig&, const RecoveryConfig&) = default;
};

/// What to do with a frame when the pipeline is over its watermarks.
enum class ShedPolicy {
  kBlock,       ///< no shedding: producers wait (classic backpressure)
  kDropNewest,  ///< drop the incoming frame
};

std::string to_string(ShedPolicy policy);

/// Overload-protection policy for one node's pipeline. Everything defaults
/// to off, matching pre-overload behavior byte for byte: no budget, no
/// credit frames on the wire, blocking backpressure only, unbounded drain.
/// Production gateways turn the knobs on — see DESIGN.md §8.
struct OverloadConfig {
  /// Hard cap on bytes concurrently in flight through this pipeline
  /// (charged per frame against a MemoryBudget ledger). 0 disables.
  std::uint64_t budget_bytes = 0;
  /// Credit-based flow control: the receiver grants this many messages of
  /// credit per connection and replenishes as it consumes; the sender stalls
  /// (or sheds) when out of credit. 0 disables — and both ends of a
  /// connection must agree, since credit frames are a wire-protocol
  /// extension (msg/message.h). Must be >= 2 so replenishment grants
  /// (window/2) are never zero.
  std::size_t credit_window = 0;
  /// Shed policy applied between the watermarks below.
  ShedPolicy shed_policy = ShedPolicy::kBlock;
  /// Queue depth at which shedding engages; 0 disables shedding entirely.
  std::size_t high_watermark = 0;
  /// Depth at which shedding disengages (hysteresis; must be <= high).
  std::size_t low_watermark = 0;
  /// Deadline for the graceful drain: once the pipeline stops ingesting
  /// (source exhausted, or DrainController::request()), in-flight frames
  /// must flush within this budget or the flush is forced (counted as a
  /// drain timeout). 0 = unbounded flush (legacy behavior).
  std::uint64_t drain_deadline_ms = 0;

  [[nodiscard]] bool is_default() const { return *this == OverloadConfig{}; }

  /// Overload protection is on iff any knob moved; the absent directive
  /// keeps the pipeline bit-identical to the pre-overload runtime.
  [[nodiscard]] bool enabled() const { return !is_default(); }

  friend bool operator==(const OverloadConfig&, const OverloadConfig&) = default;
};

/// Observability policy for one node's pipeline (DESIGN.md §10). Everything
/// defaults to off, matching pre-observability behavior byte for byte: no
/// spans recorded, no histograms, no registry gauges. The knobs are
/// measurement-only — turning them on never changes what the pipeline does
/// to a chunk, only what it remembers about it.
struct ObserveConfig {
  /// Record per-chunk lifecycle spans into per-worker rings.
  bool trace = false;
  /// Record per-stage latency histograms (p50/p99/p999 per NUMA domain).
  bool latency = false;

  [[nodiscard]] bool is_default() const { return *this == ObserveConfig{}; }

  /// Observability is on iff either knob is; the absent directive keeps the
  /// pipeline bit-identical to the pre-observability runtime.
  [[nodiscard]] bool enabled() const { return trace || latency; }

  friend bool operator==(const ObserveConfig&, const ObserveConfig&) = default;
};

/// Crash-recovery policy for one node's pipeline (DESIGN.md §11).
/// Everything defaults to off, matching pre-resume behavior byte for byte:
/// no journal, no RESUME frames on the wire, a process death loses the
/// session. Turning it on means naming the session — both endpoints of a
/// stream must agree on the id, since the RESUME handshake is a
/// wire-protocol extension (msg/message.h) and the journals refuse to
/// resume across sessions.
struct ResumeConfig {
  /// Durable session identity: journals and RESUME frames carry it, and a
  /// mismatch is DATA_LOSS, not a silent resume. 0 disables the subsystem.
  std::uint64_t session = 0;
  /// Receivers: piggyback a fresh watermark RESUME frame on every
  /// `ack_interval`-th delivered chunk per connection, so the sender's
  /// journal prunes mid-run instead of only at reconnect. 0 = handshake-only
  /// (watermarks travel only when a connection is (re)adopted).
  std::uint64_t ack_interval = 0;

  [[nodiscard]] bool is_default() const { return *this == ResumeConfig{}; }

  /// Crash resumption is on iff a session is named; the absent directive
  /// keeps the wire and the pipeline bit-identical to the pre-resume runtime.
  [[nodiscard]] bool enabled() const { return !is_default(); }

  friend bool operator==(const ResumeConfig&, const ResumeConfig&) = default;
};

struct NodeConfig {
  std::string node_name;
  NodeRole role = NodeRole::kSender;
  std::string codec_name = "lz4";
  std::uint64_t chunk_bytes = kProjectionChunkBytes;
  std::size_t queue_capacity = 8;
  RecoveryConfig recovery;
  OverloadConfig overload;
  ObserveConfig observe;
  ResumeConfig resume;
  std::vector<TaskGroupConfig> tasks;

  /// Total threads of one task type across all groups (optionally filtered
  /// to one stream).
  [[nodiscard]] int thread_count(TaskType type, int stream_id = -1) const;

  /// Checks the config is executable on `topo`: every numeric field of
  /// every directive finite and inside the range the directive table
  /// declares (policies left at their defaults are off and not checked),
  /// known codec, every pinned domain exists, role/task-type consistency
  /// (senders compress+send, receivers receive+decompress).
  [[nodiscard]] Status validate(const MachineTopology& topo) const;

  /// Text form; the grammar is the directive table in config.cpp.
  [[nodiscard]] std::string serialize() const;

  static Result<NodeConfig> parse(const std::string& text);
};

}  // namespace numastream
