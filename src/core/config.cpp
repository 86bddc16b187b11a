// Config text grammar (one directive per line, '#' starts a comment):
//
//   node <name>
//   role sender|receiver
//   codec <codec-name>
//   chunk_bytes <n>
//   queue_capacity <n>
//   recovery [reconnect=on|off] [max_attempts=<n>] [backoff_us=<n>]
//            [max_backoff_us=<n>] [multiplier=<f>] [jitter=<f>]
//            [retry_budget_us=<n>]
//            [corrupt_limit=<n>] [degrade_watermark=<n>] [watchdog_ms=<n>]
//   overload [budget_bytes=<n>] [credit_window=<n>]
//            [shed=block|drop_newest|drop_oldest|priority_evict]
//            [high_watermark=<n>] [low_watermark=<n>] [drain_deadline_ms=<n>]
//            [slow_floor=<n>] [slow_grace_ms=<n>] [default_priority=<n>]
//   priority stream=<id> value=<n>
//   health [window_ms=<n>] [ewma_alpha=<f>] [degraded_ratio=<f>]
//          [failed_ratio=<f>] [breach_windows=<n>] [recover_windows=<n>]
//          [baseline_windows=<n>]
//   observe [trace=on|off] [ring_capacity=<n>] [latency=on|off] [sample_ms=<n>]
//   resume session=<n> [ack_interval=<n>]
//   cluster gateways=<n> self=<i> [vnodes=<n>] [heartbeat_ms=<n>]
//           [miss_windows=<n>]
//   rebalance window_ms=<n> [imbalance_ratio=<f>] [hysteresis_windows=<n>]
//             [cooldown_windows=<n>] [max_concurrent=<n>]
//             [drain_degraded=on|off]
//   scrub cadence_ms=<n> [range_records=<n>] [budget_records=<n>]
//         [repair_concurrency=<n>]
//   task <type> count=<n> exec=<domain|os>[,<domain|os>...] mem=<domain|os> [stream=<id>]
//
// Every directive except `priority` and `task` may appear at most once —
// `node`, `role`, `codec`, `chunk_bytes` and `queue_capacity` included,
// not just the policy blocks; a duplicate is a parse error (silent
// last-wins hid config merge mistakes).
//
// Example (the paper's NUMA-aware receiver for one of four streams):
//   node lynxdtn
//   role receiver
//   codec lz4
//   task receive count=4 exec=1 mem=1 stream=0
//   task decompress count=4 exec=0 mem=0 stream=0
#include "core/config.h"

#include <sstream>

#include "codec/codec.h"

namespace numastream {
namespace {

std::string domain_to_token(int domain) {
  return domain == NumaBinding::kOsChoice ? "os" : std::to_string(domain);
}

Result<int> domain_from_token(const std::string& token) {
  if (token == "os") {
    return NumaBinding::kOsChoice;
  }
  try {
    std::size_t used = 0;
    const int value = std::stoi(token, &used);
    if (used != token.size() || value < 0) {
      return invalid_argument_error("config: bad domain '" + token + "'");
    }
    return value;
  } catch (const std::exception&) {
    return invalid_argument_error("config: bad domain '" + token + "'");
  }
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) {
    out.push_back(item);
  }
  return out;
}

}  // namespace

std::string to_string(TaskType type) {
  switch (type) {
    case TaskType::kCompress:
      return "compress";
    case TaskType::kSend:
      return "send";
    case TaskType::kReceive:
      return "receive";
    case TaskType::kDecompress:
      return "decompress";
  }
  return "?";
}

Result<TaskType> task_type_from_string(const std::string& text) {
  if (text == "compress") {
    return TaskType::kCompress;
  }
  if (text == "send") {
    return TaskType::kSend;
  }
  if (text == "receive") {
    return TaskType::kReceive;
  }
  if (text == "decompress") {
    return TaskType::kDecompress;
  }
  return invalid_argument_error("config: unknown task type '" + text + "'");
}

std::string to_string(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kBlock:
      return "block";
    case ShedPolicy::kDropNewest:
      return "drop_newest";
    case ShedPolicy::kDropOldest:
      return "drop_oldest";
    case ShedPolicy::kPriorityEvict:
      return "priority_evict";
  }
  return "?";
}

Result<ShedPolicy> shed_policy_from_string(const std::string& text) {
  if (text == "block") {
    return ShedPolicy::kBlock;
  }
  if (text == "drop_newest") {
    return ShedPolicy::kDropNewest;
  }
  if (text == "drop_oldest") {
    return ShedPolicy::kDropOldest;
  }
  if (text == "priority_evict") {
    return ShedPolicy::kPriorityEvict;
  }
  return invalid_argument_error(
      "config: unknown shed policy '" + text +
      "' (want block|drop_newest|drop_oldest|priority_evict)");
}

int OverloadConfig::priority_of(std::uint32_t stream_id) const {
  for (const auto& entry : priorities) {
    if (entry.stream_id == stream_id) {
      return entry.priority;
    }
  }
  return default_priority;
}

int NodeConfig::thread_count(TaskType type, int stream_id) const {
  int total = 0;
  for (const auto& group : tasks) {
    if (group.type == type && (stream_id < 0 || group.stream_id == stream_id ||
                               group.stream_id < 0)) {
      total += group.count;
    }
  }
  return total;
}

Status NodeConfig::validate(const MachineTopology& topo) const {
  if (node_name.empty()) {
    return invalid_argument_error("config: empty node name");
  }
  if (codec_by_name(codec_name) == nullptr) {
    return invalid_argument_error("config: unknown codec '" + codec_name + "'");
  }
  if (chunk_bytes == 0) {
    return invalid_argument_error("config: zero chunk size");
  }
  if (queue_capacity == 0) {
    return invalid_argument_error("config: zero queue capacity");
  }
  {
    const Status retry_ok = recovery.retry.validate();
    if (!retry_ok.is_ok()) {
      return retry_ok;
    }
  }
  if (recovery.max_consecutive_corrupt <= 0) {
    return invalid_argument_error("config: corrupt_limit must be positive");
  }
  if (recovery.degrade_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: degrade_watermark exceeds queue_capacity");
  }
  if (overload.credit_window == 1) {
    return invalid_argument_error(
        "config: credit_window must be 0 (off) or >= 2 so replenishment "
        "grants are never empty");
  }
  if (overload.high_watermark > queue_capacity) {
    return invalid_argument_error(
        "config: high_watermark exceeds queue_capacity");
  }
  if (overload.low_watermark > overload.high_watermark) {
    return invalid_argument_error(
        "config: low_watermark exceeds high_watermark (hysteresis band "
        "must be low <= high)");
  }
  if (overload.shed_policy != ShedPolicy::kBlock &&
      overload.high_watermark == 0) {
    return invalid_argument_error(
        "config: shed policy '" + to_string(overload.shed_policy) +
        "' needs high_watermark > 0 to ever engage");
  }
  if (overload.slow_stream_floor > 0 && overload.slow_grace_ms == 0) {
    return invalid_argument_error(
        "config: slow_floor needs slow_grace_ms > 0 (the sampling window)");
  }
  if (overload.budget_bytes > 0 && overload.budget_bytes < chunk_bytes) {
    return invalid_argument_error(
        "config: budget_bytes smaller than one chunk would deadlock "
        "admission");
  }
  for (std::size_t i = 0; i < overload.priorities.size(); ++i) {
    for (std::size_t j = i + 1; j < overload.priorities.size(); ++j) {
      if (overload.priorities[i].stream_id == overload.priorities[j].stream_id) {
        return invalid_argument_error(
            "config: duplicate priority for stream " +
            std::to_string(overload.priorities[i].stream_id));
      }
    }
  }
  if (health.enabled()) {
    if (health.window_ms == 0) {
      return invalid_argument_error(
          "config: health needs window_ms > 0 (the observation window)");
    }
    if (health.ewma_alpha <= 0 || health.ewma_alpha > 1) {
      return invalid_argument_error("config: ewma_alpha must be in (0, 1]");
    }
    if (health.failed_ratio <= 0 || health.failed_ratio >= health.degraded_ratio ||
        health.degraded_ratio >= 1) {
      return invalid_argument_error(
          "config: health ratios must satisfy 0 < failed_ratio < "
          "degraded_ratio < 1");
    }
    if (health.breach_windows <= 0 || health.recover_windows <= 0 ||
        health.baseline_windows <= 0) {
      return invalid_argument_error(
          "config: health window counts must be positive");
    }
  }
  if (observe.ring_capacity == 0) {
    return invalid_argument_error(
        "config: observe ring_capacity must be positive");
  }
  if (resume.enabled()) {
    if (resume.session == 0) {
      return invalid_argument_error(
          "config: resume needs session > 0 (the durable session identity)");
    }
    if (!recovery.reconnect) {
      return invalid_argument_error(
          "config: resume requires recovery reconnect=on (a restarted peer "
          "comes back through the redial path)");
    }
  }
  if (cluster.enabled()) {
    if (cluster.gateways < 2) {
      return invalid_argument_error(
          "config: cluster needs gateways >= 2 (a one-gateway ring has no "
          "buddy to fail over to)");
    }
    if (cluster.self >= cluster.gateways) {
      return invalid_argument_error(
          "config: cluster self must be in [0, gateways)");
    }
    if (cluster.vnodes == 0) {
      return invalid_argument_error(
          "config: cluster vnodes must be positive");
    }
    if (cluster.heartbeat_ms == 0) {
      return invalid_argument_error(
          "config: cluster heartbeat_ms must be positive");
    }
    if (cluster.miss_windows <= 0) {
      return invalid_argument_error(
          "config: cluster miss_windows must be positive");
    }
    if (!resume.enabled()) {
      return invalid_argument_error(
          "config: cluster requires a resume session (the replicated "
          "journals are the resume journals)");
    }
  }
  if (rebalance.enabled()) {
    if (rebalance.window_ms == 0) {
      return invalid_argument_error(
          "config: rebalance needs window_ms > 0 (the load-observation "
          "window)");
    }
    if (rebalance.imbalance_ratio <= 1.0) {
      return invalid_argument_error(
          "config: rebalance imbalance_ratio must be > 1 (a threshold at or "
          "below the mean would always fire)");
    }
    if (rebalance.hysteresis_windows <= 0 || rebalance.cooldown_windows <= 0) {
      return invalid_argument_error(
          "config: rebalance window counts must be positive");
    }
    if (rebalance.max_concurrent <= 0) {
      return invalid_argument_error(
          "config: rebalance max_concurrent must be positive");
    }
    if (!cluster.enabled()) {
      return invalid_argument_error(
          "config: rebalance requires a cluster (handoffs move streams "
          "between federated gateways)");
    }
  }
  if (scrub.enabled()) {
    if (scrub.cadence_ms == 0) {
      return invalid_argument_error(
          "config: scrub needs cadence_ms > 0 (the re-verification cadence)");
    }
    if (scrub.range_records == 0) {
      return invalid_argument_error(
          "config: scrub range_records must be positive (the repair "
          "granularity)");
    }
    if (scrub.budget_records == 0) {
      return invalid_argument_error(
          "config: scrub budget_records must be positive (a zero budget "
          "would never verify anything)");
    }
    if (scrub.repair_concurrency <= 0) {
      return invalid_argument_error(
          "config: scrub repair_concurrency must be positive");
    }
    if (!resume.enabled()) {
      return invalid_argument_error(
          "config: scrub requires a resume session (there is no journal to "
          "re-verify without one)");
    }
  }
  if (tasks.empty()) {
    return invalid_argument_error("config: no task groups");
  }
  for (const auto& group : tasks) {
    if (group.count <= 0) {
      return invalid_argument_error("config: non-positive thread count for " +
                                    to_string(group.type));
    }
    if (group.bindings.empty()) {
      return invalid_argument_error("config: task group without bindings");
    }
    for (const auto& binding : group.bindings) {
      if (!binding.os_managed() && !topo.domain(binding.execution_domain).ok()) {
        return invalid_argument_error("config: task " + to_string(group.type) +
                                      " pinned to unknown domain " +
                                      std::to_string(binding.execution_domain));
      }
    }
    const bool sender_task =
        group.type == TaskType::kCompress || group.type == TaskType::kSend;
    if (sender_task != (role == NodeRole::kSender)) {
      return invalid_argument_error("config: task " + to_string(group.type) +
                                    " does not belong on a " +
                                    (role == NodeRole::kSender ? std::string("sender")
                                                               : std::string("receiver")));
    }
  }
  return Status::ok();
}

std::string NodeConfig::serialize() const {
  std::ostringstream out;
  out << "node " << node_name << "\n";
  out << "role " << (role == NodeRole::kSender ? "sender" : "receiver") << "\n";
  out << "codec " << codec_name << "\n";
  out << "chunk_bytes " << chunk_bytes << "\n";
  out << "queue_capacity " << queue_capacity << "\n";
  if (!recovery.is_default()) {
    // Emit only when any knob moved, so pre-recovery configs round-trip
    // byte-identically. All knobs are written to keep the line self-contained.
    out << "recovery reconnect=" << (recovery.reconnect ? "on" : "off")
        << " max_attempts=" << recovery.retry.max_attempts
        << " backoff_us=" << recovery.retry.initial_backoff_us
        << " max_backoff_us=" << recovery.retry.max_backoff_us
        << " multiplier=" << recovery.retry.multiplier
        << " jitter=" << recovery.retry.jitter
        << " retry_budget_us=" << recovery.retry.max_elapsed_us
        << " corrupt_limit=" << recovery.max_consecutive_corrupt
        << " degrade_watermark=" << recovery.degrade_watermark
        << " watchdog_ms=" << recovery.watchdog_ms << "\n";
  }
  if (!overload.is_default()) {
    // Same convention as `recovery`: the directive appears only when some
    // knob moved, so pre-overload configs round-trip byte-identically.
    out << "overload budget_bytes=" << overload.budget_bytes
        << " credit_window=" << overload.credit_window
        << " shed=" << to_string(overload.shed_policy)
        << " high_watermark=" << overload.high_watermark
        << " low_watermark=" << overload.low_watermark
        << " drain_deadline_ms=" << overload.drain_deadline_ms
        << " slow_floor=" << overload.slow_stream_floor
        << " slow_grace_ms=" << overload.slow_grace_ms
        << " default_priority=" << overload.default_priority << "\n";
    for (const auto& entry : overload.priorities) {
      out << "priority stream=" << entry.stream_id << " value=" << entry.priority
          << "\n";
    }
  }
  if (!health.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so pre-health configs round-trip byte-identically.
    out << "health window_ms=" << health.window_ms
        << " ewma_alpha=" << health.ewma_alpha
        << " degraded_ratio=" << health.degraded_ratio
        << " failed_ratio=" << health.failed_ratio
        << " breach_windows=" << health.breach_windows
        << " recover_windows=" << health.recover_windows
        << " baseline_windows=" << health.baseline_windows << "\n";
  }
  if (!observe.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so pre-observability configs round-trip byte-identically.
    out << "observe trace=" << (observe.trace ? "on" : "off")
        << " ring_capacity=" << observe.ring_capacity
        << " latency=" << (observe.latency ? "on" : "off")
        << " sample_ms=" << observe.sample_ms << "\n";
  }
  if (!resume.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so pre-resume configs round-trip byte-identically.
    out << "resume session=" << resume.session
        << " ack_interval=" << resume.ack_interval << "\n";
  }
  if (!cluster.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so single-gateway configs round-trip byte-identically.
    out << "cluster gateways=" << cluster.gateways
        << " self=" << cluster.self << " vnodes=" << cluster.vnodes
        << " heartbeat_ms=" << cluster.heartbeat_ms
        << " miss_windows=" << cluster.miss_windows << "\n";
  }
  if (!rebalance.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so failure-only federation configs round-trip byte-identically.
    out << "rebalance window_ms=" << rebalance.window_ms
        << " imbalance_ratio=" << rebalance.imbalance_ratio
        << " hysteresis_windows=" << rebalance.hysteresis_windows
        << " cooldown_windows=" << rebalance.cooldown_windows
        << " max_concurrent=" << rebalance.max_concurrent
        << " drain_degraded=" << (rebalance.drain_degraded ? "on" : "off")
        << "\n";
  }
  if (!scrub.is_default()) {
    // Same convention again: the directive appears only when some knob
    // moved, so trust-the-fsync configs round-trip byte-identically.
    out << "scrub cadence_ms=" << scrub.cadence_ms
        << " range_records=" << scrub.range_records
        << " budget_records=" << scrub.budget_records
        << " repair_concurrency=" << scrub.repair_concurrency << "\n";
  }
  for (const auto& group : tasks) {
    out << "task " << to_string(group.type) << " count=" << group.count << " exec=";
    for (std::size_t i = 0; i < group.bindings.size(); ++i) {
      out << (i == 0 ? "" : ",") << domain_to_token(group.bindings[i].execution_domain);
    }
    out << " mem=" << domain_to_token(group.bindings.front().memory_domain);
    if (group.stream_id >= 0) {
      out << " stream=" << group.stream_id;
    }
    out << "\n";
  }
  return out.str();
}

Result<NodeConfig> NodeConfig::parse(const std::string& text) {
  NodeConfig config;
  config.tasks.clear();
  bool saw_node = false;
  bool saw_role = false;
  bool saw_codec = false;
  bool saw_chunk_bytes = false;
  bool saw_queue_capacity = false;
  bool saw_recovery = false;
  bool saw_overload = false;
  bool saw_health = false;
  bool saw_observe = false;
  bool saw_resume = false;
  bool saw_cluster = false;
  bool saw_rebalance = false;
  bool saw_scrub = false;

  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto comment = line.find('#');
    if (comment != std::string::npos) {
      line.resize(comment);
    }
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) {
      continue;  // blank line
    }
    const auto fail = [&](const std::string& why) {
      return invalid_argument_error("config line " + std::to_string(line_no) + ": " +
                                    why);
    };

    if (directive == "node") {
      if (saw_node) {
        return fail("duplicate 'node' directive (each directive may appear "
                    "at most once)");
      }
      if (!(fields >> config.node_name)) {
        return fail("missing node name");
      }
      saw_node = true;
    } else if (directive == "role") {
      if (saw_role) {
        return fail("duplicate 'role' directive (each directive may appear "
                    "at most once)");
      }
      saw_role = true;
      std::string role;
      if (!(fields >> role)) {
        return fail("missing role");
      }
      if (role == "sender") {
        config.role = NodeRole::kSender;
      } else if (role == "receiver") {
        config.role = NodeRole::kReceiver;
      } else {
        return fail("unknown role '" + role + "'");
      }
    } else if (directive == "codec") {
      if (saw_codec) {
        return fail("duplicate 'codec' directive (each directive may appear "
                    "at most once)");
      }
      saw_codec = true;
      if (!(fields >> config.codec_name)) {
        return fail("missing codec name");
      }
    } else if (directive == "chunk_bytes") {
      if (saw_chunk_bytes) {
        return fail("duplicate 'chunk_bytes' directive (each directive may "
                    "appear at most once)");
      }
      saw_chunk_bytes = true;
      if (!(fields >> config.chunk_bytes)) {
        return fail("bad chunk_bytes");
      }
    } else if (directive == "queue_capacity") {
      if (saw_queue_capacity) {
        return fail("duplicate 'queue_capacity' directive (each directive "
                    "may appear at most once)");
      }
      saw_queue_capacity = true;
      if (!(fields >> config.queue_capacity)) {
        return fail("bad queue_capacity");
      }
    } else if (directive == "recovery") {
      if (saw_recovery) {
        return fail("duplicate 'recovery' directive (each policy may appear "
                    "at most once)");
      }
      saw_recovery = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "reconnect") {
            if (value == "on") {
              config.recovery.reconnect = true;
            } else if (value == "off") {
              config.recovery.reconnect = false;
            } else {
              return fail("bad reconnect '" + value + "' (want on|off)");
            }
          } else if (key == "max_attempts") {
            config.recovery.retry.max_attempts = std::stoi(value);
          } else if (key == "backoff_us") {
            config.recovery.retry.initial_backoff_us = std::stoull(value);
          } else if (key == "max_backoff_us") {
            config.recovery.retry.max_backoff_us = std::stoull(value);
          } else if (key == "multiplier") {
            config.recovery.retry.multiplier = std::stod(value);
          } else if (key == "jitter") {
            config.recovery.retry.jitter = std::stod(value);
          } else if (key == "retry_budget_us") {
            config.recovery.retry.max_elapsed_us = std::stoull(value);
          } else if (key == "corrupt_limit") {
            config.recovery.max_consecutive_corrupt = std::stoi(value);
          } else if (key == "degrade_watermark") {
            config.recovery.degrade_watermark = std::stoull(value);
          } else if (key == "watchdog_ms") {
            config.recovery.watchdog_ms = std::stoull(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "overload") {
      if (saw_overload) {
        return fail("duplicate 'overload' directive (each policy may appear "
                    "at most once)");
      }
      saw_overload = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "budget_bytes") {
            config.overload.budget_bytes = std::stoull(value);
          } else if (key == "credit_window") {
            config.overload.credit_window = std::stoull(value);
          } else if (key == "shed") {
            auto policy = shed_policy_from_string(value);
            if (!policy.ok()) {
              return fail(policy.status().message());
            }
            config.overload.shed_policy = policy.value();
          } else if (key == "high_watermark") {
            config.overload.high_watermark = std::stoull(value);
          } else if (key == "low_watermark") {
            config.overload.low_watermark = std::stoull(value);
          } else if (key == "drain_deadline_ms") {
            config.overload.drain_deadline_ms = std::stoull(value);
          } else if (key == "slow_floor") {
            config.overload.slow_stream_floor = std::stoull(value);
          } else if (key == "slow_grace_ms") {
            config.overload.slow_grace_ms = std::stoull(value);
          } else if (key == "default_priority") {
            config.overload.default_priority = std::stoi(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "priority") {
      StreamPriority entry;
      bool saw_stream = false;
      bool saw_value = false;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "stream") {
            const long long id = std::stoll(value);
            if (id < 0) {
              return fail("priority stream id must be non-negative");
            }
            entry.stream_id = static_cast<std::uint32_t>(id);
            saw_stream = true;
          } else if (key == "value") {
            entry.priority = std::stoi(value);
            saw_value = true;
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
      if (!saw_stream || !saw_value) {
        return fail("priority needs stream= and value=");
      }
      config.overload.priorities.push_back(entry);
    } else if (directive == "health") {
      if (saw_health) {
        return fail("duplicate 'health' directive (each policy may appear "
                    "at most once)");
      }
      saw_health = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "window_ms") {
            config.health.window_ms = std::stoull(value);
          } else if (key == "ewma_alpha") {
            config.health.ewma_alpha = std::stod(value);
          } else if (key == "degraded_ratio") {
            config.health.degraded_ratio = std::stod(value);
          } else if (key == "failed_ratio") {
            config.health.failed_ratio = std::stod(value);
          } else if (key == "breach_windows") {
            config.health.breach_windows = std::stoi(value);
          } else if (key == "recover_windows") {
            config.health.recover_windows = std::stoi(value);
          } else if (key == "baseline_windows") {
            config.health.baseline_windows = std::stoi(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "observe") {
      if (saw_observe) {
        return fail("duplicate 'observe' directive (each policy may appear "
                    "at most once)");
      }
      saw_observe = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "trace") {
            if (value == "on") {
              config.observe.trace = true;
            } else if (value == "off") {
              config.observe.trace = false;
            } else {
              return fail("bad trace '" + value + "' (want on|off)");
            }
          } else if (key == "ring_capacity") {
            config.observe.ring_capacity = std::stoull(value);
          } else if (key == "latency") {
            if (value == "on") {
              config.observe.latency = true;
            } else if (value == "off") {
              config.observe.latency = false;
            } else {
              return fail("bad latency '" + value + "' (want on|off)");
            }
          } else if (key == "sample_ms") {
            config.observe.sample_ms = std::stoull(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "resume") {
      if (saw_resume) {
        return fail("duplicate 'resume' directive (each policy may appear "
                    "at most once)");
      }
      saw_resume = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "session") {
            config.resume.session = std::stoull(value);
          } else if (key == "ack_interval") {
            config.resume.ack_interval = std::stoull(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "cluster") {
      if (saw_cluster) {
        return fail("duplicate 'cluster' directive (each policy may appear "
                    "at most once)");
      }
      saw_cluster = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "gateways") {
            config.cluster.gateways =
                static_cast<std::uint32_t>(std::stoul(value));
          } else if (key == "self") {
            config.cluster.self = static_cast<std::uint32_t>(std::stoul(value));
          } else if (key == "vnodes") {
            config.cluster.vnodes =
                static_cast<std::uint32_t>(std::stoul(value));
          } else if (key == "heartbeat_ms") {
            config.cluster.heartbeat_ms = std::stoull(value);
          } else if (key == "miss_windows") {
            config.cluster.miss_windows = std::stoi(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "rebalance") {
      if (saw_rebalance) {
        return fail("duplicate 'rebalance' directive (each policy may appear "
                    "at most once)");
      }
      saw_rebalance = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "window_ms") {
            config.rebalance.window_ms = std::stoull(value);
          } else if (key == "imbalance_ratio") {
            config.rebalance.imbalance_ratio = std::stod(value);
          } else if (key == "hysteresis_windows") {
            config.rebalance.hysteresis_windows = std::stoi(value);
          } else if (key == "cooldown_windows") {
            config.rebalance.cooldown_windows = std::stoi(value);
          } else if (key == "max_concurrent") {
            config.rebalance.max_concurrent = std::stoi(value);
          } else if (key == "drain_degraded") {
            if (value == "on") {
              config.rebalance.drain_degraded = true;
            } else if (value == "off") {
              config.rebalance.drain_degraded = false;
            } else {
              return fail("bad drain_degraded '" + value + "' (want on|off)");
            }
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "scrub") {
      if (saw_scrub) {
        return fail("duplicate 'scrub' directive (each policy may appear "
                    "at most once)");
      }
      saw_scrub = true;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        try {
          if (key == "cadence_ms") {
            config.scrub.cadence_ms = std::stoull(value);
          } else if (key == "range_records") {
            config.scrub.range_records =
                static_cast<std::uint32_t>(std::stoul(value));
          } else if (key == "budget_records") {
            config.scrub.budget_records = std::stoull(value);
          } else if (key == "repair_concurrency") {
            config.scrub.repair_concurrency = std::stoi(value);
          } else {
            return fail("unknown attribute '" + key + "'");
          }
        } catch (const std::exception&) {
          return fail("bad value for " + key + ": '" + value + "'");
        }
      }
    } else if (directive == "task") {
      TaskGroupConfig group;
      std::string type_token;
      if (!(fields >> type_token)) {
        return fail("missing task type");
      }
      auto type = task_type_from_string(type_token);
      if (!type.ok()) {
        return fail(type.status().message());
      }
      group.type = type.value();
      group.bindings.clear();

      int memory_domain = NumaBinding::kOsChoice;
      std::vector<int> exec_domains;
      bool saw_count = false;
      std::string attr;
      while (fields >> attr) {
        const auto eq = attr.find('=');
        if (eq == std::string::npos) {
          return fail("malformed attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        if (key == "count") {
          try {
            group.count = std::stoi(value);
          } catch (const std::exception&) {
            return fail("bad count '" + value + "'");
          }
          saw_count = true;
        } else if (key == "exec") {
          for (const std::string& token : split(value, ',')) {
            auto domain = domain_from_token(token);
            if (!domain.ok()) {
              return fail(domain.status().message());
            }
            exec_domains.push_back(domain.value());
          }
        } else if (key == "mem") {
          auto domain = domain_from_token(value);
          if (!domain.ok()) {
            return fail(domain.status().message());
          }
          memory_domain = domain.value();
        } else if (key == "stream") {
          try {
            group.stream_id = std::stoi(value);
          } catch (const std::exception&) {
            return fail("bad stream id '" + value + "'");
          }
        } else {
          return fail("unknown attribute '" + key + "'");
        }
      }
      if (!saw_count) {
        return fail("task missing count=");
      }
      if (exec_domains.empty()) {
        exec_domains.push_back(NumaBinding::kOsChoice);
      }
      for (const int domain : exec_domains) {
        group.bindings.push_back(
            NumaBinding{.execution_domain = domain, .memory_domain = memory_domain});
      }
      config.tasks.push_back(std::move(group));
    } else {
      return fail("unknown directive '" + directive + "'");
    }
  }
  if (!saw_node) {
    return invalid_argument_error("config: missing 'node' directive");
  }
  return config;
}

}  // namespace numastream
