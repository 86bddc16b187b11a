// Pins the config text format (core/config.h): the bytes serialize() writes,
// the texts parse() accepts, each mapped to the bytes it serializes back to,
// and the malformed lines it rejects, each with its line number and the
// offending key in the message. A golden string that changes here is a
// change to the file format every deployed node reads.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"

#include "core/config.h"
#include "core/config_generator.h"
#include "core/placement.h"
#include "topo/topology.h"

namespace numastream {
namespace {

/// What `node n` alone serializes to: every single-valued directive at its
/// default, no policy line, no task.
constexpr const char* kDefaultHead =
    "node n\n"
    "role sender\n"
    "codec lz4\n"
    "chunk_bytes 11059200\n"
    "queue_capacity 8\n";

struct Accepted {
  const char* text;
  const char* serialized;
};

/// One directive line after `node n`, and what follows kDefaultHead in the
/// serialized form.
constexpr Accepted kAcceptedLines[] = {
    {"recovery reconnect=on\n",
     "recovery reconnect=on max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery max_attempts=9\n",
     "recovery reconnect=off max_attempts=9 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery backoff_us=300\n",
     "recovery reconnect=off max_attempts=5 backoff_us=300 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery max_backoff_us=70000\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=70000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery multiplier=1.25\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=1.25 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery jitter=0.75\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.75 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery retry_budget_us=40000\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=40000 "
     "degrade_watermark=0 watchdog_ms=0\n"},
    {"recovery degrade_watermark=5\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=5 watchdog_ms=0\n"},
    {"recovery watchdog_ms=750\n",
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=2 jitter=0.5 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=750\n"},
    {"overload budget_bytes=22118400\n",
     "overload budget_bytes=22118400 credit_window=0 shed=block "
     "high_watermark=0 low_watermark=0 drain_deadline_ms=0\n"},
    {"overload credit_window=8\n",
     "overload budget_bytes=0 credit_window=8 shed=block high_watermark=0 "
     "low_watermark=0 drain_deadline_ms=0\n"},
    {"overload shed=drop_newest\n",
     "overload budget_bytes=0 credit_window=0 shed=drop_newest "
     "high_watermark=0 low_watermark=0 drain_deadline_ms=0\n"},
    {"overload high_watermark=6\n",
     "overload budget_bytes=0 credit_window=0 shed=block high_watermark=6 "
     "low_watermark=0 drain_deadline_ms=0\n"},
    {"overload low_watermark=2\n",
     "overload budget_bytes=0 credit_window=0 shed=block high_watermark=0 "
     "low_watermark=2 drain_deadline_ms=0\n"},
    {"overload drain_deadline_ms=1000\n",
     "overload budget_bytes=0 credit_window=0 shed=block high_watermark=0 "
     "low_watermark=0 drain_deadline_ms=1000\n"},
    {"observe trace=on\n",
     "observe trace=on latency=off\n"},
    {"observe latency=on\n",
     "observe trace=off latency=on\n"},
    {"resume session=42\n",
     "resume session=42 ack_interval=0\n"},
    {"resume ack_interval=8\n",
     "resume session=0 ack_interval=8\n"},
    {"task compress count=3\n",
     "task compress count=3 exec=os mem=os\n"},
    {"task send count=1 exec=0,1 mem=1 stream=2\n",
     "task send count=1 exec=0,1 mem=1 stream=2\n"},
    {"task compress count=2 mem=0\n",
     "task compress count=2 exec=os mem=0\n"},
    {"task send count=2 exec=os,1 mem=os\n",
     "task send count=2 exec=os,1 mem=os\n"},
    {"task compress count=-1 exec=0\n",
     "task compress count=-1 exec=0 mem=os\n"},
};

/// Whole texts: comments, blank lines, odd whitespace, directive order,
/// repeatable directives and policy lines left at their defaults.
constexpr Accepted kAcceptedTexts[] = {
    {"node n\n",
     "node n\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"},
    {"node n\n"
     "role receiver\n",
     "node n\n"
     "role receiver\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"},
    {"node n\n"
     "codec delta_rle\n",
     "node n\n"
     "role sender\n"
     "codec delta_rle\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"},
    {"node n\n"
     "chunk_bytes 4096\n",
     "node n\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 4096\n"
     "queue_capacity 8\n"},
    {"node n\n"
     "queue_capacity 3\n",
     "node n\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 3\n"},
    {"node n\n"
     "recovery\n"
     "overload\n"
     "observe\n"
     "resume\n",
     "node n\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"},
    {"node n\n"
     "recovery reconnect=off max_attempts=5 multiplier=2 jitter=0.5\n"
     "observe trace=off latency=off\n",
     "node n\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"},
    {"# the receiver side\n"
     "\n"
     "node lynxdtn   # trailing comment\n"
     "role receiver\n"
     "codec lz4\n"
     "task receive count=2 exec=1 mem=1   # pinned to the NIC domain\n"
     "task decompress count=8 exec=0,1 mem=os\n",
     "node lynxdtn\n"
     "role receiver\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"
     "task receive count=2 exec=1 mem=1\n"
     "task decompress count=8 exec=0,1 mem=os\n"},
    {"  node   spaced  \n"
     "\trole\treceiver\t\n"
     "task receive count=1 exec=1 mem=1 stream=0 # comment=ignored\n",
     "node spaced\n"
     "role receiver\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"
     "task receive count=1 exec=1 mem=1 stream=0\n"},
    {"node crlf\r\n"
     "role receiver\r\n"
     "task receive count=1 exec=0 mem=0\r\n",
     "node crlf\n"
     "role receiver\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"
     "task receive count=1 exec=0 mem=0\n"},
    {"task decompress count=1 exec=0 mem=0 stream=3\n"
     "node late\n"
     "task receive count=1 exec=1 mem=1 stream=3\n",
     "node late\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"
     "task decompress count=1 exec=0 mem=0 stream=3\n"
     "task receive count=1 exec=1 mem=1 stream=3\n"},
    {"node dbl\n"
     "recovery multiplier=3.5 jitter=0\n",
     "node dbl\n"
     "role sender\n"
     "codec lz4\n"
     "chunk_bytes 11059200\n"
     "queue_capacity 8\n"
     "recovery reconnect=off max_attempts=5 backoff_us=1000 max_backoff_us=250000 "
     "multiplier=3.5 jitter=0 retry_budget_us=0 "
     "degrade_watermark=0 watchdog_ms=0\n"},
};

struct RejectedLine {
  const char* line;
  const char* key;
};

/// Each line is rejected as line 4 of kRejectHead + line.
constexpr const char* kRejectHead = "# pinned\n\nnode n\n";
constexpr RejectedLine kRejectedLines[] = {
    {"bogus y\n", "bogus"},
    {"role pirate\n", "pirate"},
    {"role\n", "role"},
    {"codec\n", "codec"},
    {"chunk_bytes x\n", "chunk_bytes"},
    {"chunk_bytes\n", "chunk_bytes"},
    {"queue_capacity y\n", "queue_capacity"},
    {"queue_capacity\n", "queue_capacity"},
    {"recovery max_attempts=zz\n", "max_attempts"},
    {"recovery backoff_us=zz\n", "backoff_us"},
    {"recovery max_backoff_us=zz\n", "max_backoff_us"},
    {"recovery multiplier=zz\n", "multiplier"},
    {"recovery jitter=zz\n", "jitter"},
    {"recovery retry_budget_us=zz\n", "retry_budget_us"},
    {"recovery corrupt_limit=8\n", "unknown attribute 'corrupt_limit'"},
    {"recovery degrade_watermark=zz\n", "degrade_watermark"},
    {"recovery watchdog_ms=zz\n", "watchdog_ms"},
    {"recovery frob=1\n", "frob"},
    {"recovery max_attempts\n", "max_attempts"},
    {"overload budget_bytes=zz\n", "budget_bytes"},
    {"overload credit_window=zz\n", "credit_window"},
    {"overload high_watermark=zz\n", "high_watermark"},
    {"overload low_watermark=zz\n", "low_watermark"},
    {"overload drain_deadline_ms=zz\n", "drain_deadline_ms"},
    {"overload frob=1\n", "frob"},
    {"overload budget_bytes\n", "budget_bytes"},
    {"observe ring_capacity=1024\n", "unknown attribute 'ring_capacity'"},
    {"observe sample_ms=50\n", "unknown attribute 'sample_ms'"},
    {"observe frob=1\n", "frob"},
    {"resume session=zz\n", "session"},
    {"resume ack_interval=zz\n", "ack_interval"},
    {"resume frob=1\n", "frob"},
    {"resume session\n", "session"},
    {"cluster gateways=2 self=0\n", "unknown directive 'cluster'"},
    {"rebalance window_ms=100\n", "unknown directive 'rebalance'"},
    {"scrub cadence_ms=250\n", "unknown directive 'scrub'"},
    {"health window_ms=100\n", "unknown directive 'health'"},
    {"recovery reconnect=maybe\n", "reconnect"},
    {"observe trace=maybe\n", "trace"},
    {"observe latency=maybe\n", "latency"},
    {"overload shed=sideways\n", "shed"},
    {"overload shed=drop_oldest\n", "shed"},
    {"overload shed=priority_evict\n", "shed"},
    {"overload slow_floor=3\n", "unknown attribute 'slow_floor'"},
    {"overload slow_grace_ms=250\n", "unknown attribute 'slow_grace_ms'"},
    {"overload default_priority=1\n", "unknown attribute 'default_priority'"},
    {"priority stream=1 value=2\n", "unknown directive 'priority'"},
    {"recovery max_attempts=99999999999\n", "max_attempts"},
    {"overload budget_bytes=99999999999999999999\n", "budget_bytes"},
    {"task\n", "task"},
    {"task frobnicate count=1\n", "frobnicate"},
    {"task send\n", "count"},
    {"task send count=x\n", "count"},
    {"task send count=1 exec=9x\n", "9x"},
    {"task send count=1 exec=0,7q\n", "7q"},
    {"task send count=1 exec=-2\n", "-2"},
    {"task send count=1 mem=zz\n", "zz"},
    {"task send count=1 stream=q\n", "stream"},
    {"task send count=1 lanes=2\n", "lanes"},
    {"task send count\n", "count"},
};

struct RejectedText {
  const char* text;
  int line;
  const char* key;
};

constexpr RejectedText kRejectedTexts[] = {
    {"node a\n"
     "node b\n", 2, "duplicate 'node'"},
    {"node n\n"
     "role sender\n"
     "# between\n"
     "role sender\n", 4, "duplicate 'role'"},
    {"node n\n"
     "codec lz4\n"
     "# between\n"
     "codec lz4\n", 4, "duplicate 'codec'"},
    {"node n\n"
     "chunk_bytes 64\n"
     "# between\n"
     "chunk_bytes 64\n", 4, "duplicate 'chunk_bytes'"},
    {"node n\n"
     "queue_capacity 4\n"
     "# between\n"
     "queue_capacity 4\n", 4, "duplicate 'queue_capacity'"},
    {"node n\n"
     "recovery reconnect=on\n"
     "# between\n"
     "recovery reconnect=on\n", 4, "duplicate 'recovery'"},
    {"node n\n"
     "overload credit_window=4\n"
     "# between\n"
     "overload credit_window=4\n", 4, "duplicate 'overload'"},
    {"node n\n"
     "observe trace=on\n"
     "# between\n"
     "observe trace=on\n", 4, "duplicate 'observe'"},
    {"node n\n"
     "resume session=1\n"
     "# between\n"
     "resume session=1\n", 4, "duplicate 'resume'"},
};

NodeConfig every_knob_moved() {
  NodeConfig config;
  config.node_name = "gw7";
  config.role = NodeRole::kReceiver;
  config.codec_name = "delta_rle";
  config.chunk_bytes = 65536;
  config.queue_capacity = 16;
  config.recovery.reconnect = true;
  config.recovery.retry.max_attempts = 7;
  config.recovery.retry.initial_backoff_us = 250;
  config.recovery.retry.max_backoff_us = 64000;
  config.recovery.retry.multiplier = 1.75;
  config.recovery.retry.jitter = 0.125;
  config.recovery.retry.max_elapsed_us = 900000;
  config.recovery.degrade_watermark = 12;
  config.recovery.watchdog_ms = 2500;
  config.overload.budget_bytes = 1048576;
  config.overload.credit_window = 6;
  config.overload.shed_policy = ShedPolicy::kDropNewest;
  config.overload.high_watermark = 14;
  config.overload.low_watermark = 5;
  config.overload.drain_deadline_ms = 8000;
  config.observe.trace = true;
  config.observe.latency = true;
  config.resume.session = 77;
  config.resume.ack_interval = 16;
  constexpr int kOs = NumaBinding::kOsChoice;
  config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive,
                      .count = 4,
                      .bindings = {{.execution_domain = 1, .memory_domain = 1}},
                      .stream_id = 0},
      TaskGroupConfig{.type = TaskType::kDecompress,
                      .count = 6,
                      .bindings = {{.execution_domain = 0, .memory_domain = kOs},
                                   {.execution_domain = 1, .memory_domain = kOs}},
                      .stream_id = 1},
      TaskGroupConfig{.type = TaskType::kReceive,
                      .count = 2,
                      .bindings = {{.execution_domain = kOs, .memory_domain = 0}}},
  };
  return config;
}

constexpr const char* kEveryKnobMoved =
    "node gw7\n"
    "role receiver\n"
    "codec delta_rle\n"
    "chunk_bytes 65536\n"
    "queue_capacity 16\n"
    "recovery reconnect=on max_attempts=7 backoff_us=250 max_backoff_us=64000 "
    "multiplier=1.75 jitter=0.125 retry_budget_us=900000 "
    "degrade_watermark=12 watchdog_ms=2500\n"
    "overload budget_bytes=1048576 credit_window=6 shed=drop_newest "
    "high_watermark=14 low_watermark=5 drain_deadline_ms=8000\n"
    "observe trace=on latency=on\n"
    "resume session=77 ack_interval=16\n"
    "task receive count=4 exec=1 mem=1 stream=0\n"
    "task decompress count=6 exec=0,1 mem=os stream=1\n"
    "task receive count=2 exec=os mem=0\n";

/// Serializes `text` after parsing it; the parse must succeed.
std::string reserialize(const std::string& text) {
  auto parsed = NodeConfig::parse(text);
  EXPECT_TRUE(parsed.ok()) << text << " -> " << parsed.status().to_string();
  return parsed.ok() ? parsed.value().serialize() : std::string();
}

TEST(ConfigPinTest, EveryDirectiveAndAttributeMoved) {
  EXPECT_EQ(every_knob_moved().serialize(), kEveryKnobMoved);
  EXPECT_EQ(reserialize(kEveryKnobMoved), kEveryKnobMoved);
}

TEST(ConfigPinTest, GeneratorPlans) {
  ConfigGenerator four_streams(
      lynxdtn_topology(),
    {updraft_topology("updraft1"), updraft_topology("updraft2"),
       polaris_topology("polaris1"), polaris_topology("polaris2")});
  WorkloadSpec spec;
  spec.num_streams = 4;
  auto aware = four_streams.generate(spec, PlacementStrategy::kNumaAware);
  ASSERT_TRUE(aware.ok()) << aware.status().to_string();
  EXPECT_EQ(aware.value().receiver.serialize(),
            "node lynxdtn\n"
            "role receiver\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task receive count=4 exec=1 mem=1 stream=0\n"
            "task decompress count=4 exec=0 mem=0 stream=0\n"
            "task receive count=4 exec=1 mem=1 stream=1\n"
            "task decompress count=4 exec=0 mem=0 stream=1\n"
            "task receive count=4 exec=1 mem=1 stream=2\n"
            "task decompress count=4 exec=0 mem=0 stream=2\n"
            "task receive count=4 exec=1 mem=1 stream=3\n"
            "task decompress count=4 exec=0 mem=0 stream=3\n");
  EXPECT_EQ(aware.value().senders[3].serialize(),
            "node polaris2\n"
            "role sender\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task compress count=32 exec=0 mem=0 stream=3\n"
            "task send count=4 exec=0 mem=0 stream=3\n");

  ConfigGenerator one_stream(lynxdtn_topology(), {updraft_topology()});
  spec.num_streams = 1;
  auto os = one_stream.generate(spec, PlacementStrategy::kOsManaged);
  ASSERT_TRUE(os.ok()) << os.status().to_string();
  EXPECT_EQ(os.value().receiver.serialize(),
            "node lynxdtn\n"
            "role receiver\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task receive count=16 exec=os mem=os stream=0\n"
            "task decompress count=16 exec=os mem=os stream=0\n");
  EXPECT_EQ(os.value().senders[0].serialize(),
            "node updraft1\n"
            "role sender\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task compress count=32 exec=os mem=os stream=0\n"
            "task send count=16 exec=os mem=os stream=0\n");
}

TEST(ConfigPinTest, PaperTablePlacements) {
  // One task group per row of Table 1 (compression placement) and Table 2
  // (sender and receiver sockets), with the rows' bindings.
  NodeConfig table1;
  table1.node_name = "table1";
  for (const auto& row : table1_configs()) {
    table1.tasks.push_back(TaskGroupConfig{
        .type = TaskType::kCompress,
        .count = 8,
        .bindings = bindings_for_policy(row.execution, row.memory_domain)});
  }
  EXPECT_EQ(table1.serialize(),
            "node table1\n"
            "role sender\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task compress count=8 exec=0 mem=0\n"
            "task compress count=8 exec=1 mem=0\n"
            "task compress count=8 exec=0 mem=1\n"
            "task compress count=8 exec=1 mem=1\n"
            "task compress count=8 exec=0,1 mem=0\n"
            "task compress count=8 exec=0,1 mem=1\n"
            "task compress count=8 exec=os mem=0\n"
            "task compress count=8 exec=os mem=1\n");

  NodeConfig senders;
  senders.node_name = "table2-sender";
  NodeConfig receivers;
  receivers.node_name = "table2-receiver";
  receivers.role = NodeRole::kReceiver;
  for (const auto& row : table2_configs()) {
    senders.tasks.push_back(TaskGroupConfig{
        .type = TaskType::kSend,
        .count = 4,
        .bindings = bindings_for_policy(row.sender, 1)});
    receivers.tasks.push_back(TaskGroupConfig{
        .type = TaskType::kReceive,
        .count = 4,
        .bindings = bindings_for_policy(row.receiver, 1)});
  }
  EXPECT_EQ(senders.serialize(),
            "node table2-sender\n"
            "role sender\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task send count=4 exec=0 mem=1\n"
            "task send count=4 exec=0 mem=1\n"
            "task send count=4 exec=1 mem=1\n"
            "task send count=4 exec=1 mem=1\n"
            "task send count=4 exec=os mem=1\n");
  EXPECT_EQ(receivers.serialize(),
            "node table2-receiver\n"
            "role receiver\n"
            "codec lz4\n"
            "chunk_bytes 11059200\n"
            "queue_capacity 8\n"
            "task receive count=4 exec=0 mem=1\n"
            "task receive count=4 exec=1 mem=1\n"
            "task receive count=4 exec=0 mem=1\n"
            "task receive count=4 exec=1 mem=1\n"
            "task receive count=4 exec=os mem=1\n");
}

TEST(ConfigPinTest, AcceptedTextsSerializeToPinnedBytes) {
  for (const Accepted& line : kAcceptedLines) {
    EXPECT_EQ(reserialize(std::string("node n\n") + line.text),
              std::string(kDefaultHead) + line.serialized)
        << line.text;
  }
  for (const Accepted& text : kAcceptedTexts) {
    EXPECT_EQ(reserialize(text.text), text.serialized) << text.text;
  }
}

void expect_rejected(const std::string& text, int line, const char* key) {
  auto parsed = NodeConfig::parse(text);
  ASSERT_FALSE(parsed.ok()) << "accepted: " << text;
  const std::string message = parsed.status().message();
  EXPECT_NE(message.find("config line " + std::to_string(line) + ":"),
            std::string::npos)
      << text << " -> " << message;
  EXPECT_NE(message.find(key), std::string::npos) << text << " -> " << message;
}

TEST(ConfigPinTest, RejectedLinesNameTheirLineAndKey) {
  for (const RejectedLine& bad : kRejectedLines) {
    expect_rejected(std::string(kRejectHead) + bad.line, 4, bad.key);
  }
  for (const RejectedText& bad : kRejectedTexts) {
    expect_rejected(bad.text, bad.line, bad.key);
  }
  const auto no_node = NodeConfig::parse("role sender\n").status();
  ASSERT_FALSE(no_node.is_ok());
  EXPECT_NE(no_node.message().find("missing 'node'"), std::string::npos)
      << no_node.message();
}

// ------------------------------------------------------------------- fuzz

/// The nightly chaos job randomizes this via NUMASTREAM_CHAOS_SEED; unset
/// (the tier-1 default), the sweep is fully deterministic.
std::uint64_t fuzz_seed(std::uint64_t fallback) {
  const char* env = std::getenv("NUMASTREAM_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  return std::strtoull(env, nullptr, 10);
}

/// Every text of the pin corpus, accepted and rejected.
std::vector<std::string> pin_corpus() {
  std::vector<std::string> corpus = {kEveryKnobMoved};
  for (const Accepted& line : kAcceptedLines) {
    corpus.push_back(std::string("node n\n") + line.text);
  }
  for (const Accepted& text : kAcceptedTexts) {
    corpus.push_back(text.text);
  }
  for (const RejectedLine& bad : kRejectedLines) {
    corpus.push_back(std::string(kRejectHead) + bad.line);
  }
  for (const RejectedText& bad : kRejectedTexts) {
    corpus.push_back(bad.text);
  }
  return corpus;
}

using Lines = std::vector<std::vector<std::string>>;

Lines to_lines(const std::string& text) {
  Lines lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    lines.emplace_back();
    for (std::string word; fields >> word;) {
      lines.back().push_back(word);
    }
  }
  return lines;
}

std::string to_text(const Lines& lines) {
  std::string text;
  for (const auto& words : lines) {
    for (std::size_t i = 0; i < words.size(); ++i) {
      text += (i == 0 ? "" : " ") + words[i];
    }
    text += '\n';
  }
  return text;
}

/// Values no field may silently accept as something else.
constexpr const char* kHostileValues[] = {
    "-", "-1", "-0", "nan", "inf", "-inf", "1e999", "1e-400", "",
    "+1", "0x10", "1.5", "2x", "os,", "4294967296", "18446744073709551616",
    "99999999999999999999",
};

/// parse() must not throw, and a text it accepts must reach a fixed point
/// after one round: serialize(parse(serialize(parse(t)))) ==
/// serialize(parse(t)).
testing::AssertionResult reaches_fixed_point(const std::string& text) {
  try {
    const auto first = NodeConfig::parse(text);
    if (!first.ok()) {
      return testing::AssertionSuccess();
    }
    const std::string once = first.value().serialize();
    const auto second = NodeConfig::parse(once);
    if (!second.ok()) {
      return testing::AssertionFailure()
             << "serialized form rejected (" << second.status().message()
             << "):\n" << text << "->\n" << once;
    }
    if (second.value().serialize() != once) {
      return testing::AssertionFailure() << "no fixed point:\n" << text
                                         << "->\n" << once << "->\n"
                                         << second.value().serialize();
    }
    return testing::AssertionSuccess();
  } catch (const std::exception& error) {
    return testing::AssertionFailure()
           << "parse threw '" << error.what() << "' on:\n" << text;
  }
}

TEST(ConfigFuzzTest, HostileValueInEverySlot) {
  // A slot is the value of every `key=value` word and the second word of
  // every line.
  for (const std::string& text : pin_corpus()) {
    const Lines lines = to_lines(text);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      for (std::size_t w = 1; w < lines[l].size(); ++w) {
        const std::string& word = lines[l][w];
        const std::size_t eq = word.find('=');
        if (eq == std::string::npos && w != 1) {
          continue;
        }
        for (const char* value : kHostileValues) {
          Lines mutated = lines;
          mutated[l][w] =
              (eq == std::string::npos ? "" : word.substr(0, eq + 1)) + value;
          ASSERT_TRUE(reaches_fixed_point(to_text(mutated)));
        }
      }
    }
  }
}

TEST(ConfigFuzzTest, MutatedCorpusReachesAFixedPoint) {
  Rng rng(fuzz_seed(0xC0F1C0F1ULL));
  const std::vector<std::string> corpus = pin_corpus();
  constexpr std::string_view kInserted = "=,# \n-0123456789.aeinx\t";
  for (int round = 0; round < 4000; ++round) {
    std::string text = corpus[rng.next_below(corpus.size())];
    const int mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      Lines lines = to_lines(text);
      auto& words = lines[rng.next_below(lines.size())];
      const std::size_t at = rng.next_below(text.size());
      switch (rng.next_below(6)) {
        case 0:  // drop a token
          if (!words.empty()) {
            words.erase(words.begin() +
                        static_cast<std::ptrdiff_t>(rng.next_below(words.size())));
          }
          text = to_text(lines);
          break;
        case 1:  // duplicate a token
          if (!words.empty()) {
            const std::size_t i = rng.next_below(words.size());
            const std::string copy = words[i];
            words.insert(words.begin() + static_cast<std::ptrdiff_t>(i), copy);
          }
          text = to_text(lines);
          break;
        case 2:  // swap two tokens
          if (!words.empty()) {
            std::swap(words[rng.next_below(words.size())],
                      words[rng.next_below(words.size())]);
          }
          text = to_text(lines);
          break;
        case 3:  // flip a character
          text[at] = static_cast<char>(text[at] ^ (1 << rng.next_below(8)));
          break;
        case 4:  // insert a character
          text.insert(at, 1, kInserted[rng.next_below(kInserted.size())]);
          break;
        default:  // hostile value after an '='
          if (const auto eq = text.find('=', at); eq != std::string::npos) {
            const auto end = text.find_first_of(" \n", eq);
            text.replace(eq + 1, end == std::string::npos ? end : end - eq - 1,
                         kHostileValues[rng.next_below(std::size(kHostileValues))]);
          }
          break;
      }
    }
    ASSERT_TRUE(reaches_fixed_point(text)) << "round " << round;
  }
}

}  // namespace
}  // namespace numastream
