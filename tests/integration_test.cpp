// Integration tests: whole-system paths that cross module boundaries —
// the real threaded pipeline over real TCP sockets, configuration files
// parsed from text and executed, hostile peers, and corrupt frames.
#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "codec/frame.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "core/journal.h"
#include "core/pipeline.h"
#include "metrics/fault_counters.h"
#include "msg/inproc.h"
#include "msg/socket.h"
#include "msg/tcp.h"
#include "topo/discover.h"
#include "wire_reference.h"

namespace numastream {
namespace {

MachineTopology host_topology() {
  auto topo = discover_topology();
  NS_CHECK(topo.ok(), "integration tests need a discoverable host");
  return std::move(topo).value();
}

TomoConfig small_tomo() {
  TomoConfig config;
  config.rows = 64;
  config.cols = 100;
  config.num_spheres = 4;
  return config;
}

// ------------------------------------------------------------ TCP pipeline

TEST(TcpPipelineTest, FullPipelineOverRealSockets) {
  const MachineTopology topo = host_topology();
  const TomoConfig tomo = small_tomo();

  NodeConfig sender_config;
  sender_config.node_name = "itest-sender";
  sender_config.role = NodeRole::kSender;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 3},
      TaskGroupConfig{.type = TaskType::kSend, .count = 4},
  };
  NodeConfig receiver_config;
  receiver_config.node_name = "itest-receiver";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 4},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  const std::uint64_t kChunks = 25;
  TomoChunkSource source(tomo, 1, kChunks);
  CountingSink sink;

  SenderStats sender_stats;
  std::thread sender_thread([&] {
    StreamSender sender(topo, sender_config);
    auto stats = sender.run(source, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
    sender_stats = stats.value();
  });

  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();

  EXPECT_EQ(sink.chunks(), kChunks);
  EXPECT_EQ(stats.value().raw_bytes, kChunks * tomo.chunk_bytes());
  EXPECT_EQ(stats.value().corrupt_frames, 0U);
  EXPECT_EQ(stats.value().wire_bytes, sender_stats.wire_bytes);
  EXPECT_LT(sender_stats.wire_bytes, sender_stats.raw_bytes);  // LZ4 helped
}

// The receiver is wire-format compatible with any sender that speaks the
// message + frame formats, not just StreamSender: drive it by hand.
TEST(TcpPipelineTest, HandRolledSenderInteroperates) {
  const MachineTopology topo = host_topology();
  NodeConfig receiver_config;
  receiver_config.node_name = "itest";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  const Bytes payload(50000, 0x42);
  std::thread sender_thread([&] {
    auto stream = tcp_connect("127.0.0.1", port);
    ASSERT_TRUE(stream.ok());
    PushSocket push(std::move(stream).value());
    Message message;
    message.stream_id = 9;
    message.sequence = 0;
    message.body = encode_frame(*codec_by_id(CodecId::kLz4), payload);
    ASSERT_TRUE(push.send(message).is_ok());
    ASSERT_TRUE(push.finish(9).is_ok());
  });

  CountingSink sink;
  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(sink.chunks(), 1U);
  EXPECT_EQ(sink.bytes(), payload.size());
}

// A corrupt frame inside a valid message must be counted and dropped while
// the stream continues (network checksums pass; the frame itself is bad —
// e.g. a sender-side memory error in its content check). A sealed frame's
// payload is checked on receipt, so a flip there ends the connection
// instead (SealedFrameTest).
TEST(TcpPipelineTest, CorruptFrameIsDroppedNotFatal) {
  const MachineTopology topo = host_topology();
  NodeConfig receiver_config;
  receiver_config.node_name = "itest";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  const Bytes payload(20000, 0x33);
  std::thread sender_thread([&] {
    auto stream = tcp_connect("127.0.0.1", port);
    ASSERT_TRUE(stream.ok());
    PushSocket push(std::move(stream).value());

    Message good;
    good.sequence = 0;
    good.body = encode_frame(*codec_by_id(CodecId::kLz4), payload);

    Message bad = good;
    bad.sequence = 1;
    bad.body[28] ^= 0xFF;  // corrupt the frame's content check

    Message good2 = good;
    good2.sequence = 2;

    ASSERT_TRUE(push.send(good).is_ok());
    ASSERT_TRUE(push.send(bad).is_ok());
    ASSERT_TRUE(push.send(good2).is_ok());
    ASSERT_TRUE(push.finish(0).is_ok());
  });

  CountingSink sink;
  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(stats.value().corrupt_frames, 1U);
  EXPECT_EQ(sink.chunks(), 2U);  // the two good frames arrived
}

// A peer that sends garbage bytes (not even the message framing) must fail
// the receiver cleanly with DATA_LOSS, never hang or crash.
TEST(TcpPipelineTest, GarbagePeerFailsCleanly) {
  const MachineTopology topo = host_topology();
  NodeConfig receiver_config;
  receiver_config.node_name = "itest";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.tasks = {
      TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  std::thread peer([&] {
    auto stream = tcp_connect("127.0.0.1", port);
    ASSERT_TRUE(stream.ok());
    const Bytes garbage(4096, 0xEE);
    (void)stream.value()->write_all(garbage);
    stream.value()->shutdown_write();
    // Drain until the receiver hangs up so the write cannot race the close.
    Bytes sink_buffer(256);
    while (true) {
      auto n = stream.value()->read_some(sink_buffer);
      if (!n.ok() || n.value() == 0) {
        break;
      }
    }
  });

  CountingSink sink;
  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), sink);
  peer.join();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------- config-file-driven

TEST(ConfigFileTest, PipelineRunsFromParsedText) {
  const MachineTopology topo = host_topology();
  const TomoConfig tomo = small_tomo();

  const std::string sender_text =
      "node beamline\n"
      "role sender\n"
      "codec delta_rle\n"
      "chunk_bytes " + std::to_string(tomo.chunk_bytes()) + "\n"
      "task compress count=2 exec=os mem=os\n"
      "task send count=2 exec=os mem=os\n";
  const std::string receiver_text =
      "node gateway\n"
      "role receiver\n"
      "codec delta_rle\n"
      "chunk_bytes " + std::to_string(tomo.chunk_bytes()) + "\n"
      "task receive count=2 exec=os mem=os\n"
      "task decompress count=2 exec=os mem=os\n";

  auto sender_config = NodeConfig::parse(sender_text);
  auto receiver_config = NodeConfig::parse(receiver_text);
  ASSERT_TRUE(sender_config.ok()) << sender_config.status().to_string();
  ASSERT_TRUE(receiver_config.ok()) << receiver_config.status().to_string();

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  TomoChunkSource source(tomo, 0, 10);
  CountingSink sink;
  std::thread sender_thread([&] {
    StreamSender sender(topo, sender_config.value());
    auto stats = sender.run(source, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  });
  StreamReceiver receiver(topo, receiver_config.value());
  auto stats = receiver.run(*listener.value(), sink);
  sender_thread.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  EXPECT_EQ(sink.chunks(), 10U);
  EXPECT_EQ(stats.value().corrupt_frames, 0U);
}

TEST(ConfigFileTest, ReadmeOverloadExampleParses) {
  // The `overload` line exactly as README.md shows it.
  auto parsed = NodeConfig::parse(
      "node gateway\n"
      "overload budget_bytes=134217728 credit_window=4 shed=drop_newest "
      "high_watermark=6 low_watermark=2 drain_deadline_ms=10000\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const OverloadConfig& overload = parsed.value().overload;
  EXPECT_EQ(overload.budget_bytes, 134217728U);
  EXPECT_EQ(overload.credit_window, 4U);
  EXPECT_EQ(overload.shed_policy, ShedPolicy::kDropNewest);
  EXPECT_EQ(overload.high_watermark, 6U);
  EXPECT_EQ(overload.low_watermark, 2U);
  EXPECT_EQ(overload.drain_deadline_ms, 10000U);
}

// ------------------------------------------------------------- determinism

// The same dataset streamed twice produces byte-identical wire traffic
// (framing, codec and data generation are all deterministic).
TEST(DeterminismTest, WireBytesAreReproducible) {
  const MachineTopology topo = host_topology();
  const TomoConfig tomo = small_tomo();

  const auto run_once = [&]() -> std::uint64_t {
    NodeConfig sender_config;
    sender_config.node_name = "d";
    sender_config.role = NodeRole::kSender;
    sender_config.tasks = {
        TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
        TaskGroupConfig{.type = TaskType::kSend, .count = 1},
    };
    NodeConfig receiver_config;
    receiver_config.node_name = "d";
    receiver_config.role = NodeRole::kReceiver;
    receiver_config.tasks = {
        TaskGroupConfig{.type = TaskType::kReceive, .count = 1},
        TaskGroupConfig{.type = TaskType::kDecompress, .count = 1},
    };
    auto listener = TcpListener::bind("127.0.0.1", 0);
    NS_CHECK(listener.ok(), "bind failed");
    const std::uint16_t port = listener.value()->port();
    TomoChunkSource source(tomo, 0, 6);
    CountingSink sink;
    std::uint64_t wire = 0;
    std::thread sender_thread([&] {
      StreamSender sender(topo, sender_config);
      auto stats = sender.run(source, [&] { return tcp_connect("127.0.0.1", port); });
      NS_CHECK(stats.ok(), "sender failed");
      wire = stats.value().wire_bytes;
    });
    StreamReceiver receiver(topo, receiver_config);
    auto stats = receiver.run(*listener.value(), sink);
    sender_thread.join();
    NS_CHECK(stats.ok(), "receiver failed");
    return wire;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace numastream

namespace numastream {
namespace {

// Two senders, one receiver, a DemuxSink keeping their streams apart — the
// real-runtime shape of the paper's multi-stream gateway (Fig. 13).
TEST(GatewayTest, DemuxSinkSeparatesTwoRealStreams) {
  const MachineTopology topo = host_topology();
  const TomoConfig tomo = small_tomo();

  NodeConfig receiver_config;
  receiver_config.node_name = "gateway";
  receiver_config.role = NodeRole::kReceiver;
  receiver_config.chunk_bytes = tomo.chunk_bytes();
  receiver_config.tasks = {
      // One receive thread per sender connection.
      TaskGroupConfig{.type = TaskType::kReceive, .count = 2},
      TaskGroupConfig{.type = TaskType::kDecompress, .count = 2},
  };

  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  NodeConfig sender_config;
  sender_config.node_name = "beamline";
  sender_config.role = NodeRole::kSender;
  sender_config.chunk_bytes = tomo.chunk_bytes();
  sender_config.tasks = {
      TaskGroupConfig{.type = TaskType::kCompress, .count = 1},
      TaskGroupConfig{.type = TaskType::kSend, .count = 1},
  };

  const std::uint64_t kChunksA = 7;
  const std::uint64_t kChunksB = 5;
  TomoChunkSource source_a(tomo, /*stream_id=*/1, kChunksA);
  TomoChunkSource source_b(tomo, /*stream_id=*/2, kChunksB);

  std::thread sender_a([&] {
    StreamSender sender(topo, sender_config);
    auto stats = sender.run(source_a, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  });
  std::thread sender_b([&] {
    StreamSender sender(topo, sender_config);
    auto stats = sender.run(source_b, [&] { return tcp_connect("127.0.0.1", port); });
    ASSERT_TRUE(stats.ok()) << stats.status().to_string();
  });

  CountingSink sink_a;
  CountingSink sink_b;
  DemuxSink demux;
  demux.route(1, &sink_a);
  demux.route(2, &sink_b);

  StreamReceiver receiver(topo, receiver_config);
  auto stats = receiver.run(*listener.value(), demux);
  sender_a.join();
  sender_b.join();
  ASSERT_TRUE(stats.ok()) << stats.status().to_string();

  EXPECT_EQ(sink_a.chunks(), kChunksA);
  EXPECT_EQ(sink_b.chunks(), kChunksB);
  EXPECT_EQ(demux.dropped(), 0U);
}

TEST(GatewayTest, DemuxFallbackAndDropAccounting) {
  CountingSink fallback;
  DemuxSink demux;
  Chunk chunk;
  chunk.stream_id = 42;
  chunk.payload = Bytes(10, 1);
  demux.deliver(chunk);            // no route, no fallback -> dropped
  EXPECT_EQ(demux.dropped(), 1U);
  demux.set_fallback(&fallback);
  demux.deliver(chunk);            // no route -> fallback
  EXPECT_EQ(fallback.chunks(), 1U);
  EXPECT_EQ(demux.dropped(), 1U);
}

}  // namespace
}  // namespace numastream

namespace numastream {
namespace {

// ------------------------------------------------------------- wire pins

// The forward byte stream of one sender connection, copied as it is
// written. Until open() the first write blocks inside the transport, which
// parks the send worker with one frame popped and lets a test fix the
// compress->send queue depth exactly.
class WireCapture {
 public:
  explicit WireCapture(bool gated) : open_(!gated) {}

  void record(ByteSpan data) {
    std::unique_lock<std::mutex> lock(mu_);
    writing_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
    bytes_.insert(bytes_.end(), data.begin(), data.end());
  }

  /// Blocks until the send worker is inside its first write.
  void await_first_write() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return writing_; });
  }

  void open() {
    const std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  [[nodiscard]] Bytes bytes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_;
  bool writing_ = false;
  Bytes bytes_;
};

// Forwards to a real in-process connection and records every byte written.
// write_all_vec is left to the ByteStream default, which joins the spans and
// calls write_all, so the capture sees exactly what reaches the wire.
class CapturingStream final : public ByteStream {
 public:
  CapturingStream(std::unique_ptr<ByteStream> inner, WireCapture& capture)
      : inner_(std::move(inner)), capture_(capture) {}

  Status write_all(ByteSpan data) override {
    capture_.record(data);
    return inner_->write_all(data);
  }
  Result<std::size_t> read_some(MutableByteSpan out) override {
    return inner_->read_some(out);
  }
  void shutdown_write() override { inner_->shutdown_write(); }
  void cancel() noexcept override { inner_->cancel(); }

 private:
  std::unique_ptr<ByteStream> inner_;
  WireCapture& capture_;
};

// Five fixed projections with one incompressible chunk at sequence 1, so an
// LZ4 run also takes the stored fallback. With `capture` set, every chunk
// after the first waits until the send worker is parked in its first write,
// and the end of the data opens the gate: chunk i then meets a queue depth
// of exactly i - 1.
class PinnedSource final : public ChunkSource {
 public:
  explicit PinnedSource(WireCapture* capture) : capture_(capture) {
    TomoConfig tomo;
    tomo.rows = 128;
    tomo.cols = 300;
    tomo.num_spheres = 4;
    const TomoGenerator generator(tomo);
    Rng rng(2023);
    for (std::uint64_t i = 0; i < 6; ++i) {
      if (i == 1) {
        Bytes noise(80'001);
        for (auto& b : noise) {
          b = static_cast<std::uint8_t>(rng.next_u64());
        }
        chunks_.push_back(std::move(noise));
      } else {
        chunks_.push_back(generator.projection(i));
      }
    }
  }

  std::optional<Chunk> next() override {
    const std::lock_guard<std::mutex> lock(mu_);
    if (next_ >= chunks_.size()) {
      if (capture_ != nullptr) {
        capture_->open();
      }
      return std::nullopt;
    }
    if (capture_ != nullptr && next_ > 0) {
      capture_->await_first_write();
    }
    Chunk chunk;
    chunk.stream_id = 5;
    chunk.sequence = next_;
    chunk.payload = chunks_[next_];
    ++next_;
    return chunk;
  }

  [[nodiscard]] const std::vector<Bytes>& chunks() const { return chunks_; }

 private:
  WireCapture* capture_;
  std::mutex mu_;
  std::size_t next_ = 0;
  std::vector<Bytes> chunks_;
};

class HashSink final : public ChunkSink {
 public:
  void deliver(Chunk chunk) override {
    const std::lock_guard<std::mutex> lock(mu_);
    hashes_[chunk.sequence] = xxhash64(chunk.payload);
  }
  [[nodiscard]] std::map<std::uint64_t, std::uint64_t> hashes() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return hashes_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::uint64_t> hashes_;
};

enum class PinCodec { kNull, kLz4, kDegrade };

struct PinnedRun {
  Bytes wire;
  std::uint64_t wire_bytes = 0;
  std::uint64_t degraded_chunks = 0;
};

// Streams PinnedSource through a real StreamSender (1 compress, 1 send) and
// StreamReceiver over an in-process connection and returns the sender's
// forward byte stream. kDegrade runs LZ4 with a degrade watermark of 2 over
// the gated source, so chunks 3..5 go out passthrough. `resume` adds
// reconnect + resume journals + a credit window on both ends.
PinnedRun run_pinned(PinCodec codec, bool resume) {
  const MachineTopology topo = host_topology();
  const auto node = [&](NodeRole role) {
    NodeConfig config;
    config.node_name = "pin";
    config.role = role;
    config.codec_name = codec == PinCodec::kNull ? "null" : "lz4";
    config.tasks = role == NodeRole::kSender
                       ? std::vector<TaskGroupConfig>{
                             {.type = TaskType::kCompress, .count = 1},
                             {.type = TaskType::kSend, .count = 1}}
                       : std::vector<TaskGroupConfig>{
                             {.type = TaskType::kReceive, .count = 1},
                             {.type = TaskType::kDecompress, .count = 1}};
    if (codec == PinCodec::kDegrade && role == NodeRole::kSender) {
      config.queue_capacity = 8;
      config.recovery.degrade_watermark = 2;
    }
    if (resume) {
      config.recovery.reconnect = true;
      config.resume.session = 9;
      config.resume.ack_interval = 2;
      config.overload.credit_window = 4;
    }
    return config;
  };

  WireCapture capture(/*gated=*/codec == PinCodec::kDegrade);
  PinnedSource source(codec == PinCodec::kDegrade ? &capture : nullptr);
  InprocListener listener;
  HashSink sink;
  FaultCounters faults;
  MemoryJournalMedia sender_media;
  MemoryJournalMedia receiver_media;
  SenderJournal sender_journal(sender_media, 9);
  ReceiverJournal receiver_journal(receiver_media, 9);
  ResumeHooks sender_hooks;
  ResumeHooks receiver_hooks;
  if (resume) {
    NS_CHECK(sender_journal.recover().is_ok(), "fresh journal must recover");
    NS_CHECK(receiver_journal.recover().is_ok(), "fresh ledger must recover");
    sender_hooks.sender_journal = &sender_journal;
    receiver_hooks.receiver_journal = &receiver_journal;
  }

  PinnedRun run;
  std::thread sender_thread([&] {
    StreamSender sender(topo, node(NodeRole::kSender));
    auto stats = sender.run(
        source,
        [&]() -> Result<std::unique_ptr<ByteStream>> {
          auto stream = listener.connect();
          if (!stream.ok()) {
            return stream.status();
          }
          return std::unique_ptr<ByteStream>(
              std::make_unique<CapturingStream>(std::move(stream).value(), capture));
        },
        nullptr, &faults, {}, {}, {}, sender_hooks);
    NS_CHECK(stats.ok(), "pinned sender failed");
    run.wire_bytes = stats.value().wire_bytes;
  });
  StreamReceiver receiver(topo, node(NodeRole::kReceiver));
  auto stats = receiver.run(listener, sink, nullptr, nullptr, {}, {}, {},
                            receiver_hooks);
  sender_thread.join();
  NS_CHECK(stats.ok(), "pinned receiver failed");

  std::map<std::uint64_t, std::uint64_t> expected;
  for (std::size_t i = 0; i < source.chunks().size(); ++i) {
    expected[i] = xxhash64(source.chunks()[i]);
  }
  EXPECT_EQ(sink.hashes(), expected) << "every chunk delivered intact";
  run.wire = capture.bytes();
  run.degraded_chunks = faults.snapshot().degraded_chunks;
  return run;
}

// Fingerprints of the bytes the sender pipeline writes to its socket:
// message headers, frame headers and payloads as they leave the process.
// Credit grants and RESUME frames travel the reverse direction, so the
// resume runs pin the same forward bytes as the plain ones. Every stored
// chunk (null codec, degraded, LZ4's incompressible fallback) travels as a
// sealed frame, and so does every compressed one (the lz4 chunks and the
// degrade run's first chunks). `unsealed` is the wire with every frame
// unsealed again (unseal_wire, tests/wire_reference.h): the null rows' value
// was recorded from the copy-based frame path before any frame was sealed,
// so the seal is the only change there, and the lz4 and degrade rows' values
// follow the LZ4 compressor's block bytes. Any change to how frames are
// built, carried or written must leave both fingerprints untouched.
TEST(WirePinTest, ForwardStreamFingerprints) {
  struct Case {
    PinCodec codec;
    bool resume;
    std::uint64_t sealed;
    std::uint64_t unsealed;
    const char* name;
  };
  const Case cases[] = {
      {PinCodec::kNull, false, 0x5FC78586A8C0D642ULL, 0x554BC3429E9057E3ULL, "null"},
      {PinCodec::kNull, true, 0x5FC78586A8C0D642ULL, 0x554BC3429E9057E3ULL, "null+resume"},
      {PinCodec::kLz4, false, 0xD2B655CA6688C4F4ULL, 0x087C9418C245A489ULL, "lz4"},
      {PinCodec::kLz4, true, 0xD2B655CA6688C4F4ULL, 0x087C9418C245A489ULL, "lz4+resume"},
      {PinCodec::kDegrade, false, 0xD9B1368A455B0079ULL, 0x3C6BA53CDCF113F5ULL, "degrade"},
      {PinCodec::kDegrade, true, 0xD9B1368A455B0079ULL, 0x3C6BA53CDCF113F5ULL,
       "degrade+resume"},
  };
  for (const Case& c : cases) {
    const PinnedRun run = run_pinned(c.codec, c.resume);
    EXPECT_EQ(run.wire_bytes, run.wire.size()) << c.name;
    EXPECT_EQ(run.degraded_chunks, c.codec == PinCodec::kDegrade ? 3U : 0U)
        << c.name;
    EXPECT_EQ(xxhash64(run.wire), c.sealed) << c.name;
    EXPECT_EQ(xxhash64(unseal_wire(run.wire)), c.unsealed) << c.name;
  }
}

}  // namespace
}  // namespace numastream
