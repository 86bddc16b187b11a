#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/antientropy.h"
#include "cluster/rebalance.h"
#include "cluster/replication.h"
#include "codec/frame.h"
#include "codec/xxhash.h"
#include "common/rng.h"
#include "msg/inproc.h"
#include "msg/message.h"
#include "msg/socket.h"
#include "msg/tcp.h"
#include "wire_reference.h"

namespace numastream {
namespace {

Bytes random_body(std::size_t size, std::uint64_t seed) {
  Bytes body(size);
  Rng rng(seed);
  for (auto& b : body) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return body;
}

// ---------------------------------------------------------------- framing

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message original;
  original.stream_id = 3;
  original.sequence = 42;
  original.body = random_body(1000, 1);

  MessageDecoder decoder;
  decoder.feed(encode_message(original));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().stream_id, 3U);
  EXPECT_EQ(decoded.value().sequence, 42U);
  EXPECT_FALSE(decoded.value().end_of_stream);
  EXPECT_EQ(decoded.value().body, original.body);
  // No second message.
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kUnavailable);
}

TEST(MessageTest, EndOfStreamMarker) {
  const Message marker = Message::end_of_stream_marker(7, 99);
  MessageDecoder decoder;
  decoder.feed(encode_message(marker));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().end_of_stream);
  EXPECT_EQ(decoded.value().stream_id, 7U);
  EXPECT_TRUE(decoded.value().body.empty());
}

TEST(MessageTest, EmptyBody) {
  Message m;
  MessageDecoder decoder;
  decoder.feed(encode_message(m));
  ASSERT_TRUE(decoder.next().ok());
}

// Property: any byte-level chunking of a message sequence decodes to the
// same messages.
class MessageChunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MessageChunking, ArbitrarySplitsReassemble) {
  const std::size_t chunk_size = GetParam();
  Bytes wire;
  std::vector<Message> sent;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.stream_id = static_cast<std::uint32_t>(i);
    m.sequence = static_cast<std::uint64_t>(i * 10);
    m.body = random_body(static_cast<std::size_t>(i) * 97, i + 1);
    const Bytes encoded = encode_message(m);
    wire.insert(wire.end(), encoded.begin(), encoded.end());
    sent.push_back(std::move(m));
  }

  MessageDecoder decoder;
  std::vector<Message> received;
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::size_t n = std::min(chunk_size, wire.size() - pos);
    decoder.feed(ByteSpan(wire.data() + pos, n));
    pos += n;
    while (true) {
      auto m = decoder.next();
      if (!m.ok()) {
        ASSERT_EQ(m.status().code(), StatusCode::kUnavailable);
        break;
      }
      received.push_back(std::move(m).value());
    }
  }
  ASSERT_EQ(received.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(received[i].stream_id, sent[i].stream_id);
    EXPECT_EQ(received[i].sequence, sent[i].sequence);
    EXPECT_EQ(received[i].body, sent[i].body);
  }
  EXPECT_EQ(decoder.buffered(), 0U);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, MessageChunking,
                         ::testing::Values(1, 7, 31, 32, 33, 100, 1000, 100000));

TEST(MessageDecoderTest, BadMagicIsStickyCorruption) {
  MessageDecoder decoder;
  Bytes wire = encode_message(Message{});
  wire[0] ^= 0xFF;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
  // Feeding a good message afterwards does not recover the stream.
  decoder.feed(encode_message(Message{}));
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

TEST(MessageDecoderTest, BodyCorruptionDetected) {
  Message m;
  m.body = random_body(100, 2);
  Bytes wire = encode_message(m);
  wire[kMessageHeaderSize + 50] ^= 1;
  MessageDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

TEST(MessageDecoderTest, AbsurdBodySizeRejectedBeforeAllocation) {
  Bytes wire = encode_message(Message{});
  store_le64(wire.data() + 20, 1ULL << 60);  // body size field
  MessageDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

TEST(MessageDecoderTest, UnknownFlagsRejected) {
  Bytes wire = encode_message(Message{});
  store_le16(wire.data() + 16, 0x8000);
  MessageDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

// The header rule over all 64 combinations of the six known flag bits: a
// message is accepted exactly when at most one bit is set, so a control
// kind never carries end-of-stream and no message is two kinds. Each wire
// gets a body the set bits' kinds admit where one exists: the largest
// fixed prefix among them (credit's empty body otherwise).
TEST(MessageDecoderTest, AtMostOneFlagBitIsAccepted) {
  // Bit i's smallest legal body: end-of-stream, credit, RESUME, REPL,
  // HANDOFF, SCRUB.
  constexpr std::size_t kFloor[] = {0, 0, 12, 24, 40, 36};
  for (std::uint16_t flags = 0; flags < 64; ++flags) {
    SCOPED_TRACE("flags " + std::to_string(flags));
    std::size_t body_size = 0;
    for (int bit = 0; bit < 6; ++bit) {
      if ((flags >> bit) & 1U) {
        body_size = std::max(body_size, kFloor[bit]);
      }
    }
    const Bytes body = random_body(body_size, flags);
    Bytes wire;
    ByteWriter w(wire);
    w.u32(kMessageMagic);
    w.u32(0);  // stream id
    w.u64(5);  // sequence
    w.u16(flags);
    w.u16(0);  // reserved
    w.u64(body.size());
    w.u32(xxhash32(body));
    w.raw(body);
    MessageDecoder decoder;
    decoder.feed(wire);
    auto decoded = decoder.next();
    const bool legal = std::popcount(flags) <= 1;
    ASSERT_EQ(decoded.ok(), legal) << (decoded.ok() ? "accepted" : decoded.status().to_string());
    if (!legal) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
      continue;
    }
    EXPECT_EQ(decoded.value().end_of_stream, flags == kMessageFlagEndOfStream);
    EXPECT_EQ(message_kind_rule(decoded.value().kind).flag,
              flags & ~kMessageFlagEndOfStream);
    EXPECT_EQ(encode_message(decoded.value()), wire);
  }
}

// ---------------------------------------------------------------- inproc

TEST(InprocTest, BytesFlowBothWays) {
  InprocPair pair = make_inproc_pair();
  const Bytes ping = random_body(100, 3);
  ASSERT_TRUE(pair.first->write_all(ping).is_ok());
  Bytes got(100);
  ASSERT_TRUE(read_exact(*pair.second, got).is_ok());
  EXPECT_EQ(got, ping);

  const Bytes pong = random_body(50, 4);
  ASSERT_TRUE(pair.second->write_all(pong).is_ok());
  Bytes got2(50);
  ASSERT_TRUE(read_exact(*pair.first, got2).is_ok());
  EXPECT_EQ(got2, pong);
}

TEST(InprocTest, ShutdownWriteGivesCleanEof) {
  InprocPair pair = make_inproc_pair();
  ASSERT_TRUE(pair.first->write_all(Bytes{1, 2, 3}).is_ok());
  pair.first->shutdown_write();
  Bytes buf(10);
  auto n = pair.second->read_some(buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3U);
  n = pair.second->read_some(buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0U);  // EOF
}

TEST(InprocTest, SmallWindowExercisesBackpressure) {
  InprocPair pair = make_inproc_pair(16);  // tiny window
  const Bytes big = random_body(10000, 5);
  std::thread writer([&] { ASSERT_TRUE(pair.first->write_all(big).is_ok()); });
  Bytes got(big.size());
  ASSERT_TRUE(read_exact(*pair.second, got).is_ok());
  writer.join();
  EXPECT_EQ(got, big);
}

TEST(InprocTest, DestroyedPeerFailsWrites) {
  InprocPair pair = make_inproc_pair(16);
  pair.second.reset();
  const Bytes data = random_body(1000, 6);
  EXPECT_EQ(pair.first->write_all(data).code(), StatusCode::kUnavailable);
}

TEST(InprocTest, ReadExactReportsMidMessageEof) {
  InprocPair pair = make_inproc_pair();
  ASSERT_TRUE(pair.first->write_all(Bytes{1, 2}).is_ok());
  pair.first->shutdown_write();
  Bytes buf(10);
  EXPECT_EQ(read_exact(*pair.second, buf).code(), StatusCode::kDataLoss);
}

// The two EOF flavours must stay distinguishable: EOF before the first byte
// is a clean end (UNAVAILABLE), EOF after some bytes is truncation
// (DATA_LOSS). The pipeline's shutdown logic relies on the distinction.
TEST(InprocTest, ReadExactCleanEofBeforeAnyByteIsUnavailable) {
  InprocPair pair = make_inproc_pair();
  pair.first->shutdown_write();  // peer closes without sending anything
  Bytes buf(10);
  EXPECT_EQ(read_exact(*pair.second, buf).code(), StatusCode::kUnavailable);
}

// A peer that dies mid-message-header must surface as DATA_LOSS from the
// socket layer, not hang and not read uninitialized bytes.
TEST(PushPullTest, TruncatedMessageHeaderIsDataLoss) {
  InprocPair pair = make_inproc_pair();
  Message m;
  m.body = random_body(100, 11);
  const Bytes wire = encode_message(m);
  ASSERT_TRUE(
      pair.first->write_all(ByteSpan(wire.data(), kMessageHeaderSize / 2)).is_ok());
  pair.first->shutdown_write();
  PullSocket pull(std::move(pair.second));
  EXPECT_EQ(pull.recv().status().code(), StatusCode::kDataLoss);
}

// Same for a truncated frame inside a complete, checksummed message: the
// frame decoder must reject a header cut short rather than read past it.
TEST(PushPullTest, TruncatedFrameHeaderIsDataLoss) {
  const Bytes frame =
      encode_frame(*codec_by_id(CodecId::kLz4), random_body(1000, 12));
  const ByteSpan truncated(frame.data(), kFrameHeaderSize - 4);
  EXPECT_EQ(decode_frame_content(truncated).status().code(), StatusCode::kDataLoss);
  // And a message whose body is the truncated frame fails at decode, not recv.
  Message m;
  m.body = Bytes(truncated.begin(), truncated.end());
  InprocPair pair = make_inproc_pair();
  PushSocket push(std::move(pair.first));
  ASSERT_TRUE(push.send(m).is_ok());
  ASSERT_TRUE(push.finish(0).is_ok());
  PullSocket pull(std::move(pair.second));
  auto received = pull.recv();
  ASSERT_TRUE(received.ok());  // transport + message layer are intact
  EXPECT_EQ(decode_frame_content(received.value().body).status().code(),
            StatusCode::kDataLoss);
}

TEST(InprocListenerTest, ConnectAcceptPair) {
  InprocListener listener;
  auto client = listener.connect();
  ASSERT_TRUE(client.ok());
  auto server = listener.accept();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(client.value()->write_all(Bytes{9}).is_ok());
  Bytes got(1);
  ASSERT_TRUE(read_exact(*server.value(), got).is_ok());
  EXPECT_EQ(got[0], 9);
}

TEST(InprocListenerTest, CloseUnblocksAccept) {
  InprocListener listener;
  std::thread acceptor([&] {
    auto stream = listener.accept();
    EXPECT_FALSE(stream.ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.close();
  acceptor.join();
  EXPECT_FALSE(listener.connect().ok());
}

// ---------------------------------------------------------------- tcp

TEST(TcpTest, LoopbackRoundTrip) {
  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok()) << listener.status().to_string();
  const std::uint16_t port = listener.value()->port();
  ASSERT_NE(port, 0);

  std::thread server([&] {
    auto stream = listener.value()->accept();
    ASSERT_TRUE(stream.ok());
    Bytes buf(5);
    ASSERT_TRUE(read_exact(*stream.value(), buf).is_ok());
    ASSERT_TRUE(stream.value()->write_all(buf).is_ok());
  });

  auto client = tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().to_string();
  ASSERT_TRUE(client.value()->write_all(Bytes{'h', 'e', 'l', 'l', 'o'}).is_ok());
  Bytes echo(5);
  ASSERT_TRUE(read_exact(*client.value(), echo).is_ok());
  EXPECT_EQ(echo, (Bytes{'h', 'e', 'l', 'l', 'o'}));
  server.join();
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Bind + immediately close to find a port that is (very likely) not
  // listening anymore.
  std::uint16_t port = 0;
  {
    auto listener = TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(listener.ok());
    port = listener.value()->port();
  }
  EXPECT_FALSE(tcp_connect("127.0.0.1", port).ok());
}

TEST(TcpTest, BadAddressRejected) {
  EXPECT_EQ(tcp_connect("not-an-ip", 80).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(TcpListener::bind("999.1.1.1", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpTest, CloseUnblocksAccept) {
  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread acceptor([&] { EXPECT_FALSE(listener.value()->accept().ok()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener.value()->close();
  acceptor.join();
}

// ---------------------------------------------------------------- sockets

TEST(PushPullTest, MessagesOverInproc) {
  InprocPair pair = make_inproc_pair();
  PushSocket push(std::move(pair.first));
  PullSocket pull(std::move(pair.second));

  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      Message m;
      m.stream_id = 1;
      m.sequence = static_cast<std::uint64_t>(i);
      m.body = random_body(5000, i);
      ASSERT_TRUE(push.send(m).is_ok());
    }
    ASSERT_TRUE(push.finish(1).is_ok());
  });

  int received = 0;
  while (true) {
    auto m = pull.recv();
    ASSERT_TRUE(m.ok()) << m.status().to_string();
    if (m.value().end_of_stream) {
      break;
    }
    EXPECT_EQ(m.value().sequence, static_cast<std::uint64_t>(received));
    EXPECT_EQ(m.value().body, random_body(5000, received));
    ++received;
  }
  producer.join();
  EXPECT_EQ(received, 10);
  EXPECT_EQ(pull.bytes_received(), push.bytes_sent());
}

TEST(PushPullTest, MessagesOverTcp) {
  auto listener = TcpListener::bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value()->port();

  std::thread producer([&] {
    auto stream = tcp_connect("127.0.0.1", port);
    ASSERT_TRUE(stream.ok());
    PushSocket push(std::move(stream).value());
    Message m;
    m.body = random_body(200000, 9);  // bigger than one socket buffer
    ASSERT_TRUE(push.send(m).is_ok());
    ASSERT_TRUE(push.finish(0).is_ok());
  });

  auto accepted = listener.value()->accept();
  ASSERT_TRUE(accepted.ok());
  PullSocket pull(std::move(accepted).value());
  auto m = pull.recv();
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().body, random_body(200000, 9));
  auto eos = pull.recv();
  ASSERT_TRUE(eos.ok());
  EXPECT_TRUE(eos.value().end_of_stream);
  producer.join();
}

TEST(PushPullTest, PeerDisconnectBetweenMessagesIsCleanEnd) {
  InprocPair pair = make_inproc_pair();
  {
    PushSocket push(std::move(pair.first));
    Message m;
    m.body = random_body(10, 1);
    ASSERT_TRUE(push.send(m).is_ok());
    // PushSocket destroyed without finish(): stream closes.
  }
  PullSocket pull(std::move(pair.second));
  ASSERT_TRUE(pull.recv().ok());  // the sent message
  EXPECT_EQ(pull.recv().status().code(), StatusCode::kUnavailable);
}

TEST(PushPullTest, MidMessageDisconnectIsDataLoss) {
  InprocPair pair = make_inproc_pair();
  Message m;
  m.body = random_body(1000, 1);
  Bytes wire = encode_message(m);
  wire.resize(wire.size() / 2);  // cut mid-body
  ASSERT_TRUE(pair.first->write_all(wire).is_ok());
  pair.first->shutdown_write();
  PullSocket pull(std::move(pair.second));
  EXPECT_EQ(pull.recv().status().code(), StatusCode::kDataLoss);
}

// The strict receive path reads the body straight into the message's own
// buffer and verifies it there; a mismatch cuts the connection for good.
TEST(PushPullTest, BodyChecksumMismatchIsStickyDataLoss) {
  InprocPair pair = make_inproc_pair();
  Message m;
  m.body = random_body(1000, 3);
  Bytes corrupt = encode_message(m);
  corrupt[kMessageHeaderSize + 500] ^= 0x01;
  ASSERT_TRUE(pair.first->write_all(corrupt).is_ok());
  ASSERT_TRUE(pair.first->write_all(encode_message(m)).is_ok());
  pair.first->shutdown_write();
  PullSocket pull(std::move(pair.second));
  auto first = pull.recv();
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(first.status().message().find("checksum"), std::string::npos);
  // Sticky: the intact message queued behind it is never delivered.
  auto second = pull.recv();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(pull.bytes_received(), 0U);
}

// A header announcing more than kMaxMessageBody fails on the header alone:
// a body buffer of the announced size is never allocated (the largest
// announcement below would throw if it were) and never waited for.
TEST(PushPullTest, OversizedBodyRejectedBeforeAllocation) {
  for (const std::uint64_t announced :
       {kMaxMessageBody + 1, std::numeric_limits<std::uint64_t>::max()}) {
    InprocPair pair = make_inproc_pair();
    Bytes header(kMessageHeaderSize);
    encode_message_header(Message{}, header);
    store_le64(header.data() + 20, announced);
    ASSERT_TRUE(pair.first->write_all(header).is_ok());
    pair.first->shutdown_write();
    PullSocket pull(std::move(pair.second));
    auto received = pull.recv();
    ASSERT_FALSE(received.ok());
    EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(received.status().message().find("exceeds limit"),
              std::string::npos)
        << received.status().to_string();
    EXPECT_EQ(pull.recv().status().code(), StatusCode::kDataLoss);
  }
}

TEST(PushPullTest, EmptyBodyAndEndOfStreamRoundTrip) {
  InprocPair pair = make_inproc_pair();
  PushSocket push(std::move(pair.first));
  Message empty;
  empty.stream_id = 4;
  empty.sequence = 9;
  ASSERT_TRUE(push.send(empty).is_ok());
  ASSERT_TRUE(push.finish(4).is_ok());

  PullSocket pull(std::move(pair.second));
  auto got = pull.recv();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  EXPECT_EQ(got.value().stream_id, 4U);
  EXPECT_EQ(got.value().sequence, 9U);
  EXPECT_TRUE(got.value().body.empty());
  EXPECT_FALSE(got.value().end_of_stream);
  auto eos = pull.recv();
  ASSERT_TRUE(eos.ok()) << eos.status().to_string();
  EXPECT_TRUE(eos.value().end_of_stream);
  EXPECT_EQ(eos.value().stream_id, 4U);
  EXPECT_TRUE(eos.value().body.empty());
  EXPECT_EQ(pull.recv().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pull.bytes_received(), push.bytes_sent());
}

// The receiver's echo of an end-of-stream marker reaches the sender as a
// control message; any other data message on the reverse channel is still
// a protocol violation.
TEST(PushPullTest, EndOfStreamEchoIsAControlMessage) {
  InprocPair pair = make_inproc_pair();
  PushSocket push(std::move(pair.first));
  ASSERT_TRUE(push.finish(4).is_ok());
  PullSocket pull(std::move(pair.second));
  auto eos = pull.recv();
  ASSERT_TRUE(eos.ok()) << eos.status().to_string();
  ASSERT_TRUE(eos.value().end_of_stream);
  ASSERT_TRUE(pull.send_credit(3).is_ok());
  ASSERT_TRUE(pull.echo_end_of_stream().is_ok());
  auto credit = push.recv_control();
  ASSERT_TRUE(credit.ok()) << credit.status().to_string();
  EXPECT_EQ(credit.value().kind, MessageKind::kCredit);
  auto echo = push.recv_control();
  ASSERT_TRUE(echo.ok()) << echo.status().to_string();
  EXPECT_TRUE(echo.value().end_of_stream);
  EXPECT_TRUE(echo.value().body.empty());

  InprocPair data_pair = make_inproc_pair();
  PushSocket sender(std::move(data_pair.first));
  Message data;
  data.body = Bytes(8, 0x11);
  ASSERT_TRUE(data_pair.second->write_all(encode_message(data)).is_ok());
  EXPECT_EQ(sender.recv_control().status().message(),
            "control channel carried a data message");
}

// ----------------------------------------------------- channel kinds

/// One well-formed message of every control kind, as a peer could write it.
std::vector<Message> every_control_kind() {
  return {Message::credit_grant(4), Message::resume_frame(9, {{1, 2}}),
          cluster::repl_frame(cluster::ReplKind::kHeartbeat, 9, 1, 1),
          cluster::handoff_frame({.phase = cluster::HandoffPhase::kPrepare}),
          cluster::scrub_frame({.kind = cluster::ScrubKind::kDigestRequest})};
}

// The forward direction carries data alone: a control kind there is a
// corrupt message, not a chunk. It ends the connection, sticky, before any
// of its body is read, and the chunk written behind it is never handed on.
TEST(ChannelKindTest, DataChannelRejectsEveryControlKind) {
  Message chunk;
  chunk.body = Bytes(8, 0x11);
  for (const Message& control : every_control_kind()) {
    SCOPED_TRACE(message_kind_rule(control.kind).name);
    InprocPair pair = make_inproc_pair(1 << 16);
    ASSERT_TRUE(pair.first->write_all(encode_message(control)).is_ok());
    ASSERT_TRUE(pair.first->write_all(encode_message(chunk)).is_ok());
    PullSocket pull(std::move(pair.second));
    auto got = pull.recv();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(got.status().message(), std::string("data channel carried a ") +
                                          message_kind_rule(control.kind).name +
                                          " message");
    EXPECT_EQ(pull.recv().status().message(), "message stream previously corrupt");
    EXPECT_EQ(pull.bytes_received(), 0U);
  }
}

// The reverse direction carries credit grants, RESUME handshakes and the
// end-of-stream echo. Data and the gateway kinds there end the channel,
// sticky, as a corrupt message does.
TEST(ChannelKindTest, ControlChannelAcceptsOnlyItsOwnKinds) {
  Message data;
  data.body = Bytes(8, 0x11);
  std::vector<Message> kinds = every_control_kind();
  kinds.push_back(data);
  kinds.push_back(Message::end_of_stream_marker(0, 0));
  for (const Message& message : kinds) {
    const bool own = message.kind == MessageKind::kCredit ||
                     message.kind == MessageKind::kResume || message.end_of_stream;
    SCOPED_TRACE(std::string(message_kind_rule(message.kind).name) +
                 (message.end_of_stream ? " end-of-stream" : ""));
    InprocPair pair = make_inproc_pair(1 << 16);
    ASSERT_TRUE(pair.second->write_all(encode_message(message)).is_ok());
    ASSERT_TRUE(pair.second->write_all(encode_message(Message::credit_grant(1))).is_ok());
    PushSocket push(std::move(pair.first));
    auto got = push.recv_control();
    if (own) {
      ASSERT_TRUE(got.ok()) << got.status().to_string();
      EXPECT_EQ(got.value().kind, message.kind);
      EXPECT_EQ(push.recv_control().status().code(), StatusCode::kOk);
      continue;
    }
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().message(), std::string("control channel carried a ") +
                                          message_kind_rule(message.kind).name +
                                          " message");
    EXPECT_EQ(push.recv_control().status().message(), "message stream previously corrupt");
  }
}

// ------------------------------------------------------------------ fuzz

/// The nightly chaos job randomizes this via NUMASTREAM_CHAOS_SEED; unset
/// (the tier-1 default), the sweep is fully deterministic.
std::uint64_t fuzz_seed(std::uint64_t fallback) {
  const char* env = std::getenv("NUMASTREAM_CHAOS_SEED");
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  return std::strtoull(env, nullptr, 10);
}

// Property test for the NSM1 parser: take a valid multi-frame wire image
// (every frame type — resume, REPL, HANDOFF and SCRUB frames included),
// mutate it with seeded
// flips, truncations, splices and garbage insertions, then feed it to the decoder
// in random-sized slices. next() must only ever yield a clean
// Status or a message whose body checksum passed — never a crash, hang or UB
// (the sanitizer job runs this same sweep under ASan + UBSan). The header
// has no checksum of its own, so a flipped stream id or sequence can legally
// surface — but every emitted *body* must be byte-identical to an original:
// a mutation that forges body content past the xxhash32 would be a parser
// hole, not luck.
TEST(MessageFuzzTest, MutatedFramesNeverCrashTheDecoder) {
  Rng rng(fuzz_seed(0xF0229EEDULL));
  for (int round = 0; round < 300; ++round) {
    // A valid conversation: data, credit, resume, REPL, HANDOFF, SCRUB and
    // EOS frames.
    std::set<std::uint32_t> original_bodies;  // content hashes
    Bytes wire;
    const std::size_t frame_count = 3 + rng.next_u64() % 6;
    for (std::size_t i = 0; i < frame_count; ++i) {
      Message m;
      switch (rng.next_u64() % 7) {
        case 0:
          m.stream_id = static_cast<std::uint32_t>(rng.next_u64() % 4);
          m.sequence = i;
          m.body = random_body(rng.next_u64() % 600, rng.next_u64());
          break;
        case 1:
          m = Message::credit_grant(1 + rng.next_u64() % 64);
          break;
        case 2:
          m = Message::resume_frame(
              rng.next_u64(),
              {{static_cast<std::uint32_t>(rng.next_u64() % 4), rng.next_u64()}});
          break;
        case 3: {
          // Gateway replication traffic (cluster/replication): append frames
          // carry whole journal records, the other kinds are body-less.
          const auto kind = static_cast<cluster::ReplKind>(1 + rng.next_u64() % 4);
          const Bytes records =
              kind == cluster::ReplKind::kAppend
                  ? random_body((rng.next_u64() % 4) * kJournalRecordSize,
                                rng.next_u64())
                  : Bytes();
          m = cluster::repl_frame(kind, rng.next_u64(), 1 + rng.next_u64() % 8,
                                  i, ByteSpan(records.data(), records.size()));
          break;
        }
        case 4:
          // Planned-handoff control traffic (cluster/handoff): fixed-size
          // body, any of the five phases.
          m = cluster::handoff_frame(
              {.phase = static_cast<cluster::HandoffPhase>(1 + rng.next_u64() % 5),
               .session_id = rng.next_u64(),
               .epoch = rng.next_u64() % 16,
               .stream_id = static_cast<std::uint32_t>(rng.next_u64() % 4),
               .source_gateway = static_cast<std::uint32_t>(rng.next_u64() % 8),
               .target_gateway = static_cast<std::uint32_t>(rng.next_u64() % 8),
               .watermark = rng.next_u64()},
              i);
          break;
        case 5: {
          // Anti-entropy control traffic (cluster/antientropy): digest
          // replies carry range digests, repair push/reply carry whole
          // journal records, the request kinds are payload-free.
          cluster::ScrubInfo info;
          info.kind = static_cast<cluster::ScrubKind>(1 + rng.next_u64() % 5);
          info.session_id = rng.next_u64();
          info.epoch = rng.next_u64() % 16;
          info.range = rng.next_u64() % 64;
          info.range_records = 1 + static_cast<std::uint32_t>(rng.next_u64() % 64);
          if (info.kind == cluster::ScrubKind::kDigestReply) {
            const std::size_t entries = rng.next_u64() % 4;
            for (std::size_t d = 0; d < entries; ++d) {
              info.digests.push_back(
                  {rng.next_u64() % 64,
                   1 + static_cast<std::uint32_t>(rng.next_u64() % 64),
                   static_cast<std::uint32_t>(rng.next_u64())});
            }
          } else if (info.kind == cluster::ScrubKind::kRepairPush ||
                     info.kind == cluster::ScrubKind::kRepairReply) {
            info.records = random_body((rng.next_u64() % 3) * kJournalRecordSize,
                                       rng.next_u64());
          }
          m = cluster::scrub_frame(info, i);
          break;
        }
        default:
          m = Message::end_of_stream_marker(
              static_cast<std::uint32_t>(rng.next_u64() % 4), i);
          break;
      }
      original_bodies.insert(xxhash32(m.body));
      const Bytes encoded = encode_message(m);
      wire.insert(wire.end(), encoded.begin(), encoded.end());
    }

    // Seeded mutations: every round corrupts the image a different way.
    const std::size_t mutations = 1 + rng.next_u64() % 4;
    for (std::size_t m = 0; m < mutations && !wire.empty(); ++m) {
      switch (rng.next_u64() % 4) {
        case 0:  // bit flip anywhere (header, checksum, body)
          wire[rng.next_u64() % wire.size()] ^=
              static_cast<std::uint8_t>(1U << (rng.next_u64() % 8));
          break;
        case 1:  // truncate: a torn send
          wire.resize(wire.size() - rng.next_u64() % std::min<std::size_t>(
                                        wire.size(), kMessageHeaderSize + 7));
          break;
        case 2: {  // splice a random window out of the middle
          const std::size_t at = rng.next_u64() % wire.size();
          const std::size_t len =
              std::min<std::size_t>(wire.size() - at, 1 + rng.next_u64() % 40);
          wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(at),
                     wire.begin() + static_cast<std::ptrdiff_t>(at + len));
          break;
        }
        default: {  // inject garbage that may contain fake magic bytes
          const Bytes garbage = random_body(1 + rng.next_u64() % 50, rng.next_u64());
          const std::size_t at = rng.next_u64() % (wire.size() + 1);
          wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at),
                      garbage.begin(), garbage.end());
          break;
        }
      }
    }

    MessageDecoder decoder;
    // Feed in random-sized slices so header/body boundaries land anywhere.
    std::size_t offset = 0;
    while (offset < wire.size()) {
      const std::size_t step =
          std::min<std::size_t>(wire.size() - offset, 1 + rng.next_u64() % 97);
      decoder.feed(ByteSpan(wire.data() + offset, step));
      offset += step;
      while (true) {
        auto message = decoder.next();
        if (!message.ok()) {
          ASSERT_TRUE(message.status().code() == StatusCode::kUnavailable ||
                      message.status().code() == StatusCode::kDataLoss)
              << message.status().to_string();
          break;
        }
        ASSERT_TRUE(original_bodies.count(xxhash32(message.value().body)) != 0)
            << "decoder forged body content past the checksum (round "
            << round << ")";
        // Digest-forgery check: any surviving SCRUB body that parses must
        // re-encode byte-identically — the parser can never invent a
        // digest or record that was not on the wire.
        if (message.value().kind == MessageKind::kScrub) {
          auto info = cluster::parse_scrub_body(ByteSpan(message.value().body.data(),
                                                message.value().body.size()));
          if (info.ok()) {
            const Message reencoded =
                cluster::scrub_frame(info.value(), message.value().sequence);
            ASSERT_EQ(reencoded.body, message.value().body)
                << "scrub parse/encode asymmetry forged content (round "
                << round << ")";
          }
        }
        // Epoch-forgery check: any surviving HANDOFF body that parses
        // must re-encode byte-identically — a mutation can never yield a
        // frame whose parsed phase, epoch or watermark differs from what
        // the encoder would put on the wire for those values, so the
        // fence arithmetic downstream always sees what was sent.
        if (message.value().kind == MessageKind::kHandoff) {
          auto info = cluster::parse_handoff_body(ByteSpan(
              message.value().body.data(), message.value().body.size()));
          if (info.ok()) {
            const Message reencoded = cluster::handoff_frame(
                info.value(), message.value().sequence);
            ASSERT_EQ(reencoded.body, message.value().body)
                << "handoff parse/encode asymmetry forged content (round "
                << round << ")";
          }
        }

      }
    }
  }
}

// ------------------------------------------------- control-frame bounds

std::vector<ResumePoint> make_points(std::size_t count) {
  std::vector<ResumePoint> points;
  points.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(ResumePoint{static_cast<std::uint32_t>(i), i});
  }
  return points;
}

TEST(ControlFrameBoundaryTest, LargestFittingResumeFrameIsAccepted) {
  // Resume body = 12 bytes prefix + 12 per point: 340 points = 4092 bytes,
  // the largest whole frame under kMaxControlBody (4096).
  InprocPair pair = make_inproc_pair(1 << 20);
  PushSocket push(std::move(pair.first));
  const Message frame = Message::resume_frame(77, make_points(340));
  ASSERT_LE(frame.body.size(), kMaxControlBody);
  ASSERT_TRUE(pair.second->write_all(encode_message(frame)).is_ok());
  auto received = push.recv_control();
  ASSERT_TRUE(received.ok()) << received.status().to_string();
  EXPECT_EQ(received.value().kind, MessageKind::kResume);
  EXPECT_EQ(received.value().body.size(), frame.body.size());
}

TEST(ControlFrameBoundaryTest, OversizedControlFrameFailsLoudly) {
  // One more point crosses the bound: the socket must fail the stream
  // with DATA_LOSS naming the limit — never truncate or silently accept.
  InprocPair pair = make_inproc_pair(1 << 20);
  PushSocket push(std::move(pair.first));
  const Message frame = Message::resume_frame(77, make_points(341));
  ASSERT_GT(frame.body.size(), kMaxControlBody);
  ASSERT_TRUE(pair.second->write_all(encode_message(frame)).is_ok());
  auto received = push.recv_control();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(received.status().to_string().find("kMaxControlBody"),
            std::string::npos);
}

TEST(ControlFrameBoundaryTest, OversizedHeaderFailsBeforeAnyBodyByte) {
  // The peer writes only a RESUME header declaring kMaxControlBody + 1 body
  // bytes, then closes: the bound must be enforced from the header alone,
  // never by buffering (or waiting for) the body first.
  InprocPair pair = make_inproc_pair(1 << 20);
  PushSocket push(std::move(pair.first));
  Message frame = Message::resume_frame(77, {});
  frame.body.resize(kMaxControlBody + 1);
  const Bytes wire = encode_message(frame);
  ASSERT_TRUE(
      pair.second->write_all(ByteSpan(wire.data(), kMessageHeaderSize)).is_ok());
  pair.second->shutdown_write();
  auto received = push.recv_control();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(received.status().to_string().find("kMaxControlBody"),
            std::string::npos);
}

// -------------------------------------------- split receive fault matrix

// A frame message cut short at every byte of the NSM1 and NSF1 headers and
// at the first, middle and last payload byte: the split receive must end
// exactly as the whole-body receive does (tests/wire_reference.h).
TEST(PushPullTest, SplitReceiveTruncationsMatchTheWholeBodyReceive) {
  const Message m = frame_message(
      4, 9, encode_frame_split(*codec_by_id(CodecId::kNull), random_body(1000, 21)));
  const Bytes wire = encode_message(m);
  const std::size_t payload_at = kMessageHeaderSize + kFrameHeaderSize;
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut <= payload_at; ++cut) {
    cuts.push_back(cut);
  }
  cuts.insert(cuts.end(), {payload_at + 1, payload_at + 500, wire.size() - 1, wire.size()});
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const ByteSpan prefix(wire.data(), cut);
    expect_same_receive(socket_receive(prefix), whole_body_receive(prefix));
  }
  // Whole, the body arrives split: the payload lands in a buffer of its own.
  const ReceiveRun run = socket_receive(wire);
  ASSERT_EQ(run.messages.size(), 1U);
  EXPECT_EQ(run.messages[0].frame_header, m.frame_header);
  EXPECT_EQ(run.messages[0].body, m.body);
}

// The split receive's corruption matrix (split_fault_wires): the split
// receive and decode must match the whole-body ones on every message,
// verdict, error text and byte count.
TEST(PushPullTest, SplitReceiveCorruptionsMatchTheWholeBodyReceive) {
  for (const auto& [name, wire] : split_fault_wires()) {
    SCOPED_TRACE(name);
    const ReceiveRun got = socket_receive(wire);
    const ReceiveRun want = whole_body_receive(wire);
    expect_same_receive(got, want);
    if (got.messages.size() != want.messages.size()) {
      continue;
    }
    for (std::size_t i = 0; i < want.messages.size(); ++i) {
      if (!want.messages[i].end_of_stream) {
        SCOPED_TRACE("content of message " + std::to_string(i));
        expect_same_content(got.messages[i], want.messages[i]);
      }
    }
  }
}

// ------------------------------------------------ sealed stored frames

/// A data message framing `content` with `codec` as every sender now
/// writes it (sealed), or as every earlier sender wrote it (unsealed: flags
/// 0, xxhash32 of the payload and the content in the frame hash fields, and
/// a body hash over the whole body).
Message frame_message_of(CodecId codec, std::uint64_t sequence, const Bytes& content,
                         bool sealed) {
  Message m = frame_message(6, sequence, encode_frame_split(*codec_by_id(codec), content));
  if (!sealed) {
    unseal_frame_header(m.frame_header->data(), m.body);
  }
  return m;
}

Message stored_message(std::uint64_t sequence, const Bytes& payload, bool sealed) {
  return frame_message_of(CodecId::kNull, sequence, payload, sealed);
}

/// `size` bytes that LZ4 compresses: random 16-bit steps held for 24 bytes.
Bytes compressible_body(std::size_t size, std::uint64_t seed) {
  Bytes body(size);
  Rng rng(seed);
  std::uint8_t value = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 24 == 0) {
      value = static_cast<std::uint8_t>(rng.next_u64());
    }
    body[i] = static_cast<std::uint8_t>(value + (i & 1));
  }
  return body;
}

/// One fault of the sealed-frame matrix applied to a frame message's wire:
/// a bit flip at `offset`, or (offset npos) a payload one byte short under
/// a body size that says so, its body hash left as written.
Bytes faulted_wire(const Message& message, std::size_t offset) {
  Bytes wire = encode_message(message);
  if (offset != std::string::npos) {
    wire[offset] ^= 0x10;
  } else {
    wire.pop_back();
    store_le64(wire.data() + 20, wire.size() - kMessageHeaderSize);
  }
  return wire;
}

TEST(SealedFrameTest, BodyHashCoversTheFrameHeaderAndTheSealThePayload) {
  const Bytes stored = random_body(5000, 31);
  const Bytes compressible = compressible_body(5000, 31);
  for (const Message& sealed : {stored_message(1, stored, true),
                                frame_message_of(CodecId::kLz4, 1, compressible, true)}) {
    const bool lz4 = (*sealed.frame_header)[4] == static_cast<std::uint8_t>(CodecId::kLz4);
    SCOPED_TRACE(lz4 ? "lz4" : "stored");
    ASSERT_EQ((*sealed.frame_header)[5], kFrameFlagSealed);
    ASSERT_EQ(sealed.body.size() < compressible.size(), lz4);
    EXPECT_TRUE(seal_intact(*sealed.frame_header, sealed.body));
    const Bytes wire = encode_message(sealed);
    EXPECT_EQ(load_le32(wire.data() + 28), xxhash32(*sealed.frame_header));
    EXPECT_TRUE(message_body_intact(sealed, message_body_hash(sealed)));

    // The same body held joined hashes and encodes identically.
    Message joined = sealed;
    joined.frame_header.reset();
    joined.body = joined_body(sealed);
    EXPECT_EQ(message_body_hash(joined), message_body_hash(sealed));
    EXPECT_EQ(encode_message(joined), wire);

    // The seal covers the payload: the header digest alone cannot pass a
    // changed payload, held split or joined.
    Message flipped = sealed;
    flipped.body[flipped.body.size() / 2] ^= 0x01;
    EXPECT_EQ(message_body_hash(flipped), message_body_hash(sealed));
    EXPECT_FALSE(message_body_intact(flipped, message_body_hash(sealed)));
    joined.body[kFrameHeaderSize + flipped.body.size() / 2] ^= 0x01;
    EXPECT_FALSE(message_body_intact(joined, message_body_hash(sealed)));
  }

  // Unsealed frames and control bodies keep the whole-body hash; a control
  // body is never read as a frame, whatever its bytes.
  const Message unsealed = frame_message_of(CodecId::kLz4, 2, compressible, false);
  EXPECT_EQ(message_body_hash(unsealed), xxhash32(joined_body(unsealed)));
  Message control = Message::resume_frame(9, {});
  control.body = joined_body(stored_message(1, stored, true));
  EXPECT_EQ(message_body_hash(control), xxhash32(control.body));
}

// A sealed frame message, stored and compressed, hit by one fault — a flip
// in every frame header byte, in each byte of the NSM1 body-hash field, in
// the first, middle and last payload byte, or a payload one byte short —
// and followed by a clean message and an end-of-stream marker. Strict, each
// case is sticky DATA_LOSS at the message layer, from PullSocket::recv and
// from MessageDecoder alike, and the receive ends exactly as it does for an
// unsealed body hit by the same fault.
TEST(SealedFrameTest, FaultMatrixFailsAtTheMessageLayer) {
  for (const CodecId codec : {CodecId::kNull, CodecId::kLz4}) {
    const Bytes content =
        codec == CodecId::kNull ? random_body(1000, 32) : compressible_body(3000, 32);
    const Message sealed = frame_message_of(codec, 1, content, true);
    const Message unsealed = frame_message_of(codec, 1, content, false);
    ASSERT_EQ((*sealed.frame_header)[4], static_cast<std::uint8_t>(codec));
    Bytes tail = encode_message(frame_message_of(codec, 2, content, true));
    const Bytes eos = encode_message(Message::end_of_stream_marker(6, 3));
    tail.insert(tail.end(), eos.begin(), eos.end());

    const std::size_t payload_at = kMessageHeaderSize + kFrameHeaderSize;
    const std::size_t payload_size = sealed.body.size();
    std::vector<std::pair<std::string, std::size_t>> faults;
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
      faults.emplace_back("frame header byte " + std::to_string(i), kMessageHeaderSize + i);
    }
    for (std::size_t i = 28; i < kMessageHeaderSize; ++i) {
      faults.emplace_back("body hash byte " + std::to_string(i), i);
    }
    faults.emplace_back("first payload byte", payload_at);
    faults.emplace_back("middle payload byte", payload_at + payload_size / 2);
    faults.emplace_back("last payload byte", payload_at + payload_size - 1);
    faults.emplace_back("payload one byte short", std::string::npos);

    for (const auto& [name, offset] : faults) {
      SCOPED_TRACE(std::string(codec_by_id(codec)->name()) + " " + name);
      Bytes wire = faulted_wire(sealed, offset);
      wire.insert(wire.end(), tail.begin(), tail.end());
      Bytes legacy = faulted_wire(unsealed, offset);
      legacy.insert(legacy.end(), tail.begin(), tail.end());

      // Sticky DATA_LOSS before any message is handed on.
      InprocPair pair = make_inproc_pair(wire.size() + 1);
      ASSERT_TRUE(pair.first->write_all(wire).is_ok());
      pair.first->shutdown_write();
      PullSocket strict(std::move(pair.second));
      auto first = strict.recv();
      ASSERT_FALSE(first.ok());
      EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(first.status().message(), "message: body checksum mismatch");
      EXPECT_EQ(strict.recv().status().message(), "message stream previously corrupt");
      MessageDecoder failing;
      failing.feed(wire);
      EXPECT_EQ(failing.next().status().message(), "message: body checksum mismatch");
      EXPECT_EQ(failing.next().status().message(), "message stream previously corrupt");

      expect_same_receive(socket_receive(wire), socket_receive(legacy));
    }
  }
}

// Compat: the unsealed stored frame every earlier sender wrote still
// decodes through the receive and the frame decoders.
TEST(SealedFrameTest, UnsealedStoredFrameStillDecodes) {
  const Bytes payload = random_body(3000, 34);
  const Message unsealed = stored_message(5, payload, false);
  ASSERT_EQ((*unsealed.frame_header)[5], 0);
  const Bytes wire = encode_message(unsealed);
  EXPECT_EQ(load_le32(wire.data() + 28), xxhash32(joined_body(unsealed)));
  const ReceiveRun run = socket_receive(wire);
  ASSERT_EQ(run.messages.size(), 1U) << run.end.to_string();
  const Message& got = run.messages[0];
  EXPECT_EQ(got.frame_header, unsealed.frame_header);
  EXPECT_EQ(got.body, payload);
  auto content = decode_frame_split(*got.frame_header, got.body);
  ASSERT_TRUE(content.ok()) << content.status().to_string();
  EXPECT_EQ(content.value(), payload);
  const Bytes frame = joined_body(unsealed);
  content = decode_frame_content(frame);
  ASSERT_TRUE(content.ok()) << content.status().to_string();
  EXPECT_EQ(content.value(), payload);

  // Its two xxhash32 fields are still both checked.
  Bytes flipped = frame;
  flipped[kFrameHeaderSize + 10] ^= 0x02;
  EXPECT_EQ(decode_frame_content(flipped).status().message(),
            "frame: payload checksum mismatch");
  Bytes content_field = frame;
  content_field[28] ^= 0x02;
  EXPECT_EQ(decode_frame_content(content_field).status().message(),
            "frame: content checksum mismatch after decompression");
}

// --------------------------------------------- scatter-gather equivalence

TEST(ScatterGatherTest, WireBytesIdenticalToEncodeMessage) {
  // PushSocket::send writes header and payload as separate iovecs; the
  // bytes on the wire must still be exactly encode_message's.
  InprocPair pair = make_inproc_pair(1 << 20);
  PushSocket push(std::move(pair.first));
  Message message;
  message.stream_id = 3;
  message.sequence = 41;
  message.body = Bytes(10000, 0x5a);
  const Bytes expected = encode_message(message);
  ASSERT_TRUE(push.send(message).is_ok());
  Bytes wire(expected.size());
  ASSERT_TRUE(read_exact(*pair.second, wire).is_ok());
  EXPECT_EQ(wire, expected);
}

}  // namespace
}  // namespace numastream
