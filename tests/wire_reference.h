// Whole-body receive oracle for the split receive path's fault-matrix tests.
//
// Before data frames travelled split, a receiver read each message's
// 32-byte header, then its whole body into one buffer, checked the body
// over that buffer, and handed the joined frame to decode_frame_content.
// whole_body_receive() replays exactly that on a complete byte string, with
// the body check written out from the wire rule in msg/message.h
// (whole_body_intact); socket_receive() drives the real PullSocket over the
// same bytes. The two must agree on every message (as joined wire bodies),
// on the final status and its text, and on bytes_received();
// expect_same_content() then holds the split frame decode to the joined
// one. Test-only, so the library keeps exactly one receive path.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "codec/codec.h"
#include "codec/frame.h"
#include "codec/xxhash.h"
#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "msg/inproc.h"
#include "msg/message.h"
#include "msg/socket.h"

namespace numastream {

/// A message's wire body as one buffer: the frame header, when held apart,
/// then the body.
inline Bytes joined_body(const Message& message) {
  Bytes out;
  if (message.frame_header) {
    out.assign(message.frame_header->begin(), message.frame_header->end());
  }
  out.insert(out.end(), message.body.begin(), message.body.end());
  return out;
}

/// The wire rule's body check on a joined wire body, written from
/// msg/message.h rather than taken from it: a data body that opens with a
/// sealed frame (NSF1 magic, flags bit 0) must match `body_hash` with its
/// 32-byte frame header alone, and its payload must match the frame's
/// payload seal: the xxhash64 in both hash fields of a stored (codec 0)
/// frame, the low 32 bits of one in the first field of any other. Any
/// other body must match with all of its bytes.
inline bool whole_body_intact(bool data, ByteSpan body, std::uint32_t body_hash) {
  if (data && body.size() >= kFrameHeaderSize && load_le32(body.data()) == kFrameMagic &&
      (body[5] & kFrameFlagSealed) != 0) {
    const std::uint64_t seal = xxhash64(body.subspan(kFrameHeaderSize));
    const bool payload_ok = body[4] == 0 ? seal == load_le64(body.data() + 24)
                                         : static_cast<std::uint32_t>(seal) ==
                                               load_le32(body.data() + 24);
    return xxhash32(body.first(kFrameHeaderSize)) == body_hash && payload_ok;
  }
  return xxhash32(body) == body_hash;
}

/// Rewrites the sealed frame header at `header` into the unsealed form
/// every earlier writer produced for `payload`: flags 0, xxhash32 of the
/// payload at 24 and of the content at 28. A stored frame's content is its
/// payload; a compressed one's is decompressed from it.
inline void unseal_frame_header(std::uint8_t* header, ByteSpan payload) {
  const auto codec = static_cast<CodecId>(header[4]);
  std::uint32_t content = xxhash32(payload);
  if (codec != CodecId::kNull) {
    Bytes raw(load_le64(header + 8));
    const auto produced = codec_by_id(codec)->decompress(payload, raw);
    EXPECT_TRUE(produced.ok() && produced.value() == raw.size())
        << "unseal_frame_header needs a frame that decodes";
    content = xxhash32(raw);
  }
  header[5] = 0;
  store_le32(header + 24, xxhash32(payload));
  store_le32(header + 28, content);
}

/// `frame` (one joined frame) as the unsealing writer produced it.
inline Bytes unseal_frame(ByteSpan frame) {
  Bytes out(frame.begin(), frame.end());
  if (frame_sealed(out)) {
    unseal_frame_header(out.data(), frame.subspan(kFrameHeaderSize));
  }
  return out;
}

/// `wire`, a run of whole NSM1 messages, as the unsealing writer produced
/// it: every sealed frame of a data message unsealed, and that message's
/// body hash taken over its whole body. Everything else is left byte for
/// byte.
inline Bytes unseal_wire(ByteSpan wire) {
  Bytes out(wire.begin(), wire.end());
  std::size_t pos = 0;
  while (pos + kMessageHeaderSize <= out.size()) {
    std::uint8_t* header = out.data() + pos;
    const std::size_t body_size = load_le64(header + 20);
    std::uint8_t* body = header + kMessageHeaderSize;
    const bool data = (load_le16(header + 16) & ~kMessageFlagEndOfStream) == 0;
    if (data && frame_sealed(ByteSpan(body, body_size))) {
      unseal_frame_header(body, ByteSpan(body + kFrameHeaderSize, body_size - kFrameHeaderSize));
      store_le32(header + 28, xxhash32(ByteSpan(body, body_size)));
    }
    pos += kMessageHeaderSize + body_size;
  }
  EXPECT_EQ(pos, out.size()) << "unseal_wire needs whole messages";
  return out;
}

/// A data message of stream `stream_id` whose body is `frame`, held split
/// as a sender holds it.
inline Message frame_message(std::uint32_t stream_id, std::uint64_t sequence,
                             SplitFrame frame) {
  Message m;
  m.stream_id = stream_id;
  m.sequence = sequence;
  m.frame_header = frame.header;
  m.body = std::move(frame.payload);
  return m;
}

/// The split receive's corruption matrix, as named wires. Each opens with a
/// sealed stored-frame data message (stream 4, sequence 1) hit by one
/// fault: a bit flip in the NSM1 body-hash field, in every NSF1 header
/// byte, or in the first or last payload byte, each once as it lands (the
/// message hash or the seal catches it) and once resealed under a fresh
/// message hash (a header flip then reaches the frame checks, a payload
/// flip still fails the seal on receipt); or a data body shorter than a
/// frame header, with and without the NSF1 magic. A clean LZ4 frame message
/// (sequence 2) and an end-of-stream marker follow.
inline std::vector<std::pair<std::string, Bytes>> split_fault_wires() {
  Bytes payload(1000);
  Rng rng(22);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  const Message target =
      frame_message(4, 1, encode_frame_split(*codec_by_id(CodecId::kNull), payload));
  const Bytes clean = encode_message(target);
  Bytes tail = encode_message(frame_message(
      4, 2, encode_frame_split(*codec_by_id(CodecId::kLz4), Bytes(3000, 7))));
  const Bytes eos = encode_message(Message::end_of_stream_marker(4, 3));
  tail.insert(tail.end(), eos.begin(), eos.end());

  std::vector<std::pair<std::string, Bytes>> heads;
  std::vector<std::size_t> offsets = {28, 29, 30, 31};  // NSM1 body hash
  for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
    offsets.push_back(kMessageHeaderSize + i);
  }
  offsets.push_back(kMessageHeaderSize + kFrameHeaderSize);  // first payload byte
  offsets.push_back(clean.size() - 1);                       // last payload byte
  for (const std::size_t offset : offsets) {
    Bytes flipped = clean;
    flipped[offset] ^= 0x5A;
    heads.emplace_back("flip@" + std::to_string(offset), flipped);
    if (offset >= kMessageHeaderSize) {
      Message resealed = target;
      resealed.frame_header.reset();
      resealed.body.assign(clean.begin() + kMessageHeaderSize, clean.end());
      resealed.body[offset - kMessageHeaderSize] ^= 0x5A;
      heads.emplace_back("resealed flip@" + std::to_string(offset),
                         encode_message(resealed));
    }
  }
  Message short_body;
  short_body.stream_id = 4;
  short_body.sequence = 1;
  short_body.body.assign(payload.begin(), payload.begin() + 20);
  heads.emplace_back("20-byte body", encode_message(short_body));
  short_body.body.assign(clean.begin() + kMessageHeaderSize,
                         clean.begin() + kMessageHeaderSize + kFrameHeaderSize - 1);
  heads.emplace_back("31 bytes of frame header", encode_message(short_body));

  for (auto& [name, wire] : heads) {
    wire.insert(wire.end(), tail.begin(), tail.end());
  }
  return heads;
}

/// One receive run: every message before the run ended, the status that
/// ended it, and the socket's byte count.
struct ReceiveRun {
  std::vector<Message> messages;  ///< as received
  Status end = Status::ok();
  std::uint64_t bytes_received = 0;
};

/// The whole-body receive on `wire`, as a peer that wrote `wire` and then
/// closed its side would be received.
inline ReceiveRun whole_body_receive(ByteSpan wire) {
  ReceiveRun run;
  std::size_t pos = 0;
  while (true) {
    const std::size_t available = wire.size() - pos;
    if (available < kMessageHeaderSize) {
      run.end = available == 0
                    ? unavailable_error("end of stream")
                    : data_loss_error("stream ended mid-message (" +
                                      std::to_string(available) + " of " +
                                      std::to_string(kMessageHeaderSize) + " bytes)");
      break;
    }
    auto header = decode_message_header(wire.subspan(pos, kMessageHeaderSize));
    if (!header.ok()) {
      run.end = header.status();
      break;
    }
    const std::uint64_t body_size = header.value().body_size;
    const std::size_t have = available - kMessageHeaderSize;
    if (have < body_size) {
      run.end = have == 0 ? data_loss_error("connection closed mid-message")
                          : data_loss_error("stream ended mid-message (" +
                                            std::to_string(have) + " of " +
                                            std::to_string(body_size) + " bytes)");
      break;
    }
    const ByteSpan body = wire.subspan(pos + kMessageHeaderSize, body_size);
    if (!whole_body_intact(header.value().message.is_data(), body,
                           header.value().body_hash)) {
      run.end = data_loss_error("message: body checksum mismatch");
      break;
    }
    Message message = header.value().message;
    message.body.assign(body.begin(), body.end());
    run.messages.push_back(std::move(message));
    pos += kMessageHeaderSize + body_size;
    run.bytes_received = pos;
  }
  return run;
}

/// The real PullSocket on `wire`, written in full by a peer that then
/// closes its side.
inline ReceiveRun socket_receive(ByteSpan wire) {
  InprocPair pair = make_inproc_pair(wire.size() + 1);
  NS_CHECK(pair.first->write_all(wire).is_ok(), "the window holds the whole wire");
  pair.first->shutdown_write();
  PullSocket pull(std::move(pair.second));
  ReceiveRun run;
  while (true) {
    auto message = pull.recv();
    if (!message.ok()) {
      run.end = message.status();
      break;
    }
    run.messages.push_back(std::move(message).value());
  }
  run.bytes_received = pull.bytes_received();
  return run;
}

/// Records a failure unless the two runs agree on every message, the final
/// status and its text, and the byte count.
inline void expect_same_receive(const ReceiveRun& got, const ReceiveRun& want) {
  ASSERT_EQ(got.messages.size(), want.messages.size())
      << "split ended with " << got.end.to_string() << ", whole-body with "
      << want.end.to_string();
  for (std::size_t i = 0; i < want.messages.size(); ++i) {
    SCOPED_TRACE("message " + std::to_string(i));
    EXPECT_EQ(got.messages[i].stream_id, want.messages[i].stream_id);
    EXPECT_EQ(got.messages[i].sequence, want.messages[i].sequence);
    EXPECT_EQ(got.messages[i].end_of_stream, want.messages[i].end_of_stream);
    EXPECT_EQ(joined_body(got.messages[i]), joined_body(want.messages[i]));
  }
  EXPECT_EQ(got.end.code(), want.end.code());
  EXPECT_EQ(got.end.message(), want.end.message());
  EXPECT_EQ(got.bytes_received, want.bytes_received);
}

/// Decodes a received data message's chunk the way the decompress stage
/// does: split when the frame header arrived apart, joined otherwise.
inline Result<Bytes> split_content(const Message& message) {
  if (message.frame_header) {
    return decode_frame_split(*message.frame_header, message.body);
  }
  return decode_frame_content(message.body);
}

/// Records a failure unless the split decode of `split` (as received by
/// the socket) and the joined decode of `whole` (as received by the oracle)
/// agree: the same content, or the same error and text.
inline void expect_same_content(const Message& split, const Message& whole) {
  const auto got = split_content(split);
  const auto want = decode_frame_content(whole.body);
  ASSERT_EQ(got.ok(), want.ok())
      << "split " << (got.ok() ? "ok" : got.status().to_string()) << ", joined "
      << (want.ok() ? "ok" : want.status().to_string());
  if (want.ok()) {
    EXPECT_EQ(got.value(), want.value());
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

}  // namespace numastream
