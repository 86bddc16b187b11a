#include "msg/socket.h"

#include <algorithm>
#include <string>
#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {
namespace {

/// Reads into `out` until it is full or the stream ends; returns the bytes
/// read. Read errors pass through.
Result<std::size_t> fill(ByteStream& stream, MutableByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    auto n = stream.read_some(out.subspan(got));
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      break;
    }
    got += n.value();
  }
  return got;
}

/// The DATA_LOSS for a message of `kind` on a channel that never carries
/// it: each direction of a connection has its own kinds (socket.h).
Status wrong_kind(const char* channel, MessageKind kind) {
  return data_loss_error(std::string(channel) + " channel carried a " +
                         message_kind_rule(kind).name + " message");
}

}  // namespace

PushSocket::PushSocket(std::unique_ptr<ByteStream> stream) : stream_(std::move(stream)) {
  NS_CHECK(stream_ != nullptr, "PushSocket needs a stream");
}

Status PushSocket::send(const Message& message) {
  return send(message, message_body_hash(message));
}

Status PushSocket::send(const Message& message, std::uint32_t body_hash) {
  NS_CHECK(!finished_, "send after finish");
  // Scatter-gather framing: header on the stack, frame header and payload
  // straight from the message — no join copy. The transport either vectors
  // the spans (TcpStream's sendmsg) or joins them itself when it must
  // preserve single-write semantics (the default; see
  // ByteStream::write_all_vec).
  std::uint8_t header[kMessageHeaderSize];
  encode_message_header(message, MutableByteSpan(header, kMessageHeaderSize),
                        body_hash);
  const ByteSpan frame_header =
      message.frame_header ? ByteSpan(*message.frame_header) : ByteSpan();
  NS_RETURN_IF_ERROR(stream_->write_all_vec({ByteSpan(header, kMessageHeaderSize),
                                             frame_header, ByteSpan(message.body)}));
  bytes_sent_ += kMessageHeaderSize + message.wire_body_size();
  return Status::ok();
}

Status PushSocket::finish(std::uint32_t stream_id) {
  if (finished_) {
    return Status::ok();
  }
  const Status status = send(Message::end_of_stream_marker(stream_id, 0));
  finished_ = true;
  stream_->shutdown_write();
  return status;
}

Result<Message> PushSocket::recv_control() {
  if (control_corrupt_) {
    return data_loss_error("message stream previously corrupt");
  }
  // Control frames are read exactly, header first, so the body bound below
  // is enforced before a single body byte is buffered. End of stream
  // anywhere is the peer closing the channel.
  const auto read = [&](MutableByteSpan out) -> Status {
    auto n = fill(*stream_, out);
    if (!n.ok()) {
      return n.status();
    }
    return n.value() == out.size() ? Status::ok()
                                   : unavailable_error("peer closed the control channel");
  };
  std::uint8_t header[kMessageHeaderSize];
  NS_RETURN_IF_ERROR(read(MutableByteSpan(header, kMessageHeaderSize)));
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    control_corrupt_ = true;
    return decoded.status();
  }
  const Message& head = decoded.value().message;
  if (!(head.kind == MessageKind::kCredit || head.kind == MessageKind::kResume ||
        head.end_of_stream)) {
    control_corrupt_ = true;
    return wrong_kind("control", head.kind);
  }
  const std::uint64_t body_size = decoded.value().body_size;
  if (body_size > kMaxControlBody) {
    // Fail loudly: a control frame this large means a confused or hostile
    // peer, and quietly accepting (or truncating) it would turn a protocol
    // violation into silent state divergence.
    control_corrupt_ = true;
    return data_loss_error("control frame body of " + std::to_string(body_size) +
                           " bytes exceeds kMaxControlBody (" +
                           std::to_string(kMaxControlBody) + ")");
  }
  Message message = std::move(decoded.value().message);
  message.body = Bytes(body_size);
  NS_RETURN_IF_ERROR(read(MutableByteSpan(message.body)));
  if (xxhash32(message.body) != decoded.value().body_hash) {
    control_corrupt_ = true;
    return data_loss_error("message: body checksum mismatch");
  }
  return message;
}

PullSocket::PullSocket(std::unique_ptr<ByteStream> stream) : stream_(std::move(stream)) {
  NS_CHECK(stream_ != nullptr, "PullSocket needs a stream");
}

Result<Message> PullSocket::recv() {
  if (corrupt_) {
    return data_loss_error("message stream previously corrupt");
  }
  std::uint8_t header[kMessageHeaderSize];
  const Status header_read =
      read_exact(*stream_, MutableByteSpan(header, kMessageHeaderSize));
  if (!header_read.is_ok()) {
    // read_exact: UNAVAILABLE = clean EOF before any byte (end of stream),
    // DATA_LOSS = EOF mid-header — both map straight onto recv's contract.
    return header_read;
  }
  // The header is validated (kMaxMessageBody included) before the body
  // buffer is allocated, so a hostile length allocates at most
  // kMaxMessageBody, once.
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    corrupt_ = true;  // framing violations are sticky
    return decoded.status();
  }
  Message message = std::move(decoded.value().message);
  if (!message.is_data()) {
    corrupt_ = true;
    return wrong_kind("data", message.kind);
  }
  const std::uint64_t body_size = decoded.value().body_size;
  // EOF anywhere in the body is mid-message, even at its first byte, and is
  // reported against the whole body however many reads it takes.
  std::uint64_t filled = 0;
  const auto read_body = [&](MutableByteSpan part) -> Status {
    auto n = fill(*stream_, part);
    if (!n.ok()) {
      return n.status().code() == StatusCode::kUnavailable
                 ? data_loss_error("connection closed mid-message")
                 : n.status();
    }
    filled += n.value();
    if (n.value() == part.size()) {
      return Status::ok();
    }
    if (filled == 0) {
      return data_loss_error("connection closed mid-message");
    }
    return data_loss_error("stream ended mid-message (" + std::to_string(filled) +
                           " of " + std::to_string(body_size) + " bytes)");
  };
  // A data body long enough to hold a frame header is read in two parts:
  // the header lands apart when it carries the NSF1 magic, and the payload
  // then goes straight into a buffer of its own.
  FrameHeader lead{};
  std::size_t in_hand = 0;
  if (body_size >= kFrameHeaderSize) {
    NS_RETURN_IF_ERROR(read_body(lead));
    if (load_le32(lead.data()) == kFrameMagic) {
      message.frame_header = lead;
    } else {
      in_hand = kFrameHeaderSize;
    }
  }
  message.body = Bytes(body_size - (message.frame_header ? kFrameHeaderSize : 0));
  std::copy_n(lead.begin(), in_hand, message.body.begin());
  NS_RETURN_IF_ERROR(read_body(MutableByteSpan(message.body).subspan(in_hand)));
  if (!message_body_intact(message, decoded.value().body_hash)) {
    corrupt_ = true;
    return data_loss_error("message: body checksum mismatch");
  }
  bytes_received_ += kMessageHeaderSize + body_size;
  return message;
}

Status PullSocket::send_credit(std::uint64_t grant) {
  return stream_->write_all(encode_message(Message::credit_grant(grant)));
}

Status PullSocket::send_resume(std::uint64_t session_id,
                               const std::vector<ResumePoint>& points) {
  return stream_->write_all(
      encode_message(Message::resume_frame(session_id, points)));
}

Status PullSocket::echo_end_of_stream() {
  return stream_->write_all(encode_message(Message::end_of_stream_marker(0, 0)));
}

}  // namespace numastream
