#include "msg/socket.h"

#include <utility>

#include "codec/xxhash.h"
#include "common/assert.h"

namespace numastream {

PushSocket::PushSocket(std::unique_ptr<ByteStream> stream) : stream_(std::move(stream)) {
  NS_CHECK(stream_ != nullptr, "PushSocket needs a stream");
}

Status PushSocket::send(const Message& message) {
  return send(message, xxhash32(message.body));
}

Status PushSocket::send(const Message& message, std::uint32_t body_hash) {
  NS_CHECK(!finished_, "send after finish");
  // Scatter-gather framing: header on the stack, body straight from the
  // message — no join copy. The transport either vectors the two spans
  // (TcpStream's sendmsg) or joins them itself when it must preserve
  // single-write semantics (the default; see ByteStream::write_all_vec).
  std::uint8_t header[kMessageHeaderSize];
  encode_message_header(message, MutableByteSpan(header, kMessageHeaderSize),
                        body_hash);
  NS_RETURN_IF_ERROR(stream_->write_all_vec(
      {ByteSpan(header, kMessageHeaderSize), ByteSpan(message.body)}));
  bytes_sent_ += kMessageHeaderSize + message.body.size();
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

Result<std::uint64_t> PushSocket::recv_credit() {
  auto message = recv_control();
  if (!message.ok()) {
    return message.status();
  }
  if (!message.value().credit) {
    return data_loss_error("credit channel carried a data message");
  }
  return message.value().sequence;
}

Result<Message> PushSocket::recv_control() {
  if (credit_buffer_.empty()) {
    credit_buffer_.resize(kMaxControlBody);  // control frames are small
  }
  while (true) {
    auto message = credit_decoder_.next();
    if (message.ok()) {
      if (!message.value().credit && !message.value().resume) {
        return data_loss_error("control channel carried a data message");
      }
      if (message.value().body.size() > kMaxControlBody) {
        // Fail loudly: a control frame this large means a confused or
        // hostile peer, and quietly accepting (or truncating) it would turn
        // a protocol violation into silent state divergence.
        return data_loss_error(
            "control frame body of " +
            std::to_string(message.value().body.size()) +
            " bytes exceeds kMaxControlBody (" +
            std::to_string(kMaxControlBody) + ")");
      }
      return message;
    }
    if (message.status().code() == StatusCode::kDataLoss) {
      return message.status();
    }
    auto n = stream_->read_some(credit_buffer_);
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      return unavailable_error("peer closed the control channel");
    }
    credit_decoder_.feed(ByteSpan(credit_buffer_.data(), n.value()));
  }
}

PullSocket::PullSocket(std::unique_ptr<ByteStream> stream,
                       MessageDecoder::OnCorruption on_corruption)
    : stream_(std::move(stream)),
      decoder_(on_corruption),
      on_corruption_(on_corruption) {
  NS_CHECK(stream_ != nullptr, "PullSocket needs a stream");
  if (on_corruption_ == MessageDecoder::OnCorruption::kResync) {
    read_buffer_.resize(kResyncReadBytes);
  }
}

Result<Message> PullSocket::recv() {
  if (on_corruption_ == MessageDecoder::OnCorruption::kResync) {
    return recv_resync();
  }
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
  // buffer is allocated, so a hostile length costs nothing.
  auto decoded = decode_message_header(ByteSpan(header, kMessageHeaderSize));
  if (!decoded.ok()) {
    corrupt_ = true;  // strict mode: framing violations are sticky
    return decoded.status();
  }
  Message message = std::move(decoded.value().message);
  const std::uint64_t body_size = decoded.value().body_size;
  message.body = Bytes(body_size);
  if (body_size != 0) {
    const Status body_read = read_exact(*stream_, MutableByteSpan(message.body));
    if (!body_read.is_ok()) {
      // EOF anywhere in the body is mid-message, even at its first byte.
      return body_read.code() == StatusCode::kUnavailable
                 ? data_loss_error("connection closed mid-message")
                 : body_read;
    }
  }
  if (xxhash32(message.body) != decoded.value().body_hash) {
    corrupt_ = true;
    return data_loss_error("message: body checksum mismatch");
  }
  bytes_received_ += kMessageHeaderSize + body_size;
  return message;
}

Result<Message> PullSocket::recv_resync() {
  while (true) {
    auto message = decoder_.next();
    if (message.ok()) {
      return message;
    }
    if (message.status().code() == StatusCode::kDataLoss) {
      return message.status();
    }
    // Need more bytes.
    auto n = stream_->read_some(read_buffer_);
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      if (decoder_.buffered() != 0) {
        return data_loss_error("connection closed mid-message");
      }
      return unavailable_error("end of stream");
    }
    bytes_received_ += n.value();
    decoder_.feed(ByteSpan(read_buffer_.data(), n.value()));
  }
}

Status PullSocket::send_credit(std::uint64_t grant) {
  return stream_->write_all(encode_message(Message::credit_grant(grant)));
}

Status PullSocket::send_resume(std::uint64_t session_id,
                               const std::vector<ResumePoint>& points) {
  return stream_->write_all(
      encode_message(Message::resume_frame(session_id, points)));
}

}  // namespace numastream
