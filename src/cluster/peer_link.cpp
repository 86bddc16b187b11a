#include "cluster/peer_link.h"

#include <optional>
#include <utility>

namespace numastream {
namespace cluster {
namespace {

/// The next whole frame off `stream`, read through `decoder`; nullopt when
/// the peer closes the stream first.
Result<std::optional<Message>> next_frame(ByteStream& stream, MessageDecoder& decoder) {
  std::uint8_t buffer[4096];
  for (;;) {
    auto frame = decoder.next();
    if (frame.ok()) {
      return std::optional<Message>(std::move(frame).value());
    }
    if (frame.status().code() != StatusCode::kUnavailable) {
      return frame.status();
    }
    auto n = stream.read_some(MutableByteSpan(buffer, sizeof(buffer)));
    if (!n.ok()) {
      return n.status();
    }
    if (n.value() == 0) {
      return std::optional<Message>();
    }
    decoder.feed(ByteSpan(buffer, n.value()));
  }
}

}  // namespace

Result<Message> InprocPeerLink::exchange(const Message& frame) {
  if (partitioned_.load(std::memory_order_acquire)) {
    return unavailable_error("peer link partitioned");
  }
  auto reply = peer_.handle(frame);
  if (drop_ack_.exchange(false, std::memory_order_acq_rel)) {
    // The peer applied the frame durably; only the reply is lost.
    return unavailable_error("peer link died before the ack");
  }
  return reply;
}

Result<Message> StreamPeerLink::exchange(const Message& frame) {
  NS_RETURN_IF_ERROR(stream_->write_all(encode_message(frame)));
  auto reply = next_frame(*stream_, decoder_);
  if (!reply.ok()) {
    return reply.status();
  }
  if (!reply.value()) {
    return unavailable_error("peer closed the link");
  }
  return std::move(*reply.value());
}

Status serve_peer(ByteStream& stream, PeerHandler& handler) {
  MessageDecoder decoder;
  for (;;) {
    auto frame = next_frame(stream, decoder);
    if (!frame.ok() || !frame.value()) {
      return frame.status();  // OK once the driving side closed the link
    }
    auto reply = handler.handle(*frame.value());
    if (!reply.ok()) {
      return reply.status();
    }
    NS_RETURN_IF_ERROR(stream.write_all(encode_message(reply.value())));
  }
}

}  // namespace cluster
}  // namespace numastream
