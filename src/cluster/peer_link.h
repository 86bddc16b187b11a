// The request/reply link between two federated gateways.
//
// Every gateway-to-gateway protocol is one synchronous exchange at a time:
// the driving side sends one NSM1 frame (REPL, HANDOFF or SCRUB) and blocks
// for the answering side's reply frame. So one link carries all three:
//
//   * PeerLink — the driving side's view: exchange() one frame for its
//     reply. PrimaryReplicator, HandoffSource and AntiEntropyScrubber
//     drive one each.
//   * PeerHandler — the answering side: handle() one decoded frame and
//     return the reply. StandbySession, HandoffTarget and ScrubServer.
//   * InprocPeerLink — a direct call into a handler, for tests and the
//     chaos harness; StreamPeerLink and serve_peer — the same exchange over
//     a byte stream (TCP loopback in examples/federated_gateway).
#pragma once

#include <atomic>
#include <memory>

#include "common/status.h"
#include "msg/message.h"
#include "msg/transport.h"

namespace numastream {
namespace cluster {

/// The answering side of a link. Errors are protocol violations (wrong
/// session, malformed body, a frame out of order): the link should drop.
class PeerHandler {
 public:
  virtual ~PeerHandler() = default;
  /// Handles one decoded request frame and returns the reply to send back.
  virtual Result<Message> handle(const Message& frame) = 0;
};

/// One synchronous request/reply exchange with a peer gateway. Drivers use
/// it under their own lock, so implementations need not be thread-safe.
class PeerLink {
 public:
  virtual ~PeerLink() = default;
  /// Sends `frame` and blocks for the peer's reply frame.
  virtual Result<Message> exchange(const Message& frame) = 0;
};

/// In-process link: a direct call into the peer's handler, with a
/// partition switch and a lost-ack fault. Thread-safe.
class InprocPeerLink final : public PeerLink {
 public:
  /// Borrows `peer`; it must outlive the link.
  explicit InprocPeerLink(PeerHandler& peer) : peer_(peer) {}

  /// A partitioned link fails every exchange with UNAVAILABLE — the
  /// network between the gateways, not either endpoint, is down.
  void set_partitioned(bool partitioned) {
    partitioned_.store(partitioned, std::memory_order_release);
  }

  /// Fault injection: the next exchange delivers the frame to the peer
  /// (which applies it durably) but the reply is lost — the link dies
  /// between apply and ack, the worst spot for a mid-flush failure. The
  /// driver must treat the work as NOT done even though the peer holds it;
  /// for replication the resulting divergence (a duplicated range after
  /// the retry) is what anti-entropy scrubbing converges.
  void drop_next_ack() { drop_ack_.store(true, std::memory_order_release); }

  Result<Message> exchange(const Message& frame) override;

 private:
  PeerHandler& peer_;
  std::atomic<bool> partitioned_{false};
  std::atomic<bool> drop_ack_{false};
};

/// Byte-stream link: one encoded frame out, one decoded reply back.
class StreamPeerLink final : public PeerLink {
 public:
  explicit StreamPeerLink(std::unique_ptr<ByteStream> stream)
      : stream_(std::move(stream)) {}

  Result<Message> exchange(const Message& frame) override;

 private:
  std::unique_ptr<ByteStream> stream_;
  MessageDecoder decoder_;
};

/// The answering side's service loop: decodes frames off `stream`, feeds
/// them to `handler`, writes the replies back. Returns OK on clean peer
/// shutdown, the first error otherwise.
Status serve_peer(ByteStream& stream, PeerHandler& handler);

}  // namespace cluster
}  // namespace numastream
