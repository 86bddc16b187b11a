// Wire-byte pins for every NSM1 control kind: the credit grant, RESUME, the
// end-of-stream marker and its echo, each REPL kind, each HANDOFF phase and
// each SCRUB kind, built by the production factories and encoded whole.
// The hex strings were recorded before the REPL, HANDOFF and SCRUB layouts
// moved out of msg/ into cluster/; any change to a flag bit, a body layout
// or a factory's field order shows up here as a byte diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/antientropy.h"
#include "cluster/rebalance.h"
#include "cluster/replication.h"
#include "msg/message.h"

namespace numastream {
namespace {

using namespace cluster;  // NOLINT: the frame layouts live in cluster/

constexpr std::uint64_t kSession = 0x1122334455667788ULL;

std::string hex(const Bytes& bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

/// `count` 37-byte journal-record stand-ins: byte j of record i is
/// (37 i + j + 1) mod 256. The frames carry records as opaque bytes.
Bytes records(std::size_t count) {
  Bytes out(count * 37);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(i + 1);
  }
  return out;
}

struct Pin {
  const char* name;
  Message frame;
  const char* wire;
};

void expect_pins(const std::vector<Pin>& pins) {
  for (const Pin& pin : pins) {
    EXPECT_EQ(hex(encode_message(pin.frame)), pin.wire) << pin.name;
  }
}

TEST(ControlKindPinTest, DataPlaneControlFrames) {
  expect_pins({
      {"credit grant", Message::credit_grant(8),
       "4e534d31000000000800000000000000020000000000000000000000055dcc02"},
      {"resume, two points",
       Message::resume_frame(kSession, {{1, 100}, {7, 0xFFFFFFFFFFULL}}),
       "4e534d3100000000000000000000000004000000240000000000000067ad48b7"
       "88776655443322110200000001000000640000000000000007000000ffffffff"
       "ff000000"},
      {"resume, no points", Message::resume_frame(kSession, {}),
       "4e534d31000000000000000000000000040000000c000000000000007a38390d"
       "887766554433221100000000"},
      {"end-of-stream marker", Message::end_of_stream_marker(3, 41),
       "4e534d31030000002900000000000000010000000000000000000000055dcc02"},
      {"end-of-stream echo", Message::end_of_stream_marker(0, 0),
       "4e534d31000000000000000000000000010000000000000000000000055dcc02"},
  });
}

TEST(ControlKindPinTest, ReplFrames) {
  const Bytes two = records(2);
  expect_pins({
      {"repl hello", repl_frame(ReplKind::kHello, kSession, 3, 1),
       "4e534d3100000000010000000000000008000000180000000000000013a31775"
       "010000008877665544332211030000000000000000000000"},
      {"repl append",
       repl_frame(ReplKind::kAppend, kSession, 3, 2, ByteSpan(two.data(), two.size())),
       "4e534d31000000000200000000000000080000006200000000000000233cc2c0"
       "0200000088776655443322110300000000000000020000000102030405060708"
       "090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728"
       "292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f404142434445464748"
       "494a"},
      {"repl ack", repl_frame(ReplKind::kAck, kSession, 4, 2),
       "4e534d31000000000200000000000000080000001800000000000000d70e9284"
       "030000008877665544332211040000000000000000000000"},
      {"repl heartbeat", repl_frame(ReplKind::kHeartbeat, kSession, 3, 5),
       "4e534d310000000005000000000000000800000018000000000000005d7232e2"
       "040000008877665544332211030000000000000000000000"},
  });
}

TEST(ControlKindPinTest, HandoffFrames) {
  const auto frame = [](HandoffPhase phase, std::uint64_t sequence) {
    return handoff_frame({.phase = phase,
                                   .session_id = kSession,
                                   .epoch = 6,
                                   .stream_id = 9,
                                   .source_gateway = 1,
                                   .target_gateway = 2,
                                   .watermark = 0x0102030405ULL},
                                  sequence);
  };
  expect_pins({
      {"handoff prepare", frame(HandoffPhase::kPrepare, 11),
       "4e534d31000000000b00000000000000100000002800000000000000b7249c63"
       "0100000088776655443322110600000000000000090000000100000002000000"
       "0504030201000000"},
      {"handoff journal", frame(HandoffPhase::kJournal, 12),
       "4e534d31000000000c00000000000000100000002800000000000000128a2734"
       "0200000088776655443322110600000000000000090000000100000002000000"
       "0504030201000000"},
      {"handoff commit", frame(HandoffPhase::kCommit, 13),
       "4e534d31000000000d000000000000001000000028000000000000009521c081"
       "0300000088776655443322110600000000000000090000000100000002000000"
       "0504030201000000"},
      {"handoff ack", frame(HandoffPhase::kAck, 13),
       "4e534d31000000000d000000000000001000000028000000000000004305701d"
       "0400000088776655443322110600000000000000090000000100000002000000"
       "0504030201000000"},
      {"handoff abort", frame(HandoffPhase::kAbort, 14),
       "4e534d31000000000e0000000000000010000000280000000000000093cfd929"
       "0500000088776655443322110600000000000000090000000100000002000000"
       "0504030201000000"},
  });
}

TEST(ControlKindPinTest, ScrubFrames) {
  ScrubInfo request{.kind = ScrubKind::kDigestRequest,
                    .session_id = kSession,
                    .epoch = 2,
                    .range = 0,
                    .range_records = 64};
  ScrubInfo reply = request;
  reply.kind = ScrubKind::kDigestReply;
  reply.digests = {{0, 64, 0xDEADBEEF}, {1, 5, 0x01020304}};
  ScrubInfo pull = request;
  pull.kind = ScrubKind::kRepairPull;
  pull.range = 1;
  ScrubInfo push = pull;
  push.kind = ScrubKind::kRepairPush;
  push.records = records(1);
  ScrubInfo answer = push;
  answer.kind = ScrubKind::kRepairReply;
  ScrubInfo refused = pull;
  refused.kind = ScrubKind::kRepairReply;
  expect_pins({
      {"scrub digest request", scrub_frame(request, 1),
       "4e534d31000000000100000000000000200000002400000000000000f253f33a"
       "0100000088776655443322110200000000000000000000000000000040000000"
       "00000000"},
      {"scrub digest reply", scrub_frame(reply, 1),
       "4e534d310000000001000000000000002000000044000000000000006ff9cf13"
       "0200000088776655443322110200000000000000000000000000000040000000"
       "02000000000000000000000040000000efbeadde010000000000000005000000"
       "04030201"},
      {"scrub repair pull", scrub_frame(pull, 2),
       "4e534d31000000000200000000000000200000002400000000000000ccdb4553"
       "0300000088776655443322110200000000000000010000000000000040000000"
       "00000000"},
      {"scrub repair push", scrub_frame(push, 3),
       "4e534d31000000000300000000000000200000004900000000000000fc57d917"
       "0400000088776655443322110200000000000000010000000000000040000000"
       "010000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
       "1d1e1f202122232425"},
      {"scrub repair reply", scrub_frame(answer, 3),
       "4e534d3100000000030000000000000020000000490000000000000028c6b92b"
       "0500000088776655443322110200000000000000010000000000000040000000"
       "010000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c"
       "1d1e1f202122232425"},
      {"scrub repair reply, refused", scrub_frame(refused, 4),
       "4e534d3100000000040000000000000020000000240000000000000082293cef"
       "0500000088776655443322110200000000000000010000000000000040000000"
       "00000000"},
  });
}

}  // namespace
}  // namespace numastream
