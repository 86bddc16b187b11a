// Gray-failure detection and planned live stream handoff (DESIGN.md §13):
// the two-channel PeerFailureDetector's degraded verdict, the rebalancing
// policy (hysteresis, cooldown, concurrency cap, degraded-drain priority),
// the HANDOFF frame grammar, the three-phase PREPARE -> JOURNAL -> COMMIT
// handoff protocol with its epoch fence, mid-handoff chaos degrading
// cleanly to crash failover, the RebalanceConfig ranges, and the simulated
// cluster's bit-identical gray-drain fingerprint.
//
// Everything here is deterministic: flapping links, slow boxes and
// mid-handoff deaths are driven by the test (or a seeded schedule), so a
// failing run replays bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/failover.h"
#include "cluster/rebalance.h"
#include "cluster/replication.h"
#include "cluster/ring.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/config_generator.h"
#include "core/journal.h"
#include "metrics/federation_counters.h"
#include "msg/message.h"
#include "simrt/driver.h"
#include "topo/topology.h"

namespace numastream {
namespace {

using cluster::FailoverCoordinator;
using cluster::GatewayLoad;
using cluster::GatewayRing;
using cluster::handoff_frame;
using cluster::HandoffInfo;
using cluster::HandoffPhase;
using cluster::HandoffSource;
using cluster::HandoffTarget;
using cluster::kHandoffBodySize;
using cluster::parse_handoff_body;
using cluster::PeerFailureDetector;
using cluster::PeerHealth;
using cluster::PeerLink;
using cluster::RebalanceController;
using cluster::RebalanceDecision;
using cluster::StandbySession;

constexpr std::uint64_t kSession = 42;

ClusterConfig two_gateway_cluster() {
  ClusterConfig config;
  config.gateways = 2;
  config.self = 0;
  config.heartbeat_ms = 10;
  config.miss_windows = 2;
  return config;
}

RebalanceConfig enabled_rebalance() {
  RebalanceConfig config;
  config.window_ms = 10;
  config.imbalance_ratio = 1.5;
  config.hysteresis_windows = 2;
  config.cooldown_windows = 3;
  config.max_concurrent = 1;
  return config;
}

// --------------------------------------------------- gray-failure verdict

TEST(GrayFailureDetectorTest, SlowButAlivePeerIsDegradedNotDead) {
  FederationCounters fed;
  PeerFailureDetector detector(two_gateway_cluster(), &fed);
  const int peer = detector.track("gateway1");

  // Healthy windows seed both channels' baselines.
  for (int window = 0; window < 3; ++window) {
    EXPECT_EQ(detector.observe_window(peer, 1.0, 1.0), PeerHealth::kHealthy);
  }
  // The peer keeps answering every probe, 4x slower than nominal. Even
  // though 0.25 breaches the latency channel's *failed* ratio, liveness is
  // intact — the verdict is degraded, and crash failover must not fire.
  PeerHealth verdict = PeerHealth::kHealthy;
  for (int window = 0; window < 4; ++window) {
    verdict = detector.observe_window(peer, 1.0, 0.25);
    EXPECT_FALSE(detector.dead(peer));
  }
  EXPECT_EQ(verdict, PeerHealth::kDegraded);
  EXPECT_TRUE(detector.degraded(peer));
  EXPECT_EQ(fed.snapshot().degraded_peers_detected, 1U);
  EXPECT_EQ(fed.snapshot().peer_failures_detected, 0U);

  // Staying degraded is one episode, not one detection per window.
  detector.observe_window(peer, 1.0, 0.25);
  EXPECT_EQ(fed.snapshot().degraded_peers_detected, 1U);
}

TEST(GrayFailureDetectorTest, DegradedPeerRecoversWithHysteresis) {
  ClusterConfig config = two_gateway_cluster();
  PeerFailureDetector detector(config);
  const int peer = detector.track("gateway1");

  for (int window = 0; window < 3; ++window) {
    detector.observe_window(peer, 1.0, 1.0);
  }
  for (int window = 0; window < 3; ++window) {
    detector.observe_window(peer, 1.0, 0.5);
  }
  ASSERT_TRUE(detector.degraded(peer));

  // One clean window is not a recovery (hysteresis both ways).
  detector.observe_window(peer, 1.0, 1.0);
  EXPECT_TRUE(detector.degraded(peer));
  // miss_windows consecutive clean windows re-promote.
  detector.observe_window(peer, 1.0, 1.0);
  EXPECT_EQ(detector.health(peer), PeerHealth::kHealthy);
}

// The anti-flap regression: a link that oscillates between slow and nominal
// every few windows must settle into the degraded state — never escalate to
// a spurious dead-peer failover, and never trigger more than one rebalance
// per cooldown window.
TEST(GrayFailureDetectorTest, FlappingLinkSettlesDegradedNeverDead) {
  ClusterConfig cluster = two_gateway_cluster();
  RebalanceConfig policy = enabled_rebalance();
  policy.cooldown_windows = 5;

  FederationCounters fed;
  PeerFailureDetector detector(cluster, &fed);
  const int self_peer = detector.track("gateway0");
  const int peer = detector.track("gateway1");
  RebalanceController controller(policy, /*gateways=*/2, &fed);

  // Seed the baselines, then flap: a seeded schedule of slow bursts with
  // the occasional nominal window — never two consecutive clean windows, so
  // the latency channel can never fully recover.
  for (int window = 0; window < 3; ++window) {
    detector.observe_window(self_peer, 1.0, 1.0);
    detector.observe_window(peer, 1.0, 1.0);
  }
  Rng rng(0xF1A9);
  constexpr int kWindows = 60;
  int degraded_windows = 0;
  std::vector<int> trigger_windows;
  for (int window = 0; window < kWindows; ++window) {
    const bool slow = rng.next_u64() % 3 != 0;  // flap: ~2/3 slow windows
    detector.observe_window(self_peer, 1.0, 1.0);
    const PeerHealth verdict =
        detector.observe_window(peer, 1.0, slow ? 0.4 : 1.0);
    ASSERT_NE(verdict, PeerHealth::kDead)
        << "a flapping-but-alive link must never look dead (window "
        << window << ")";
    degraded_windows += verdict == PeerHealth::kDegraded ? 1 : 0;

    // Drive the rebalancer off the verdicts: the flapping peer always has
    // work queued, so every degraded window is a drain candidate.
    std::vector<GatewayLoad> loads(2);
    loads[1].queue_depth = 4;
    const std::vector<PeerHealth> health = {detector.health(self_peer),
                                            verdict};
    if (auto decision = controller.observe_window(loads, health)) {
      trigger_windows.push_back(window);
      controller.handoff_finished();
    }
  }

  // The flap settles into degraded, not healthy-dead oscillation.
  EXPECT_GT(degraded_windows, kWindows / 2);
  EXPECT_EQ(fed.snapshot().peer_failures_detected, 0U);
  // At most one trigger per cooldown window, enforced pairwise.
  for (std::size_t i = 1; i < trigger_windows.size(); ++i) {
    EXPECT_GE(trigger_windows[i] - trigger_windows[i - 1],
              policy.cooldown_windows)
        << "triggers " << i - 1 << " and " << i << " inside one cooldown";
  }
  EXPECT_LE(trigger_windows.size(),
            static_cast<std::size_t>(kWindows / policy.cooldown_windows) + 1);
}

// ------------------------------------------------------ controller policy

std::vector<GatewayLoad> skewed_loads(double hot, double cool, double third) {
  std::vector<GatewayLoad> loads(3);
  loads[0].gbps = hot;
  loads[1].gbps = cool;
  loads[2].gbps = third;
  return loads;
}

const std::vector<PeerHealth> kAllHealthy = {
    PeerHealth::kHealthy, PeerHealth::kHealthy, PeerHealth::kHealthy};

TEST(RebalanceControllerTest, HysteresisHoldsBackASingleSpike) {
  RebalanceController controller(enabled_rebalance(), 3);
  const auto hot = skewed_loads(9.0, 1.0, 2.0);  // mean 4, 9 > 1.5 * 4
  const auto calm = skewed_loads(3.0, 3.0, 3.0);

  // One spike, then calm: the streak resets, nothing moves.
  EXPECT_FALSE(controller.observe_window(hot, kAllHealthy).has_value());
  EXPECT_FALSE(controller.observe_window(calm, kAllHealthy).has_value());
  EXPECT_FALSE(controller.observe_window(hot, kAllHealthy).has_value());
  // The second *consecutive* breach engages, to the coolest gateway.
  const auto decision = controller.observe_window(hot, kAllHealthy);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->source, 0U);
  EXPECT_EQ(decision->target, 1U);
  EXPECT_FALSE(decision->degraded_drain);
}

TEST(RebalanceControllerTest, CooldownSpacesOutTriggers) {
  RebalanceConfig policy = enabled_rebalance();
  FederationCounters fed;
  RebalanceController controller(policy, 3, &fed);
  const auto hot = skewed_loads(9.0, 1.0, 2.0);

  std::vector<int> trigger_windows;
  for (int window = 0; window < 20; ++window) {
    if (controller.observe_window(hot, kAllHealthy)) {
      trigger_windows.push_back(window);
      controller.handoff_finished();
    }
  }
  ASSERT_GE(trigger_windows.size(), 2U);
  for (std::size_t i = 1; i < trigger_windows.size(); ++i) {
    EXPECT_GE(trigger_windows[i] - trigger_windows[i - 1],
              policy.cooldown_windows);
  }
  EXPECT_EQ(fed.snapshot().rebalance_triggers, trigger_windows.size());
}

TEST(RebalanceControllerTest, MaxConcurrentCapsInFlightHandoffs) {
  RebalanceController controller(enabled_rebalance(), 3);
  const auto hot = skewed_loads(9.0, 1.0, 2.0);

  std::optional<RebalanceDecision> first;
  int window = 0;
  while (!first && window < 10) {
    first = controller.observe_window(hot, kAllHealthy);
    ++window;
  }
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(controller.handoffs_in_flight(), 1);

  // The slot stays occupied: no second trigger, no matter how hot.
  for (int extra = 0; extra < 20; ++extra) {
    EXPECT_FALSE(controller.observe_window(hot, kAllHealthy).has_value());
  }
  // Freeing the slot re-enables the policy.
  controller.handoff_finished();
  std::optional<RebalanceDecision> second;
  for (int extra = 0; extra < 10 && !second; ++extra) {
    second = controller.observe_window(hot, kAllHealthy);
  }
  EXPECT_TRUE(second.has_value());
}

TEST(RebalanceControllerTest, DegradedSourceOutranksLoadSkew) {
  RebalanceController controller(enabled_rebalance(), 3);
  // Gateway 0 is by far the hottest, but gateway 2 is gray-failed with
  // streams still queued on it: the stronger signal wins.
  auto loads = skewed_loads(9.0, 1.0, 2.0);
  loads[2].queue_depth = 3;
  const std::vector<PeerHealth> health = {
      PeerHealth::kHealthy, PeerHealth::kHealthy, PeerHealth::kDegraded};

  std::optional<RebalanceDecision> decision;
  for (int window = 0; window < 5 && !decision; ++window) {
    decision = controller.observe_window(loads, health);
  }
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->source, 2U);
  EXPECT_TRUE(decision->degraded_drain);
  EXPECT_EQ(decision->target, 1U) << "coolest healthy gateway";
}

TEST(RebalanceControllerTest, DrainedDegradedPeerIsNotRetriggered) {
  RebalanceController controller(enabled_rebalance(), 3);
  // Gray-failed but already empty: nothing to move, and the load is
  // balanced — re-triggering would burn the cooldown for no work.
  auto loads = skewed_loads(3.0, 3.0, 3.0);
  const std::vector<PeerHealth> health = {
      PeerHealth::kHealthy, PeerHealth::kHealthy, PeerHealth::kDegraded};
  for (int window = 0; window < 10; ++window) {
    EXPECT_FALSE(controller.observe_window(loads, health).has_value());
  }
}

TEST(RebalanceControllerTest, DeadPeersAreNeitherSourceNorTarget) {
  RebalanceController controller(enabled_rebalance(), 3);
  // Gateway 2 is dead with a huge last-known load: crash failover's
  // problem, not the rebalancer's.
  auto loads = skewed_loads(4.0, 4.0, 100.0);
  const std::vector<PeerHealth> dead_third = {
      PeerHealth::kHealthy, PeerHealth::kHealthy, PeerHealth::kDead};
  for (int window = 0; window < 10; ++window) {
    EXPECT_FALSE(controller.observe_window(loads, dead_third).has_value());
  }

  // A hot source with no healthy peer to receive: nothing moves.
  RebalanceController cornered(enabled_rebalance(), 3);
  const auto hot = skewed_loads(9.0, 1.0, 2.0);
  const std::vector<PeerHealth> no_target = {
      PeerHealth::kHealthy, PeerHealth::kDead, PeerHealth::kDegraded};
  for (int window = 0; window < 10; ++window) {
    EXPECT_FALSE(cornered.observe_window(hot, no_target).has_value());
  }
}

// --------------------------------------------------------- handoff frame

HandoffInfo sample_handoff() {
  return {.phase = HandoffPhase::kJournal,
          .session_id = 0xFEEDFACECAFEULL,
          .epoch = 7,
          .stream_id = 3,
          .source_gateway = 1,
          .target_gateway = 2,
          .watermark = 100161};
}

TEST(HandoffFrameTest, RoundTripPreservesEveryField) {
  const HandoffInfo info = sample_handoff();
  const Message m = handoff_frame(info, /*handoff_sequence=*/42);
  EXPECT_EQ(m.body.size(), kHandoffBodySize);
  MessageDecoder decoder;
  decoder.feed(encode_message(m));
  auto decoded = decoder.next();
  ASSERT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().kind, MessageKind::kHandoff);
  EXPECT_EQ(decoded.value().sequence, 42U);
  auto parsed = parse_handoff_body(
      ByteSpan(decoded.value().body.data(), decoded.value().body.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), info);
}

TEST(HandoffFrameTest, EveryPhaseRoundTrips) {
  for (const auto phase : {HandoffPhase::kPrepare, HandoffPhase::kJournal,
                           HandoffPhase::kCommit, HandoffPhase::kAck,
                           HandoffPhase::kAbort}) {
    HandoffInfo info = sample_handoff();
    info.phase = phase;
    const Message m = handoff_frame(info);
    auto parsed = parse_handoff_body(ByteSpan(m.body.data(), m.body.size()));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().phase, phase);
  }
}

TEST(HandoffFrameTest, ForgedPhaseRejected) {
  Message m = handoff_frame(sample_handoff());
  store_le32(m.body.data(), 0);  // phase below the valid range
  EXPECT_EQ(parse_handoff_body(ByteSpan(m.body.data(), m.body.size()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  store_le32(m.body.data(), 6);  // phase past kAbort
  EXPECT_EQ(parse_handoff_body(ByteSpan(m.body.data(), m.body.size()))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(HandoffFrameTest, WrongBodyLengthRejected) {
  const Message m = handoff_frame(sample_handoff());
  EXPECT_EQ(
      parse_handoff_body(ByteSpan(m.body.data(), m.body.size() - 1)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(HandoffFrameTest, TruncatedFrameRejectedByDecoder) {
  // A handoff header whose declared body is shorter than kHandoffBodySize is
  // corruption at the decoder layer, before parse_handoff_body ever runs.
  Message m = handoff_frame(sample_handoff());
  m.body.resize(kHandoffBodySize / 2);
  MessageDecoder decoder;
  decoder.feed(encode_message(m));
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

TEST(HandoffFrameTest, ConflictingFlagsRejected) {
  Bytes wire = encode_message(handoff_frame(sample_handoff()));
  wire[16] |= kMessageFlagCredit;  // HANDOFF cannot also be a credit grant
  MessageDecoder decoder;
  decoder.feed(wire);
  EXPECT_EQ(decoder.next().status().code(), StatusCode::kDataLoss);
}

// ------------------------------------------------------ handoff protocol

/// Routes the source's HANDOFF frames straight into a HandoffTarget — the
/// in-process stand-in for the gateway-to-gateway control link. Can be told
/// to kill the link after N exchanges (the target "dies" mid-handoff).
class HandoffLink final : public PeerLink {
 public:
  explicit HandoffLink(HandoffTarget& target) : target_(target) {}

  void die_after(int exchanges) { die_after_ = exchanges; }

  Result<Message> exchange(const Message& frame) override {
    if (die_after_ >= 0 && exchanges_ >= die_after_) {
      ++exchanges_;
      return unavailable_error("handoff link: peer is gone");
    }
    ++exchanges_;
    return target_.handle(frame);
  }

 private:
  HandoffTarget& target_;
  int exchanges_ = 0;
  int die_after_ = -1;
};

TEST(HandoffProtocolTest, ThreePhaseHappyPathPromotesTheStandby) {
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  HandoffTarget target(standby, kSession, /*self=*/1, &fed);
  HandoffLink link(target);
  HandoffSource source(link, kSession, &fed);

  std::vector<std::string> order;
  std::uint64_t fenced_epoch = 0;
  HandoffSource::Hooks hooks;
  hooks.freeze_and_drain = [&] {
    order.push_back("freeze");
    return Status::ok();
  };
  hooks.flush_and_replicate = [&] {
    order.push_back("flush");
    return Status::ok();
  };
  hooks.fenced = [&](std::uint64_t epoch) {
    order.push_back("fenced");
    fenced_epoch = epoch;
  };

  const std::uint64_t old_epoch = standby.epoch();
  const Status done = source.run(/*stream_id=*/3, /*source=*/0, /*target=*/1,
                                 old_epoch, /*watermark=*/128, hooks);
  ASSERT_TRUE(done.is_ok()) << done.to_string();

  // The local work ran in protocol order, the commit promoted the standby,
  // and the fence handed the source the target's new epoch.
  EXPECT_EQ(order, (std::vector<std::string>{"freeze", "flush", "fenced"}));
  EXPECT_TRUE(target.committed());
  EXPECT_EQ(target.committed_watermark(), 128U);
  EXPECT_GT(standby.epoch(), old_epoch);
  EXPECT_EQ(fenced_epoch, standby.epoch());

  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_EQ(snapshot.handoffs_planned, 1U);
  EXPECT_EQ(snapshot.handoffs_completed, 1U);
  EXPECT_EQ(snapshot.handoff_streams_moved, 1U);
  EXPECT_EQ(snapshot.handoffs_aborted, 0U);
}

TEST(HandoffProtocolTest, TargetRejectsProtocolViolations) {
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  HandoffTarget target(standby, kSession, /*self=*/1);

  const std::uint64_t epoch_before = standby.epoch();
  HandoffInfo info;
  info.session_id = kSession;
  info.stream_id = 3;
  info.target_gateway = 1;

  // JOURNAL and COMMIT without the preceding phase are rejected.
  info.phase = HandoffPhase::kJournal;
  EXPECT_FALSE(target.handle(handoff_frame(info)).ok());
  info.phase = HandoffPhase::kCommit;
  EXPECT_FALSE(target.handle(handoff_frame(info)).ok());

  // Wrong session and wrong addressee are protocol violations too.
  info.phase = HandoffPhase::kPrepare;
  info.session_id = kSession + 1;
  EXPECT_FALSE(target.handle(handoff_frame(info)).ok());
  info.session_id = kSession;
  info.target_gateway = 2;
  EXPECT_FALSE(target.handle(handoff_frame(info)).ok());

  // Nothing of the above moved ownership.
  EXPECT_FALSE(target.committed());
  EXPECT_EQ(standby.epoch(), epoch_before);
}

TEST(HandoffProtocolTest, FreshPrepareSupersedesAStaleHandoff) {
  MemoryJournalMedia replica;
  StandbySession standby(replica, kSession);
  HandoffTarget target(standby, kSession, /*self=*/1);

  HandoffInfo stale;
  stale.session_id = kSession;
  stale.stream_id = 3;
  stale.target_gateway = 1;
  stale.phase = HandoffPhase::kPrepare;
  ASSERT_TRUE(target.handle(handoff_frame(stale)).ok());

  // The source died and came back with a new handoff for another stream:
  // the fresh PREPARE wins, and the old stream's JOURNAL is now stale.
  HandoffInfo fresh = stale;
  fresh.stream_id = 5;
  fresh.watermark = 64;
  ASSERT_TRUE(target.handle(handoff_frame(fresh)).ok());
  HandoffInfo stale_journal = stale;
  stale_journal.phase = HandoffPhase::kJournal;
  EXPECT_FALSE(target.handle(handoff_frame(stale_journal)).ok());

  HandoffInfo fresh_journal = fresh;
  fresh_journal.phase = HandoffPhase::kJournal;
  ASSERT_TRUE(target.handle(handoff_frame(fresh_journal)).ok());
  HandoffInfo commit = fresh;
  commit.phase = HandoffPhase::kCommit;
  ASSERT_TRUE(target.handle(handoff_frame(commit)).ok());
  EXPECT_TRUE(target.committed());
  EXPECT_EQ(target.committed_watermark(), 64U);
}

// ------------------------------------------------------ mid-handoff chaos

// The composition the design promises: a target death after the journal
// shipped but before ownership transferred leaves the source the owner,
// and the cluster falls back to plain crash-failover rules — no window
// with two owners, none with zero.
TEST(ChaosHandoffTest, TargetDeathBeforeCommitFallsBackToCrashFailover) {
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  HandoffTarget target(standby, kSession, /*self=*/1, &fed);
  HandoffLink link(target);
  // PREPARE and JOURNAL exchange fine; the target dies before COMMIT.
  link.die_after(2);
  HandoffSource source(link, kSession, &fed);

  bool fenced = false;
  HandoffSource::Hooks hooks;
  hooks.fenced = [&](std::uint64_t) { fenced = true; };

  const std::uint64_t old_epoch = standby.epoch();
  const Status done = source.run(/*stream_id=*/3, /*source=*/0, /*target=*/1,
                                 old_epoch, /*watermark=*/128, hooks);
  ASSERT_FALSE(done.is_ok());

  // Ownership never moved: the source was not fenced, the standby was not
  // promoted, and the abort is on the ledger.
  EXPECT_FALSE(fenced);
  EXPECT_FALSE(target.committed());
  EXPECT_EQ(standby.epoch(), old_epoch);
  const FederationCountersSnapshot snapshot = fed.snapshot();
  EXPECT_EQ(snapshot.handoffs_planned, 1U);
  EXPECT_EQ(snapshot.handoffs_completed, 0U);
  EXPECT_GE(snapshot.handoffs_aborted, 1U);

  // The coordinator's view composes the same way: no handoff was noted, so
  // the stream resolves by the ring; the dead target then takes the normal
  // crash-failover path.
  const GatewayRing ring(2, 16);
  FailoverCoordinator on_source(ring, /*self=*/0, &fed);
  std::uint32_t stream = 0;
  while (ring.primary(stream) != 0) {
    ++stream;
  }
  auto where = on_source.resolve(stream);
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(where.value(), 0U);
  const auto adopted = on_source.plan_takeover(/*victim=*/1, {stream});
  EXPECT_TRUE(adopted.empty()) << "the stream never left the source";
  auto still = on_source.resolve(stream);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.value(), 0U);
}

TEST(ChaosHandoffTest, CommitAckMustAdvanceTheEpochFence) {
  // A target that acks COMMIT without promoting (a broken or byzantine
  // standby) must not fence the source: echoing the old epoch is treated
  // as data loss and aborts the handoff.
  class EchoingLink final : public PeerLink {
   public:
    Result<Message> exchange(const Message& frame) override {
      auto parsed = parse_handoff_body(
          ByteSpan(frame.body.data(), frame.body.size()));
      if (!parsed.ok()) {
        return parsed.status();
      }
      HandoffInfo ack = parsed.value();
      if (ack.phase == HandoffPhase::kAbort) {
        ++aborts_seen_;
      }
      ack.phase = HandoffPhase::kAck;  // note: epoch echoed, never advanced
      return handoff_frame(ack, frame.sequence);
    }
    int aborts_seen_ = 0;
  };

  EchoingLink link;
  FederationCounters fed;
  HandoffSource source(link, kSession, &fed);
  bool fenced = false;
  HandoffSource::Hooks hooks;
  hooks.fenced = [&](std::uint64_t) { fenced = true; };
  const Status done = source.run(3, 0, 1, /*epoch=*/7, 128, hooks);
  ASSERT_FALSE(done.is_ok());
  EXPECT_EQ(done.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(fenced);
  EXPECT_EQ(link.aborts_seen_, 1);
  EXPECT_EQ(fed.snapshot().handoffs_aborted, 1U);
}

TEST(ChaosHandoffTest, ForgedHighEpochCannotStealTheFence) {
  // A source that forges an epoch above anything the standby will actually
  // grant must not walk away believing it was fenced: the COMMIT promotion
  // yields a genuine epoch below the forged claim, the advance check
  // rejects it as data loss, and the fenced hook never fires — a forged
  // number buys an abort, not an ownership transfer.
  MemoryJournalMedia replica;
  FederationCounters fed;
  StandbySession standby(replica, kSession, &fed);
  HandoffTarget target(standby, kSession, /*self=*/1, &fed);
  HandoffLink link(target);
  HandoffSource source(link, kSession, &fed);

  bool fenced = false;
  HandoffSource::Hooks hooks;
  hooks.fenced = [&](std::uint64_t) { fenced = true; };
  const Status done = source.run(/*stream_id=*/3, /*source=*/0, /*target=*/1,
                                 /*epoch=*/9001, /*watermark=*/64, hooks);
  ASSERT_FALSE(done.is_ok());
  EXPECT_EQ(done.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(fenced);
  EXPECT_LT(standby.epoch(), 9001U);
  // Source and target share the counters here, and each side counts the
  // abort it saw: the source's decision and the target's ABORT frame.
  EXPECT_EQ(fed.snapshot().handoffs_aborted, 2U);
}

// The coordinator's pin: a committed handoff overrides the ring while the
// new owner lives, and degrades to the ring answer the moment it dies.
TEST(ChaosHandoffTest, HandoffPinFallsBackToTheRingWhenTheOwnerDies) {
  const GatewayRing ring(2, 16);
  FederationCounters fed;
  FailoverCoordinator coordinator(ring, /*self=*/0, &fed);
  std::uint32_t stream = 0;
  while (ring.primary(stream) != 0) {
    ++stream;
  }

  const std::uint64_t epoch = coordinator.note_handoff(stream, /*target=*/1);
  EXPECT_EQ(epoch, 2U);
  auto moved = coordinator.resolve(stream);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 1U);

  // The new owner dies: the pin is void, the ring answer (the original
  // primary) takes back over — exactly the crash-failover fallback.
  coordinator.mark_dead(1);
  auto back = coordinator.resolve(stream);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), 0U);
}

// ------------------------------------------------------------- simulation

using simrt::ExperimentOptions;
using simrt::ExperimentResult;
using simrt::run_plan;

/// Runs a generated plan whose configs all set `credit_window`.
Result<ExperimentResult> run_sim(const ExperimentOptions& options,
                                 int num_streams = 2,
                                 std::size_t credit_window = 0) {
  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders(
      static_cast<std::size_t>(num_streams), updraft_topology());
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec workload;
  workload.num_streams = num_streams;
  auto plan = generator.generate(workload, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation must succeed");
  for (NodeConfig& sender : plan.value().senders) {
    sender.overload.credit_window = credit_window;
  }
  plan.value().receiver.overload.credit_window = credit_window;
  return run_plan(senders, lynx, plan.value(), options);
}

ExperimentOptions clustered_options() {
  ExperimentOptions options;
  options.chunks_per_stream = 120;
  options.resume = true;
  options.cluster.gateways = 2;
  options.cluster.self = 0;
  options.cluster.miss_windows = 2;
  return options;
}

TEST(SimRebalanceTest, RebalanceRequiresACluster) {
  ExperimentOptions options;
  options.chunks_per_stream = 30;
  options.resume = true;
  options.rebalance.window_ms = 10;
  EXPECT_FALSE(run_sim(options).ok());
}

// The driver checks the rebalance ranges: NaN would make `hottest > ratio *
// mean` never true, so rebalancing would silently never fire, and inf is no
// ratio at all.
TEST(SimRebalanceTest, NonFiniteImbalanceRatioIsRejected) {
  for (const double ratio : {std::nan(""), HUGE_VAL, 0.5}) {
    ExperimentOptions options = clustered_options();
    options.rebalance.window_ms = 10;
    options.rebalance.imbalance_ratio = ratio;
    const auto result = run_sim(options);
    ASSERT_FALSE(result.ok()) << "imbalance_ratio " << ratio;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(SimRebalanceTest, DegradeEventsAreValidated) {
  ExperimentOptions no_cluster;
  no_cluster.chunks_per_stream = 30;
  no_cluster.resume = true;
  no_cluster.gateway_degrades = {{.gateway = 0, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim(no_cluster).ok());

  ExperimentOptions bad_factor = clustered_options();
  bad_factor.gateway_degrades = {
      {.gateway = 0, .at_seconds = 0.001, .slow_factor = 1.5}};
  EXPECT_FALSE(run_sim(bad_factor).ok());

  ExperimentOptions bad_member = clustered_options();
  bad_member.gateway_degrades = {{.gateway = 5, .at_seconds = 0.001}};
  EXPECT_FALSE(run_sim(bad_member).ok());

  ExperimentOptions bad_span = clustered_options();
  bad_span.gateway_degrades = {
      {.gateway = 0, .at_seconds = 0.002, .until_seconds = 0.001}};
  EXPECT_FALSE(run_sim(bad_span).ok());

  for (const double bad : {std::nan(""), HUGE_VAL}) {
    ExperimentOptions bad_time = clustered_options();
    bad_time.gateway_degrades = {{.gateway = 0, .at_seconds = bad}};
    EXPECT_EQ(run_sim(bad_time).status().code(), StatusCode::kInvalidArgument);

    ExperimentOptions bad_until = clustered_options();
    bad_until.gateway_degrades = {
        {.gateway = 0, .at_seconds = 0.001, .until_seconds = bad}};
    EXPECT_EQ(run_sim(bad_until).status().code(), StatusCode::kInvalidArgument);

    ExperimentOptions bad_slow = clustered_options();
    bad_slow.gateway_degrades = {
        {.gateway = 0, .at_seconds = 0.001, .slow_factor = bad}};
    EXPECT_EQ(run_sim(bad_slow).status().code(), StatusCode::kInvalidArgument);

    ExperimentOptions bad_handoff = clustered_options();
    bad_handoff.rebalance.window_ms = 10;
    bad_handoff.handoff_seconds = bad;
    EXPECT_EQ(run_sim(bad_handoff).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RebalanceConfigTest, ValidationBoundaries) {
  ExperimentOptions ok = clustered_options();
  ok.chunks_per_stream = 30;
  ok.rebalance.window_ms = 100;
  EXPECT_TRUE(run_sim(ok).ok()) << run_sim(ok).status().to_string();

  // Any knob moved without a window is half-configured, not off.
  ExperimentOptions no_window = ok;
  no_window.rebalance.window_ms = 0;
  no_window.rebalance.imbalance_ratio = 2.0;
  EXPECT_FALSE(run_sim(no_window).ok());

  ExperimentOptions bad_ratio = ok;
  bad_ratio.rebalance.imbalance_ratio = 1.0;  // threshold at the mean
  EXPECT_FALSE(run_sim(bad_ratio).ok());

  ExperimentOptions no_hysteresis = ok;
  no_hysteresis.rebalance.hysteresis_windows = 0;
  EXPECT_FALSE(run_sim(no_hysteresis).ok());

  ExperimentOptions no_cooldown = ok;
  no_cooldown.rebalance.cooldown_windows = 0;
  EXPECT_FALSE(run_sim(no_cooldown).ok());

  ExperimentOptions no_slots = ok;
  no_slots.rebalance.max_concurrent = 0;
  EXPECT_FALSE(run_sim(no_slots).ok());

  // Rebalancing moves streams between gateways: it needs a cluster.
  ExperimentOptions no_cluster = ok;
  no_cluster.cluster = ClusterConfig{};
  EXPECT_FALSE(run_sim(no_cluster).ok());

  ExperimentOptions nan_ratio = ok;
  nan_ratio.rebalance.imbalance_ratio = std::nan("");
  EXPECT_FALSE(run_sim(nan_ratio).ok());
}

TEST(SimRebalanceTest, SeededGrayDrainIsBitIdenticalWithZeroReplay) {
  // Probe the failure-free clustered run for its span, then scale the
  // heartbeat so detection and rebalancing land well inside the transfer.
  ExperimentOptions options = clustered_options();
  auto probe = run_sim(options);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const double elapsed = probe.value().elapsed_seconds;
  ASSERT_GT(elapsed, 0);
  options.cluster.heartbeat_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(elapsed * 1000.0 / 60.0)));

  const GatewayRing ring(options.cluster.gateways, options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  options.gateway_degrades = {
      {.gateway = victim, .at_seconds = elapsed / 3, .slow_factor = 0.25}};
  options.rebalance.window_ms = options.cluster.heartbeat_ms;
  options.rebalance.hysteresis_windows = 2;
  options.rebalance.cooldown_windows = 5;
  options.handoff_seconds = elapsed / 100;

  auto first = run_sim(options);
  auto second = run_sim(options);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();

  // The fingerprint: same seeded schedule, bit-identical ledgers.
  EXPECT_TRUE(first.value().federation == second.value().federation)
      << first.value().federation.to_string() << " vs "
      << second.value().federation.to_string();
  EXPECT_TRUE(first.value().resume == second.value().resume);
  EXPECT_EQ(first.value().stream_gateways, second.value().stream_gateways);

  // The gray failure was detected as degraded, never as a death, and the
  // drain was a planned handoff: zero replays, zero crash failovers.
  const FederationCountersSnapshot& fed = first.value().federation;
  EXPECT_GE(fed.degraded_peers_detected, 1U);
  EXPECT_EQ(fed.peer_failures_detected, 0U);
  EXPECT_EQ(fed.failovers, 0U);
  EXPECT_GE(fed.rebalance_triggers, 1U);
  EXPECT_EQ(fed.handoffs_planned, fed.handoffs_completed);
  EXPECT_GE(fed.handoffs_completed, 1U);
  EXPECT_EQ(fed.handoffs_aborted, 0U);
  EXPECT_GE(fed.epoch, 2U);
  EXPECT_EQ(first.value().resume.replayed_chunks, 0U);
  EXPECT_EQ(first.value().resume.rework_bytes, 0U);

  // Exactly-once delivery held across the move, and the degraded gateway
  // ended the run drained.
  for (const auto& stream : first.value().streams) {
    EXPECT_EQ(stream.chunks, options.chunks_per_stream);
  }
  std::uint64_t still_on_victim = 0;
  for (const std::uint32_t gateway : first.value().stream_gateways) {
    still_on_victim += gateway == victim ? 1 : 0;
  }
  std::uint64_t originally_on_victim = 0;
  for (std::uint32_t stream = 0; stream < 2; ++stream) {
    originally_on_victim += ring.primary(stream) == victim ? 1 : 0;
  }
  EXPECT_LT(still_on_victim, originally_on_victim);
}

TEST(SimRebalanceTest, NewOwnerCrashAfterHandoffFallsBackToCrashFailover) {
  // The full chaos composition on the simulated cluster: a gray failure
  // triggers a planned handoff, then the gateway that *adopted* the stream
  // dies — the pin is void, crash failover takes over, and exactly-once
  // holds across both mechanisms. The overload protections stay on so the
  // run also proves the budget/credit ledgers settle (a leaked token would
  // deadlock the pipeline, a negative one would overrun the budget).
  ExperimentOptions options = clustered_options();
  auto probe = run_sim(options);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const double elapsed = probe.value().elapsed_seconds;
  options.cluster.heartbeat_ms = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(elapsed * 1000.0 / 60.0)));

  const GatewayRing ring(options.cluster.gateways, options.cluster.vnodes);
  const std::uint32_t victim = ring.primary(0);
  const std::uint32_t adopter = 1 - victim;  // two-gateway ring
  options.gateway_degrades = {
      {.gateway = victim, .at_seconds = elapsed / 4, .slow_factor = 0.25}};
  options.rebalance.window_ms = options.cluster.heartbeat_ms;
  options.rebalance.hysteresis_windows = 2;
  options.rebalance.cooldown_windows = 5;
  options.handoff_seconds = elapsed / 100;
  options.gateway_crashes = {{.gateway = adopter,
                              .at_seconds = 2 * elapsed / 3,
                              .failover_seconds = elapsed / 10}};
  // Credit window 6 on every config; queue_capacity stays at its default 8.
  auto first = run_sim(options, 2, 6);
  auto second = run_sim(options, 2, 6);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_TRUE(first.value().federation == second.value().federation)
      << first.value().federation.to_string() << " vs "
      << second.value().federation.to_string();
  EXPECT_TRUE(first.value().resume == second.value().resume);

  // Both mechanisms fired once each, in order: planned drain, then death.
  const FederationCountersSnapshot& fed = first.value().federation;
  EXPECT_GE(fed.handoffs_completed, 1U);
  EXPECT_EQ(fed.peer_failures_detected, 1U);
  EXPECT_EQ(fed.failovers, 1U);
  EXPECT_GE(fed.epoch, 3U);  // one bump per handoff + one for the death

  // Exactly-once across the union of handoff and failover: every chunk
  // delivered exactly once, the crash replays charged to the ledger.
  for (const auto& stream : first.value().streams) {
    EXPECT_EQ(stream.chunks, options.chunks_per_stream);
  }
  // Everything ends on the survivor — the degraded-but-alive gateway.
  for (const std::uint32_t gateway : first.value().stream_gateways) {
    EXPECT_EQ(gateway, victim);
  }
}

}  // namespace
}  // namespace numastream
