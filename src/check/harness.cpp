#include "check/harness.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/kv.h"

namespace numastream {
namespace check {
namespace {

/// Notional bytes one chunk charges against the overload budget.
constexpr std::uint64_t kChunkCost = 1024;
/// Budget headroom: enough for a burst, small enough that overload events
/// can actually shed.
constexpr std::uint64_t kBudgetCap = kChunkCost * 64;

ClusterConfig harness_cluster_config() {
  ClusterConfig config;
  config.gateways = 2;
  config.self = 0;
  config.miss_windows = 3;
  return config;
}

ScrubConfig harness_scrub_config() {
  ScrubConfig config;
  config.cadence_ms = 1;
  // One range spans the whole journal (episodes stay far below 4096
  // records). Repair is therefore atomic: the only thing a push or pull
  // can install is an entire verified journal, and since every acked
  // record is durable on BOTH sides before its ack, any whole-journal
  // replacement preserves the acked set. Smaller ranges would let a
  // positionally divergent pair (duplicate standby applies after a lost
  // ack shift the layouts) erase an acked record from one range while it
  // lives in another.
  config.range_records = 4096;
  config.budget_records = 4096;
  config.repair_concurrency = 8;
  return config;
}

/// A request/reply link (REPL, SCRUB or HANDOFF) under the harness's
/// directed cuts. The directed cuts split into two failures that a
/// symmetric fault cannot tell apart:
///
///   forward cut  (from → to severed): the request never arrives. The peer
///                sees silence, the caller sees UNAVAILABLE, and the peer's
///                journal did NOT change.
///   reverse cut  (to → from severed): the request arrives and the peer
///                applies it durably, but the ack dies on the return path.
///                The caller sees the same UNAVAILABLE, yet the peer now
///                holds records the caller believes unreplicated.
///
/// The second case is where replicated systems actually break: the primary
/// retries the flush into a duplicated range (anti-entropy's job to
/// converge), or gives up and fails over while the standby is *ahead* of
/// the acked watermark (which the standby-superset invariant must tolerate,
/// and does — superset, not equality).
class CutLink final : public cluster::PeerLink {
 public:
  CutLink(cluster::PeerLink& inner, const LinkCuts& cuts, std::uint32_t from,
          std::uint32_t to)
      : inner_(inner), cuts_(cuts), from_(from), to_(to) {}

  Result<Message> exchange(const Message& frame) override {
    if (cuts_.cut(from_, to_)) {
      count(&ChaosCounters::frames_dropped, cuts_.counters());
      return unavailable_error("harness: link " + std::to_string(from_) +
                               "->" + std::to_string(to_) + " partitioned");
    }
    auto reply = inner_.exchange(frame);
    if (!reply.ok()) {
      return reply;
    }
    if (cuts_.cut(to_, from_)) {
      // The caller must treat the work as NOT done even though the peer
      // holds it; retries then diverge the replicas until scrubbing
      // converges them.
      count(&ChaosCounters::acks_dropped, cuts_.counters());
      return unavailable_error("harness: ack lost on link " +
                               std::to_string(to_) + "->" +
                               std::to_string(from_) + " (one-way partition)");
    }
    return reply;
  }

 private:
  cluster::PeerLink& inner_;
  const LinkCuts& cuts_;
  const std::uint32_t from_;
  const std::uint32_t to_;
};

}  // namespace

std::string serialize_options(const ChaosHarnessOptions& options) {
  return "options seed=" + std::to_string(options.seed) +
         " streams=" + std::to_string(options.streams) +
         " plant_fencing_bug=" + (options.plant_fencing_bug ? "on" : "off");
}

Result<ChaosHarnessOptions> parse_options(const std::string& line) {
  const auto words = split_words(line);
  if (words.empty() || words.front() != "options") {
    return invalid_argument_error("options line must start with 'options'");
  }
  std::optional<std::uint64_t> seed;
  std::optional<std::uint32_t> streams;
  std::optional<bool> plant_fencing_bug;
  for (std::size_t i = 1; i < words.size(); ++i) {
    const auto attribute = split_key_value(words[i]);
    if (!attribute) {
      return invalid_argument_error("options: malformed attribute '" +
                                    std::string(words[i]) + "'");
    }
    const auto [key, value] = *attribute;
    bool read = false;
    if (key == "seed") {
      seed = parse_integer<std::uint64_t>(value);
      read = seed.has_value();
    } else if (key == "streams") {
      streams = parse_integer<std::uint32_t>(value);
      read = streams.has_value();
    } else if (key == "plant_fencing_bug") {
      plant_fencing_bug = value == "on";
      read = value == "on" || value == "off";
    } else {
      return invalid_argument_error("options: unknown attribute '" +
                                    std::string(key) + "'");
    }
    if (!read) {
      return invalid_argument_error("options: bad value for " +
                                    std::string(key) + ": '" +
                                    std::string(value) + "'");
    }
  }
  if (!seed || !streams || !plant_fencing_bug) {
    return invalid_argument_error(
        "options: seed=, streams=, plant_fencing_bug= are all required");
  }
  return ChaosHarnessOptions{.seed = *seed,
                             .streams = *streams,
                             .plant_fencing_bug = *plant_fencing_bug};
}

ChaosHarness::ChaosHarness(const ChaosHarnessOptions& options,
                           InvariantMonitor& monitor, ChaosCounters* counters)
    : options_(options),
      monitor_(monitor),
      counters_(counters),
      cuts_(2, counters),
      rng_(options.seed ^ 0xC4A05E75ULL),
      scrub_config_(harness_scrub_config()),
      cluster_config_(harness_cluster_config()),
      detector_(cluster_config_, &fed_),
      budget_(kBudgetCap) {
  for (std::uint32_t g = 0; g < 2; ++g) {
    gateways_[g].standby = std::make_unique<cluster::StandbySession>(
        gateways_[g].media, kSession, &fed_);
    gateways_[g].scrub_server = std::make_unique<cluster::ScrubServer>(
        gateways_[g].media, kSession, scrub_config_.range_records,
        &scrub_counters_);
    peer_watch_[g] = detector_.track("gateway-" + std::to_string(1 - g));
    // Seed the detector baseline: a few nominal windows, as the live
    // monitor loop would have accumulated before any trouble.
    for (int window = 0; window < 4; ++window) {
      detector_.observe(peer_watch_[g], 1.0);
    }
  }
  gateways_[0].believes_owner = true;
  gateways_[0].epoch = 1;
  monitor_.on_epoch(kSession, 1);
}

int ChaosHarness::acting_owner() const {
  int owner = -1;
  std::uint64_t best_epoch = 0;
  for (int g = 0; g < 2; ++g) {
    const Gateway& gateway = gateways_[g];
    if (gateway.alive && gateway.believes_owner && !gateway.fenced &&
        gateway.epoch >= best_epoch) {
      owner = g;
      best_epoch = gateway.epoch;
    }
  }
  return owner;
}

std::uint64_t ChaosHarness::committed(std::uint32_t stream_id) const {
  return monitor_.acked_frontier(stream_id);
}

std::uint64_t ChaosHarness::recovered_watermark(std::uint32_t g,
                                                std::uint32_t stream_id) {
  auto bytes = gateways_[g].media.read_all();
  if (!bytes.ok()) {
    return 0;
  }
  const JournalScan scan = scan_journal(
      ByteSpan(bytes.value().data(), bytes.value().size()));
  // Resume past the highest journaled delivery. The journal may hold
  // sequences that were never acked (the standby applied a frame whose ack
  // died on the wire), so max+1 can skip a number — a gap in the numbering,
  // never a re-ack of something committed, which is the unsafe direction.
  std::uint64_t watermark = 0;
  for (const JournalRecord& record : scan.records) {
    if (record.type == JournalRecordType::kDelivered &&
        record.stream_id == stream_id) {
      watermark = std::max(watermark, record.sequence + 1);
    }
  }
  return watermark;
}

bool ChaosHarness::journal_intact(std::uint32_t g) {
  auto bytes = gateways_[g % 2].media.read_all();
  if (!bytes.ok()) {
    return false;
  }
  const JournalScan scan = scan_journal(
      ByteSpan(bytes.value().data(), bytes.value().size()));
  return scan.torn_records == 0 &&
         scan.trusted_bytes == bytes.value().size();
}

Status ChaosHarness::ensure_replicator(std::uint32_t g) {
  Gateway& gateway = gateways_[g];
  const std::uint32_t peer = 1 - g;
  if (!gateways_[peer].alive) {
    return unavailable_error("harness: buddy gateway " + std::to_string(peer) +
                             " is dead; synchronous replication blocks");
  }
  if (gateway.replicator != nullptr) {
    return Status::ok();
  }
  gateway.link = std::make_unique<cluster::InprocPeerLink>(*gateways_[peer].standby);
  gateway.chaos_link = std::make_unique<CutLink>(*gateway.link, cuts_, g, peer);
  gateway.replicator = std::make_unique<cluster::PrimaryReplicator>(
      *gateway.chaos_link, kSession, gateway.epoch, &fed_);
  const Status hello = gateway.replicator->hello();
  if (hello.code() == StatusCode::kDataLoss && !options_.plant_fencing_bug) {
    // The hello itself reported the fence: a newer epoch exists.
    gateway.fenced = true;
    gateway.believes_owner = false;
    gateway.replicator.reset();
    return hello;
  }
  if (!hello.is_ok() && hello.code() != StatusCode::kDataLoss) {
    // Partitioned before the session even opened; retry next time.
    gateway.replicator.reset();
    gateway.chaos_link.reset();
    gateway.link.reset();
    return hello;
  }
  return Status::ok();
}

Status ChaosHarness::deliver_one(std::uint32_t g, std::uint32_t stream_id) {
  Gateway& gateway = gateways_[g];
  const std::uint32_t peer = 1 - g;
  Status ready = ensure_replicator(g);
  if (!ready.is_ok() &&
      !(ready.code() == StatusCode::kDataLoss && options_.plant_fencing_bug)) {
    return ready;
  }
  if (!gateways_[peer].alive) {
    return unavailable_error("harness: buddy died mid-session");
  }
  const std::uint64_t sequence = gateway.next_seq[stream_id];
  JournalRecord record;
  record.type = JournalRecordType::kDelivered;
  record.stream_id = stream_id;
  record.sequence = sequence;
  record.offset = sequence;
  const Bytes bytes = encode_journal_record(record);
  // Buddy first, local second, client ack last. A ship that fails — fence
  // or partition — must leave no local trace, or the journal stops being
  // the ledger of acked deliveries that crash recovery and the failover
  // watermark are rebuilt from.
  const Status shipped = gateway.replicator != nullptr
                             ? gateway.replicator->ship(bytes)
                             : data_loss_error("harness: fenced before hello");
  const auto commit_locally = [&]() -> Status {
    NS_RETURN_IF_ERROR(gateway.media.append(bytes));
    NS_RETURN_IF_ERROR(gateway.media.flush());
    monitor_.on_delivery(g, gateway.epoch, stream_id, sequence);
    gateway.next_seq[stream_id] = sequence + 1;
    return Status::ok();
  };
  if (shipped.is_ok()) {
    return commit_locally();
  }
  if (shipped.code() == StatusCode::kDataLoss) {
    if (options_.plant_fencing_bug) {
      // THE PLANTED BUG: the fence verdict says a newer epoch owns this
      // session, but this primary acks the client anyway. Split-brain:
      // the promoted side will commit the same sequences.
      return commit_locally();
    }
    gateway.fenced = true;
    gateway.believes_owner = false;
    gateway.replicator.reset();
    return shipped;
  }
  // UNAVAILABLE (partition, ack loss): the record may or may not be at the
  // buddy, but the client was never acked — retry the same sequence later.
  return shipped;
}

void ChaosHarness::deliver(const ChaosEvent& event) {
  const std::uint32_t stream_id = event.a % (options_.streams == 0
                                                 ? 1
                                                 : options_.streams);
  streams_used_.insert(stream_id);
  const std::uint64_t count = event.n == 0 ? 1 : event.n;
  for (std::uint32_t g = 0; g < 2; ++g) {
    if (!gateways_[g].alive || !gateways_[g].believes_owner ||
        gateways_[g].fenced) {
      continue;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!deliver_one(g, stream_id).is_ok()) {
        break;  // blocked or fenced; stop this gateway's burst
      }
    }
  }
}

void ChaosHarness::failover() {
  int successor = -1;
  for (int g = 0; g < 2; ++g) {
    // The coordinator health-checks a candidate's journal before handing
    // it the session: promoting a replica that cannot verify its own
    // bytes would replay holes. A damaged candidate stays a standby until
    // anti-entropy repairs it.
    if (gateways_[g].alive && !gateways_[g].believes_owner &&
        !gateways_[g].fenced && journal_intact(static_cast<std::uint32_t>(g))) {
      successor = g;
      break;
    }
  }
  if (successor < 0) {
    return;  // nobody eligible to take over
  }
  Gateway& gateway = gateways_[successor];
  // The takeover decision runs through the real detector: starve the
  // heartbeat channel for miss_windows consecutive windows.
  bool dead = false;
  for (int window = 0; window < cluster_config_.miss_windows + 1; ++window) {
    dead = detector_.observe(peer_watch_[successor], 0.0);
  }
  if (!dead) {
    return;
  }
  // Superset check first: what the buddy is about to replay must cover
  // everything the federation acked.
  auto journal = gateway.media.read_all();
  if (journal.ok()) {
    monitor_.on_promote(
        ByteSpan(journal.value().data(), journal.value().size()));
  }
  // The grant must exceed every epoch the config service ever handed out,
  // not just the highest this standby happened to hear: a standby that
  // never saw a frame from the current primary would otherwise promote
  // into a colliding epoch and the fence would not bite. promote() bumps
  // by one, so re-grant until the epoch clears the federation maximum.
  std::uint64_t epoch = gateway.standby->promote();
  while (epoch <= max_epoch_) {
    epoch = gateway.standby->promote();
  }
  max_epoch_ = epoch;
  while (gateway.scrub_server->epoch() < epoch) {
    gateway.scrub_server->promote();
  }
  monitor_.on_epoch(kSession, epoch);
  gateway.epoch = epoch;
  gateway.believes_owner = true;
  gateway.fenced = false;
  gateway.replicator.reset();
  gateway.chaos_link.reset();
  gateway.link.reset();
  for (const std::uint32_t stream_id : streams_used_) {
    const std::uint64_t watermark =
        recovered_watermark(static_cast<std::uint32_t>(successor), stream_id);
    monitor_.on_failover_watermark(stream_id, watermark);
    gateway.next_seq[stream_id] = watermark;
  }
}

void ChaosHarness::crash(std::uint32_t g) {
  Gateway& gateway = gateways_[g % 2];
  if (!gateway.alive) {
    return;
  }
  gateway.alive = false;
  gateway.media.crash();
  gateway.replicator.reset();
  gateway.chaos_link.reset();
  gateway.link.reset();
}

void ChaosHarness::restart(std::uint32_t g) {
  Gateway& gateway = gateways_[g % 2];
  if (gateway.alive) {
    return;
  }
  gateway.alive = true;
  // A restarted process rebuilds its in-memory state from the journal; its
  // ownership belief survives in its (stale) config view.
  for (const std::uint32_t stream_id : streams_used_) {
    gateway.next_seq[stream_id] = recovered_watermark(g % 2, stream_id);
  }
  if (!journal_intact(g % 2)) {
    // The journal failed verification (rot, torn tail): whatever this node
    // believed before the crash, it cannot back an ownership claim with
    // bytes it cannot trust. Rejoin as a standby and wait for anti-entropy
    // repair and a fresh promotion.
    gateway.believes_owner = false;
  }
}

void ChaosHarness::rot(std::uint64_t bits) {
  const int owner = acting_owner();
  if (owner < 0) {
    return;
  }
  Gateway& gateway = gateways_[owner];
  const std::size_t durable = gateway.media.durable_size();
  if (durable == 0) {
    return;
  }
  // Latent corruption on the owner's LOCAL journal: the replica is the
  // good copy, and anti-entropy's pull-repair is the cure. (Rotting the
  // replica while the owner lives is the scrub tests' territory; rotting
  // it and then killing the owner is unrecoverable by design — no system
  // restores data whose only clean copy died.)
  gateway.media.rot(rng_.next_u64(), 0, durable,
                    static_cast<int>(bits == 0 ? 1 : bits));
}

void ChaosHarness::scrub() {
  // Anti-entropy is symmetric: every live gateway scrubs its own journal
  // against its live buddy's server, whatever role it is playing — the
  // standby is exactly the node a rotted ex-owner needs repair from, and
  // pushes/pulls both re-verify checksums so a clean side is never
  // poisoned by a rotted one.
  for (std::uint32_t g = 0; g < 2; ++g) {
    const std::uint32_t peer = 1 - g;
    if (!gateways_[g].alive || !gateways_[peer].alive) {
      continue;
    }
    cluster::InprocPeerLink raw_link(*gateways_[peer].scrub_server);
    CutLink link(raw_link, cuts_, g, peer);
    // Scrub with the freshest epoch this gateway knows — as a standby that
    // is the epoch it adopted from the primary's frames, not the stale one
    // it last owned.
    const std::uint64_t epoch =
        std::max(gateways_[g].epoch, gateways_[g].standby->epoch());
    cluster::AntiEntropyScrubber scrubber(gateways_[g].media, link, kSession,
                                          scrub_config_, epoch,
                                          &scrub_counters_);
    (void)scrubber.run_round();  // a blocked or fenced round is legal weather
  }
}

void ChaosHarness::handoff(std::uint32_t stream_id) {
  const int owner = acting_owner();
  if (owner < 0) {
    return;
  }
  const std::uint32_t source = static_cast<std::uint32_t>(owner);
  const std::uint32_t target = 1 - source;
  if (!gateways_[target].alive || gateways_[target].believes_owner) {
    return;
  }
  stream_id = stream_id % (options_.streams == 0 ? 1 : options_.streams);
  streams_used_.insert(stream_id);
  cluster::HandoffTarget handoff_target(*gateways_[target].standby, kSession,
                                        target, &fed_);
  cluster::InprocPeerLink direct(handoff_target);
  CutLink link(direct, cuts_, source, target);
  cluster::HandoffSource handoff_source(link, kSession, &fed_);

  Gateway& src = gateways_[source];
  std::uint64_t fenced_epoch = 0;
  cluster::HandoffSource::Hooks hooks;
  hooks.freeze_and_drain = [] { return Status::ok(); };
  hooks.flush_and_replicate = [] {
    // Commits are already synchronous in this harness: every acked record
    // is at the buddy by the time we get here.
    return Status::ok();
  };
  hooks.fenced = [&fenced_epoch](std::uint64_t new_epoch) {
    fenced_epoch = new_epoch;
  };
  const Status done =
      handoff_source.run(stream_id, source, target, src.epoch,
                         src.next_seq[stream_id], hooks);
  if (!done.is_ok()) {
    // Aborted (partition, dead phase): ownership stays at the source. If
    // the COMMIT was applied but its ack died on a one-way cut, the
    // target's standby has been promoted and the source will be fenced on
    // its next ship — exactly the crash-failover fallback.
    return;
  }
  monitor_.on_epoch(kSession, fenced_epoch);
  max_epoch_ = std::max(max_epoch_, fenced_epoch);
  src.believes_owner = false;
  src.fenced = true;
  src.replicator.reset();
  src.chaos_link.reset();
  src.link.reset();
  Gateway& dst = gateways_[target];
  dst.believes_owner = true;
  dst.fenced = false;
  dst.epoch = fenced_epoch;
  dst.replicator.reset();
  // Planned handoff: the frozen source hands its live counters over, so
  // the target resumes every stream exactly where the source stopped.
  for (const auto& [moved_stream, next] : src.next_seq) {
    dst.next_seq[moved_stream] = next;
  }
}

void ChaosHarness::overload(const ChaosEvent& event) {
  const std::uint32_t stream_id =
      event.a % (options_.streams == 0 ? 1 : options_.streams);
  const std::uint64_t chunks = event.n == 0 ? 1 : event.n;
  if (!budget_.try_acquire(stream_id, chunks * kChunkCost).is_ok()) {
    return;  // shed the whole burst: over budget
  }
  credits_out_ += static_cast<std::int64_t>(chunks);
  ChaosEvent burst;
  burst.kind = ChaosEventKind::kDeliver;
  burst.a = stream_id;
  burst.n = chunks;
  deliver(burst);
  credits_out_ -= static_cast<std::int64_t>(chunks);
  budget_.release(stream_id, chunks * kChunkCost);
}

Status ChaosHarness::apply(const ChaosEvent& event) {
  if (counters_ != nullptr) {
    counters_->events_injected.fetch_add(1, std::memory_order_relaxed);
  }
  switch (event.kind) {
    case ChaosEventKind::kDeliver:
      deliver(event);
      break;
    case ChaosEventKind::kPartition:
      cuts_.partition(event.a % 2, (event.b % 2) == (event.a % 2)
                                       ? 1 - (event.a % 2)
                                       : event.b % 2);
      break;
    case ChaosEventKind::kPartitionOneWay: {
      const std::uint32_t from = event.a % 2;
      std::uint32_t to = event.b % 2;
      if (to == from) {
        to = 1 - from;
      }
      cuts_.partition_one_way(from, to);
      break;
    }
    case ChaosEventKind::kHeal:
      cuts_.heal_all();
      break;
    case ChaosEventKind::kCrash:
      crash(event.a);
      break;
    case ChaosEventKind::kFailover:
      failover();
      break;
    case ChaosEventKind::kRestart:
      restart(event.a);
      break;
    case ChaosEventKind::kRot:
      rot(event.n);
      break;
    case ChaosEventKind::kScrub:
      scrub();
      break;
    case ChaosEventKind::kHandoff:
      handoff(event.a);
      break;
    case ChaosEventKind::kOverload:
      overload(event);
      break;
    case ChaosEventKind::kDrain:
      monitor_.on_drain(budget_.used(), credits_out_);
      break;
  }
  return Status::ok();
}

void ChaosHarness::run(const ChaosSchedule& schedule) {
  for (const ChaosEvent& event : schedule) {
    (void)apply(event);
  }
}

}  // namespace check
}  // namespace numastream
