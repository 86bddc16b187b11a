// Chaos event schedules: the replayable unit of a chaos campaign
// (DESIGN.md §16).
//
// A chaos run is fully determined by (seed, schedule, options): the seed
// drives every harness and payload decision, the schedule is the ordered
// list of adversarial events, the options select the system under test. An
// episode that trips an invariant is therefore *reproducible by value* —
// serialize those three and any machine replays the identical violation.
// That is the contract the shrinker and tools/chaos_replay rest on, so the
// text form here must round-trip bit-identically: parse(serialize(s)) == s
// and serialize(parse(t)) == t for every schedule this module emits.
//
// Events are deliberately coarse (partition THIS pair, crash THE primary,
// deliver N chunks) rather than packet-level: the schedule space stays
// small enough for a random walk to cover compositions, and a shrunk
// schedule reads as an incident report a human can replay mentally.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace numastream {
namespace check {

/// One adversarial move. `a`, `b` and `n` are kind-specific operands
/// (gateway ids, stream ids, chunk counts); unused operands stay zero so
/// the text form is canonical.
enum class ChaosEventKind : std::uint8_t {
  kDeliver = 1,         ///< every self-believed owner delivers n chunks on stream a
  kPartition = 2,       ///< cut both directions between gateways a and b
  kPartitionOneWay = 3, ///< cut exactly a -> b; the reverse keeps flowing
  kHeal = 4,            ///< restore both directions between a and b
  kCrash = 5,           ///< gateway a dies; its unflushed journal tail is gone
  kFailover = 6,        ///< standby declares the owner dead and promotes
  kRestart = 7,         ///< gateway a comes back, stale beliefs intact
  kRot = 8,             ///< flip a seeded bit in the owner's durable journal
  kScrub = 9,           ///< one anti-entropy digest round owner -> buddy
  kHandoff = 10,        ///< three-phase planned handoff of stream a
  kOverload = 11,       ///< burst: charge n chunk budgets, deliver, release
  kDrain = 12,          ///< settle: assert budget and credits are back to zero
};

inline constexpr std::uint8_t kChaosEventKinds = 12;

[[nodiscard]] std::string to_string(ChaosEventKind kind);
[[nodiscard]] Result<ChaosEventKind> chaos_event_kind_from_string(
    const std::string& token);

struct ChaosEvent {
  ChaosEventKind kind = ChaosEventKind::kDeliver;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t n = 0;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ChaosEvent&, const ChaosEvent&) = default;
};

using ChaosSchedule = std::vector<ChaosEvent>;

/// One line per event: "event <kind> a=<u32> b=<u32> n=<u64>\n".
/// Canonical (operands always present, fixed order) so equal schedules
/// serialize to equal bytes.
[[nodiscard]] std::string serialize_schedule(const ChaosSchedule& schedule);

/// Inverse of serialize_schedule. INVALID_ARGUMENT on any malformed line;
/// a repro bundle is evidence, and evidence must not be guessed at.
[[nodiscard]] Result<ChaosSchedule> parse_schedule(const std::string& text);

/// Draws a random walk of `events` events over a two-gateway world with
/// `streams` streams. All operands are drawn from `rng`, so one seed pins
/// the whole walk. Deliver events dominate the mix — most of real life is
/// traffic, and invariants only bite when data actually flows between the
/// faults.
[[nodiscard]] ChaosSchedule random_schedule(Rng& rng, std::uint32_t events,
                                            std::uint32_t streams);

}  // namespace check
}  // namespace numastream
