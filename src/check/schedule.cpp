#include "check/schedule.h"

#include <optional>
#include <sstream>

#include "common/kv.h"

namespace numastream {
namespace check {
namespace {

constexpr EnumName<ChaosEventKind> kKindNames[] = {
    {ChaosEventKind::kDeliver, "deliver"},
    {ChaosEventKind::kPartition, "partition"},
    {ChaosEventKind::kPartitionOneWay, "partition_one_way"},
    {ChaosEventKind::kHeal, "heal"},
    {ChaosEventKind::kCrash, "crash"},
    {ChaosEventKind::kFailover, "failover"},
    {ChaosEventKind::kRestart, "restart"},
    {ChaosEventKind::kRot, "rot"},
    {ChaosEventKind::kScrub, "scrub"},
    {ChaosEventKind::kHandoff, "handoff"},
    {ChaosEventKind::kOverload, "overload"},
    {ChaosEventKind::kDrain, "drain"},
};

static_assert(sizeof(kKindNames) / sizeof(kKindNames[0]) == kChaosEventKinds,
              "every event kind needs a canonical name");

}  // namespace

std::string to_string(ChaosEventKind kind) {
  const char* name = enum_name(kKindNames, kind);
  return name != nullptr ? name : "unknown";
}

Result<ChaosEventKind> chaos_event_kind_from_string(const std::string& token) {
  if (const auto kind = enum_value<ChaosEventKind>(kKindNames, token)) {
    return *kind;
  }
  return invalid_argument_error("schedule: unknown event kind '" + token +
                                "'");
}

std::string ChaosEvent::to_string() const {
  return "event " + check::to_string(kind) + " a=" + std::to_string(a) +
         " b=" + std::to_string(b) + " n=" + std::to_string(n);
}

std::string serialize_schedule(const ChaosSchedule& schedule) {
  std::string out;
  for (const ChaosEvent& event : schedule) {
    out += event.to_string();
    out += "\n";
  }
  return out;
}

Result<ChaosSchedule> parse_schedule(const std::string& text) {
  ChaosSchedule schedule;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto words = split_words(line);
    if (words.empty()) {
      continue;  // blank line
    }
    const auto fail = [&](const std::string& why) {
      return invalid_argument_error("schedule line " +
                                    std::to_string(line_no) + ": " + why);
    };
    if (words.front() != "event") {
      return fail("expected 'event', got '" + std::string(words.front()) +
                  "'");
    }
    if (words.size() < 2) {
      return fail("missing event kind");
    }
    auto kind = chaos_event_kind_from_string(std::string(words[1]));
    if (!kind.ok()) {
      return fail(kind.status().message());
    }
    ChaosEvent event;
    event.kind = kind.value();
    std::optional<std::uint32_t> a;
    std::optional<std::uint32_t> b;
    std::optional<std::uint64_t> n;
    for (std::size_t i = 2; i < words.size(); ++i) {
      const auto operand = split_key_value(words[i]);
      if (!operand) {
        return fail("malformed operand '" + std::string(words[i]) + "'");
      }
      const auto [key, value] = *operand;
      bool read = false;
      if (key == "a") {
        a = parse_integer<std::uint32_t>(value);
        read = a.has_value();
      } else if (key == "b") {
        b = parse_integer<std::uint32_t>(value);
        read = b.has_value();
      } else if (key == "n") {
        n = parse_integer<std::uint64_t>(value);
        read = n.has_value();
      } else {
        return fail("unknown operand '" + std::string(key) + "'");
      }
      if (!read) {
        return fail("bad value for " + std::string(key) + ": '" +
                    std::string(value) + "'");
      }
    }
    if (!a || !b || !n) {
      return fail("operands a=, b=, n= are all required (canonical form)");
    }
    event.a = *a;
    event.b = *b;
    event.n = *n;
    schedule.push_back(event);
  }
  return schedule;
}

ChaosSchedule random_schedule(Rng& rng, std::uint32_t events,
                              std::uint32_t streams) {
  ChaosSchedule schedule;
  schedule.reserve(events);
  const std::uint32_t stream_count = streams == 0 ? 1 : streams;
  for (std::uint32_t i = 0; i < events; ++i) {
    ChaosEvent event;
    // Half the walk is traffic: faults only matter while data flows, and
    // a schedule of pure faults would never exercise the delivery ledger.
    if (rng.next_below(2) == 0) {
      event.kind = ChaosEventKind::kDeliver;
      event.a = static_cast<std::uint32_t>(rng.next_below(stream_count));
      event.n = 1 + rng.next_below(4);
    } else {
      event.kind = static_cast<ChaosEventKind>(
          2 + rng.next_below(kChaosEventKinds - 1));
      switch (event.kind) {
        case ChaosEventKind::kPartition:
        case ChaosEventKind::kHeal:
          event.a = 0;
          event.b = 1;
          break;
        case ChaosEventKind::kPartitionOneWay:
          event.a = static_cast<std::uint32_t>(rng.next_below(2));
          event.b = 1 - event.a;
          break;
        case ChaosEventKind::kCrash:
        case ChaosEventKind::kRestart:
          event.a = static_cast<std::uint32_t>(rng.next_below(2));
          break;
        case ChaosEventKind::kRot:
          event.n = 1 + rng.next_below(3);  // bits to flip
          break;
        case ChaosEventKind::kHandoff:
          event.a = static_cast<std::uint32_t>(rng.next_below(stream_count));
          break;
        case ChaosEventKind::kOverload:
          event.a = static_cast<std::uint32_t>(rng.next_below(stream_count));
          event.n = 2 + rng.next_below(6);
          break;
        case ChaosEventKind::kDeliver:
        case ChaosEventKind::kFailover:
        case ChaosEventKind::kScrub:
        case ChaosEventKind::kDrain:
          break;
      }
    }
    schedule.push_back(event);
  }
  return schedule;
}

}  // namespace check
}  // namespace numastream
