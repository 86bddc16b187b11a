#include "check/explorer.h"

#include <limits>
#include <sstream>
#include <utility>

#include "common/kv.h"
#include "common/rng.h"

namespace numastream {
namespace check {
namespace {

/// Derives episode i's seed from the master seed: one splitmix64 step over
/// a golden-ratio-spread state, the same derivation idiom the fault
/// injector uses for per-connection streams. Episode seeds are never 0 by
/// construction (splitmix64 of a nonzero-spread state), so they stay valid
/// chaos seeds.
std::uint64_t episode_seed(std::uint64_t master, std::uint32_t episode) {
  std::uint64_t state =
      master ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(episode) + 1));
  const std::uint64_t derived = splitmix64_next(state);
  return derived == 0 ? 1 : derived;
}

}  // namespace

std::string serialize_bundle(const ReproBundle& bundle) {
  std::string out = "chaosbundle v1\n";
  out += "seed " + std::to_string(bundle.seed) + "\n";
  out += "episode " + std::to_string(bundle.episode) + "\n";
  out += serialize_options(bundle.options) + "\n";
  out += bundle.violation.to_string() + "\n";
  out += "schedule " + std::to_string(bundle.schedule.size()) + "\n";
  out += serialize_schedule(bundle.schedule);
  return out;
}

Result<ReproBundle> parse_bundle(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto next_line = [&](const char* what) -> Result<std::string> {
    if (!std::getline(in, line)) {
      return invalid_argument_error(std::string("bundle: missing ") + what);
    }
    return line;
  };

  auto header = next_line("header");
  if (!header.ok()) {
    return header.status();
  }
  if (header.value() != "chaosbundle v1") {
    return invalid_argument_error("bundle: bad header '" + header.value() +
                                  "' (want 'chaosbundle v1')");
  }

  // The next line as "<prefix> <n>", n in [0, max].
  const auto next_number = [&](const std::string& prefix,
                               std::uint64_t max) -> Result<std::uint64_t> {
    auto got = next_line(prefix.c_str());
    if (!got.ok()) {
      return got.status();
    }
    const auto words = split_words(got.value());
    if (words.size() != 2 || words[0] != prefix) {
      return invalid_argument_error("bundle: expected '" + prefix +
                                    " <n>', got '" + got.value() + "'");
    }
    const auto value = parse_integer<std::uint64_t>(words[1], 0, max);
    if (!value) {
      return invalid_argument_error("bundle: bad " + prefix + " value in '" +
                                    got.value() + "'");
    }
    return *value;
  };
  constexpr std::uint64_t kAny = std::numeric_limits<std::uint64_t>::max();

  ReproBundle bundle;
  auto seed = next_number("seed", kAny);
  if (!seed.ok()) {
    return seed.status();
  }
  bundle.seed = seed.value();

  auto episode =
      next_number("episode", std::numeric_limits<std::uint32_t>::max());
  if (!episode.ok()) {
    return episode.status();
  }
  bundle.episode = static_cast<std::uint32_t>(episode.value());

  auto options_line = next_line("options");
  if (!options_line.ok()) {
    return options_line.status();
  }
  auto options = parse_options(options_line.value());
  if (!options.ok()) {
    return options.status();
  }
  bundle.options = options.value();

  auto violation_line = next_line("violation");
  if (!violation_line.ok()) {
    return violation_line.status();
  }
  {
    const auto words = split_words(violation_line.value());
    const auto stream = words.size() == 4 ? split_key_value(words[2])
                                          : std::nullopt;
    const auto seq = words.size() == 4 ? split_key_value(words[3])
                                       : std::nullopt;
    if (words.size() != 4 || words[0] != "violation" || !stream ||
        stream->key != "stream" || !seq || seq->key != "seq") {
      return invalid_argument_error("bundle: malformed violation line '" +
                                    violation_line.value() + "'");
    }
    auto probe = invariant_probe_from_string(std::string(words[1]));
    if (!probe.ok()) {
      return probe.status();
    }
    const auto stream_id = parse_integer<std::uint32_t>(stream->value);
    const auto sequence = parse_integer<std::uint64_t>(seq->value);
    if (!stream_id || !sequence) {
      return invalid_argument_error("bundle: bad violation operands in '" +
                                    violation_line.value() + "'");
    }
    bundle.violation.probe = probe.value();
    bundle.violation.stream_id = *stream_id;
    bundle.violation.sequence = *sequence;
  }

  auto count = next_number("schedule", kAny);
  if (!count.ok()) {
    return count.status();
  }

  std::string schedule_text;
  while (std::getline(in, line)) {
    schedule_text += line;
    schedule_text += "\n";
  }
  auto schedule = parse_schedule(schedule_text);
  if (!schedule.ok()) {
    return schedule.status();
  }
  if (schedule.value().size() != count.value()) {
    return invalid_argument_error(
        "bundle: schedule declares " + std::to_string(count.value()) +
        " event(s) but carries " + std::to_string(schedule.value().size()));
  }
  bundle.schedule = std::move(schedule.value());
  return bundle;
}

ChaosExplorer::ChaosExplorer(const ChaosExplorerOptions& options,
                             ChaosCounters* counters)
    : options_(options), counters_(counters) {}

std::vector<InvariantViolation> ChaosExplorer::run_schedule(
    const ChaosHarnessOptions& options, const ChaosSchedule& schedule,
    ChaosCounters* counters) {
  InvariantMonitor monitor(counters);
  ChaosHarness harness(options, monitor, counters);
  harness.run(schedule);
  // Settlement probes close every episode: the ledgers must be back to
  // zero no matter where the random walk stopped.
  ChaosEvent drain;
  drain.kind = ChaosEventKind::kDrain;
  (void)harness.apply(drain);
  return monitor.violations();
}

Status ChaosExplorer::replay(const ReproBundle& bundle,
                             ChaosCounters* counters) {
  const std::vector<InvariantViolation> violations =
      run_schedule(bundle.options, bundle.schedule, counters);
  for (const InvariantViolation& violation : violations) {
    if (violation.probe == bundle.violation.probe &&
        violation.stream_id == bundle.violation.stream_id &&
        violation.sequence == bundle.violation.sequence) {
      return Status::ok();
    }
  }
  if (violations.empty()) {
    return data_loss_error("replay: bundle did not reproduce (run was clean)");
  }
  return data_loss_error(
      "replay: bundle did not reproduce (got " + violations.front().to_string() +
      ", want " + bundle.violation.to_string() + ")");
}

bool ChaosExplorer::reproduces(const ChaosHarnessOptions& options,
                               const ChaosSchedule& schedule,
                               InvariantProbe probe) {
  if (counters_ != nullptr) {
    counters_->shrink_steps.fetch_add(1, std::memory_order_relaxed);
  }
  for (const InvariantViolation& violation :
       run_schedule(options, schedule, nullptr)) {
    if (violation.probe == probe) {
      return true;
    }
  }
  return false;
}

ChaosSchedule ChaosExplorer::shrink(const ChaosHarnessOptions& options,
                                    ChaosSchedule schedule,
                                    InvariantProbe probe) {
  // ddmin (Zeller's delta debugging, minimizing variant): partition the
  // schedule into n chunks, try removing each chunk; on success restart at
  // the coarsest granularity, otherwise refine until chunks are single
  // events. Termination: every step either shortens the schedule or
  // doubles n, and n is capped at the schedule length.
  std::size_t chunks = 2;
  while (schedule.size() >= 2) {
    const std::size_t size = schedule.size();
    if (chunks > size) {
      chunks = size;
    }
    bool shrunk = false;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t begin = chunk * size / chunks;
      const std::size_t end = (chunk + 1) * size / chunks;
      if (begin >= end) {
        continue;
      }
      ChaosSchedule candidate;
      candidate.reserve(size - (end - begin));
      candidate.insert(candidate.end(), schedule.begin(),
                       schedule.begin() + static_cast<std::ptrdiff_t>(begin));
      candidate.insert(candidate.end(),
                       schedule.begin() + static_cast<std::ptrdiff_t>(end),
                       schedule.end());
      if (reproduces(options, candidate, probe)) {
        schedule = std::move(candidate);
        chunks = 2;
        shrunk = true;
        break;
      }
    }
    if (!shrunk) {
      if (chunks >= size) {
        break;  // 1-minimal: no single event can be removed
      }
      chunks *= 2;
    }
  }
  if (counters_ != nullptr) {
    counters_->schedules_shrunk.fetch_add(1, std::memory_order_relaxed);
  }
  return schedule;
}

ChaosExplorerReport ChaosExplorer::explore() {
  ChaosExplorerReport report;
  for (std::uint32_t episode = 0; episode < options_.episodes; ++episode) {
    ChaosHarnessOptions harness_options;
    harness_options.seed = episode_seed(options_.seed, episode);
    harness_options.streams = options_.streams;
    harness_options.plant_fencing_bug = options_.plant_fencing_bug;

    // The schedule stream is split from the harness stream so harness draws
    // inside the episode never perturb the schedule itself.
    Rng schedule_rng(harness_options.seed ^ 0xA5C3ULL);
    const ChaosSchedule schedule =
        random_schedule(schedule_rng, options_.events, options_.streams);

    const std::vector<InvariantViolation> violations =
        run_schedule(harness_options, schedule, counters_);
    ++report.episodes_run;
    if (counters_ != nullptr) {
      counters_->episodes_run.fetch_add(1, std::memory_order_relaxed);
    }
    if (violations.empty()) {
      continue;
    }

    report.found = true;
    report.raw_events = static_cast<std::uint32_t>(schedule.size());
    report.bundle.seed = options_.seed;
    report.bundle.episode = episode;
    report.bundle.options = harness_options;
    report.bundle.schedule =
        shrink(harness_options, schedule, violations.front().probe);
    // The bundle's canonical violation is what the *minimal* schedule
    // produces — stream/sequence may differ from the raw run once the
    // schedule's earlier traffic is gone.
    const std::vector<InvariantViolation> minimal =
        run_schedule(harness_options, report.bundle.schedule, nullptr);
    for (const InvariantViolation& violation : minimal) {
      if (violation.probe == violations.front().probe) {
        report.bundle.violation = violation;
        break;
      }
    }
    return report;
  }
  return report;
}

}  // namespace check
}  // namespace numastream
