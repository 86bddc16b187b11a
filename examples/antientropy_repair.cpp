// Anti-entropy repair walkthrough (DESIGN.md §14): seeded bit-rot lands on
// a standby's replica journal, the background scrubber quarantines the
// damaged range, and one digest round against the clean primary repairs it
// — all before any failover could have replayed the rot as delivery holes.
//
//   1. A primary journal and its replica hold the same 64 records.
//   2. Seeded rot flips bits in the replica; byte-identity breaks silently.
//   3. The replica's JournalScrubber finds the corrupt records on its
//      budgeted cadence and quarantines their ranges (sticky counters,
//      never sticky DATA_LOSS — the journal keeps serving).
//   4. The replica runs an AntiEntropyScrubber round against the primary's
//      ScrubServer: digests diverge, the rotted ranges pull clean bytes,
//      and the quarantine lifts.
//   5. The journals are byte-identical again; the scrub ledger shows the
//      whole arc.
//
// Build & run:
//   cmake -B build -S . && cmake --build build -j --target antientropy_repair
//   ./build/examples/antientropy_repair
#include <cstdio>

#include "cluster/antientropy.h"
#include "core/journal.h"
#include "core/scrub.h"
#include "metrics/scrub_counters.h"

using namespace numastream;

namespace {

constexpr std::uint64_t kSession = 41;
constexpr std::uint64_t kRecords = 64;
constexpr std::uint64_t kRotSeed = 2026;

Bytes make_journal_image() {
  Bytes image;
  for (std::uint64_t sequence = 1; sequence <= kRecords; ++sequence) {
    JournalRecord record;
    record.type = JournalRecordType::kSent;
    record.stream_id = 7;
    record.sequence = sequence;
    record.offset = (sequence - 1) * 4096;
    record.body_hash = static_cast<std::uint32_t>(sequence * 2654435761u);
    record.body_size = 4096;
    const Bytes encoded = encode_journal_record(record);
    image.insert(image.end(), encoded.begin(), encoded.end());
  }
  return image;
}

}  // namespace

int main() {
  std::printf("== anti-entropy repair walkthrough ==\n\n");

  // 1. Primary and replica start byte-identical.
  const Bytes image = make_journal_image();
  MemoryJournalMedia primary;
  MemoryJournalMedia replica;
  for (auto* media : {&primary, &replica}) {
    if (!media->append(ByteSpan(image.data(), image.size())).is_ok() ||
        !media->flush().is_ok()) {
      std::printf("journal setup failed\n");
      return 1;
    }
  }
  std::printf("primary and replica each hold %llu records (%zu bytes)\n",
              static_cast<unsigned long long>(kRecords), image.size());

  // 2. Seeded rot: flip three bits somewhere in the replica's middle third.
  const int flipped = replica.rot(kRotSeed, image.size() / 3, image.size() / 3,
                                  /*flips=*/3);
  std::printf("rot(seed=%llu) flipped %d bit(s) in the replica — silently\n\n",
              static_cast<unsigned long long>(kRotSeed), flipped);

  // 3. The replica's local scrubber finds the damage on its cadence.
  ScrubConfig config;
  config.cadence_ms = 100;
  config.range_records = 8;
  config.budget_records = 32;     // two ticks to cover 64 records
  config.repair_concurrency = 8;  // repair every divergent range in one round
  ScrubCounters counters;
  JournalScrubber scrubber(replica, config, &counters);
  while (counters.scrub_passes.load() == 0) {
    if (!scrubber.tick().is_ok()) {
      std::printf("scrub tick failed\n");
      return 1;
    }
  }
  std::printf("after one scrub pass:\n%s\n",
              counter_table(counters.snapshot(), /*nonzero_only=*/true)
                  .render()
                  .c_str());
  if (scrubber.quarantined_ranges().empty()) {
    std::printf("expected quarantined ranges\n");
    return 1;
  }

  // 4. One anti-entropy round against the primary: digests diverge on the
  //    quarantined ranges, clean bytes pull across, quarantine lifts.
  cluster::ScrubServer server(primary, kSession, config.range_records);
  cluster::InprocPeerLink link(server);
  cluster::AntiEntropyScrubber antientropy(replica, link, kSession, config,
                                           /*epoch=*/1, &counters, &scrubber);
  const Status round = antientropy.run_round();
  if (!round.is_ok()) {
    std::printf("anti-entropy round failed: %s\n",
                round.to_string().c_str());
    return 1;
  }
  std::printf("after one anti-entropy round:\n%s\n",
              counter_table(counters.snapshot(), /*nonzero_only=*/true)
                  .render()
                  .c_str());

  // 5. Byte-identity is restored and nothing is quarantined.
  auto repaired = replica.read_all();
  if (!repaired.ok() || repaired.value() != image) {
    std::printf("FAILED: replica still diverges from the primary\n");
    return 1;
  }
  if (!scrubber.quarantined_ranges().empty()) {
    std::printf("FAILED: quarantine did not lift after the repair\n");
    return 1;
  }
  std::printf(
      "replica is byte-identical to the primary again; quarantine lifted\n"
      "— the failover this rot was waiting for will replay an intact "
      "journal\n");
  return 0;
}
