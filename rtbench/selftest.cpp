// Self-tests for the benchmark's own code: the percentile helper, the
// verifier, the ring source's (stream, seq) sequencing, the wire cursor that
// gives stream reads their span ids, and seed determinism of the ring.
//
//   rtbench_selftest    (exit 0 = all passed)
#include <cmath>
#include <cstdio>

#include "msg/message.h"
#include "ring.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
    }                                                                 \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

using namespace rtbench;
using numastream::Bytes;
using numastream::Chunk;

Workload tiny_workload(std::uint32_t streams) {
  return Workload{.name = "tiny", .rows = 128, .cols = 256, .codec = "lz4", .streams = streams};
}

void test_percentile() {
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {
    ten.push_back(i);  // unsorted on purpose
  }
  EXPECT(near(percentile(ten, 50), 5.5));
  EXPECT(near(percentile(ten, 90), 9.1));
  EXPECT(near(percentile(ten, 0), 1));
  EXPECT(near(percentile(ten, 100), 10));
  EXPECT(near(percentile({7}, 90), 7));
  EXPECT(near(percentile({}, 50), 0));
  EXPECT(near(median({3, 1, 2}), 2));
}

void test_verifier_catches_planted_errors() {
  const Workload w = tiny_workload(1);
  const Ring ring = Ring::generate(w, 3, 4, 1, 2);
  Ledger ledger(1);
  RingSource source(ring, ledger, Ledger::StopRule{.max_chunks = 4});
  VerifyingSink sink(ring, ledger);
  std::vector<Chunk> chunks;
  while (auto c = source.next()) {
    chunks.push_back(std::move(*c));
  }
  EXPECT(chunks.size() == 4);
  sink.deliver(chunks[0]);                  // intact
  chunks[1].payload[5] ^= 0x40;             // planted corruption
  sink.deliver(chunks[1]);
  sink.deliver(chunks[2]);
  sink.deliver(chunks[2]);                  // planted duplicate
  // chunks[3] never delivered: planted missing chunk
  Chunk stranger = chunks[0];
  stranger.sequence = 99;                   // never issued
  sink.deliver(stranger);
  const Ledger::Report r = ledger.report();
  EXPECT(r.issued == 4);
  EXPECT(r.delivered == 3);
  EXPECT(r.missing == 1);
  EXPECT(r.duplicate == 2);
  EXPECT(r.corrupt == 1);
  EXPECT(r.errors() == 4);
  EXPECT(sink.latencies_ms().size() == 2);
  EXPECT(sink.delivered_bytes() == 2 * w.chunk_bytes());
}

void test_source_sequencing_across_streams() {
  const Workload w = tiny_workload(4);
  const Ring ring = Ring::generate(w, 9, 6, 4, 2);  // rounded up to 8 entries
  EXPECT(ring.size() == 8);
  Ledger ledger(4);
  RingSource source(ring, ledger, Ledger::StopRule{.max_chunks = 20});
  std::vector<std::uint64_t> next_seq(4, 0);
  std::uint64_t g = 0;
  while (auto c = source.next()) {
    EXPECT(c->stream_id == g % 4);
    EXPECT(c->sequence == g / 4);
    EXPECT(c->sequence == next_seq[c->stream_id]);
    ++next_seq[c->stream_id];
    EXPECT(c->payload == ring.entries[g % 8]);
    EXPECT(c->payload == ring.entry_for(4, c->stream_id, c->sequence));
    ++g;
  }
  EXPECT(g == 20);
  EXPECT(!source.next().has_value());  // stays closed
  for (const std::uint64_t n : next_seq) {
    EXPECT(n == 5);
  }
}

void test_run_stops_on_whole_ring_pass() {
  const Workload w = tiny_workload(2);
  const Ring ring = Ring::generate(w, 4, 6, 2, 1);
  Ledger ledger(2);
  RingSource source(ring, ledger,
                    Ledger::StopRule{.pass = ring.size(), .run_for = Clock::duration::zero()});
  std::uint64_t n = 0;
  while (source.next()) {
    ++n;
  }
  EXPECT(n == ring.size());
}

void test_wire_cursor_ids() {
  numastream::Message a;
  a.stream_id = 3;
  a.sequence = 17;
  a.body.assign(1000, 0xAB);
  numastream::Message b;
  b.stream_id = 1;
  b.sequence = 2;
  b.body.assign(10, 0xCD);
  Bytes wire = numastream::encode_message(a);
  const Bytes second = numastream::encode_message(b);
  wire.insert(wire.end(), second.begin(), second.end());
  EXPECT(message_span_id(wire) == chunk_span_id(3, 17));
  WireCursor cursor;
  EXPECT(cursor.consume(wire.data(), 20) == 0);  // header not complete yet
  EXPECT(cursor.consume(wire.data() + 20, 500) == chunk_span_id(3, 17));
  const std::size_t a_end = 32 + 1000;
  EXPECT(cursor.consume(wire.data() + 520, a_end - 520) == chunk_span_id(3, 17));
  EXPECT(cursor.consume(wire.data() + a_end, wire.size() - a_end) == chunk_span_id(1, 2));
  EXPECT(message_span_id(numastream::encode_message(numastream::Message::credit_grant(4))) ==
         chunk_span_id(0, 4, /*control=*/true));
}

void test_seed_determinism() {
  const Workload w = tiny_workload(1);
  const Ring a = Ring::generate(w, 11, 6, 1, 3);
  const Ring b = Ring::generate(w, 11, 6, 1, 1);
  const Ring c = Ring::generate(w, 12, 6, 1, 3);
  EXPECT(a.hashes() == b.hashes());
  EXPECT(a.compression_ratio("lz4") == b.compression_ratio("lz4"));
  EXPECT(a.compression_ratio("lz4") > 1.0);
  const auto ha = a.hashes();
  const auto hc = c.hashes();
  for (std::size_t i = 0; i < ha.size(); ++i) {
    EXPECT(ha[i] != hc[i]);
  }
}

}  // namespace

int main() {
  test_percentile();
  test_verifier_catches_planted_errors();
  test_source_sequencing_across_streams();
  test_run_stops_on_whole_ring_pass();
  test_wire_cursor_ids();
  test_seed_determinism();
  if (g_failures > 0) {
    std::printf("rtbench self-tests: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("rtbench self-tests: all passed\n");
  return 0;
}
