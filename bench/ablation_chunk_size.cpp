// Ablation: sensitivity of the gateway result (Fig. 14) to the streaming
// chunk size. The paper fixes the unit of work at one X-ray projection
// (11.0592 MB); this sweep shows the steady-state throughput is essentially
// chunk-size independent over a wide range (the pipeline is rate- not
// latency-bound), so the projection-sized chunk is a convenience, not a
// tuning requirement.
#include "bench/bench_util.h"
#include "core/config_generator.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

int main() {
  const BenchClock bench_clock;
  print_header("Ablation - chunk size vs gateway throughput",
               "(design-choice sensitivity; the paper fixes 11.0592 MB chunks)");

  const MachineTopology lynx = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {
      updraft_topology("updraft1"), updraft_topology("updraft2"),
      polaris_topology("polaris1"), polaris_topology("polaris2")};
  ConfigGenerator generator(lynx, senders);
  WorkloadSpec spec;
  spec.num_streams = 4;
  spec.compression_threads = 32;
  spec.transfer_threads = 4;
  spec.decompression_threads = 4;

  TextTable table({"chunk", "e2e (Gbps)", "vs paper chunk"});
  double reference = 0;
  double smallest = 0;
  double largest = 0;
  const double paper_chunk = static_cast<double>(kProjectionChunkBytes);
  for (const double factor : {0.125, 0.5, 1.0, 4.0}) {
    spec.chunk_bytes = static_cast<std::uint64_t>(paper_chunk * factor);
    auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
    NS_CHECK(plan.ok(), "plan generation failed");
    ExperimentOptions options;
    options.link.bandwidth_gbps = 200;
    options.source_gbps = 100;
    // Same total bytes per stream regardless of chunk size.
    options.chunks_per_stream = static_cast<std::uint64_t>(300 / factor);
    auto result = run_plan(senders, lynx, plan.value(), options);
    NS_CHECK(result.ok(), "ablation run failed");
    const double e2e = result.value().e2e_gbps;
    if (factor == 1.0) {
      reference = e2e;
    }
    if (factor == 0.125) {
      smallest = e2e;
    }
    if (factor == 4.0) {
      largest = e2e;
    }
    table.add_row({format_bytes(static_cast<std::uint64_t>(paper_chunk * factor)),
                   fmt_double(e2e, 1), "x" + fmt_double(factor, 3)});
  }
  // Fill in the ratio column relative to the reference.
  std::printf("%s\n", table.render().c_str());
  std::printf("reference (paper chunk): %.1f Gbps\n\n", reference);

  shape_check("throughput is chunk-size insensitive over 8x down",
              near_factor(smallest, reference, 0.05));
  shape_check("4x larger chunks cost only a mild penalty (coarser pipelining "
              "with the same queue depths)",
              largest > reference * 0.85 && largest < reference);

  JsonWriter json = bench_json("ablation_chunk_size", bench_clock.seconds());
  json.field("reference_e2e_gbps", reference);
  json.field("smallest_chunk_e2e_gbps", smallest);
  json.field("largest_chunk_e2e_gbps", largest);
  shape_check("json artifact written",
              json.write(json_artifact_path("BENCH_ablation_chunk_size.json")));
  return finish();
}
