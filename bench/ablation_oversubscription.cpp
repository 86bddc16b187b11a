// Ablation: sensitivity of Observation 2 (threads beyond the core count) to
// the context-switch overhead model.
//
// Sweeps the per-sharer overhead and re-measures 32 compression threads on a
// single 16-core domain (config A) versus split across both (config E). With
// zero overhead oversubscription is free (A at 32 equals A at 16); the
// paper's "performance declines" needs a positive overhead.
#include "bench/bench_util.h"
#include "common/units.h"
#include "core/placement.h"
#include "simhw/machine.h"
#include "simhw/scheduler.h"
#include "simrt/calibration.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

double compression_gbps(double overhead, int threads,
                        ExecutionDomainPolicy policy) {
  sim::Simulation sim;
  const MachineTopology topo = updraft_topology();
  HostParams params;
  params.core_oversubscription_overhead = overhead;
  SimHost host(sim, topo, params);
  const Calibration calib;
  const auto cores =
      assign_pinned(topo, bindings_for_policy(policy, 0),
                    static_cast<std::size_t>(threads));
  double total_bytes = 0;
  for (const int core : cores) {
    sim.spawn([](sim::Simulation& s, SimHost& h, const Calibration& cal, int cpu,
                 double& bytes) -> sim::SimProc {
      for (int i = 0; i < 30; ++i) {
        SimHost::StepSpec step;
        step.core = cpu;
        step.work_bytes = static_cast<double>(kProjectionChunkBytes);
        step.cpu_seconds_per_byte = 1.0 / cal.compress_bytes_per_sec;
        step.accesses = {{.data_domain = 0, .bytes_per_work = 1.5}};
        sim::JobSpec job = h.step_job(step);
        co_await s.job(std::move(job));
        bytes += static_cast<double>(kProjectionChunkBytes);
      }
    }(sim, host, calib, core, total_bytes));
  }
  sim.run();
  return bytes_per_sec_to_gbps(total_bytes / sim.now());
}

}  // namespace

int main() {
  const BenchClock bench_clock;
  print_header("Ablation - core oversubscription (context switch) overhead",
               "(design-choice sensitivity behind Observation 2)");

  TextTable table({"overhead", "A@16 thr", "A@32 thr", "E@32 thr", "A32/E32"});
  double free_ratio = 0;
  double paper_ratio = 0;
  for (const double overhead : {0.0, 0.06, 0.12, 0.5}) {
    const double a16 = compression_gbps(overhead, 16, ExecutionDomainPolicy::kDomain0);
    const double a32 = compression_gbps(overhead, 32, ExecutionDomainPolicy::kDomain0);
    const double e32 = compression_gbps(overhead, 32, ExecutionDomainPolicy::kSplit);
    table.add_row({fmt_double(overhead, 2), fmt_double(a16, 1), fmt_double(a32, 1),
                   fmt_double(e32, 1), fmt_double(a32 / e32, 3)});
    if (overhead == 0.0) {
      free_ratio = a32 / a16;
    }
    if (overhead == 0.12) {
      paper_ratio = a32 / e32;
    }
  }
  std::printf("%s\n", table.render().c_str());

  shape_check("zero overhead makes oversubscription free (A@32 == A@16)",
              near_factor(free_ratio, 1.0, 0.01));
  shape_check("calibrated overhead reproduces the paper's 'nearly halved' "
              "single-domain result at 32 threads",
              near_factor(paper_ratio, 0.5, 0.12));

  JsonWriter json =
      bench_json("ablation_oversubscription", bench_clock.seconds());
  json.field("free_ratio", free_ratio);
  json.field("paper_ratio", paper_ratio);
  shape_check(
      "json artifact written",
      json.write(json_artifact_path("BENCH_ablation_oversubscription.json")));
  return finish();
}
