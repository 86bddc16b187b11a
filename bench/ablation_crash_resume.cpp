// Ablation: endpoint crashes mid-transfer — journal resume vs restart from
// zero (DESIGN.md §11).
//
// A NUMA-aware gateway receives one stream; a seeded crash schedule kills
// the receiver a third of the way in and the sender two thirds in, each
// with a bounded blackout before the endpoint restarts. The ablation
// compares the bytes re-sent after recovery:
//
//   restart from zero - the counterfactual the driver accounts alongside
//                       every crash: without a durable ledger, a restarted
//                       endpoint has no watermark and the whole committed
//                       prefix crosses the wire again.
//   journal resume    - the RESUME handshake replays only the unacked
//                       window; everything below the peer's watermark is
//                       suppressed at the sender.
//
// Crash instants, blackouts, and every counter live on virtual time under a
// fixed seed, so an identical rerun must reproduce the recovery ledger
// bit-for-bit; checked below.
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/config_generator.h"
#include "metrics/resume_counters.h"
#include "simrt/driver.h"

using namespace numastream;
using namespace numastream::bench;
using namespace numastream::simrt;

namespace {

constexpr std::uint64_t kChunks = 300;

Result<ExperimentResult> run_scenario(const std::vector<MachineTopology>& senders,
                                      const MachineTopology& gateway,
                                      const StreamingPlan& plan,
                                      const ExperimentOptions& options) {
  return run_plan(senders, gateway, plan, options);
}

}  // namespace

int main() {
  print_header("Ablation - crash mid-transfer: journal resume vs restart",
               "(robustness: the durable ledger bounds crash re-work by the "
               "unacked window, not the committed prefix)");

  const MachineTopology gateway = lynxdtn_topology();
  const std::vector<MachineTopology> senders = {updraft_topology()};
  ConfigGenerator generator(gateway, senders);
  WorkloadSpec spec;
  spec.num_streams = 1;
  auto plan = generator.generate(spec, PlacementStrategy::kNumaAware);
  NS_CHECK(plan.ok(), "plan generation failed");

  // Probe the crash-free duration so the schedule lands mid-transfer, and
  // price the journal mirror on the fault-free path while at it.
  ExperimentOptions options;
  options.chunks_per_stream = kChunks;
  options.resume = true;
  auto probe = run_scenario(senders, gateway, plan.value(), options);
  NS_CHECK(probe.ok(), "probe run failed");
  const ExperimentResult& clean = probe.value();
  const double elapsed = clean.elapsed_seconds;
  NS_CHECK(elapsed > 0, "probe run produced no elapsed time");

  options.crashes = {
      {.stream = 0, .sender = false, .at_seconds = elapsed / 3,
       .restart_seconds = elapsed / 10},
      {.stream = 0, .sender = true, .at_seconds = 2 * elapsed / 3,
       .restart_seconds = elapsed / 20},
  };
  auto crashed = run_scenario(senders, gateway, plan.value(), options);
  NS_CHECK(crashed.ok(), "crash scenario failed");
  const ExperimentResult& run = crashed.value();
  const ResumeCountersSnapshot& resume = run.resume;
  const double stream_bytes =
      static_cast<double>(kChunks * plan.value().senders[0].chunk_bytes);

  TextTable table({"mode", "crashes", "replayed chunks", "re-work (MB)",
                   "re-work / stream", "recovery (ms)"});
  table.add_row({"restart from zero", "2", "-",
                 fmt_double(run.rework_restart_from_zero_bytes / 1e6, 2),
                 fmt_double(run.rework_restart_from_zero_bytes / stream_bytes, 2),
                 "-"});
  table.add_row({"journal resume", std::to_string(resume.crashes_observed),
                 std::to_string(resume.replayed_chunks),
                 fmt_double(static_cast<double>(resume.rework_bytes) / 1e6, 2),
                 fmt_double(static_cast<double>(resume.rework_bytes) /
                                stream_bytes, 2),
                 std::to_string(resume.recovery_wall_ms)});
  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n", counter_table(resume, /*nonzero_only=*/true)
                          .render()
                          .c_str());

  // The fault-free path pays for the ledger, never for replay.
  shape_check("crash-free probe replays nothing",
              clean.resume.crashes_observed == 0 &&
                  clean.resume.replayed_chunks == 0 &&
                  clean.resume.rework_bytes == 0);
  shape_check("crash-free probe still journals the stream",
              clean.resume.journal_records_written > 0);

  // Zero loss: both kills land mid-transfer, every chunk still arrives.
  shape_check("both scheduled crashes fired",
              resume.crashes_observed == 2 && resume.resume_handshakes == 2);
  shape_check("zero chunk loss across both kills",
              run.streams[0].chunks == kChunks);

  // The headline: resume re-work is bounded by the unacked window, strictly
  // under the committed prefix a zero-knowledge restart would re-send.
  shape_check("journal re-work undercuts restart-from-zero",
              static_cast<double>(resume.rework_bytes) <
                  run.rework_restart_from_zero_bytes);
  shape_check("replay stays a fraction of the stream",
              resume.replayed_chunks < kChunks);
  shape_check("recovery wall time is accounted",
              resume.recovery_wall_ms > 0);

  // Determinism: an identical rerun reproduces the recovery ledger.
  auto rerun = run_scenario(senders, gateway, plan.value(), options);
  NS_CHECK(rerun.ok(), "rerun failed");
  shape_check("same seed reproduces the resume ledger bit-identically",
              rerun.value().resume == resume &&
                  rerun.value().rework_restart_from_zero_bytes ==
                      run.rework_restart_from_zero_bytes);

  // Machine-readable artifact for CI and sweep tooling.
  JsonWriter json;
  json.field("bench", "ablation_crash_resume");
  json.field("chunks_per_stream", kChunks);
  json.field("elapsed_seconds", run.elapsed_seconds);
  json.field("rework_bytes", resume.rework_bytes);
  json.field("rework_restart_from_zero_bytes",
             run.rework_restart_from_zero_bytes);
  json.begin_object("resume");
  json.field("crashes_observed", resume.crashes_observed);
  json.field("resume_handshakes", resume.resume_handshakes);
  json.field("replayed_chunks", resume.replayed_chunks);
  json.field("journal_records_replayed", resume.journal_records_replayed);
  json.field("recovery_wall_ms", resume.recovery_wall_ms);
  json.end_object();
  json.field("bit_identical_rerun", rerun.value().resume == resume);
  shape_check("json artifact written",
              json.write(json_artifact_path("BENCH_ablation_crash_resume.json")));
  return finish();
}
