// Shared rig for the compression/decompression scaling experiments
// (§3.2-3.3: Figs. 8 and 9, Table 1).
//
// Pure compute sweeps on one two-socket host: N worker threads repeatedly
// process projection chunks, with the source data homed in a chosen NUMA
// domain and the workers placed per a Table 1 configuration (A-H). No
// network is involved, exactly like the paper's standalone measurements.
#pragma once

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "core/placement.h"
#include "simhw/machine.h"
#include "simhw/scheduler.h"
#include "simrt/calibration.h"

namespace numastream::bench {

struct ComputeSweepResult {
  double throughput_gbps = 0;  ///< raw (uncompressed-side) bytes per second
  std::vector<double> core_utilization;
};

/// Runs `threads` compression or decompression workers under a Table 1
/// configuration and reports aggregate throughput.
inline ComputeSweepResult run_compute_sweep(const ComputePlacementConfig& config,
                                            int threads, bool decompress,
                                            std::uint64_t chunks_per_thread = 40) {
  using namespace numastream::simrt;

  sim::Simulation sim;
  const MachineTopology topo = updraft_topology("worker-host");
  SimHost host(sim, topo, HostParams{});
  const Calibration calib;

  // Worker cores per the configuration's execution policy.
  std::vector<int> cores;
  if (config.execution == ExecutionDomainPolicy::kOsManaged) {
    // An unloaded kernel balances a pure compute pool well; model it as
    // least-loaded (the paper's G/H track the split configs E/F closely).
    OsScheduler os(topo, OsScheduler::Mode::kLeastLoaded, 1);
    cores = os.place_threads(static_cast<std::size_t>(threads));
  } else {
    cores = assign_pinned(topo, bindings_for_policy(config.execution,
                                                    config.memory_domain),
                          static_cast<std::size_t>(threads));
  }

  double total_bytes = 0;
  for (const int core : cores) {
    sim.spawn([](sim::Simulation& s, SimHost& h, const Calibration& cal, int cpu,
                 int data_domain, bool is_decompress, std::uint64_t chunks,
                 double& bytes) -> sim::SimProc {
      for (std::uint64_t i = 0; i < chunks; ++i) {
        SimHost::StepSpec step;
        step.core = cpu;
        step.work_bytes = static_cast<double>(kProjectionChunkBytes);
        if (is_decompress) {
          step.cpu_seconds_per_byte = 1.0 / cal.decompress_bytes_per_sec;
          step.accesses = {
              {.data_domain = data_domain,
               .bytes_per_work = cal.decompress_mem_read_per_raw_byte},
              {.data_domain = h.domain_of_core(cpu),
               .bytes_per_work = cal.decompress_mem_write_per_raw_byte},
          };
        } else {
          step.cpu_seconds_per_byte = 1.0 / cal.compress_bytes_per_sec;
          step.accesses = {
              {.data_domain = data_domain,
               .bytes_per_work = cal.compress_mem_read_per_raw_byte},
              {.data_domain = h.domain_of_core(cpu),
               .bytes_per_work = cal.compress_mem_write_per_raw_byte},
          };
        }
        sim::JobSpec job = h.step_job(step);
        co_await s.job(std::move(job));
        bytes += static_cast<double>(kProjectionChunkBytes);
      }
    }(sim, host, calib, core, config.memory_domain, decompress, chunks_per_thread,
                 total_bytes));
  }
  sim.run();

  ComputeSweepResult result;
  result.throughput_gbps = bytes_per_sec_to_gbps(total_bytes / sim.now());
  host.usage().set_elapsed(sim.now());
  result.core_utilization = host.usage().utilizations();
  return result;
}

}  // namespace numastream::bench
