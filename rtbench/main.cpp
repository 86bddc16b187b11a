// Real-runtime benchmark: command-line entry point.
//
//   rtbench --workload proj_lz4|proj_null|tile_session|all --seed N
//           --seconds S --trace 0|1 [--trace-dir DIR]
//
// --trace 0: the end-to-end metrics of untraced closed-loop runs, kParts
//   parts of S/kParts seconds each, plus kSetupReps set-up repetitions for
//   setup_s.
// --trace 1: the per-layer metrics — isolated single-thread layer rates, an
//   untraced and a traced run of S/2 seconds each, the layer-sum prediction
//   and the tracing overhead. Spans go to DIR/trace-<workload>.csv.
//
// Human-readable tables go to stdout; the last line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Any delivery error or fault
// counter that a fault-free run must not show makes the exit code 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "pipeline_run.h"
#include "ring.h"
#include "stats.h"
#include "trace.h"

namespace rtbench {
namespace {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool ok = true;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 11;
/// Independent pipeline runs the measured time is split over.
constexpr int kParts = 5;

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Folds one run's correctness into the outcome and reports problems:
/// delivery errors count as failed chunks, and those or any runtime fault
/// counter make the run incorrect.
void gate(const char* what, const RunResult& r, Outcome& out) {
  out.attempted += r.delivery.issued;
  out.failed += r.delivery.errors();
  if (!r.status.is_ok()) {
    out.ok = false;
    std::printf("  %s FAILED: %s\n", what, r.status.to_string().c_str());
  }
  if (r.delivery.errors() > 0 || r.runtime_faults() > 0) {
    out.ok = false;
    std::printf(
        "  %s: delivery errors %llu (missing %llu, duplicate %llu, corrupt %llu);"
        " corrupt_frames %llu, duplicate_frames %llu, reconnects %llu\n",
        what, static_cast<unsigned long long>(r.delivery.errors()),
        static_cast<unsigned long long>(r.delivery.missing),
        static_cast<unsigned long long>(r.delivery.duplicate),
        static_cast<unsigned long long>(r.delivery.corrupt),
        static_cast<unsigned long long>(r.rx.corrupt_frames),
        static_cast<unsigned long long>(r.tx_faults.duplicate_frames +
                                        r.rx_faults.duplicate_frames),
        static_cast<unsigned long long>(r.tx_faults.reconnects +
                                        r.rx_faults.reconnects));
  }
}

void print_run(const char* what, const RunResult& r) {
  std::printf("  %s: %llu chunks delivered of %llu issued, %.3f s wall, %.4f Gbps raw,"
              " %.3f s CPU\n",
              what, static_cast<unsigned long long>(r.delivery.delivered),
              static_cast<unsigned long long>(r.delivery.issued), r.wall_s,
              r.raw_gbps(), r.cpu_s);
}

Outcome end_to_end(const Workload& w, const Ring& ring, const Options& opt) {
  Outcome out;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const RunResult r = run_pipeline(RunSpec{.workload = &w,
                                             .ring = &ring,
                                             .seed = opt.seed,
                                             .stop = {.max_chunks = 1},
                                             .time_setup = true});
    gate("set-up repetition", r, out);
    setups.push_back(r.setup_s);
  }
  // The measured time is split over kParts independent pipeline runs, each
  // with fresh threads and connections; rates are the median over parts and
  // latency percentiles come from the pooled samples. One run's thread
  // placement can make a different stage bind, so a single long run would
  // report whichever regime it happened to land in.
  const auto run_for = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / kParts));
  std::vector<double> gbps;
  std::vector<double> cpu_per_gb;
  std::vector<double> rss;
  std::vector<double> latencies;
  double raw_bytes = 0;
  double wire_bytes = 0;
  std::uint64_t errors = 0;
  std::uint64_t issued = 0;
  for (int i = 0; i < kParts; ++i) {
    const RunResult r = run_pipeline(RunSpec{
        .workload = &w,
        .ring = &ring,
        .seed = opt.seed,
        .stop = {.pass = ring.size(), .run_for = run_for}});
    print_run("measured run", r);
    gate("measured run", r, out);
    const double gb = static_cast<double>(r.delivered_bytes) / 1e9;
    gbps.push_back(r.raw_gbps());
    cpu_per_gb.push_back(gb > 0 ? r.cpu_s / gb : 0);
    rss.push_back(r.peak_rss_mib);
    latencies.insert(latencies.end(), r.latencies_ms.begin(), r.latencies_ms.end());
    raw_bytes += static_cast<double>(r.tx.raw_bytes);
    wire_bytes += static_cast<double>(r.tx.wire_bytes);
    errors += r.delivery.errors();
    issued += r.delivery.issued;
  }

  out.metrics = {
      {"raw_gbps", median(gbps), "Gbps"},
      {"cpu_s_per_gb", median(cpu_per_gb), "s/GB"},
      {"chunk_latency_p50_ms", percentile(latencies, 50), "ms"},
      {"chunk_latency_p90_ms", percentile(latencies, 90), "ms"},
      {"compression_ratio", wire_bytes > 0 ? raw_bytes / wire_bytes : 0, "x"},
      {"peak_rss_mib", median(rss), "MiB"},
      {"setup_s", median(setups), "s"},
  };
  print_table("end-to-end (" + w.name + ", untraced)", out.metrics);
  std::printf("  %-36s %16llu  count (of %llu chunks attempted)\n", "delivery_errors",
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(issued));
  std::printf("  %-36s %16zu  count (p90 has %zu beyond it)\n", "chunk_latency_samples",
              latencies.size(), latencies.size() / 10);
  std::printf("  %-36s %16.6g  Gbps (min %.6g, max %.6g over %d parts)\n",
              "raw_gbps spread", percentile(gbps, 75) - percentile(gbps, 25),
              percentile(gbps, 0), percentile(gbps, 100), kParts);
  std::printf("  %-36s %16.6g  s (min %.6g, max %.6g, %d repetitions)\n",
              "setup_s spread", percentile(setups, 75) - percentile(setups, 25),
              percentile(setups, 0), percentile(setups, 100), kSetupReps);
  if (latencies.size() < 100) {
    std::printf("  warning: fewer than 100 latency samples; p90 is not resolved\n");
  }
  return out;
}

/// One pipeline stage's ceiling in the layer-sum model.
struct StageCap {
  const char* stage;
  int threads;
  double s_per_chunk;
  double gbps;
};

/// min over stages of (isolated layer rate x threads): each stage's
/// per-chunk cost is the sum of the isolated costs of the layers it calls.
std::vector<StageCap> layer_sum(const Workload& w, std::map<std::string, double>& m,
                                double chunks, double wire_per_chunk) {
  const double raw = static_cast<double>(w.chunk_bytes());
  const double handoff = m["concurrency.handoff_ns"] * 1e-9;
  const double journal = w.session ? m["core.journal_append_ns"] * 1e-9 : 0;
  const double socket = wire_per_chunk / (m["msg.socket_mbps"] * 1e6);
  const double source = chunks > 0 ? m["core.source_next_s"] / chunks : 0;
  const double sink = chunks > 0 ? m["core.sink_deliver_s"] / chunks : 0;
  std::vector<StageCap> caps = {
      {"compress (source + frame encode)", w.compress,
       source + raw / (m["codec.frame_encode_mbps"] * 1e6) + handoff},
      {"send (socket + journal)", w.send, socket + journal + handoff},
      {"receive (socket)", w.receive, socket + handoff},
      {"decompress (frame decode + sink + journal)", w.decompress,
       raw / (m["codec.frame_decode_mbps"] * 1e6) + sink + journal},
  };
  for (StageCap& c : caps) {
    c.gbps = c.threads * raw * 8 / c.s_per_chunk / 1e9;
  }
  return caps;
}

Outcome per_layer(const Workload& w, const Ring& ring, const Options& opt) {
  Outcome out;
  std::map<std::string, double> m = measure_layers(w, ring, 0.25);

  const auto run_for = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds / 2));
  const RunSpec base{.workload = &w,
                     .ring = &ring,
                     .seed = opt.seed,
                     .stop = {.pass = ring.size(), .run_for = run_for}};
  const RunResult untraced = run_pipeline(base);
  print_run("untraced run", untraced);
  gate("untraced run", untraced, out);
  SpanStore spans;
  RunSpec traced_spec = base;
  traced_spec.spans = &spans;
  const RunResult traced = run_pipeline(traced_spec);
  print_run("traced run", traced);
  gate("traced run", traced, out);
  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/trace-" + w.name + ".csv";
    if (spans.write_csv(path)) {
      std::printf("  %zu spans written to %s\n", spans.size(), path.c_str());
    }
  }

  const auto totals = spans.totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanStore::Totals{} : it->second;
  };
  const double chunks = static_cast<double>(traced.delivery.delivered);
  const SpanStore::Totals reads = total("stream.read");
  const SpanStore::Totals writes = total("stream.write");
  m["msg.reads_per_chunk"] = chunks > 0 ? static_cast<double>(reads.calls) / chunks : 0;
  m["msg.writes_per_chunk"] = chunks > 0 ? static_cast<double>(writes.calls) / chunks : 0;
  m["msg.bytes_per_read"] =
      reads.calls > 0 ? static_cast<double>(reads.bytes) / static_cast<double>(reads.calls)
                      : 0;
  m["msg.read_s"] = reads.seconds;
  m["msg.write_s"] = writes.seconds;
  m["msg.wire_gbps"] =
      traced.wall_s > 0 ? static_cast<double>(reads.bytes) * 8 / traced.wall_s / 1e9 : 0;
  m["core.source_next_s"] = total("source.next").seconds;
  m["core.sink_deliver_s"] = total("sink.deliver").seconds;

  const auto util = [](double busy, double elapsed, int threads) {
    return elapsed > 0 && threads > 0 ? busy / (elapsed * threads) : 0;
  };
  m["core.compress_busy_s"] = traced.tx.compress_busy_seconds;
  m["core.send_busy_s"] = traced.tx.send_busy_seconds;
  m["core.receive_busy_s"] = traced.rx.receive_busy_seconds;
  m["core.decompress_busy_s"] = traced.rx.decompress_busy_seconds;
  m["core.compress_util"] = util(traced.tx.compress_busy_seconds,
                                 traced.tx.elapsed_seconds, traced.tx.compress_threads);
  m["core.send_util"] =
      util(traced.tx.send_busy_seconds, traced.tx.elapsed_seconds, traced.tx.send_threads);
  m["core.receive_util"] = util(traced.rx.receive_busy_seconds, traced.rx.elapsed_seconds,
                                traced.rx.receive_threads);
  m["core.decompress_util"] =
      util(traced.rx.decompress_busy_seconds, traced.rx.elapsed_seconds,
           traced.rx.decompress_threads);
  m["core.credit_stalls"] = static_cast<double>(traced.overload.credit_stalls);
  m["core.credit_grants"] = static_cast<double>(traced.overload.credit_grants);
  m["core.resume_handshakes"] = static_cast<double>(traced.resume.resume_handshakes);
  m["core.journal_records_written"] =
      static_cast<double>(traced.resume.journal_records_written);

  const double wire_per_chunk =
      traced.tx.chunks > 0
          ? static_cast<double>(traced.tx.wire_bytes) / static_cast<double>(traced.tx.chunks)
          : 0;
  const std::vector<StageCap> caps = layer_sum(w, m, chunks, wire_per_chunk);
  const StageCap* binding = &caps.front();
  for (const StageCap& c : caps) {
    if (c.gbps < binding->gbps) {
      binding = &c;
    }
  }
  const double measured = untraced.raw_gbps();
  m["layer_sum.predicted_gbps"] = binding->gbps;
  m["layer_sum.error"] = measured > 0 ? binding->gbps / measured - 1 : 0;
  m["trace_overhead"] = traced.raw_gbps() > 0 ? measured / traced.raw_gbps() : 0;

  const std::map<std::string, std::string> units = {
      {"_mbps", "MB/s"}, {"_gbps", "Gbps"}, {"_ns", "ns"},       {"_ms", "ms"},
      {"_us", "us"},     {"_s", "s"},       {"_per_s", "1/s"},   {"_util", "ratio"},
      {"_per_chunk", "count"}, {"_per_read", "B"}, {"error", "ratio"},
      {"trace_overhead", "x"}};
  const auto unit_of = [&](const std::string& name) {
    std::string best = "count";
    std::size_t best_len = 0;
    for (const auto& [suffix, unit] : units) {
      if (name.size() >= suffix.size() && suffix.size() > best_len &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        best = unit;
        best_len = suffix.size();
      }
    }
    return best;
  };
  for (const auto& [name, value] : m) {
    out.metrics.push_back({name, value, unit_of(name)});
  }
  print_table("per-layer (" + w.name + ", isolated rates + traced run)", out.metrics);

  std::printf("\n  layer sum: stage ceilings (isolated layer cost x threads)\n");
  for (const StageCap& c : caps) {
    std::printf("    %-44s %dx  %9.3f ms/chunk  %8.3f Gbps%s\n", c.stage, c.threads,
                c.s_per_chunk * 1e3, c.gbps, &c == binding ? "  <- binding" : "");
  }
  std::printf("    predicted %.3f Gbps vs measured %.3f Gbps untraced: error %+.1f%%\n",
              binding->gbps, measured, m["layer_sum.error"] * 100);
  if (std::abs(m["layer_sum.error"]) > 0.20) {
    std::printf("    layer missing from table (prediction misses by more than 20%%)\n");
  }
  std::printf("  fault-free gate: corrupt_frames %llu, duplicate_frames %llu,"
              " reconnects %llu, duplicate_deliveries_suppressed %llu\n",
              static_cast<unsigned long long>(traced.rx.corrupt_frames),
              static_cast<unsigned long long>(traced.tx_faults.duplicate_frames +
                                              traced.rx_faults.duplicate_frames),
              static_cast<unsigned long long>(traced.tx_faults.reconnects +
                                              traced.rx_faults.reconnects),
              static_cast<unsigned long long>(
                  traced.resume.duplicate_deliveries_suppressed));
  return out;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::atoi(value);
    } else if (key == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0 &&
         (opt.trace == 0 || opt.trace == 1);
}

void print_json(const Outcome& all) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              all.ok && all.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed));
  for (std::size_t i = 0; i < all.metrics.size(); ++i) {
    const Metric& m = all.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace rtbench

int main(int argc, char** argv) {
  using namespace rtbench;
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: rtbench --workload NAME|all --seed N --seconds S --trace 0|1"
                 " [--trace-dir DIR]\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  if (opt.workload == "all") {
    for (const Workload& w : workloads()) {
      selected.push_back(&w);
    }
  } else if (const Workload* w = find_workload(opt.workload)) {
    selected.push_back(w);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  const Environment env = Environment::probe();
  std::printf("environment: %s\n", env.describe().c_str());
  Outcome all;
  for (const Workload* w : selected) {
    const std::size_t count = (ring_bytes_for_llc(env.llc_bytes) + w->chunk_bytes() - 1) /
                              w->chunk_bytes();
    const Clock::time_point t0 = Clock::now();
    const Ring ring = Ring::generate(*w, opt.seed, count, w->streams, env.nproc);
    std::printf("\n== %s: %s, %s codec, %u stream(s), %zu B chunks, seed %llu\n"
                "   ring %zu distinct chunks (%.1f MiB, > LLC), generated in %.2f s"
                " (not part of setup_s)\n",
                w->name.c_str(), w->shape().c_str(), w->codec.c_str(), w->streams,
                w->chunk_bytes(), static_cast<unsigned long long>(opt.seed), ring.size(),
                static_cast<double>(ring.bytes()) / (1 << 20),
                std::chrono::duration<double>(Clock::now() - t0).count());
    Outcome one = opt.trace == 0 ? end_to_end(*w, ring, opt) : per_layer(*w, ring, opt);
    all.attempted += one.attempted;
    all.failed += one.failed;
    all.ok = all.ok && one.ok;
    for (Metric& m : one.metrics) {
      if (selected.size() > 1) {
        m.name = w->name + "." + m.name;
      }
      all.metrics.push_back(std::move(m));
    }
  }
  std::printf("\n");
  print_json(all);
  std::fflush(stdout);
  return all.ok && all.failed == 0 ? 0 : 1;
}
