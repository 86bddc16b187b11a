#!/usr/bin/env bash
# Runs the two micro benches (queue handoff, and the real codec's rates and
# ratios), the figure-12 end-to-end bench and every ablation bench, and
# collects their machine-readable BENCH_<name>.json artifacts into one
# directory.
#
#   scripts/run_bench_suite.sh [build-dir] [out-dir]
#
# Each bench self-checks its shape assertions and exits non-zero on any red
# check, so this script doubles as a correctness gate; the JSON artifacts are
# the perf-trajectory record that CI diffs warn-only between runs
# (scripts/bench_diff.py).
#
# A failing bench does NOT stop the suite: every bench runs, failures are
# collected, and the script exits non-zero at the end if anything failed or
# left no artifact — so one red bench can't hide the state of the others.
set -uo pipefail

build_dir=${1:-build}
out_dir=${2:-bench-json}

benches=(
  micro_queue
  micro_codec
  fig12_end_to_end
  ablation_adaptive
  ablation_chunk_size
  ablation_compression_ratio
  ablation_crash_resume
  ablation_degradation
  ablation_gateway_failover
  ablation_gateway_rebalance
  ablation_multinic
  ablation_numa_penalty
  ablation_os_scheduler
  ablation_overload
  ablation_oversubscription
  ablation_scrub
)

mkdir -p "$out_dir"
failed=()
for bench in "${benches[@]}"; do
  echo "=== $bench ==="
  if ! NUMASTREAM_BENCH_JSON_DIR=$out_dir "$build_dir/bench/$bench"; then
    echo "FAILED: $bench" >&2
    failed+=("$bench")
  fi
done

missing=()
for bench in "${benches[@]}"; do
  if [[ ! -f "$out_dir/BENCH_$bench.json" ]]; then
    echo "missing artifact: $out_dir/BENCH_$bench.json" >&2
    missing+=("$bench")
  fi
done

if ((${#failed[@]} > 0 || ${#missing[@]} > 0)); then
  echo "bench suite: ${#failed[@]} failed (${failed[*]:-}), ${#missing[@]}" \
       "missing artifacts (${missing[*]:-})" >&2
  exit 1
fi
echo "bench suite: all ${#benches[@]} benches green"
