#!/usr/bin/env python3
"""Builds and runs the real-runtime benchmark.

    python3 rtbench/run.py --workload proj_lz4 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark package (rtbench/CMakeLists.txt, which compiles the runtime
libraries from src/) into .bench_build/rtbench; later runs rebuild
incrementally. Each run then executes the benchmark's self-tests and the
benchmark itself. Build output goes to stderr; the benchmark's tables go to
stdout, whose last line is the result JSON. The exit code is non-zero when
the build, the self-tests or the run fail, or any chunk is not delivered
intact.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(".bench_build", "rtbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run(cmd, timeout, **kwargs):
    """Runs cmd to completion; kills it (and waits) if it overruns."""
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"timed out after {timeout} s: {' '.join(cmd)}", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        print("numastream sources (src/) not found next to rtbench/", file=sys.stderr)
        return False
    generated = [os.path.join(ROOT, BUILD, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.isfile(f) for f in generated):
        configure = ["cmake", "-S", "rtbench", "-B", BUILD]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if run(configure, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run(["cmake", "--build", BUILD, "-j", jobs, "--target", "rtbench",
                "rtbench_selftest"], BUILD_TIMEOUT_S, stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="proj_lz4, proj_null, tile_session or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    selftest = os.path.join(ROOT, BUILD, "rtbench_selftest")
    if run([selftest], RUN_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("benchmark self-tests failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return run([os.path.join(ROOT, BUILD, "rtbench"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--trace-dir", BUILD],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
