#!/usr/bin/env python3
"""Builds and runs the jsontiles benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: tpch-analytics and twitter-ingest (see BENCHMARK.json).
The first run configures and compiles the benchmark and the jsontiles library
from source into .bench_build/perfbench; later runs only check that build is
up to date. The benchmark prints a readable report on stderr and, as the last
line of stdout, one JSON object with "correct", "attempted", "failed" and
"metrics" (every end-to-end metric with --trace 0, every per-layer metric with
--trace 1). It exits non-zero when the build fails, when any checked operation
fails or returns a wrong answer, or when the jsontiles sources are missing.

Extra flags for the self-test (perfbench/selftest.py): --scale tiny runs every
phase over a few thousand documents; --corrupt-reference corrupts one
reference digest so the correctness gate must trip.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("tpch-analytics", "twitter-ingest")
# A run must end within 180 s; leave room for the up-to-date check.
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"jsontiles sources not found under {ROOT}/src")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", choices=("tiny",))
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.scale:
        cmd += ["--scale", args.scale]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
