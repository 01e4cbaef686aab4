#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks, at a tiny scale (a few thousand documents, 1 s timed phase):
  * every workload prints, untraced, exactly the end-to-end metrics of
    BENCHMARK.json and, traced, exactly its per-layer metrics, each with its
    declared unit and a finite value, and every check passes;
  * the correctness gate trips (non-zero exit, "correct": false, failures
    counted) when a reference digest is corrupted;
  * in a directory holding only BENCHMARK.json and the benchmark's files the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first failed assertion.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark's files
from run import WORKLOADS  # noqa: E402


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def check(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}

    for workload in WORKLOADS:
        for trace in (0, 1):
            proc, result = run(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", str(trace),
                                "--scale", "tiny"])
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0,
                  f"{what} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
            check(result is not None, f"{what} printed no result line")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what} result {result}")
            metrics = result["metrics"]
            check(set(metrics) == set(expected[trace]),
                  f"{what} metric names differ: missing "
                  f"{sorted(set(expected[trace]) - set(metrics))}, extra "
                  f"{sorted(set(metrics) - set(expected[trace]))}")
            for name, unit in expected[trace].items():
                value = metrics[name]["value"]
                check(metrics[name]["unit"] == unit,
                      f"{what} {name} unit {metrics[name]['unit']} != {unit}")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{what} {name} value {value!r} is not finite")
            print(f"ok  {what}: {len(metrics)} metrics, "
                  f"{result['attempted']} checked operations", flush=True)

        proc, result = run(["--workload", workload, "--seed", "7",
                            "--seconds", "1", "--trace", "0", "--scale", "tiny",
                            "--corrupt-reference"])
        check(proc.returncode != 0,
              f"{workload}: corrupted reference did not fail the run")
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1,
              f"{workload}: corrupted reference result {result}")
        print(f"ok  {workload}: corrupted reference trips the gate "
              f"({result['failed']} failed)", flush=True)

    # A checkout that holds only the benchmark: no sources to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", WORKLOADS[0], "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          f"bare directory: exit {proc.returncode}, result {result}")
    print("ok  bare directory: exits non-zero without a result", flush=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
