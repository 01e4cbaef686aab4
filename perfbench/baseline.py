#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each end-to-end metric.

Run from the repository root:

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                  [--output perfbench/baseline.json]

For every workload it runs `perfbench/run.py` once per seed (untraced), then
records per metric the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and every
value. Any failed run, or a run whose result line is not correct, makes the
script exit non-zero. The JSON written to --output is the benchmark's
recorded baseline; perfbench/baseline.json holds the one for the commit that
added the benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace, log_dir=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    if log_dir:
        with open(os.path.join(log_dir, f"{workload}-{seed}.log"), "w") as f:
            f.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: run failed "
                         f"(exit {proc.returncode})")
    return result, wall


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--output")
    parser.add_argument("--log-dir", help="keep each run's report here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": [], "workloads": {}}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    report["seeds"] = seeds
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, wall = run_once(workload, seed, bench["run_seconds"], 0,
                                    args.log_dir)
            runs.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  f"{result['attempted']} checked", file=sys.stderr, flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summarise(values),
                                 unit=runs[0]["metrics"][name]["unit"])
            s = metrics[name]["spread"]
            flag = "" if s is None or s < bounds[name] / 3 else "  <-- wide"
            print(f"  {workload:15s} {name:28s} median {metrics[name]['median']:.6g}"
                  f"  spread {s:.4f}  bound {bounds[name]}{flag}",
                  file=sys.stderr, flush=True)
        report["workloads"][workload] = metrics
    if args.output:
        with open(args.output, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
