#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes benchmark/baseline.json.

    python3 benchmark/baseline.py [--runs 10] [--seconds S]

Two sets of runs of every workload, set A on seeds 1..runs and set B on
seeds 101..100+runs, each run one `run.py --workload` process. For every
(workload, end-to-end metric) pair it records each set's median and
quartiles, as statistics.quantiles(values, n=4) gives them, and prints the
spread (q3 - q1) / median and the shift of set B's median against set A's
next to the metric's bound from BENCHMARK.json. A later change uses these
numbers to tell a regression from the noise of an unchanged commit.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = {"A": 1, "B": 101}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"] or result["failed"]:
        sys.exit(f"baseline.py: {workload} seed {seed} failed: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {}
    for name, first in SETS.items():
        seeds = list(range(first, first + args.runs))
        per_workload = {}
        for workload in workloads:
            runs = [run(workload, seed, args.seconds) for seed in seeds]
            per_workload[workload] = {
                metric: summarize([r[metric] for r in runs])
                for metric in bounds}
        sets[name] = {"seeds": seeds, "workloads": per_workload}

    for workload in workloads:
        for metric, bound in bounds.items():
            a = sets["A"]["workloads"][workload][metric]
            b = sets["B"]["workloads"][workload][metric]
            print(f"{workload:18s} {metric:14s} bound {bound:.2f}  spread "
                  f"A {a['spread']:.4f} B {b['spread']:.4f}  B/A median "
                  f"{b['median'] / a['median']:.4f}")

    out = {"cpu": cpu_model(), "run_seconds": args.seconds, "sets": sets}
    (ROOT / "benchmark" / "baseline.json").write_text(
        json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
