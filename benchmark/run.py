#!/usr/bin/env python3
"""Repository benchmark: builds benchmark/crusader_bench and runs workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 benchmark/run.py --check

The first form runs one workload in one process. The second runs every
workload, each in its own process, and prints each one's metrics. --check runs
every workload at a reduced size and only checks its outputs (a few seconds
after the build). Run from anywhere; paths are taken relative to this file.

The last line of standard output is one JSON object with the keys "correct",
"attempted", "failed" and "metrics". The exit status is 0 only when every
check passed and no cell failed; it is 2, with no result printed, when the
program cannot be built. benchmark/README.md explains workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
WORKLOADS = ["complete_mix", "relay_adversarial", "churn_dynamic",
             "large_n_flood", "campaign_resume"]
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds crusader_bench, untimed; returns its
    path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("run.py: no src/CMakeLists.txt next to benchmark/; "
            "nothing to build")
        sys.exit(2)
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(out), "--target", "crusader_bench",
                  "--parallel", "4"])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        build_step = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if build_step.returncode:
            log("run.py: build step failed:", " ".join(step))
            sys.exit(2)
    return out / "crusader_bench"


def load_json(name):
    path = ROOT / name
    return json.loads(path.read_text()) if path.is_file() else None


def run_workload(exe, workload, seed, seconds, trace, check=False):
    """One workload in its own process; returns crusader_bench's JSON result
    with the golden-digest and metric-list checks applied."""
    workdir = build_dir() / "runs" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--workdir={workdir}"]
    if check:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {workload}: crusader_bench exited with "
            f"{proc.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])

    golden = json.loads((BENCH / "golden.json").read_text())
    if seed == golden["seed"]:
        want = golden["check" if check else "full"][workload]
        if result["csv_sha256"] != want:
            result["correct"] = False
            result["problems"].append(
                f"CSV digest {result['csv_sha256']} != golden {want}")

    spec = load_json("BENCHMARK.json")
    if spec is not None and not check:
        kind = "per_layer" if trace else "end_to_end"
        listed = {m["name"] for m in spec[kind]}
        if listed != set(result["metrics"]):
            result["correct"] = False
            result["problems"].append(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(listed ^ set(result['metrics']))}")

    for problem in result["problems"]:
        log(f"run.py: {workload}: {problem}")
    log(f"run.py: {workload} seed={seed}: csv_sha256 {result['csv_sha256']}")
    return result


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload:18s} {name:34s} {m['value']:>16.6g} {m['unit']}")


def main():
    spec = load_json("BENCHMARK.json") or {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true",
                        help="every workload at reduced size, checks only")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    exe = build()

    if args.workload and not args.check:
        r = run_workload(exe, args.workload, args.seed, args.seconds,
                         args.trace)
        print(json.dumps({k: r[k] for k in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if r["correct"] and r["failed"] == 0 else 1

    # Every workload (or --check): one process each, results side by side.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [args.workload] if args.workload else WORKLOADS:
        if args.check:
            r = run_workload(exe, workload, 1, 0, 1, check=True)
            verdict = "ok" if r["correct"] and not r["failed"] else "FAILED"
            print(f"{workload:18s} {verdict} ({r['attempted']} cells, "
                  f"{r['failed']} failed)")
        else:
            r = run_workload(exe, workload, args.seed, args.seconds,
                             args.trace)
            print_metrics(workload, r["metrics"])
            for name, m in r["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
        total["correct"] = total["correct"] and r["correct"]
        total["attempted"] += r["attempted"]
        total["failed"] += r["failed"]
    print(json.dumps(total))
    return 0 if total["correct"] and total["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
