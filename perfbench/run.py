#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the rmcrt
libraries from ../src) into .bench_build/perfbench on first use, runs its
self-test, then runs one workload:

    python3 perfbench/run.py --workload bc2l_march --seed 1 --seconds 50 --trace 0

Run from the repository root. The workload's report is relayed to stdout;
the last line is one JSON object with the keys correct, attempted, failed
and metrics (the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1, in its order). BENCHMARK.json is the one
list of metric names and units: a per-layer metric that the workload's
layers do not exercise is reported as 0, and a missing end-to-end metric,
an unknown name or a unit that differs is an error. Exits non-zero
without a result when the build, the self-test or that check fails, and
with the program's own code (1) when an operation failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"rmcrt sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    steps.append([str(BUILD / "perfbench_selftest")])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"'{' '.join(cmd)}' exited {done.returncode}")


def expected_metrics(trace):
    """(name, unit) of every metric of this mode, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    want = expected_metrics(args.trace)
    build()

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"perfbench exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = result["metrics"]
    units = dict(want)
    extra = sorted(set(got) - set(units))
    if extra:
        fail(f"metrics not in BENCHMARK.json: {extra}")
    for name, m in got.items():
        if m["unit"] != units[name]:
            fail(f"metric {name} has unit {m['unit']}, not {units[name]}")
        if not isinstance(m["value"], (int, float)):
            fail(f"metric {name} has no value")
    missing = [name for name, _ in want if name not in got]
    if missing and not args.trace:
        fail(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {
        name: got.get(name, {"value": 0, "unit": unit}) for name, unit in want}
    if result["attempted"] < 1:
        fail("nothing attempted")
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
