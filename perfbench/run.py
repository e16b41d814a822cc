#!/usr/bin/env python3
"""Served benchmark entry point: builds served_bench from source, runs one
workload and prints its result as the last line of stdout.

  python3 perfbench/run.py --workload olap_solo|point_lookup
                           [--seed N] [--seconds S] [--trace 0|1]

BENCHMARK.json is the benchmark's specification, and this script reads
from it what served_bench does not know: the default run length
(run_seconds), each workload's tail percentile (the "tail pN" at the end
of its why) and each metric's unit. served_bench prints metric values by
name; this script attaches the units and fails when a metric BENCHMARK.json
lists for the run (end_to_end with --trace 0, per_layer with --trace 1) is
missing or an unlisted one is printed.

The build goes to .bench_build/ at the checkout root (CMake project in
perfbench/CMakeLists.txt; it compiles the library sources under src/).
Build logs and progress go to stderr. The exit code is non-zero when the
build fails, the benchmark reports a wrong result or the result does not
match BENCHMARK.json.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The default seed, and a held-out seed the workloads were not tuned on;
# success_ratio is 1.0 on both (test_perfbench.py checks it).
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173
# A run must end within three minutes; the slowest (a traced olap_solo
# run) takes about 80 s.
BENCH_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail_percentile(spec, workload):
    """The tail percentile BENCHMARK.json fixes for `workload`, or None."""
    for entry in spec["workloads"]:
        if entry["name"] == workload:
            found = re.search(r"tail p([0-9.]+)$", entry["why"])
            return float(found.group(1)) if found else None
    return None


def build(target="served_bench"):
    """Configures and builds `target`; returns the binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", target],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    return BUILD / target


def attach_units(result, spec, trace):
    """Checks a parsed served_bench result line against `spec` and returns
    it with every metric as {"value", "unit"}, in BENCHMARK.json's order.
    Raises ValueError naming every problem found."""
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError(f"result is not an object with keys "
                         f"{sorted(RESULT_KEYS)}")
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed = {result['failed']!r}")
    listed = spec["per_layer" if trace else "end_to_end"]
    printed = result["metrics"]
    names = [m["name"] for m in listed]
    problems += [f"missing metric {n}" for n in names if n not in printed]
    problems += [f"unlisted metric {n}" for n in printed if n not in names]
    problems += [f"{n} = {printed[n]!r} is not a number" for n in names
                 if n in printed and not isinstance(printed[n], (int, float))]
    if problems:
        raise ValueError("; ".join(problems))
    return dict(result, metrics={
        m["name"]: {"value": printed[m["name"]], "unit": m["unit"]}
        for m in listed})


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tail = tail_percentile(spec, args.workload)
    if tail is None:
        log(f"run.py: the why of {args.workload} in BENCHMARK.json does not "
            f"end with its tail percentile (tail pN)")
        return 1

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"run.py: build failed: {error}")
        return 1

    command = [str(binary), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--trace={args.trace}", f"--tail-percentile={tail:g}"]
    try:
        bench = subprocess.run(command, stdout=subprocess.PIPE,
                               stderr=sys.stderr, text=True,
                               timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: served_bench did not finish in {BENCH_TIMEOUT_S}s")
        return 1

    lines = bench.stdout.strip().splitlines()
    try:
        result = attach_units(json.loads(lines[-1]), spec, args.trace)
    except (IndexError, json.JSONDecodeError, ValueError) as error:
        log(f"run.py: bad result line (exit code {bench.returncode}): "
            f"{error}")
        return 1
    print(json.dumps(result))
    if bench.returncode != 0 or not result["correct"]:
        log(f"run.py: served_bench failed (exit code {bench.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
