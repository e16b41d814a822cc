#!/usr/bin/env python3
"""Tests of the served benchmark itself.

  python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does), runs the C++ self-test of its
inputs (tail-percentile rule, seeded sequences, order-independent digest),
checks how run.py reads BENCHMARK.json, and makes short real runs that
must print every BENCHMARK.json metric with its unit and a success_ratio
of 1.0 at the default and the held-out seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def run_bench(workload, seed, trace, seconds=1):
    """One run through run.py; returns the parsed last stdout line."""
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, timeout=run.BENCH_TIMEOUT_S + 60)
    return json.loads(out.stdout.strip().splitlines()[-1])


class ServedBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.self_test = run.build("served_workload_test")
        cls.spec = run.load_spec()

    def test_self_test(self):
        subprocess.run([str(self.self_test)], check=True)

    def test_tail_percentile_is_stated_per_workload(self):
        for workload in self.spec["workloads"]:
            self.assertIsNotNone(
                run.tail_percentile(self.spec, workload["name"]),
                workload["name"])

    def test_result_must_name_exactly_the_listed_metrics(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        result = {"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {name: 1.5 for name in names}}
        checked = run.attach_units(result, self.spec, 0)
        self.assertEqual(list(checked["metrics"]), names)
        missing = dict(result, metrics={n: 1.5 for n in names[1:]})
        with self.assertRaisesRegex(ValueError, "missing metric"):
            run.attach_units(missing, self.spec, 0)
        extra = dict(result, metrics=dict(result["metrics"], other=1.0))
        with self.assertRaisesRegex(ValueError, "unlisted metric"):
            run.attach_units(extra, self.spec, 0)

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_bench("point_lookup", run.DEFAULT_SEED, trace)
            self.assertEqual(set(result), run.RESULT_KEYS)
            printed = {name: metric["unit"]
                       for name, metric in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in self.spec[key]}
            self.assertEqual(printed, expected, key)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_success_at_default_and_held_out_seed(self):
        for workload in ("point_lookup", "olap_solo"):
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                result = run_bench(workload, seed, 0)
                self.assertEqual(
                    result["metrics"]["success_ratio"]["value"], 1.0,
                    f"{workload} seed {seed}")


if __name__ == "__main__":
    unittest.main()
