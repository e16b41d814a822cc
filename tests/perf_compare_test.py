#!/usr/bin/env python3
"""Every gate of scripts/perf_compare.py fires.

The committed macro and exec baselines pass against themselves; then each
case doctors one copy of an artifact to break exactly one gate and expects
exit 1 with that gate named in the output. The soak, profile, trace and
metrics documents are built here, since no baseline of them is committed.

  python3 tests/perf_compare_test.py
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "perf_compare.py")
BASELINES = os.path.join(ROOT, "bench", "baselines")


def load_baseline(name):
    with open(os.path.join(BASELINES, name)) as f:
        return json.load(f)


MACRO = load_baseline("BENCH_macro.json")
EXEC = load_baseline("BENCH_exec.json")

SOAK = {
    "seed": 1, "duration_s": 5.0, "clients": 4, "peak_fault_rate": 0.6,
    "faults_injected": 100, "submitted": 1000, "completed": 900,
    "failed": 10, "shed": 90, "diffs": 0, "leaked_pins": 0,
    "leaked_sessions": 0,
    "overload": {
        "reached_degraded": True, "reached_shedding": True,
        "recovered": True, "final_state": "healthy", "sheds": 90,
        "transitions": [{"t_s": 0.2, "from": "healthy", "to": "shedding",
                         "reason": "fault_rate 0.50 >= 0.50"}],
    },
    "breakers": {"storage_read": {"opened": 1, "fast_fails": 5},
                 "spill_io": {"opened": 0, "fast_fails": 0}},
    "poison": {"quarantined": True, "fast_reject": True, "entries": 3},
    "phases": [{"name": "peak", "seconds": 1.5, "submitted": 500,
                "completed": 400, "failed": 10, "shed": 90,
                "p99_ms": 3.8},
               {"name": "recovery", "seconds": 1.5, "submitted": 500,
                "completed": 500, "failed": 0, "shed": 0,
                "p99_ms": 1.2}],
    "counters": {"serve.degraded": 0, "serve.preempted": 0,
                 "overload.breaker.storage_read.opened": 1,
                 "overload.breaker.spill_io.opened": 0,
                 "resilience.retry.fragment": 12},
}

PROFILE = {
    "operators": [
        {"id": 0, "parent": -1, "kind": "HashJoin", "label": "join",
         "est": {"rows": 10}, "actual": {"rows": 10}},
        {"id": 1, "parent": 0, "kind": "SeqScan", "label": "scan",
         "est": {"rows": 40}, "actual": {"rows": 40}},
    ],
    "fragments": [{"id": 0}],
    "timeline": [{"t": 0.0, "parallelism": 2}],
    "utilization": {},
    "totals": {"tuples_out": 50},
}

TRACE = {"traceEvents": [
    {"name": "profile cpus busy", "ph": "C", "ts": 0, "args": {"cpus": 2}},
]}

METRICS = {
    "counters": {"profile.queries": 1, "profile.tuples_out": 50,
                 "profile.pages_read": 4},
    "gauges": {},
    "histograms": {"profile.fragment_seconds": {
        "count": 1, "sum": 0.1, "min": 0.1, "max": 0.1, "buckets": [],
        "p50": 0.1, "p95": 0.1, "p99": 0.1}},
}


def run(tmp, artifact, baseline=None):
    """Runs the checker; returns (exit code, stdout + stderr)."""
    paths = []
    for i, doc in enumerate((artifact, baseline)):
        if doc is None:
            continue
        path = os.path.join(tmp, f"doc{i}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        paths.append(path)
    proc = subprocess.run([sys.executable, CHECKER] + paths,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def mode(doc, name):
    return next(m for m in doc["modes"] if m["name"] == name)


def workload(doc, name):
    return next(w for w in doc["workloads"] if w["name"] == name)


def collapse_scaling(doc):
    """Every multi-client point falls to a quarter of the 1-client rate."""
    points = doc["served"]["closed_loop"]
    one = next(p for p in points if p["clients"] == 1)["throughput_qps"]
    for p in points:
        if p["clients"] != 1:
            p["throughput_qps"] = one / 4


def set_path(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


# (name, base document, edit, compare against the unedited document,
#  text the failure must contain)
CASES = [
    ("exec scan_filter floor", EXEC,
     lambda d: workload(d, "scan_filter").update(speedup=1.99), False,
     "scan_filter vectorized speedup 1.99x < 2.0x"),
    ("exec hash_join_count floor", EXEC,
     lambda d: workload(d, "hash_join_count").update(speedup=1.99), False,
     "hash_join_count vectorized speedup 1.99x < 2.0x"),
    ("exec join_group_sum floor", EXEC,
     lambda d: workload(d, "join_group_sum").update(speedup=0.99), False,
     "join_group_sum vectorized speedup 0.99x < 1.0x"),
    ("exec missing workload", EXEC,
     lambda d: d["workloads"].pop(), False, "missing workload"),
    ("exec speedup regression", EXEC,
     lambda d: workload(d, "join_group_sum").update(
         speedup=workload(d, "join_group_sum")["speedup"] * 0.7), True,
     "workload 'join_group_sum' vectorized speedup regressed"),

    ("macro mode diffs", MACRO,
     lambda d: mode(d, "spill").update(diffs=1), False,
     "mode spill had 1 result diffs"),
    ("macro overall diffs", MACRO,
     lambda d: set_path(d, ("correctness", "diffs"), 1), False,
     "1 cross-mode diffs"),
    ("macro nothing checked", MACRO,
     lambda d: set_path(d, ("correctness", "queries"), 0), False,
     "correctness checked no queries"),
    ("macro span coverage", MACRO,
     lambda d: set_path(d, ("served", "span_coverage_min"), 0.94), False,
     "lifecycle spans cover only 0.940"),
    ("macro empty span breakdown", MACRO,
     lambda d: set_path(d, ("served", "span_breakdown"), []), False,
     "no span breakdown"),
    ("macro slow-query log", MACRO,
     lambda d: set_path(d, ("served", "slow_query_entries"), 0), False,
     "slow-query log stayed empty"),
    ("macro overhead", MACRO,
     lambda d: set_path(d, ("overhead", "percent"), 2.01), False,
     "tracing-disabled overhead 2.01% > 2%"),
    ("macro peak_running", MACRO,
     lambda d: set_path(d, ("served", "peak_running"), 1), False,
     "peak_running 1 < 2"),
    ("macro failed closed-loop point", MACRO,
     lambda d: d["served"]["closed_loop"][1].update(failed=1), False,
     "closed_loop point 2 clients had 1 failed statements"),
    ("macro failed open-loop point", MACRO,
     lambda d: d["served"]["open_loop"][1].update(failed=1), False,
     "open_loop point 400 q/s had 1 failed statements"),
    ("macro no open-loop points", MACRO,
     lambda d: set_path(d, ("served", "open_loop"), []), False,
     "no open_loop points"),
    ("macro missing served field", MACRO,
     lambda d: d["served"].pop("closed_loop"), False,
     "served: missing closed_loop"),
    ("macro scaling collapse", MACRO, collapse_scaling, True,
     "closed-loop scaling at 4 clients regressed"),
    ("macro speedup regression", MACRO,
     lambda d: mode(d, "parallel").update(
         speedup_vs_serial=mode(d, "parallel")["speedup_vs_serial"] * 0.5),
     True, "mode 'parallel' speedup_vs_serial regressed"),
    ("macro checksum drift", MACRO,
     lambda d: d["checksums"]["q1_lineitem_sum"].update(checksum=1), True,
     "checksum drift on q1_lineitem_sum"),

    ("soak diffs", SOAK, lambda d: d.update(diffs=1), False,
     "1 oracle diffs"),
    ("soak leaked pins", SOAK, lambda d: d.update(leaked_pins=2), False,
     "2 leaked buffer pins"),
    ("soak leaked sessions", SOAK, lambda d: d.update(leaked_sessions=1),
     False, "1 leaked sessions"),
    ("soak shedding", SOAK,
     lambda d: d["overload"].update(reached_shedding=False), False,
     "storm never drove shedding"),
    ("soak recovery", SOAK,
     lambda d: d["overload"].update(recovered=False, final_state="degraded"),
     False, "did not recover (final state degraded)"),
    ("soak quarantine", SOAK,
     lambda d: d["poison"].update(quarantined=False), False,
     "poison statement not quarantined"),
    ("soak fast reject", SOAK,
     lambda d: d["poison"].update(fast_reject=False), False,
     "quarantined statement was not fast-rejected"),
    ("soak recovery failures", SOAK,
     lambda d: d["phases"][1].update(failed=1), False,
     "1 statements failed in the recovery phase"),
    ("soak no recovery phase", SOAK, lambda d: d["phases"].pop(1), False,
     "no recovery phase"),
    ("soak schema", SOAK, lambda d: d["breakers"].pop("spill_io"), False,
     "breakers: missing spill_io"),
    ("soak counters", SOAK, lambda d: d.pop("counters"), False,
     "artifact: missing counters"),

    ("profile totals", PROFILE,
     lambda d: d["totals"].update(tuples_out=49), False,
     "totals do not reconcile with operators"),
    ("profile fragments", PROFILE, lambda d: d.update(fragments=[]), False,
     "parallel run recorded no fragments"),
    ("profile timeline", PROFILE, lambda d: d.update(timeline=[]), False,
     "no adjustment timeline"),
    ("profile operator schema", PROFILE,
     lambda d: d["operators"][1].pop("est"), False,
     "operators[]: missing est"),

    ("trace counter track", TRACE,
     lambda d: d["traceEvents"][0].update(name="other"), False,
     "missing profiler counter track"),
    ("trace counter events", TRACE,
     lambda d: d["traceEvents"][0].update(ph="X"), False,
     "no counter events"),

    ("metrics counter", METRICS,
     lambda d: d["counters"].pop("profile.pages_read"), False,
     "missing profile.pages_read"),
    ("metrics histogram", METRICS,
     lambda d: d["histograms"]["profile.fragment_seconds"].pop("p95"),
     False, "missing p95"),
]


def main():
    # (name, artifact, baseline, exit code wanted, text the output holds)
    checks = [(f"{name} as built", doc, doc if name in ("macro", "exec")
               else None, 0, "artifact ok")
              for name, doc in (("macro", MACRO), ("exec", EXEC),
                                ("soak", SOAK), ("profile", PROFILE),
                                ("trace", TRACE), ("metrics", METRICS))]
    # A rule that must not fire: one multi-client point regressing alone
    # is scheduler jitter; only an across-the-board collapse is gated.
    doctored = copy.deepcopy(MACRO)
    doctored["served"]["closed_loop"][1]["throughput_qps"] = (
        doctored["served"]["closed_loop"][0]["throughput_qps"] / 4)
    checks.append(("one-point scaling drop", doctored, MACRO, 0,
                   "note (not gated"))
    for name, doc, edit, compare, expected in CASES:
        doctored = copy.deepcopy(doc)
        edit(doctored)
        checks.append((name, doctored, doc if compare else None, 1, expected))

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, artifact, baseline, want, expected in checks:
            code, out = run(tmp, artifact, baseline)
            if code != want or expected not in out:
                failures.append(f"{name}: exit {code}, wanted {want} with "
                                f"'{expected}'\n{out}")
    for f in failures:
        print(f"FAIL {f}")
    print(f"perf_compare_test: {len(checks) - len(failures)}/{len(checks)} "
          "checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
