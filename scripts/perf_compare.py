#!/usr/bin/env python3
"""Check a benchmark artifact, and compare it with a baseline if given.

Usage:
  perf_compare.py ARTIFACT.json [BASELINE.json]

The artifact's kind is read from its top-level keys. Each kind has a
schema and absolute gates; exec and macro also compare with a baseline:

  trace    bench_profile --trace-out: the profiler's counter track.
  metrics  bench_profile --metrics-out: p50/p95/p99 on every histogram.
  profile  bench_profile --profile-out: totals reconcile with the
           operators; fragments and the timeline are non-empty.
  soak     bench_soak: 0 oracle diffs, 0 leaked pins or sessions,
           shedding reached, recovery to healthy, 0 failed statements in
           the recovery phase, and a poison statement quarantined and
           fast-rejected. Rungs whose counter reads 0 are printed.
  exec     bench_exec: scan_filter and hash_join_count >= 2.0x,
           join_group_sum >= 1.0x; against a baseline, each speedup.
  macro    bench_macro: 0 diffs per mode and overall, span coverage
           >= 0.95, a non-empty slow-query log, tracing-disabled overhead
           <= 2%, served peak_running >= 2, no failed statement on any
           closed- or open-loop point; against a baseline, the checksums,
           each mode's speedup_vs_serial and the closed-loop scaling.

Gating philosophy: CI machines differ wildly in absolute throughput, so
absolute rates (rows/s, qps, latency) are reported but never compared.
What IS compared, at THRESHOLD (15%), are machine-portable ratios: a
mode's speedup relative to the serial engine on the same box at the same
moment, and served throughput at K clients relative to the same box's
1-client point. A regression must also clear an absolute noise floor
(NOISE_FLOOR, 0.15): on a loaded single-core runner the thread-handoff
modes (parallel, served) sit well below 1x where a few milliseconds of
scheduler jitter swings the ratio by more than 15%, and a sub-floor delta
is not actionable. Correctness (result diffs, row checksums) is gated
exactly: any drift fails. When a speedup regresses, the per-query
mean-latency deltas are printed so the failure names the queries that
moved.

Exit status: 0 = every gate holds, 1 = a gate failed, a ratio regressed
or the artifact is malformed.
"""

import json
import sys

THRESHOLD = 0.15    # relative ratio regression that fails a comparison
NOISE_FLOOR = 0.15  # absolute ratio delta below which nothing is gated


def fmt_pct(ratio):
    return f"{(ratio - 1.0) * 100:+.1f}%"


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)


def schema_failures(doc, schema):
    """`schema` maps a path to the keys every node there must have. A path
    walks dicts by key; `name[]` visits each element of a list (or each
    value of a dict). Paths under a missing key are skipped, since that
    key is reported already."""
    failures = []
    for path, keys in schema.items():
        nodes = [doc]
        for part in filter(None, path.split(".")):
            key = part.removesuffix("[]")
            nodes = [n[key] for n in nodes if key in n]
            if part.endswith("[]"):
                nodes = [e for n in nodes
                         for e in (n.values() if isinstance(n, dict) else n)]
        for node in nodes:
            failures += [f"{path or 'artifact'}: missing {k}"
                         for k in keys.split() if k not in node]
    return failures


def regressed(base, fresh):
    """True when ratio `fresh` fell past both THRESHOLD and NOISE_FLOOR."""
    return (base > 0 and fresh / base < 1.0 - THRESHOLD
            and base - fresh > NOISE_FLOOR)


def by_name(items):
    return {item["name"]: item for item in items}


# --- bench_profile documents ---------------------------------------------
#
# One profiled bench run emits a Chrome trace, a metrics snapshot and a
# QueryProfile document. Their structure is the contract consumed by trace
# viewers and the EXPERIMENTS.md figure tooling.

def gates_trace(trace, gate):
    events = trace["traceEvents"]
    gate("profile cpus busy" not in {e.get("name") for e in events},
         "trace: missing profiler counter track")
    gate(not any(e.get("ph") == "C" for e in events),
         "trace: no counter events")


def gates_profile(profile, gate):
    ops = profile["operators"]
    gate(not ops, "profile: no operators")
    gate(profile["totals"]["tuples_out"] !=
         sum(op["actual"]["rows"] for op in ops),
         "profile: totals do not reconcile with operators")
    gate(not profile["fragments"],
         "profile: parallel run recorded no fragments")
    gate(not profile["timeline"], "profile: no adjustment timeline")


# --- bench_soak ----------------------------------------------------------
#
# Standing fault-storm soak: a poison drill plus a ramp/peak/recover fault
# schedule against the full serving stack. The binary self-gates (exit 1)
# on the same properties; checking them here too means a silent change to
# the binary's own gating still trips CI.

# Degradation rungs the soak's storm does not reach; printed so they stay
# visible.
SOAK_RUNGS = ("serve.degraded", "serve.preempted",
              "overload.breaker.spill_io.opened")

def gates_soak(soak, gate):
    ov, poison = soak["overload"], soak["poison"]
    gate(soak["diffs"] != 0, f"soak: {soak['diffs']} oracle diffs")
    gate(soak["leaked_pins"] != 0,
         f"soak: {soak['leaked_pins']} leaked buffer pins")
    gate(soak["leaked_sessions"] != 0,
         f"soak: {soak['leaked_sessions']} leaked sessions")
    gate(not ov["reached_shedding"], "soak: storm never drove shedding")
    gate(not ov["recovered"],
         f"soak: did not recover (final state {ov['final_state']})")
    gate(not poison["quarantined"], "soak: poison statement not quarantined")
    gate(not poison["fast_reject"],
         "soak: quarantined statement was not fast-rejected")
    # Every fault is disarmed before the recovery phase starts, so a
    # statement failing there is the program's fault: say, a storm-time
    # quarantine of an honest statement.
    recovery = by_name(soak["phases"]).get("recovery")
    gate(recovery is None, "soak: no recovery phase")
    failed = recovery["failed"] if recovery is not None else 0
    gate(failed != 0, f"soak: {failed} statements failed in the recovery "
         "phase, with every fault disarmed")
    print(f"soak: {soak['completed']}/{soak['submitted']} completed, "
          f"{soak['shed']} shed, {len(ov['transitions'])} transitions, "
          f"final={ov['final_state']}")
    unreached = [r for r in SOAK_RUNGS if soak["counters"].get(r, 0) == 0]
    print("soak: rungs that never fired (reported, not gated): " +
          (", ".join(unreached) or "none"))


# --- bench_exec ----------------------------------------------------------

def gates_exec(bench, gate):
    # Tuple vs batch engine on CPU-bound workloads (kInstant disk). The
    # batch path's whole point is amortizing per-tuple costs, so the gate
    # fails if the scan+filter or hash-join speedup drops below 2x.
    # Correctness of the batch path itself is covered by the tier1
    # differential oracle, which runs every generated plan through the
    # vectorized modes.
    workloads = by_name(bench["workloads"])
    for name, floor in (("scan_filter", 2.0), ("hash_join_count", 2.0),
                        ("join_group_sum", 1.0)):
        speedup = workloads.get(name, {}).get("speedup")
        gate(speedup is None, f"exec: missing workload {name}")
        gate(speedup is not None and speedup < floor,
             f"exec: {name} vectorized speedup {speedup or 0:.2f}x < "
             f"{floor:.1f}x")
    print("exec speedups: " + ", ".join(
        f"{w['name']}={w['speedup']:.2f}x" for w in bench["workloads"]))


def compare_exec(fresh, base, gate):
    fresh_w = by_name(fresh["workloads"])
    print(f"{'workload':<18} {'speedup(base)':>13} {'speedup(new)':>13} "
          f"{'delta':>8}")
    for name, bw in by_name(base["workloads"]).items():
        fw = fresh_w.get(name)
        gate(fw is None, f"workload '{name}' disappeared from the artifact")
        if fw is None:
            continue
        ratio = fw["speedup"] / bw["speedup"] if bw["speedup"] > 0 else 1.0
        print(f"{name:<18} {bw['speedup']:>12.3f}x {fw['speedup']:>12.3f}x "
              f"{fmt_pct(ratio):>8}")
        gate(regressed(bw["speedup"], fw["speedup"]),
             f"workload '{name}' vectorized speedup regressed "
             f"{fmt_pct(ratio)}: {bw['speedup']:.3f}x -> "
             f"{fw['speedup']:.3f}x (threshold {THRESHOLD:.0%})")


# --- bench_macro ---------------------------------------------------------
#
# The standing TPC-H-flavored macro benchmark: every engine mode over one
# workload, with cross-mode checksums, per-query lifecycle span
# breakdowns, the served closed and open loops and the tracing-overhead
# measurement.

def gates_macro(bench, gate):
    # Correctness is exact: every mode is cross-checked against the serial
    # oracle, and a failed statement counts as a diff.
    modes = by_name(bench["modes"])
    for name in ("serial", "vectorized", "spill", "parallel", "served"):
        gate(name not in modes, f"macro: missing mode {name}")
    for m in bench["modes"]:
        gate(m["diffs"] != 0,
             f"macro: mode {m['name']} had {m['diffs']} result diffs")
    correctness = bench["correctness"]
    gate(correctness["queries"] <= 0, "macro: correctness checked no queries")
    gate(correctness["diffs"] != 0,
         f"macro: {correctness['diffs']} cross-mode diffs")
    gate(not bench["checksums"], "macro: no workload checksums")

    served = bench["served"]
    # The lifecycle children must tile each root span.
    gate(served["span_coverage_min"] < 0.95,
         f"macro: lifecycle spans cover only "
         f"{served['span_coverage_min']:.3f} of the worst root span (< 0.95)")
    gate(not served["span_breakdown"], "macro: no span breakdown")
    gate(served["slow_query_entries"] <= 0,
         "macro: slow-query log stayed empty at a 5ms threshold")
    # The serving layer exists to overlap queries: the scheduler must have
    # run two at once, and no statement may fail under any load.
    gate(served["peak_running"] < 2,
         f"macro: served peak_running {served['peak_running']} < 2: "
         "serving never overlapped two queries")
    for loop, label in (("closed_loop", "{clients} clients"),
                        ("open_loop", "{offered_qps:.0f} q/s")):
        gate(not served[loop], f"macro: no {loop} points")
        for p in served[loop]:
            gate(p["failed"] != 0,
                 f"macro: {loop} point {label.format(**p)} had "
                 f"{p['failed']} failed statements")
    for p in served["open_loop"]:
        print(f"open loop {p['offered_qps']:>5.0f} q/s offered: "
              f"{p['throughput_qps']:>7.1f} done, {p['rejected']} rejected "
              f"(reported, not gated)")

    overhead = bench["overhead"]["percent"]
    gate(overhead > 2.0,
         f"macro: tracing-disabled overhead {overhead:.2f}% > 2%")
    print(f"macro: span coverage min={served['span_coverage_min']:.4f}, "
          f"overhead={overhead:.2f}%, {served['slow_query_entries']} "
          f"slow-query entries, peak running={served['peak_running']}")


def explain_macro_mode(name, fresh_mode, base_mode):
    """Prints the per-query latency movers for a regressed mode."""
    base_q = base_mode.get("per_query_mean_ms", {})
    movers = sorted(((ms / base_q[q], q, base_q[q], ms)
                     for q, ms in fresh_mode["per_query_mean_ms"].items()
                     if base_q.get(q, 0) > 0), reverse=True)
    if movers:
        print(f"    slowest-moving queries in mode '{name}':")
    for ratio, query, base_ms, fresh_ms in movers[:5]:
        print(f"      {query:<24} {base_ms:8.3f} ms -> {fresh_ms:8.3f} ms "
              f"({fmt_pct(ratio)})")


def compare_macro(fresh, base, gate):
    # Checksums are seeded + FNV-1a, so they are identical across machines
    # for a given (scale, distribution). Only comparable when the fresh run
    # used the same workload shape as the baseline.
    if (fresh["scale"], fresh["distribution"]) == (base.get("scale"),
                                                   base.get("distribution")):
        for query, want in base.get("checksums", {}).items():
            got = fresh["checksums"].get(query)
            gate(got != want,
                 f"checksum drift on {query}: baseline {want} vs {got}")
    else:
        print("note: workload shape differs from baseline "
              f"(scale {base.get('scale')} -> {fresh['scale']}, "
              f"dist {base.get('distribution')} -> "
              f"{fresh['distribution']}); checksum gate skipped")

    fresh_modes = by_name(fresh["modes"])
    print(f"{'mode':<12} {'speedup(base)':>13} {'speedup(new)':>13} "
          f"{'delta':>8}   {'qps(base)':>10} {'qps(new)':>10}")
    for name, base_mode in by_name(base["modes"]).items():
        fresh_mode = fresh_modes.get(name)
        gate(fresh_mode is None, f"mode '{name}' disappeared from the artifact")
        if fresh_mode is None:
            continue
        base_speedup = base_mode["speedup_vs_serial"]
        fresh_speedup = fresh_mode["speedup_vs_serial"]
        ratio = fresh_speedup / base_speedup if base_speedup > 0 else 1.0
        print(f"{name:<12} {base_speedup:>12.3f}x {fresh_speedup:>12.3f}x "
              f"{fmt_pct(ratio):>8}   {base_mode['throughput_qps']:>10.1f} "
              f"{fresh_mode['throughput_qps']:>10.1f}")
        if regressed(base_speedup, fresh_speedup):
            gate(True, f"mode '{name}' speedup_vs_serial regressed "
                 f"{fmt_pct(ratio)}: {base_speedup:.3f}x -> "
                 f"{fresh_speedup:.3f}x (threshold {THRESHOLD:.0%})")
            explain_macro_mode(name, fresh_mode, base_mode)

    # Absolute qps is machine-bound; the portable ratio is how closed-loop
    # throughput scales with clients relative to the same box's 1-client
    # point.
    def scaling(points):
        qps = {p["clients"]: p["throughput_qps"] for p in points}
        one = qps.get(1)
        return {k: v / one for k, v in qps.items() if k != 1} if one else {}

    fresh_s = scaling(fresh["served"]["closed_loop"])
    base_s = scaling(base.get("served", {}).get("closed_loop", []))
    print(f"{'clients':<8} {'scaling(base)':>13} {'scaling(new)':>13} "
          f"{'delta':>8}")
    regressions = []
    for clients, want in sorted(base_s.items()):
        got = fresh_s.get(clients)
        gate(got is None,
             f"closed-loop point for {clients} clients disappeared")
        if got is None:
            continue
        print(f"{clients:<8} {want:>12.3f}x {got:>12.3f}x "
              f"{fmt_pct(got / want):>8}")
        if regressed(want, got):
            regressions.append(
                f"closed-loop scaling at {clients} clients regressed "
                f"{fmt_pct(got / want)}: {want:.3f}x -> {got:.3f}x "
                f"(threshold {THRESHOLD:.0%})")
    # Single-point scaling wobbles with scheduler jitter on loaded CI
    # boxes; a real serialization regression (a new global lock, a convoy)
    # drags down every multi-client point at once, so only an
    # across-the-board collapse is gated.
    collapse = bool(regressions) and len(regressions) == len(
        [c for c in base_s if c in fresh_s])
    for r in regressions:
        if collapse:
            gate(True, r)
        else:
            print(f"  note (not gated, other points held): {r}")


# kind: (identifying top-level key, schema, gates, baseline comparison)
KINDS = {
    "macro": ("modes", {
        "": "scale distribution reps correctness checksums modes served "
            "overhead",
        "correctness": "queries diffs",
        "modes[]": "name executed diffs total_seconds throughput_qps p50_ms "
                   "p95_ms p99_ms speedup_vs_serial per_query_mean_ms",
        "served": "peak_running slow_query_entries span_coverage_min "
                  "span_breakdown closed_loop open_loop",
        "served.span_breakdown[]": "query runs total_ms admission_ms "
                                   "queue_wait_ms execute_ms drain_ms",
        "served.closed_loop[]": "clients completed failed throughput_qps "
                                "p50_ms p95_ms p99_ms",
        "served.open_loop[]": "offered_qps completed rejected failed "
                              "throughput_qps p50_ms p99_ms",
        "overhead": "percent",
    }, gates_macro, compare_macro),
    "exec": ("workloads", {"workloads[]": "name speedup"}, gates_exec,
             compare_exec),
    "soak": ("poison", {
        "": "seed duration_s clients peak_fault_rate faults_injected "
            "submitted completed failed shed diffs leaked_pins "
            "leaked_sessions overload breakers poison phases counters",
        "overload": "reached_degraded reached_shedding recovered "
                    "final_state sheds transitions",
        "overload.transitions[]": "t_s from to reason",
        "breakers": "storage_read spill_io",
        "poison": "quarantined fast_reject entries",
        "phases[]": "name seconds submitted completed failed shed p99_ms",
    }, gates_soak, None),
    "trace": ("traceEvents", {}, gates_trace, None),
    "metrics": ("histograms", {
        "": "counters gauges histograms",
        "counters": "profile.queries profile.tuples_out profile.pages_read",
        "histograms[]": "count sum min max buckets p50 p95 p99",
    }, lambda metrics, gate: None, None),
    "profile": ("operators", {
        "": "operators fragments timeline utilization totals",
        "operators[]": "id parent kind label est actual",
        "totals": "tuples_out",
    }, gates_profile, None),
}


def kind_of(doc):
    return next((kind for kind, (key, *_) in KINDS.items()
                 if isinstance(doc, dict) and key in doc), None)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 1
    artifact = load(argv[1])
    kind = kind_of(artifact)
    if kind is None:
        print("perf_compare: unrecognized artifact (no key of " +
              ", ".join(key for key, *_ in KINDS.values()) + ")",
              file=sys.stderr)
        return 1
    _, schema, gates, compare = KINDS[kind]
    base = load(argv[2]) if len(argv) == 3 else None
    if base is not None and (kind_of(base) != kind or compare is None):
        print(f"perf_compare: cannot compare a {kind} artifact with "
              f"{argv[2]}", file=sys.stderr)
        return 1

    failures = schema_failures(artifact, schema)
    verdict = "MALFORMED"
    if not failures:
        verdict = "FAILED"

        def gate(failed, message):
            if failed:
                failures.append(message)

        gates(artifact, gate)
        if base is not None:
            compare(artifact, base, gate)

    if failures:
        print(f"\nperf_compare: {kind} artifact {verdict} "
              f"({len(failures)} failure(s)):")
        for f in failures:
            print(f"  FAIL: {f}")
        return 1
    print(f"\nperf_compare: {kind} artifact ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
