#!/usr/bin/env bash
# CI entry point: build + run the tier1 test suite in the default config,
# gate the benchmark artifacts (vectorized, serving, macro, chaos soak)
# against their schemas and committed baselines, then rebuild under
# AddressSanitizer + UndefinedBehaviorSanitizer and run everything — tier1
# plus the slow randomized harnesses (the differential stress driver) —
# then rebuild once more under ThreadSanitizer and run the
# concurrency-heavy subset plus a fixed-seed chaos smoke. The sanitizer
# passes exist to catch the class of bugs this repo has been bitten by
# before: out-of-range std::clamp (UB), data races on metric counters, and
# use-after-free on handed-out trace/metric pointers.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-4}"

# Snapshot for the artifact-hygiene gate: anything *new* in git status
# after the full build is a build artifact escaping the gitignored trees.
STATUS_BEFORE="$(git status --porcelain)"

echo "==> [1/10] default config (tier1)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "${JOBS}"
ctest --test-dir build -L tier1 --output-on-failure -j "${JOBS}"

echo "==> [2/10] profile/trace schema validation"
# One profiled bench run, then structural validation of every emitted JSON
# artifact: the Chrome trace, the metrics snapshot (p50/p95/p99 present on
# histograms), and the QueryProfile document. Guards the contract consumed
# by trace viewers and the EXPERIMENTS.md figure tooling.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "${OBS_TMP}"' EXIT
./build/bench/bench_profile --rows=600 \
  --trace-out="${OBS_TMP}/trace.json" \
  --metrics-out="${OBS_TMP}/metrics.json" \
  --profile-out="${OBS_TMP}/profile.json" > "${OBS_TMP}/stdout.txt"
python3 - "${OBS_TMP}" <<'PYEOF'
import json, sys

tmp = sys.argv[1]

trace = json.load(open(f"{tmp}/trace.json"))
assert "traceEvents" in trace, "trace: missing traceEvents"
names = {e.get("name") for e in trace["traceEvents"]}
assert "profile cpus busy" in names, "trace: missing profiler counter track"
assert any(e.get("ph") == "C" for e in trace["traceEvents"]), \
    "trace: no counter events"

metrics = json.load(open(f"{tmp}/metrics.json"))
for section in ("counters", "gauges", "histograms"):
    assert section in metrics, f"metrics: missing {section}"
for key in ("profile.queries", "profile.tuples_out", "profile.pages_read"):
    assert key in metrics["counters"], f"metrics: missing counter {key}"
for name, hist in metrics["histograms"].items():
    for key in ("count", "sum", "min", "max", "buckets", "p50", "p95", "p99"):
        assert key in hist, f"metrics: histogram {name} missing {key}"

profile = json.load(open(f"{tmp}/profile.json"))
for section in ("operators", "fragments", "timeline", "utilization",
                "totals"):
    assert section in profile, f"profile: missing {section}"
assert profile["operators"], "profile: no operators"
for op in profile["operators"]:
    for key in ("id", "parent", "kind", "label", "est", "actual"):
        assert key in op, f"profile: operator missing {key}"
assert profile["totals"]["tuples_out"] == sum(
    op["actual"]["rows"] for op in profile["operators"]), \
    "profile: totals do not reconcile with operators"
assert profile["fragments"], "profile: parallel run recorded no fragments"
assert profile["timeline"], "profile: no adjustment timeline"
print(f"profile schema ok: {len(profile['operators'])} operators, "
      f"{len(profile['fragments'])} fragments, "
      f"{len(trace['traceEvents'])} trace events")
PYEOF

echo "==> [3/10] vectorized executor throughput gate"
# Tuple vs batch engine on CPU-bound workloads (kInstant disk). The batch
# path's whole point is amortizing per-tuple costs, so the gate fails if
# the scan+filter or hash-join speedup drops below 2x. Results land in
# build/ (gitignored) for the perf dashboard; correctness of the batch
# path itself is covered by the tier1 differential oracle above, which
# runs every generated plan through six vectorized modes.
./build/bench/bench_exec --rows=200000 --reps=5 --out=build/BENCH_exec.json
python3 - build/BENCH_exec.json <<'PYEOF'
import json, sys

bench = json.load(open(sys.argv[1]))
by_name = {w["name"]: w for w in bench["workloads"]}
for name in ("scan_filter", "hash_join_count", "join_group_sum"):
    assert name in by_name, f"bench_exec: missing workload {name}"
for name in ("scan_filter", "hash_join_count"):
    speedup = by_name[name]["speedup"]
    assert speedup >= 2.0, \
        f"bench_exec: {name} vectorized speedup {speedup:.2f}x < 2.0x"
assert by_name["join_group_sum"]["speedup"] >= 1.0, \
    "bench_exec: join_group_sum vectorized run slower than tuple run"
print("vectorized speedups ok: " + ", ".join(
    f"{w['name']}={w['speedup']:.2f}x" for w in bench["workloads"]))
PYEOF

echo "==> [4/10] concurrent serving smoke"
# Closed- and open-loop serving run through ServingEngine/QueryScheduler.
# Schema-validates BENCH_serve.json and gates on the two properties the
# serving layer exists for: the scheduler actually overlapped >= 2 queries
# and the concurrent results matched the serial oracle exactly. Results
# land in build/ (gitignored) for the perf dashboard.
./build/bench/bench_serve --rows=2000 --clients=4 --queries-per-client=15 \
  --qps=100,400 --open-seconds=0.5 --out=build/BENCH_serve.json
python3 - build/BENCH_serve.json <<'PYEOF'
import json, sys

bench = json.load(open(sys.argv[1]))
for key in ("rows", "peak_running", "correctness", "closed_loop",
            "open_loop"):
    assert key in bench, f"bench_serve: missing {key}"
for key in ("queries", "diffs"):
    assert key in bench["correctness"], f"bench_serve: correctness.{key}"
assert bench["closed_loop"], "bench_serve: no closed-loop points"
assert bench["open_loop"], "bench_serve: no open-loop points"
for p in bench["closed_loop"]:
    for key in ("clients", "completed", "failed", "throughput_qps",
                "p50_ms", "p95_ms", "p99_ms"):
        assert key in p, f"bench_serve: closed_loop point missing {key}"
    assert p["failed"] == 0, f"bench_serve: closed loop had failures: {p}"
for p in bench["open_loop"]:
    for key in ("offered_qps", "completed", "rejected", "failed",
                "throughput_qps", "p50_ms", "p99_ms"):
        assert key in p, f"bench_serve: open_loop point missing {key}"
    assert p["failed"] == 0, f"bench_serve: open loop had failures: {p}"
assert bench["correctness"]["queries"] > 0, "bench_serve: nothing checked"
assert bench["correctness"]["diffs"] == 0, \
    f"bench_serve: {bench['correctness']['diffs']} concurrent result diffs"
assert bench["peak_running"] >= 2, \
    f"bench_serve: never sustained 2 concurrent queries " \
    f"(peak {bench['peak_running']})"
print(f"serving ok: peak_running={bench['peak_running']}, "
      f"{bench['correctness']['queries']} concurrent queries, 0 diffs, "
      f"{len(bench['closed_loop'])} closed + "
      f"{len(bench['open_loop'])} open loop points")
PYEOF

echo "==> [5/10] macro benchmark + perf trajectory gates"
# The standing TPC-H-flavored macro benchmark: every engine mode over one
# workload, with cross-mode checksums, per-query lifecycle span breakdowns
# and the tracing-overhead measurement. Gates, in order: artifact schema,
# cross-mode correctness, served span coverage (the lifecycle children
# must tile each root span), the tracing-disabled overhead budget, and the
# perf trajectory against the committed baselines (bench/baselines/) for
# the macro, vectorized-executor and serving artifacts.
./build/bench/bench_macro --scale=4 --reps=5 --slow-ms=5 \
  --out=build/BENCH_macro.json
python3 - build/BENCH_macro.json <<'PYEOF'
import json, sys

bench = json.load(open(sys.argv[1]))
for key in ("scale", "distribution", "reps", "correctness", "checksums",
            "modes", "served", "overhead"):
    assert key in bench, f"bench_macro: missing {key}"
modes = {m["name"]: m for m in bench["modes"]}
for name in ("serial", "vectorized", "spill", "parallel", "served"):
    assert name in modes, f"bench_macro: missing mode {name}"
    for key in ("executed", "diffs", "total_seconds", "throughput_qps",
                "p50_ms", "p95_ms", "p99_ms", "speedup_vs_serial",
                "per_query_mean_ms"):
        assert key in modes[name], f"bench_macro: mode {name} missing {key}"
    assert modes[name]["diffs"] == 0, \
        f"bench_macro: mode {name} had {modes[name]['diffs']} result diffs"
assert bench["correctness"]["diffs"] == 0, \
    f"bench_macro: {bench['correctness']['diffs']} cross-mode diffs"
assert bench["checksums"], "bench_macro: no workload checksums"

served = bench["served"]
assert served["span_coverage_min"] >= 0.95, \
    f"bench_macro: lifecycle spans cover only " \
    f"{served['span_coverage_min']:.3f} of the worst root span (< 0.95)"
assert served["span_breakdown"], "bench_macro: no span breakdown"
for entry in served["span_breakdown"]:
    for key in ("query", "runs", "total_ms", "admission_ms",
                "queue_wait_ms", "execute_ms", "drain_ms"):
        assert key in entry, f"bench_macro: span_breakdown missing {key}"
assert served["slow_query_entries"] > 0, \
    "bench_macro: slow-query log stayed empty at a 5ms threshold"

overhead = bench["overhead"]["percent"]
assert overhead <= 2.0, \
    f"bench_macro: tracing-disabled overhead {overhead:.2f}% > 2%"
print(f"macro schema ok: {len(modes)} modes, "
      f"span coverage min={served['span_coverage_min']:.4f}, "
      f"overhead={overhead:.2f}%, "
      f"{served['slow_query_entries']} slow-query entries")
PYEOF
python3 scripts/perf_compare.py build/BENCH_macro.json \
  bench/baselines/BENCH_macro.json --threshold=0.15
python3 scripts/perf_compare.py build/BENCH_exec.json \
  bench/baselines/BENCH_exec.json --threshold=0.15
python3 scripts/perf_compare.py build/BENCH_serve.json \
  bench/baselines/BENCH_serve.json --threshold=0.15

echo "==> [6/10] chaos soak (overload/recovery gates)"
# Standing fault-storm soak: a poison drill plus a ramp/peak/recover fault
# schedule against the full serving stack. The binary self-gates (exit 1)
# on oracle diffs, leaked pins/sessions, a missing shedding episode or a
# failed recovery; this block re-validates the artifact schema and the
# headline gates so a silent change to the binary's own gating still trips
# CI.
./build/bench/bench_soak --rows=3000 --duration-s=5 --clients=4 \
  --out=build/BENCH_soak.json
python3 - build/BENCH_soak.json <<'PYEOF'
import json, sys

soak = json.load(open(sys.argv[1]))
for key in ("seed", "duration_s", "clients", "peak_fault_rate",
            "faults_injected", "submitted", "completed", "failed", "shed",
            "diffs", "leaked_pins", "leaked_sessions", "overload",
            "breakers", "poison", "phases"):
    assert key in soak, f"bench_soak: missing {key}"
ov = soak["overload"]
for key in ("reached_degraded", "reached_shedding", "recovered",
            "final_state", "sheds", "transitions"):
    assert key in ov, f"bench_soak: overload missing {key}"
for t in ov["transitions"]:
    for key in ("t_s", "from", "to", "reason"):
        assert key in t, f"bench_soak: transition missing {key}"
for domain in ("storage_read", "spill_io"):
    assert domain in soak["breakers"], f"bench_soak: breakers.{domain}"
for key in ("quarantined", "fast_reject", "entries"):
    assert key in soak["poison"], f"bench_soak: poison.{key}"
for p in soak["phases"]:
    for key in ("name", "seconds", "submitted", "completed", "failed",
                "shed", "p99_ms"):
        assert key in p, f"bench_soak: phase missing {key}"

assert soak["diffs"] == 0, f"bench_soak: {soak['diffs']} oracle diffs"
assert soak["leaked_pins"] == 0, \
    f"bench_soak: {soak['leaked_pins']} leaked buffer pins"
assert soak["leaked_sessions"] == 0, \
    f"bench_soak: {soak['leaked_sessions']} leaked sessions"
assert ov["reached_shedding"], "bench_soak: storm never drove shedding"
assert ov["recovered"], \
    f"bench_soak: did not recover (final state {ov['final_state']})"
assert soak["poison"]["quarantined"] > 0, "bench_soak: nothing quarantined"
assert soak["poison"]["fast_reject"] > 0, \
    "bench_soak: quarantined query was not fast-rejected"
print(f"soak ok: {soak['completed']}/{soak['submitted']} completed, "
      f"{soak['shed']} shed, {len(ov['transitions'])} transitions, "
      f"final={ov['final_state']}, 0 diffs / 0 leaks")
PYEOF

echo "==> [7/10] asan+ubsan config (tier1 + slow)"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="${SAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${SAN_FLAGS}"
cmake --build build-asan -j "${JOBS}"
# abort_on_error gives ctest a real failure exit code; detect_leaks stays on
# by default where supported. No -L filter: this pass also runs the
# slow-labeled stress_differential (50 iterations).
ASAN_OPTIONS=abort_on_error=1 UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "==> [8/10] tsan config (concurrency subset)"
# ThreadSanitizer catches the races the resilience layer is most exposed
# to: the cancellation token, the done-queue control loop, the retry
# ladder re-launching fragment runs, buffer-pool admission counters, the
# serving layer's scheduler/session machinery, one prepared statement
# run from many threads at once (sql_test), the differential oracle's
# multi-threaded modes (concurrent, concurrent-chaos, parallel(d),
# vectorized-parallel), and the storage layer's own concurrency
# (storage_test: the sharded buffer pool's concurrent fetches and load
# waits, and disk-array reads racing block allocation).
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="${TSAN_FLAGS}" \
  -DCMAKE_EXE_LINKER_FLAGS="${TSAN_FLAGS}"
cmake --build build-tsan -j "${JOBS}"
TSAN_OPTIONS=halt_on_error=1 ctest --test-dir build-tsan \
  -R '(storage|fault|resilience|parallel|master|throttle|obs|obs_concurrency|spill|serve|lifecycle|overload|sql|differential)_test' \
  --output-on-failure -j "${JOBS}"

echo "==> [9/10] fixed-seed chaos smoke (tier1-gated)"
# Runs only once the tier1 + sanitizer stages above are green. Every mode
# executes under a 2% read-fault injector and must recover or fail
# retryably; the fixed seed keeps the pass reproducible, the watchdog
# turns any hang into a replayable failure, and --replay-out leaves a
# one-line machine-readable repro behind if a divergence trips after the
# logs scroll away.
./build/bench/stress_differential --seed=20260807 --iters=10 --chaos \
  --fault-rate=0.02 --timeout-ms=120000 --replay-out=build/stress_replay.txt
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/stress_differential \
  --seed=20260807 --iters=3 --chaos --fault-rate=0.02 --timeout-ms=300000 \
  --replay-out=build-tsan/stress_replay.txt
# A short soak under tsan: shedding is not required (tsan's slowdown skews
# the fault schedule) — this run exists to race the overload controller,
# breakers and preemption machinery under a real storm.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/bench/bench_soak --rows=1500 \
  --duration-s=2 --clients=4 --require-shedding=0 \
  --out=build-tsan/BENCH_soak.json

echo "==> [10/10] artifact hygiene"
# Build trees, object files and trace/metric dumps are gitignored; a full
# build + test cycle must not add anything to git status. New entries are
# build artifacts escaping into the source tree — fail loudly.
STATUS_AFTER="$(git status --porcelain)"
NEW_ARTIFACTS="$(comm -13 <(sort <<< "${STATUS_BEFORE}") \
                          <(sort <<< "${STATUS_AFTER}"))"
if [[ -n "${NEW_ARTIFACTS}" ]]; then
  echo "ERROR: the build dirtied the checkout:" >&2
  echo "${NEW_ARTIFACTS}" >&2
  exit 1
fi

echo "==> CI green"
