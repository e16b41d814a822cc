#!/usr/bin/env bash
# CI entry point: build + run the tier1 test suite in the default config,
# check the benchmark artifacts (profile, vectorized, macro, chaos soak)
# with scripts/perf_compare.py against their schemas, gates and committed
# baselines, then rebuild under AddressSanitizer +
# UndefinedBehaviorSanitizer and run everything — tier1 plus the slow
# randomized harnesses (stress_differential) — then rebuild
# once more under ThreadSanitizer and run the concurrency-heavy subset
# plus a fixed-seed chaos smoke. The sanitizer passes exist to catch the
# class of bugs this repo has been bitten by before: out-of-range
# std::clamp (UB), data races on metric counters, and use-after-free on
# handed-out trace/metric pointers.
#
# Usage: scripts/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-4}"

# Snapshot for the artifact-hygiene gate: anything *new* in git status
# after the full build is a build artifact escaping the gitignored trees.
STATUS_BEFORE="$(git status --porcelain)"

echo "==> [1/9] default config (tier1)"
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j "${JOBS}"
ctest --test-dir build -L tier1 --output-on-failure -j "${JOBS}"

echo "==> [2/9] profile/trace schema validation"
# One profiled bench run, then perf_compare.py checks every emitted JSON
# artifact: the Chrome trace, the metrics snapshot and the QueryProfile
# document.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "${OBS_TMP}"' EXIT
./build/bench/bench_profile --rows=600 \
  --trace-out="${OBS_TMP}/trace.json" \
  --metrics-out="${OBS_TMP}/metrics.json" \
  --profile-out="${OBS_TMP}/profile.json" > "${OBS_TMP}/stdout.txt"
for doc in trace metrics profile; do
  python3 scripts/perf_compare.py "${OBS_TMP}/${doc}.json"
done

echo "==> [3/9] vectorized executor throughput gate"
# Tuple vs batch engine on CPU-bound workloads: perf_compare.py gates the
# speedup floors and the trajectory against the committed baseline.
# Results land in build/ (gitignored) for the perf dashboard.
./build/bench/bench_exec --rows=200000 --reps=5 --out=build/BENCH_exec.json
python3 scripts/perf_compare.py build/BENCH_exec.json \
  bench/baselines/BENCH_exec.json

echo "==> [4/9] macro benchmark + perf trajectory gates"
# The standing macro benchmark: every engine mode over one workload, the
# served closed and open loops and the tracing-overhead measurement.
# perf_compare.py checks its schema, correctness, span coverage, serving
# concurrency and overhead gates, then the perf trajectory against the
# committed baseline (bench/baselines/).
./build/bench/bench_macro --scale=4 --reps=5 --slow-ms=5 \
  --out=build/BENCH_macro.json
python3 scripts/perf_compare.py build/BENCH_macro.json \
  bench/baselines/BENCH_macro.json

echo "==> [5/9] chaos soak (overload/recovery gates)"
# Standing fault-storm soak against the full serving stack; perf_compare.py
# checks the artifact's schema and its robustness gates.
./build/bench/bench_soak --rows=3000 --duration-s=5 --clients=4 \
  --out=build/BENCH_soak.json
python3 scripts/perf_compare.py build/BENCH_soak.json

echo "==> [6/9] asan+ubsan config (tier1 + slow)"
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

echo "==> [7/9] tsan config (concurrency subset)"
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

echo "==> [8/9] fixed-seed chaos smoke (tier1-gated)"
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

echo "==> [9/9] artifact hygiene"
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
