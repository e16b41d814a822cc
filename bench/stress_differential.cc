// Long-running differential stress driver.
//
//   stress_differential [--seed=N] [--iters=N] [--fault-rate=P] [--chaos]
//                       [--timeout-ms=N] [--replay-out=FILE]
//
// Each iteration builds a fresh random workload, generates a batch of
// queries and pushes every one through the full differential oracle
// (serial / fragmented / parallel at several degrees / master / spill /
// pooled), the deterministic fault-hook cases, the random-rate read-fault
// case and the §2.2 scan io conservation check.
//
// --chaos additionally re-runs every query through CheckPlanChaos: all
// modes execute with a rate-`--fault-rate` read-fault injector armed, and
// must either match the reference or fail retryably (the resilience
// ladder's recoveries show up in the per-iteration report).
//
// --timeout-ms=N arms a watchdog: any single oracle call that runs longer
// than N ms (a hang, a livelock, a runaway retry loop) prints the replay
// seed and aborts, so the stuck state is debuggable instead of silent.
//
// The effective seed is printed on startup; any failure is replayable with
// `stress_differential --seed=<printed seed>` (or XPRS_SEED=<seed> when
// --seed was not given explicitly).
//
// --replay-out=FILE additionally persists a one-line replay record (seed,
// iteration, query, failing check) on the first divergence, so a CI run
// that trips leaves a machine-readable repro behind even when its logs
// scroll away.

#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_obs.h"
#include "storage/disk_array.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "util/rng.h"
#include "util/str.h"
#include "workload/relations.h"

namespace {

// Per-call watchdog: Beat() before each oracle call; if any call then runs
// past the timeout, print the replay seed and abort. Disabled when
// timeout_ms <= 0.
class Watchdog {
 public:
  Watchdog(int timeout_ms, uint64_t seed) : timeout_ms_(timeout_ms),
                                            seed_(seed) {
    if (timeout_ms_ <= 0) return;
    thread_ = std::thread([this] { Loop(); });
  }

  ~Watchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Beat(int iter, int query) {
    if (!thread_.joinable()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    iter_ = iter;
    query_ = query;
    last_beat_ = std::chrono::steady_clock::now();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    last_beat_ = std::chrono::steady_clock::now();
    while (!done_) {
      const auto deadline =
          last_beat_ + std::chrono::milliseconds(timeout_ms_);
      if (cv_.wait_until(lock, deadline, [this] { return done_; })) return;
      if (std::chrono::steady_clock::now() >= deadline) {
        std::fprintf(stderr,
                     "stress_differential: WATCHDOG — iter %d query %d "
                     "exceeded %d ms; replay with --seed=%" PRIu64 "\n",
                     iter_, query_, timeout_ms_, seed_);
        std::fflush(stderr);
        std::abort();
      }
    }
  }

  const int timeout_ms_;
  const uint64_t seed_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::thread thread_;
  bool done_ = false;
  int iter_ = 0;
  int query_ = 0;
  std::chrono::steady_clock::time_point last_beat_;
};

// Persists the replay line for the first divergence. `check` names which
// oracle check tripped (plan, chaos, fault-surfacing, random-faults,
// io-conservation).
void WriteReplayRecord(const std::string& path, uint64_t seed, int iter,
                       int query, const char* check,
                       const xprs::Status& status) {
  if (path.empty()) return;
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write replay record %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "--seed=%" PRIu64 " iter=%d query=%d check=%s status=%s\n",
               seed, iter, query, check, status.ToString().c_str());
  std::fclose(f);
  std::fprintf(stderr, "replay record written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = xprs::TestSeed(0x57E55D1FF);
  int iters = 200;
  double fault_rate = 0.02;
  int queries_per_iter = 4;
  bool chaos = false;
  int timeout_ms = 0;
  std::string replay_out;

  for (int i = 1; i < argc; ++i) {
    std::string seed_flag;
    if (xprs::BenchFlagString(argv[i], "--seed=", &seed_flag)) {
      seed = std::strtoull(seed_flag.c_str(), nullptr, 0);  // 0x... too
    } else if (xprs::BenchFlagInt(argv[i], "--iters=", &iters) ||
               xprs::BenchFlagDouble(argv[i], "--fault-rate=", &fault_rate) ||
               xprs::BenchFlagInt(argv[i], "--timeout-ms=", &timeout_ms) ||
               xprs::BenchFlagString(argv[i], "--replay-out=", &replay_out)) {
      continue;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed=N] [--iters=N] [--fault-rate=P] "
                   "[--chaos] [--timeout-ms=N] [--replay-out=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  std::printf("stress_differential: seed=%" PRIu64
              " iters=%d fault_rate=%g chaos=%d timeout_ms=%d "
              "(replay: --seed=%" PRIu64 ")\n",
              seed, iters, fault_rate, chaos ? 1 : 0, timeout_ms, seed);
  std::fflush(stdout);

  Watchdog watchdog(timeout_ms, seed);

  xprs::Rng rng(seed);
  uint64_t queries_checked = 0;
  for (int iter = 0; iter < iters; ++iter) {
    xprs::DiskArray array(4, xprs::DiskMode::kInstant);
    xprs::Catalog catalog(&array);
    xprs::GeneratedWorkloadOptions workload;
    // Vary the population shape across iterations.
    workload.num_relations = 2 + static_cast<int>(rng.NextUint64(3));
    workload.max_null_key_fraction = rng.NextBool(0.5) ? 0.3 : 0.0;
    xprs::Rng build_rng = rng.Fork();
    auto tables = xprs::BuildGeneratedWorkload(&catalog, workload, &build_rng);
    if (!tables.ok()) {
      std::fprintf(stderr, "iter %d (seed %" PRIu64 "): workload: %s\n",
                   iter, seed, tables.status().ToString().c_str());
      return 1;
    }

    xprs::DifferentialOptions options;
    options.spill_memory_tuples = 16 + rng.NextUint64(128);
    if (chaos) options.chaos_read_fault_rate = fault_rate;
    xprs::DifferentialOracle oracle(&array, options, rng.Next());
    xprs::QueryGenerator gen(tables.value(), xprs::QueryGenerator::Options(),
                             rng.Next());

    for (int q = 0; q < queries_per_iter; ++q) {
      watchdog.Beat(iter, q);
      std::unique_ptr<xprs::PlanNode> plan = gen.NextPlan();
      const char* check = "plan";
      xprs::Status status = oracle.CheckPlan(*plan);
      if (status.ok() && chaos) {
        check = "chaos";
        status = oracle.CheckPlanChaos(*plan);
      }
      if (status.ok() && q == 0) {
        check = "fault-surfacing";
        status = oracle.CheckFaultSurfacing(*plan);
      }
      if (status.ok() && q == 1) {
        check = "random-faults";
        status = oracle.CheckRandomReadFaults(*plan, fault_rate);
      }
      if (!status.ok()) {
        std::fprintf(stderr,
                     "iter %d query %d FAILED %s (replay with "
                     "--seed=%" PRIu64 "):\n%s\n",
                     iter, q, check, seed, status.ToString().c_str());
        WriteReplayRecord(replay_out, seed, iter, q, check, status);
        return 1;
      }
      ++queries_checked;
    }
    watchdog.Beat(iter, queries_per_iter);
    xprs::Status conservation =
        oracle.CheckScanIoConservation(tables.value()[0]);
    if (!conservation.ok()) {
      std::fprintf(stderr, "iter %d io conservation FAILED (--seed=%" PRIu64
                           "):\n%s\n",
                   iter, seed, conservation.ToString().c_str());
      WriteReplayRecord(replay_out, seed, iter, queries_per_iter,
                        "io-conservation", conservation);
      return 1;
    }
    if ((iter + 1) % 25 == 0) {
      std::printf("  iter %d/%d: %s\n", iter + 1, iters,
                  oracle.report().ToString().c_str());
      std::fflush(stdout);
    }
  }
  std::printf("stress_differential: PASS — %" PRIu64
              " queries checked over %d iterations\n",
              queries_checked, iters);
  return 0;
}
