// Chaos-soak harness: the standing overload drill for the serving stack.
//
// A macro workload (parameterized scan / aggregate / join templates whose
// answers are canonicalized against a serial oracle before any fault is
// armed) runs through the ServingEngine for a time-boxed window while a
// fault driver walks a storm timeline:
//
//   baseline   no faults; canon answers, poison-quarantine drill
//   ramp       buffer-pool fetch fault rate climbs linearly to the peak
//   peak       sustained storm; the read breaker opens, the overload
//              controller sheds (spill write faults are armed too, but no
//              statement degrades to spill at the soak's memory budget)
//   recovery   faults drop to zero; breakers close, the controller steps
//              back down to healthy, and no statement fails
//
// The harness asserts the robustness invariants rather than timing them:
// zero result diffs vs the oracle among successful queries, zero leaked
// buffer-pool pins and sessions, the health state machine reaching
// shedding under the storm and returning to healthy after it, and a
// quarantined poison statement fast-rejecting without execution. Results
// land in BENCH_soak.json, with the engine's serve.*, overload.* and
// resilience.* counters; scripts/ci.sh runs a time-boxed soak and gates
// on the invariants (EXPERIMENTS.md "Fault-storm recovery curve").
//
//   bench_soak [--rows=N] [--duration-s=S] [--clients=K]
//              [--peak-fault-rate=P] [--seed=S] [--require-shedding=0|1]
//              [--out=file.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_obs.h"
#include "serve/overload.h"
#include "serve/serving_engine.h"
#include "sql/engine.h"
#include "storage/catalog.h"
#include "storage/fault_injector.h"
#include "util/rng.h"
#include "util/str.h"

namespace xprs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Pool-level injector driving the storm. Fetches of blocks in the poison
// set always fail (the quarantine drill's always-sick table); every other
// fetch fails with the current storm rate. Rates change while queries are
// in flight, so everything is guarded.
class ChaosInjector : public FaultInjector {
 public:
  explicit ChaosInjector(uint64_t seed) : rng_(seed) {}

  void PoisonBlocks(std::set<BlockId> blocks) {
    std::lock_guard<std::mutex> lock(mutex_);
    poison_ = std::move(blocks);
  }
  void SetRate(double rate) {
    rate_.store(rate, std::memory_order_release);
  }
  uint64_t injected() const {
    return injected_.load(std::memory_order_relaxed);
  }

  Status BeforeFetch(BlockId block) override {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (poison_.count(block) != 0) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return Status::IoError(
            StrFormat("soak: poisoned block %u", block));
      }
      double rate = rate_.load(std::memory_order_acquire);
      if (rate > 0.0 && rng_.NextBool(rate)) {
        injected_.fetch_add(1, std::memory_order_relaxed);
        return Status::IoError(
            StrFormat("soak: injected fetch fault on block %u", block));
      }
    }
    return Status::OK();
  }
  Status BeforeRead(BlockId) override { return Status::OK(); }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }

 private:
  std::mutex mutex_;
  Rng rng_;
  std::set<BlockId> poison_;
  std::atomic<double> rate_{0.0};
  std::atomic<uint64_t> injected_{0};
};

// One parameterized statement with its oracle answer (canonicalized rows).
struct CheckedQuery {
  std::string sql;
  std::multiset<std::string> expected;
};

// The storm timeline, as fractions of --duration-s.
constexpr int kNumPhases = 4;
const char* const kPhaseNames[kNumPhases] = {"baseline", "ramp", "peak",
                                             "recovery"};
const double kPhaseFrac[kNumPhases] = {0.2, 0.2, 0.3, 0.3};

struct PhaseStats {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};     // terminal execution failures
  std::atomic<uint64_t> shed{0};       // overload admission sheds
  std::atomic<uint64_t> queue_full{0};
  std::atomic<uint64_t> breaker{0};    // breaker fast-fails
  std::mutex mutex;
  std::vector<double> latencies_ms;
  double seconds = 0.0;
};

double P99(std::vector<double>* latencies) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  return (*latencies)[static_cast<size_t>(0.99 * (latencies->size() - 1))];
}

int Run(int argc, char** argv) {
  int rows = 3000;
  double duration_s = 5.0;
  int clients = 4;
  double peak_fault_rate = 0.6;
  int require_shedding = 1;
  uint64_t seed = BaseSeed(0x50AC0001ULL);
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    BenchFlagInt(argv[i], "--rows=", &rows);
    BenchFlagDouble(argv[i], "--duration-s=", &duration_s);
    BenchFlagInt(argv[i], "--clients=", &clients);
    BenchFlagDouble(argv[i], "--peak-fault-rate=", &peak_fault_rate);
    BenchFlagInt(argv[i], "--require-shedding=", &require_shedding);
    std::string seed_str;
    if (BenchFlagString(argv[i], "--seed=", &seed_str))
      seed = std::strtoull(seed_str.c_str(), nullptr, 10);
    BenchFlagString(argv[i], "--out=", &out_path);
  }
  std::printf("== bench_soak (rows=%d, duration=%.1fs, clients=%d, "
              "peak=%.2f, seed=%llu)\n",
              rows, duration_s, clients, peak_fault_rate,
              static_cast<unsigned long long>(seed));

  // ---- workload tables (plus the always-sick poison table) ----
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  CostModel model;

  Table* orders = catalog.CreateTable("orders", Schema::PaperSchema()).value();
  for (int i = 0; i < rows; ++i) {
    if (!orders->file()
             .Append(Tuple({Value(int32_t{i % 100}),
                            Value("o" + std::to_string(i % 37))}))
             .ok())
      return 1;
  }
  if (!orders->file().Flush().ok() || !orders->BuildIndex(0).ok() ||
      !orders->ComputeStats().ok())
    return 1;
  Table* custs = catalog.CreateTable("custs", Schema::PaperSchema()).value();
  for (int i = 0; i < rows / 10; ++i) {
    if (!custs->file()
             .Append(Tuple({Value(int32_t{i % 100}),
                            Value("c" + std::to_string(i % 23))}))
             .ok())
      return 1;
  }
  if (!custs->file().Flush().ok() || !custs->BuildIndex(0).ok() ||
      !custs->ComputeStats().ok())
    return 1;
  Table* cursed = catalog.CreateTable("cursed", Schema::PaperSchema()).value();
  for (int i = 0; i < 64; ++i) {
    if (!cursed->file()
             .Append(Tuple({Value(int32_t{i}), Value(std::string("x"))}))
             .ok())
      return 1;
  }
  if (!cursed->file().Flush().ok() || !cursed->ComputeStats().ok()) return 1;

  // ---- oracle canon BEFORE any fault is armed ----
  // Parameterized templates spread the workload over many distinct
  // statement texts (the poison log keys on the text).
  std::vector<CheckedQuery> mix;
  {
    SqlEngine oracle(&catalog, MachineConfig::PaperConfig(), &model);
    std::vector<std::string> texts;
    for (int lo = 0; lo < 80; lo += 10) {
      texts.push_back(StrFormat(
          "SELECT * FROM custs WHERE a BETWEEN %d AND %d", lo, lo + 19));
      texts.push_back(StrFormat(
          "SELECT count(a) FROM orders WHERE a >= %d", lo));
      texts.push_back(StrFormat(
          "SELECT sum(a) FROM orders WHERE a BETWEEN %d AND %d", lo,
          lo + 30));
      texts.push_back(StrFormat(
          "SELECT o.a, c.b FROM orders o, custs c WHERE o.a = c.a AND "
          "c.a < %d", lo + 10));
    }
    for (const std::string& sql : texts) {
      auto r = oracle.Execute(sql);
      if (!r.ok()) {
        std::fprintf(stderr, "oracle failed on %s: %s\n", sql.c_str(),
                     r.status().ToString().c_str());
        return 1;
      }
      CheckedQuery q;
      q.sql = sql;
      for (const Tuple& t : r->rows) q.expected.insert(t.ToString());
      mix.push_back(std::move(q));
    }
  }

  // ---- the serving engine, with metrics but no trace: a trace of every
  // soak statement would hold hundreds of thousands of events ----
  MetricsRegistry metrics;
  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = 4;
  options.serve.max_queue_depth = 32;
  options.serve.memory_pages_budget = 512.0;
  options.serve.obs.metrics = &metrics;
  options.buffer_pool_frames = 128;
  options.retry_jitter_seed = seed;
  ServingEngine engine(&catalog, MachineConfig::PaperConfig(), &model,
                       std::move(options));

  ChaosInjector chaos(seed ^ 0xC4A05ULL);
  std::set<BlockId> cursed_blocks;
  for (uint32_t p = 0; p < cursed->file().num_pages(); ++p)
    cursed_blocks.insert(cursed->file().BlockOf(p).value());
  chaos.PoisonBlocks(std::move(cursed_blocks));
  engine.pool()->SetFaultInjector(&chaos);
  // Spill domain: a seeded write-fault script on the spill array. The mix's
  // largest memory estimate is under one page against a 512-page budget,
  // so no statement degrades to spill and the spill_io breaker never opens.
  ScriptedFaultInjector spill_faults;
  engine.spill_array()->SetFaultInjector(&spill_faults);

  // ---- poison-quarantine drill (baseline, before the storm) ----
  const std::string poison_sql = "SELECT * FROM cursed";
  bool poison_quarantined = false;
  bool poison_fast_reject = false;
  {
    auto drill = engine.OpenSession({/*priority=*/0, 1.0, "poison-drill"});
    QueryOptions qo;
    qo.replay_seed = seed;
    for (int i = 0; i < 20 && !engine.poison_log().IsQuarantined(poison_sql);
         ++i) {
      (void)drill->Execute(poison_sql, qo);
      // A healthy statement between drill shots keeps the read breaker's
      // consecutive-failure count from opening it during baseline.
      (void)drill->Execute(mix[i % mix.size()].sql);
    }
    poison_quarantined = engine.poison_log().IsQuarantined(poison_sql);
    if (poison_quarantined) {
      auto rejected = drill->Submit(poison_sql);
      poison_fast_reject = !rejected.ok() &&
                           PoisonLog::IsPoisonReject(rejected.status());
    }
    engine.CloseSession(drill);
  }
  std::printf("poison drill: quarantined=%d fast_reject=%d\n",
              poison_quarantined ? 1 : 0, poison_fast_reject ? 1 : 0);

  // ---- the soak ----
  PhaseStats phases[kNumPhases];
  std::atomic<int> phase_index{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> total_submitted{0};
  std::atomic<uint64_t> diffs{0};

  const auto t0 = Clock::now();
  std::thread driver([&] {
    // Walks the timeline, re-arming the injectors at phase boundaries and
    // every 20 ms during the ramp. A phase is published after its rates
    // are set, so no statement counted in recovery meets a fault.
    double edges[kNumPhases + 1];
    edges[0] = 0.0;
    for (int p = 0; p < kNumPhases; ++p)
      edges[p + 1] = edges[p] + kPhaseFrac[p] * duration_s;
    while (!done.load()) {
      double t = SecondsSince(t0);
      int p = kNumPhases - 1;
      while (p > 0 && t < edges[p]) --p;
      double rate = 0.0;
      if (p == 1)  // ramp
        rate = peak_fault_rate * (t - edges[1]) / (edges[2] - edges[1]);
      else if (p == 2)  // peak
        rate = peak_fault_rate;
      chaos.SetRate(rate);
      ScriptedFaultInjector::Script spill_script;
      spill_script.write_fault_rate = rate * 0.5;
      spill_script.short_write_bytes = 0;
      spill_faults.Arm(spill_script, seed ^ (0x5B1ULL + p));
      phase_index.store(p);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    chaos.SetRate(0.0);
    spill_faults.Disarm();
  });

  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // One client per thread; client 0 runs above the shed floor so work
      // keeps flowing (and the recovery window keeps filling) even while
      // the controller sheds default-priority traffic.
      auto session = engine.OpenSession(
          {/*priority=*/c == 0 ? 2 : 0, 1.0, "soak-" + std::to_string(c)});
      Rng rng(seed ^ (0xC11E57ULL + c));
      while (SecondsSince(t0) < duration_s) {
        const CheckedQuery& q = mix[rng.NextUint64(mix.size())];
        int p = phase_index.load();
        PhaseStats& stats = phases[p];
        stats.submitted.fetch_add(1);
        total_submitted.fetch_add(1);
        const auto q0 = Clock::now();
        auto result = session->Execute(q.sql);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - q0)
                .count();
        if (result.ok()) {
          stats.completed.fetch_add(1);
          std::multiset<std::string> canon;
          for (const Tuple& t : result->rows) canon.insert(t.ToString());
          if (canon != q.expected) diffs.fetch_add(1);
          std::lock_guard<std::mutex> lock(stats.mutex);
          stats.latencies_ms.push_back(ms);
        } else if (OverloadController::IsOverloadShed(result.status())) {
          stats.shed.fetch_add(1);
          // Shed clients back off instead of hammering admission.
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        } else if (QueryScheduler::IsAdmissionReject(result.status())) {
          stats.queue_full.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        } else if (CircuitBreaker::IsBreakerOpen(result.status())) {
          stats.breaker.fetch_add(1);
        } else {
          stats.failed.fetch_add(1);
        }
      }
      engine.CloseSession(session);
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true);
  driver.join();

  // ---- settle: give the controller its dwell to finish stepping down ----
  {
    auto settle = engine.OpenSession({/*priority=*/2, 1.0, "settle"});
    for (int i = 0;
         i < 200 && engine.overload().state() != HealthState::kHealthy;
         ++i) {
      (void)settle->Execute(mix[i % mix.size()].sql);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    engine.CloseSession(settle);
  }
  if (!engine.Drain().ok()) return 1;

  OverloadController& overload = engine.overload();
  const bool reached_shedding = overload.reached(HealthState::kShedding);
  const bool reached_degraded = overload.reached(HealthState::kDegraded);
  const bool recovered = overload.state() == HealthState::kHealthy;
  const uint64_t leaked_pins =
      engine.pool() != nullptr ? engine.pool()->PinnedFrames() : 0;
  const uint64_t leaked_sessions = engine.num_open_sessions();
  std::vector<OverloadTransition> transitions = overload.transitions();

  uint64_t completed = 0, failed = 0, shed = 0, queue_full = 0, breaker = 0;
  for (int p = 0; p < kNumPhases; ++p) {
    phases[p].seconds = kPhaseFrac[p] * duration_s;
    completed += phases[p].completed.load();
    failed += phases[p].failed.load();
    shed += phases[p].shed.load();
    queue_full += phases[p].queue_full.load();
    breaker += phases[p].breaker.load();
    std::lock_guard<std::mutex> lock(phases[p].mutex);
    std::printf(
        "%-9s %5.1fs: %6llu ok %5llu failed %5llu shed %5llu full "
        "%5llu breaker  p99=%.1fms\n",
        kPhaseNames[p], phases[p].seconds,
        static_cast<unsigned long long>(phases[p].completed.load()),
        static_cast<unsigned long long>(phases[p].failed.load()),
        static_cast<unsigned long long>(phases[p].shed.load()),
        static_cast<unsigned long long>(phases[p].queue_full.load()),
        static_cast<unsigned long long>(phases[p].breaker.load()),
        P99(&phases[p].latencies_ms));
  }
  std::printf(
      "overload: reached shedding=%d recovered=%d transitions=%zu "
      "sheds=%llu preemptions=%llu\n",
      reached_shedding ? 1 : 0, recovered ? 1 : 0, transitions.size(),
      static_cast<unsigned long long>(overload.sheds()),
      static_cast<unsigned long long>(engine.scheduler().preemptions()));
  std::printf("diffs=%llu leaked_pins=%llu leaked_sessions=%llu\n",
              static_cast<unsigned long long>(diffs.load()),
              static_cast<unsigned long long>(leaked_pins),
              static_cast<unsigned long long>(leaked_sessions));

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"seed\":%llu,\"duration_s\":%.2f,\"clients\":%d,"
        "\"peak_fault_rate\":%.2f,\"faults_injected\":%llu,"
        "\"submitted\":%llu,\"completed\":%llu,\"failed\":%llu,"
        "\"shed\":%llu,\"queue_full\":%llu,\"breaker_fast_fails\":%llu,"
        "\"diffs\":%llu,\"leaked_pins\":%llu,\"leaked_sessions\":%llu,"
        "\"preemptions\":%llu,",
        static_cast<unsigned long long>(seed), duration_s, clients,
        peak_fault_rate, static_cast<unsigned long long>(chaos.injected()),
        static_cast<unsigned long long>(total_submitted.load()),
        static_cast<unsigned long long>(completed),
        static_cast<unsigned long long>(failed),
        static_cast<unsigned long long>(shed),
        static_cast<unsigned long long>(queue_full),
        static_cast<unsigned long long>(breaker),
        static_cast<unsigned long long>(diffs.load()),
        static_cast<unsigned long long>(leaked_pins),
        static_cast<unsigned long long>(leaked_sessions),
        static_cast<unsigned long long>(engine.scheduler().preemptions()));
    std::fprintf(
        f,
        "\"overload\":{\"reached_degraded\":%s,\"reached_shedding\":%s,"
        "\"recovered\":%s,\"final_state\":\"%s\",\"sheds\":%llu,"
        "\"transitions\":[",
        reached_degraded ? "true" : "false",
        reached_shedding ? "true" : "false", recovered ? "true" : "false",
        HealthStateName(overload.state()),
        static_cast<unsigned long long>(overload.sheds()));
    for (size_t i = 0; i < transitions.size(); ++i) {
      const OverloadTransition& t = transitions[i];
      std::fprintf(f, "%s{\"t_s\":%.3f,\"from\":\"%s\",\"to\":\"%s\","
                      "\"reason\":\"%s\"}",
                   i == 0 ? "" : ",", t.t_seconds, HealthStateName(t.from),
                   HealthStateName(t.to), JsonEscape(t.reason).c_str());
    }
    std::fprintf(
        f,
        "]},\"breakers\":{\"storage_read\":{\"opened\":%llu,"
        "\"fast_fails\":%llu},\"spill_io\":{\"opened\":%llu,"
        "\"fast_fails\":%llu}},"
        "\"poison\":{\"quarantined\":%s,\"fast_reject\":%s,"
        "\"entries\":%zu},\"phases\":[",
        static_cast<unsigned long long>(engine.read_breaker().times_opened()),
        static_cast<unsigned long long>(engine.read_breaker().fast_fails()),
        static_cast<unsigned long long>(engine.spill_breaker().times_opened()),
        static_cast<unsigned long long>(engine.spill_breaker().fast_fails()),
        poison_quarantined ? "true" : "false",
        poison_fast_reject ? "true" : "false", engine.poison_log().size());
    for (int p = 0; p < kNumPhases; ++p) {
      std::lock_guard<std::mutex> lock(phases[p].mutex);
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"seconds\":%.2f,\"submitted\":%llu,"
          "\"completed\":%llu,\"failed\":%llu,\"shed\":%llu,"
          "\"queue_full\":%llu,\"breaker\":%llu,\"p99_ms\":%.2f}",
          p == 0 ? "" : ",", kPhaseNames[p], phases[p].seconds,
          static_cast<unsigned long long>(phases[p].submitted.load()),
          static_cast<unsigned long long>(phases[p].completed.load()),
          static_cast<unsigned long long>(phases[p].failed.load()),
          static_cast<unsigned long long>(phases[p].shed.load()),
          static_cast<unsigned long long>(phases[p].queue_full.load()),
          static_cast<unsigned long long>(phases[p].breaker.load()),
          P99(&phases[p].latencies_ms));
    }
    std::fprintf(f, "],\"counters\":{");
    bool first = true;
    for (const auto& [name, value] : metrics.CounterValues()) {
      if (name.rfind("serve.", 0) != 0 && name.rfind("overload.", 0) != 0 &&
          name.rfind("resilience.", 0) != 0)
        continue;
      std::fprintf(f, "%s\"%s\":%llu", first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(value));
      first = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // ---- gates (exit non-zero so CI catches a broken invariant) ----
  int rc = 0;
  auto gate = [&rc](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "SOAK GATE FAILED: %s\n", what);
      rc = 1;
    }
  };
  gate(diffs.load() == 0, "result diffs vs serial oracle");
  gate(leaked_pins == 0, "buffer-pool pins leaked");
  gate(leaked_sessions == 0, "sessions leaked");
  gate(poison_quarantined, "poison statement never quarantined");
  gate(poison_fast_reject, "quarantined statement not fast-rejected");
  if (require_shedding != 0) {
    gate(reached_shedding, "storm never drove the controller to shedding");
    gate(recovered, "controller did not recover to healthy");
  }
  return rc;
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) { return xprs::Run(argc, argv); }
