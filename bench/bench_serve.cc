// Multi-query serving benchmark: latency and throughput of the
// ServingEngine + QueryScheduler stack under concurrent load.
//
// Three phases:
//
//   correctness  every query of the mix executed concurrently through the
//                serving engine and compared against a serial SqlEngine
//                oracle; the diff count must be zero
//   closed loop  K client threads issue queries back-to-back (1, 2, ...,
//                --clients doubling); reports throughput and exact
//                p50/p95/p99 latency per point
//   open loop    a submitter offers queries at a fixed arrival rate for
//                --open-seconds per point of the --qps ladder; completions
//                are timestamped by the per-query hook, and queue-full
//                admission rejections are reported separately — that is
//                the load shedding showing up at overload
//
//   bench_serve [--rows=N] [--clients=K] [--queries-per-client=M]
//               [--qps=a,b,c] [--open-seconds=S] [--out=file.json]
//
// scripts/ci.sh runs this with --out=build/BENCH_serve.json and gates on
// zero correctness diffs and peak concurrency >= 2.

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
#include "serve/serving_engine.h"
#include "sql/engine.h"
#include "storage/catalog.h"
#include "util/stats.h"

namespace xprs {
namespace {

using Clock = std::chrono::steady_clock;

const std::vector<std::string>& QueryMix() {
  static const std::vector<std::string> mix = {
      "SELECT * FROM custs WHERE a BETWEEN 10 AND 39",
      "SELECT count(a) FROM orders",
      "SELECT * FROM orders WHERE a >= 80",
      "SELECT o.a, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 40",
      "SELECT max(a) FROM custs WHERE a < 70",
      "SELECT sum(a) FROM orders WHERE a BETWEEN 5 AND 60",
  };
  return mix;
}

struct LoopResult {
  int clients = 0;
  double offered_qps = 0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  double throughput_qps = 0;
  Percentiles latency_ms;
};

std::unique_ptr<ServingEngine> MakeServingEngine(Catalog* catalog,
                                                 const CostModel* model,
                                                 int max_concurrent,
                                                 size_t queue_depth) {
  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = max_concurrent;
  options.serve.max_queue_depth = queue_depth;
  options.buffer_pool_frames = 128;
  return std::make_unique<ServingEngine>(
      catalog, MachineConfig::PaperConfig(), model, std::move(options));
}

// K clients, back-to-back queries: service-time-bound latency.
LoopResult RunClosedLoop(Catalog* catalog, const CostModel* model,
                         int clients, int queries_per_client,
                         int* peak_running) {
  auto engine = MakeServingEngine(catalog, model, /*max_concurrent=*/4,
                                  /*queue_depth=*/256);
  LoopResult result;
  result.clients = clients;
  std::mutex mutex;
  std::atomic<uint64_t> failed{0};

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      auto session = engine->OpenSession();
      const auto& mix = QueryMix();
      std::vector<double> local;
      local.reserve(queries_per_client);
      for (int i = 0; i < queries_per_client; ++i) {
        const std::string& sql = mix[(t + i) % mix.size()];
        const auto q0 = Clock::now();
        auto r = session->Execute(sql);
        if (!r.ok()) {
          failed.fetch_add(1);
          continue;
        }
        local.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - q0)
                .count());
      }
      engine->CloseSession(session);
      std::lock_guard<std::mutex> lock(mutex);
      for (double ms : local) result.latency_ms.Add(ms);
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = std::chrono::duration<double>(Clock::now() - start)
                          .count();

  result.completed = result.latency_ms.count();
  result.failed = failed.load();
  result.throughput_qps = secs > 0 ? result.completed / secs : 0;
  *peak_running = std::max(*peak_running, engine->scheduler().peak_running());
  return result;
}

// Offered load at a fixed arrival rate; latency includes queue wait and
// admission rejections count the shed load.
LoopResult RunOpenLoop(Catalog* catalog, const CostModel* model, double qps,
                       double seconds, int* peak_running) {
  auto engine = MakeServingEngine(catalog, model, /*max_concurrent=*/4,
                                  /*queue_depth=*/64);
  LoopResult result;
  result.offered_qps = qps;

  auto session = engine->OpenSession();
  std::mutex mutex;
  std::atomic<uint64_t> failed{0};
  std::vector<SubmittedQuery> outstanding;
  outstanding.reserve(static_cast<size_t>(qps * seconds) + 1);

  const auto start = Clock::now();
  const auto interval = std::chrono::duration<double>(1.0 / qps);
  const auto& mix = QueryMix();
  uint64_t n = 0;
  while (true) {
    const auto arrival =
        start + std::chrono::duration_cast<Clock::duration>(interval * n);
    if (std::chrono::duration<double>(arrival - start).count() >= seconds)
      break;
    std::this_thread::sleep_until(arrival);

    QueryOptions options;
    const auto submit_time = Clock::now();
    options.on_complete = [&mutex, &result, &failed,
                           submit_time](const Status& status) {
      const double ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - submit_time)
                            .count();
      if (!status.ok()) {
        failed.fetch_add(1);
        return;
      }
      std::lock_guard<std::mutex> lock(mutex);
      result.latency_ms.Add(ms);
    };
    auto submitted = session->Submit(mix[n % mix.size()], options);
    if (!submitted.ok()) {
      // Queue-full rejects and overload-controller sheds are both the
      // admission layer deliberately dropping offered load — report them
      // as shed work, not failures.
      if (QueryScheduler::IsAdmissionReject(submitted.status()) ||
          OverloadController::IsOverloadShed(submitted.status()))
        ++result.rejected;
      else
        failed.fetch_add(1);
    } else {
      outstanding.push_back(std::move(*submitted));
    }
    ++n;
  }
  for (SubmittedQuery& q : outstanding) (void)q.ticket.Wait();
  const double window =
      std::chrono::duration<double>(Clock::now() - start).count();

  engine->CloseSession(session);
  *peak_running = std::max(*peak_running, engine->scheduler().peak_running());

  std::lock_guard<std::mutex> lock(mutex);
  result.completed = result.latency_ms.count();
  result.failed = failed.load();
  result.throughput_qps = window > 0 ? result.completed / window : 0;
  return result;
}

// Every query of the mix, four sessions at once, versus the serial oracle.
uint64_t RunCorrectness(Catalog* catalog, const CostModel* model,
                        uint64_t* checked, int* peak_running) {
  SqlEngine oracle(catalog, MachineConfig::PaperConfig(), model);
  std::vector<std::multiset<std::string>> expected;
  for (const std::string& sql : QueryMix()) {
    auto r = oracle.Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "oracle failed on %s: %s\n", sql.c_str(),
                   r.status().ToString().c_str());
      std::exit(1);
    }
    std::multiset<std::string> canon;
    for (const Tuple& t : r->rows) canon.insert(t.ToString());
    expected.push_back(std::move(canon));
  }

  auto engine = MakeServingEngine(catalog, model, /*max_concurrent=*/4,
                                  /*queue_depth=*/256);
  std::atomic<uint64_t> diffs{0};
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto session = engine->OpenSession();
      for (int round = 0; round < 4; ++round) {
        const auto& mix = QueryMix();
        for (size_t q = 0; q < mix.size(); ++q) {
          auto r = session->Execute(mix[q]);
          total.fetch_add(1);
          if (!r.ok()) {
            diffs.fetch_add(1);
            continue;
          }
          std::multiset<std::string> canon;
          for (const Tuple& row : r->rows) canon.insert(row.ToString());
          if (canon != expected[q]) diffs.fetch_add(1);
        }
      }
      engine->CloseSession(session);
    });
  }
  for (std::thread& t : threads) t.join();
  *checked = total.load();
  *peak_running = std::max(*peak_running, engine->scheduler().peak_running());
  return diffs.load();
}

int Run(int argc, char** argv) {
  int rows = 3000;
  int clients = 4;
  int queries_per_client = 25;
  double open_seconds = 1.0;
  std::vector<double> qps_ladder = {100, 400, 1200};
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    BenchFlagInt(argv[i], "--rows=", &rows);
    BenchFlagInt(argv[i], "--clients=", &clients);
    BenchFlagInt(argv[i], "--queries-per-client=", &queries_per_client);
    BenchFlagDouble(argv[i], "--open-seconds=", &open_seconds);
    BenchFlagDoubleList(argv[i], "--qps=", &qps_ladder);
    BenchFlagString(argv[i], "--out=", &out_path);
  }

  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  CostModel model;

  Table* orders = catalog.CreateTable("orders", Schema::PaperSchema()).value();
  for (int i = 0; i < rows; ++i) {
    Status st = orders->file().Append(
        Tuple({Value(int32_t{i % 100}),
               Value("o" + std::to_string(i % 37))}));
    if (!st.ok()) {
      std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!orders->file().Flush().ok() || !orders->BuildIndex(0).ok() ||
      !orders->ComputeStats().ok())
    return 1;

  Table* custs = catalog.CreateTable("custs", Schema::PaperSchema()).value();
  for (int i = 0; i < rows / 10; ++i) {
    Status st = custs->file().Append(
        Tuple({Value(int32_t{i % 100}), Value("c" + std::to_string(i % 23))}));
    if (!st.ok()) return 1;
  }
  if (!custs->file().Flush().ok() || !custs->BuildIndex(0).ok() ||
      !custs->ComputeStats().ok())
    return 1;

  int peak_running = 0;
  uint64_t correctness_checked = 0;
  const uint64_t correctness_diffs =
      RunCorrectness(&catalog, &model, &correctness_checked, &peak_running);
  std::printf("== bench_serve (rows=%d)\n", rows);
  std::printf("correctness: %llu concurrent queries, %llu diffs\n",
              static_cast<unsigned long long>(correctness_checked),
              static_cast<unsigned long long>(correctness_diffs));

  std::vector<LoopResult> closed;
  for (int k = 1; k <= clients; k *= 2) {
    closed.push_back(RunClosedLoop(&catalog, &model, k, queries_per_client,
                                   &peak_running));
    const LoopResult& r = closed.back();
    std::printf(
        "closed loop %2d clients: %6.0f q/s  p50=%.2fms p95=%.2fms "
        "p99=%.2fms (%llu ok, %llu failed)\n",
        r.clients, r.throughput_qps, r.latency_ms.Get(50),
        r.latency_ms.Get(95), r.latency_ms.Get(99),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed));
  }

  std::vector<LoopResult> open;
  for (double qps : qps_ladder) {
    open.push_back(
        RunOpenLoop(&catalog, &model, qps, open_seconds, &peak_running));
    const LoopResult& r = open.back();
    std::printf(
        "open loop %6.0f q/s offered: %6.0f q/s done  p50=%.2fms "
        "p99=%.2fms (%llu ok, %llu rejected, %llu failed)\n",
        r.offered_qps, r.throughput_qps, r.latency_ms.Get(50),
        r.latency_ms.Get(99),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.failed));
  }
  std::printf("peak concurrent queries: %d\n", peak_running);

  if (!out_path.empty()) {
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"rows\":%d,\"peak_running\":%d,"
                 "\"correctness\":{\"queries\":%llu,\"diffs\":%llu},"
                 "\"closed_loop\":[",
                 rows, peak_running,
                 static_cast<unsigned long long>(correctness_checked),
                 static_cast<unsigned long long>(correctness_diffs));
    for (size_t i = 0; i < closed.size(); ++i) {
      const LoopResult& r = closed[i];
      std::fprintf(f,
                   "%s{\"clients\":%d,\"completed\":%llu,\"failed\":%llu,"
                   "\"throughput_qps\":%.1f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
                   "\"p99_ms\":%.3f}",
                   i == 0 ? "" : ",", r.clients,
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.failed),
                   r.throughput_qps, r.latency_ms.Get(50),
                   r.latency_ms.Get(95), r.latency_ms.Get(99));
    }
    std::fprintf(f, "],\"open_loop\":[");
    for (size_t i = 0; i < open.size(); ++i) {
      const LoopResult& r = open[i];
      std::fprintf(f,
                   "%s{\"offered_qps\":%.1f,\"completed\":%llu,"
                   "\"rejected\":%llu,\"failed\":%llu,"
                   "\"throughput_qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                   i == 0 ? "" : ",", r.offered_qps,
                   static_cast<unsigned long long>(r.completed),
                   static_cast<unsigned long long>(r.rejected),
                   static_cast<unsigned long long>(r.failed),
                   r.throughput_qps, r.latency_ms.Get(50),
                   r.latency_ms.Get(99));
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) { return xprs::Run(argc, argv); }
