// Standing macro-benchmark: the TPC-H-flavored mix (src/workload/macro.h)
// executed end to end in every engine mode, with a tracked perf
// trajectory.
//
//   serial      tuple-at-a-time executor
//   vectorized  batch-at-a-time executor (ctx.vectorized)
//   spill       memory-bounded spilling operators
//   parallel    the parallel master backend, its slaves vectorized as
//               the server runs them
//   served      the full serving stack (admission control, lifecycle
//               spans, slow-query log) under 4 concurrent client threads
//
// Every mode runs the same queries; rows are checksummed order-
// independently against the serial oracle, so the JSON's correctness
// block gates cross-mode agreement. Rep r of every mode runs before rep
// r+1 of any, so one contended window on a shared host cannot reach all
// reps of one mode. The served phase additionally reports the per-query
// lifecycle span breakdown (admission / queue_wait / execute / drain out
// of the root span) reconstructed from the trace recorder, and the
// tracing-overhead block measures the serial mix with the obs bundle
// absent vs attached-but-disabled (interleaved arms, min-of-reps) — the
// "tracing compiled in" tax perf_compare.py caps at 2%.
//
// The served block also carries the serving layer's load curves, run on
// a twin engine with the same options so they feed nothing else:
//
//   closed loop  1 and 2 clients issue the mix back to back, one pass per
//                rep like the modes; the served mode is the 4-client
//                point. Throughput and exact p50/p95/p99 latency per point.
//   open loop    one session offers the mix at 100 and then 400 q/s for
//                0.5 s each; completions are timestamped by the
//                per-query hook, and admission rejects and overload sheds
//                are reported separately (the load shedding at overload)
//
//   bench_macro [--scale=F] [--dist=uniform|skewed|null-heavy] [--reps=N]
//               [--slow-ms=T] [--out=BENCH_macro.json]
//               [--trace-out=f] [--metrics-out=f]
//
// scripts/ci.sh runs this and feeds the JSON to scripts/perf_compare.py,
// which checks its schema and gates and compares it against
// bench/baselines/BENCH_macro.json.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_obs.h"
#include "serve/serving_engine.h"
#include "sql/engine.h"
#include "storage/catalog.h"
#include "util/stats.h"
#include "workload/macro.h"

namespace xprs {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Rate(uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
}

// --- order-independent result digest ---------------------------------------

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digest {
  uint64_t rows = 0;
  uint64_t checksum = 0;  ///< sum of per-row FNV hashes (mod 2^64)
  bool operator==(const Digest& o) const {
    return rows == o.rows && checksum == o.checksum;
  }
};

Digest DigestRows(const SqlResult& result) {
  Digest d;
  for (const Tuple& row : result.rows) {
    ++d.rows;
    d.checksum += Fnv1a(row.ToString());
  }
  return d;
}

/// True iff `r` succeeded with the oracle's rows for `q`.
bool Matches(const StatusOr<SqlResult>& r, const MacroQuery& q,
             const std::map<std::string, Digest>& oracle) {
  return r.ok() && DigestRows(*r) == oracle.at(q.name);
}

/// One mode's statements over all its passes (also one closed-loop point).
struct ModeResult {
  explicit ModeResult(std::string mode_name, int mode_clients = 1)
      : name(std::move(mode_name)), clients(mode_clients) {}

  std::string name;
  int clients;
  uint64_t executed = 0;
  /// Statements that failed or returned rows other than the oracle's.
  uint64_t diffs = 0;
  /// Wall time summed over the mode's passes.
  double total_seconds = 0.0;
  double throughput_qps = 0.0;
  Percentiles latency_ms;
  double speedup_vs_serial = 0.0;
  /// latency sum and count per query name; their ratio is the mean that
  /// perf_compare prints to explain a regression
  std::map<std::string, double> per_query_sum_ms;
  std::map<std::string, uint64_t> per_query_runs;
  /// best-of-reps latency per query name; the speedup gate runs on the
  /// sum of these, because one descheduled rep should not fail CI.
  std::map<std::string, double> per_query_best_ms;

  void Record(const std::string& query, double ms, bool matched) {
    ++executed;
    if (!matched) {
      ++diffs;
      return;
    }
    latency_ms.Add(ms);
    per_query_sum_ms[query] += ms;
    ++per_query_runs[query];
    auto [it, fresh] = per_query_best_ms.emplace(query, ms);
    if (!fresh && ms < it->second) it->second = ms;
  }

  double best_total_seconds() const {
    double total = 0.0;
    for (const auto& [q, ms] : per_query_best_ms) total += ms;
    return 1e-3 * total;
  }
};

/// One open-loop point: `offered_qps` for a fixed window.
struct OpenLoopResult {
  double offered_qps = 0.0;
  uint64_t completed = 0;
  uint64_t rejected = 0;
  /// Statements that failed (other than by shedding) or returned rows
  /// other than the oracle's.
  uint64_t failed = 0;
  double throughput_qps = 0.0;
  Percentiles latency_ms;
};

// --- served-phase span breakdown -------------------------------------------

struct PhaseBreakdown {
  uint64_t queries = 0;
  double total_ms = 0, admission_ms = 0, queue_ms = 0, exec_ms = 0,
         drain_ms = 0;
  double coverage_min = 1.0, coverage_sum = 0.0;
};

const TraceValue* FindArg(const TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return &v;
  return nullptr;
}

/// Rebuilds per-query phase timings from the recorder's serve spans:
/// key = query text, value = mean phase durations over that query's runs.
std::map<std::string, PhaseBreakdown> SpanBreakdown(
    const std::vector<TraceEvent>& events) {
  struct Root {
    std::string query;
    double total = 0, admission = 0, queue = 0, exec = 0, drain = 0;
  };
  std::map<int64_t, Root> roots;  // span_id -> root
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name != "query") continue;
    const TraceValue* id = FindArg(e, "span_id");
    const TraceValue* query = FindArg(e, "query");
    if (id == nullptr) continue;
    Root root;
    root.query = query != nullptr ? query->str : "";
    root.total = e.duration;
    roots[static_cast<int64_t>(id->num)] = root;
  }
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name == "query") continue;
    const TraceValue* parent = FindArg(e, "parent");
    if (parent == nullptr) continue;
    auto it = roots.find(static_cast<int64_t>(parent->num));
    if (it == roots.end()) continue;
    if (e.name == "admission") it->second.admission += e.duration;
    if (e.name == "queue_wait") it->second.queue += e.duration;
    if (e.name == "execute") it->second.exec += e.duration;
    if (e.name == "drain") it->second.drain += e.duration;
  }

  std::map<std::string, PhaseBreakdown> by_query;
  for (const auto& [id, r] : roots) {
    PhaseBreakdown& b = by_query[r.query];
    ++b.queries;
    b.total_ms += 1e3 * r.total;
    b.admission_ms += 1e3 * r.admission;
    b.queue_ms += 1e3 * r.queue;
    b.exec_ms += 1e3 * r.exec;
    b.drain_ms += 1e3 * r.drain;
    const double children = r.admission + r.queue + r.exec + r.drain;
    const double coverage = r.total > 0 ? children / r.total : 1.0;
    b.coverage_min = std::min(b.coverage_min, coverage);
    b.coverage_sum += coverage;
  }
  for (auto& [q, b] : by_query) {
    if (b.queries == 0) continue;
    const double n = static_cast<double>(b.queries);
    b.total_ms /= n;
    b.admission_ms /= n;
    b.queue_ms /= n;
    b.exec_ms /= n;
    b.drain_ms /= n;
  }
  return by_query;
}

// --- the bench -------------------------------------------------------------

struct Config {
  double scale = 1.0;
  MacroDistribution distribution = MacroDistribution::kUniform;
  int reps = 3;
  double slow_ms = 5.0;
  std::string out_path;
};

/// Runs one statement for client `client` (the served passes give each
/// client its own session).
using QueryRunner =
    std::function<StatusOr<SqlResult>(int client, const std::string& sql)>;

/// One pass over the mix on `result->clients` threads, client t starting
/// at query t; a single client runs on the calling thread.
void RunPass(const std::vector<MacroQuery>& mix,
             const std::map<std::string, Digest>& oracle,
             const QueryRunner& run, ModeResult* result) {
  std::mutex mutex;
  auto client = [&](int t) {
    for (size_t i = 0; i < mix.size(); ++i) {
      const MacroQuery& q = mix[(t + i) % mix.size()];
      const auto q0 = Clock::now();
      StatusOr<SqlResult> r = run(t, q.sql);
      const double ms = 1e3 * SecondsSince(q0);
      if (!r.ok()) {
        std::fprintf(stderr, "%s: %s failed: %s\n", result->name.c_str(),
                     q.name.c_str(), r.status().ToString().c_str());
      }
      const bool matched = Matches(r, q, oracle);
      std::lock_guard<std::mutex> lock(mutex);
      result->Record(q.name, ms, matched);
    }
  };
  const auto t0 = Clock::now();
  if (result->clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(result->clients);
    for (int t = 0; t < result->clients; ++t) threads.emplace_back(client, t);
    for (std::thread& t : threads) t.join();
  }
  result->total_seconds += SecondsSince(t0);
}

/// The served engine's options: 4 workers, a 256-frame pool and the slow-
/// query log armed at --slow-ms.
ServingEngine::Options ServedOptions(const Config& config,
                                     const Observability& obs) {
  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = 4;
  options.serve.max_queue_depth = 256;
  options.serve.obs = obs;
  options.buffer_pool_frames = 256;
  options.slow_query_seconds = config.slow_ms / 1e3;
  return options;
}

/// One session offers the mix at `qps` for `seconds`. The completion hook
/// timestamps each statement, so latency includes queue wait without a
/// waiter thread per statement.
OpenLoopResult RunOpenLoop(ServingEngine* engine,
                           const std::vector<MacroQuery>& mix,
                           const std::map<std::string, Digest>& oracle,
                           double qps, double seconds) {
  OpenLoopResult result;
  result.offered_qps = qps;
  const size_t arrivals = static_cast<size_t>(std::ceil(qps * seconds));
  // Written by the hook, which fires before the statement's ticket
  // resolves, and read after Wait.
  std::vector<double> latency_ms(arrivals, 0.0);
  std::vector<std::pair<size_t, SubmittedQuery>> outstanding;
  outstanding.reserve(arrivals);
  std::shared_ptr<ServingSession> session = engine->OpenSession();

  const auto start = Clock::now();
  for (size_t n = 0; n < arrivals; ++n) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(n / qps)));
    QueryOptions options;
    options.on_complete = [&latency_ms, n,
                           submit_time = Clock::now()](const Status&) {
      latency_ms[n] = 1e3 * SecondsSince(submit_time);
    };
    StatusOr<SubmittedQuery> submitted =
        session->Submit(mix[n % mix.size()].sql, options);
    if (submitted.ok()) {
      outstanding.emplace_back(n, std::move(*submitted));
    } else if (QueryScheduler::IsAdmissionReject(submitted.status()) ||
               OverloadController::IsOverloadShed(submitted.status())) {
      // The admission layer dropping offered load on purpose: shed work,
      // not a failure.
      ++result.rejected;
    } else {
      ++result.failed;
    }
  }
  for (auto& [n, query] : outstanding) {
    if (Matches(query.ticket.Wait(), mix[n % mix.size()], oracle)) {
      ++result.completed;
      result.latency_ms.Add(latency_ms[n]);
    } else {
      ++result.failed;
    }
  }
  result.throughput_qps = Rate(result.completed, SecondsSince(start));
  engine->CloseSession(session);
  return result;
}

/// The "tracing compiled in but disabled" tax: serial mix with no obs
/// bundle vs a bundle whose sinks are null, arms interleaved per rep and
/// compared on min-of-reps totals (robust to one-off scheduling noise).
void MeasureOverhead(SqlEngine* engine, const std::vector<MacroQuery>& mix,
                     int reps, double* plain_seconds, double* disabled_seconds,
                     double* median_ratio) {
  auto run_arm = [&](bool attach_disabled_obs) {
    ExecContext ctx;
    if (attach_disabled_obs) ctx.obs = Observability{nullptr, nullptr};
    const auto t0 = Clock::now();
    // Three passes per draw: a bigger quantum keeps clock granularity and
    // per-query jitter out of a percent-level comparison.
    for (int pass = 0; pass < 3; ++pass) {
      for (const MacroQuery& q : mix) {
        StatusOr<SqlResult> r = engine->Execute(q.sql, ctx);
        if (!r.ok()) std::fprintf(stderr, "overhead arm failed\n");
      }
    }
    return SecondsSince(t0);
  };
  *plain_seconds = 1e100;
  *disabled_seconds = 1e100;
  // More arm pairs than the mode reps: the gate on this ratio is tight
  // (2%), so the estimators need more draws to converge under scheduler
  // noise. Each interleaved pair also yields a ratio sample; the median of
  // those is a second overhead estimator robust to asymmetric outliers.
  std::vector<double> ratios;
  for (int rep = 0; rep < std::max(9, reps); ++rep) {
    const double plain = run_arm(false);
    const double disabled = run_arm(true);
    *plain_seconds = std::min(*plain_seconds, plain);
    *disabled_seconds = std::min(*disabled_seconds, disabled);
    if (plain > 0) ratios.push_back(disabled / plain);
  }
  std::sort(ratios.begin(), ratios.end());
  *median_ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
}

int Run(int argc, char** argv) {
  BenchObs bench_obs(&argc, argv);
  Config config;
  std::string dist_name = "uniform";
  for (int i = 1; i < argc; ++i) {
    BenchFlagDouble(argv[i], "--scale=", &config.scale);
    BenchFlagString(argv[i], "--dist=", &dist_name);
    BenchFlagInt(argv[i], "--reps=", &config.reps);
    BenchFlagDouble(argv[i], "--slow-ms=", &config.slow_ms);
    BenchFlagString(argv[i], "--out=", &config.out_path);
  }
  StatusOr<MacroDistribution> dist = ParseMacroDistribution(dist_name);
  if (!dist.ok()) {
    std::fprintf(stderr, "%s\n", dist.status().ToString().c_str());
    return 1;
  }
  config.distribution = *dist;

  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  CostModel model;
  MacroWorkloadOptions workload;
  workload.scale = config.scale;
  workload.distribution = config.distribution;
  Status built = BuildMacroTables(&catalog, workload);
  if (!built.ok()) {
    std::fprintf(stderr, "build tables: %s\n", built.ToString().c_str());
    return 1;
  }
  const std::vector<MacroQuery>& mix = MacroQueryMix();
  std::vector<MacroQuery> scan_heavy = MacroMix("scan_heavy").value();

  std::printf("== bench_macro (scale=%.2f dist=%s reps=%d)\n", config.scale,
              MacroDistributionName(config.distribution), config.reps);
  for (const char* t : {"lineitem", "orders", "part", "customer"})
    std::printf("  %-9s %8llu rows\n", t,
                static_cast<unsigned long long>(
                    MacroTableRows(t, config.scale)));

  // Serial oracle pass: digests every mode must reproduce.
  SqlEngine engine(&catalog, MachineConfig::PaperConfig(), &model);
  std::map<std::string, Digest> oracle;
  for (const MacroQuery& q : mix) {
    StatusOr<SqlResult> r = engine.Execute(q.sql);
    if (!r.ok()) {
      std::fprintf(stderr, "oracle %s: %s\n", q.name.c_str(),
                   r.status().ToString().c_str());
      return 1;
    }
    oracle[q.name] = DigestRows(*r);
  }

  DiskArray spill_array(4, DiskMode::kInstant);
  ServingEngine served(&catalog, MachineConfig::PaperConfig(), &model,
                       ServedOptions(config, bench_obs.obs()));
  // The twin engine runs the closed loop's 1- and 2-client points and the
  // open loop. Its sinks are of the same kind as the served engine's but
  // nobody reads them, so its statements reach neither the served mode's
  // spans nor its slow-query log.
  MemoryTraceRecorder loop_trace;
  MetricsRegistry loop_metrics;
  ServingEngine loop(&catalog, MachineConfig::PaperConfig(), &model,
                     ServedOptions(config, {&loop_trace, &loop_metrics}));
  std::vector<std::shared_ptr<ServingSession>> served_sessions, loop_sessions;
  for (int t = 0; t < 4; ++t) served_sessions.push_back(served.OpenSession());
  for (int t = 0; t < 2; ++t) loop_sessions.push_back(loop.OpenSession());

  std::vector<ModeResult> modes = {
      ModeResult("serial"), ModeResult("vectorized"), ModeResult("spill"),
      ModeResult("parallel"), ModeResult("served", 4)};
  const std::vector<QueryRunner> runners = {
      [&](int, const std::string& sql) { return engine.Execute(sql); },
      [&](int, const std::string& sql) {
        ExecContext ctx;
        ctx.vectorized = true;
        return engine.Execute(sql, ctx);
      },
      [&](int, const std::string& sql) {
        ExecContext ctx;
        ctx.spill.temp_array = &spill_array;
        ctx.spill.memory_tuples = 256;
        return engine.Execute(sql, ctx);
      },
      [&](int, const std::string& sql) -> StatusOr<SqlResult> {
        RunOptions run;
        run.ctx.vectorized = true;
        run.master.emplace().max_slots = 4;
        XPRS_ASSIGN_OR_RETURN(PreparedStatement p, engine.Prepare(sql));
        return engine.Run(p, run);
      },
      [&](int client, const std::string& sql) {
        return served_sessions[client]->Execute(sql);
      }};
  std::vector<ModeResult> closed = {ModeResult("closed-loop", 1),
                                    ModeResult("closed-loop", 2)};
  const QueryRunner loop_runner = [&](int client, const std::string& sql) {
    return loop_sessions[client]->Execute(sql);
  };

  // Rep r of every mode and closed-loop point runs before rep r+1 of any.
  for (int rep = 0; rep < config.reps; ++rep) {
    for (size_t m = 0; m < modes.size(); ++m)
      RunPass(mix, oracle, runners[m], &modes[m]);
    for (ModeResult& point : closed) RunPass(mix, oracle, loop_runner, &point);
  }
  closed.push_back(modes[4]);  // the 4-client point
  std::vector<OpenLoopResult> open;
  for (double qps : {100.0, 400.0})
    open.push_back(RunOpenLoop(&loop, mix, oracle, qps, 0.5));
  const uint64_t slow_entries = served.slow_query_log().size();
  const int peak_running = served.scheduler().peak_running();

  // Speedups compare each mode's best-of-reps cost for one pass over the
  // mix against the serial engine's; best-of is one-sided against
  // scheduling noise, and per-mix normalization makes the ratio
  // indifferent to how many clients the served mode ran.
  const double serial_best = modes[0].best_total_seconds();
  uint64_t total_diffs = 0, total_queries = 0;
  for (const ModeResult& m : modes) {
    total_diffs += m.diffs;
    total_queries += m.executed;
  }
  for (ModeResult& m : modes) {
    const double mode_best = m.best_total_seconds();
    m.speedup_vs_serial = mode_best > 0 ? serial_best / mode_best : 0.0;
    m.throughput_qps = Rate(m.executed, m.total_seconds);
    std::printf(
        "%-10s %5llu queries in %6.3fs  %7.1f q/s  p50=%.2fms p95=%.2fms "
        "p99=%.2fms  speedup=%.2fx  diffs=%llu\n",
        m.name.c_str(), static_cast<unsigned long long>(m.executed),
        m.total_seconds, m.throughput_qps, m.latency_ms.Get(50),
        m.latency_ms.Get(95), m.latency_ms.Get(99), m.speedup_vs_serial,
        static_cast<unsigned long long>(m.diffs));
  }
  for (ModeResult& p : closed) {
    p.throughput_qps = Rate(p.executed - p.diffs, p.total_seconds);
    std::printf(
        "closed loop %d clients: %7.1f q/s  p50=%.2fms p95=%.2fms "
        "p99=%.2fms (%llu ok, %llu failed)\n",
        p.clients, p.throughput_qps, p.latency_ms.Get(50),
        p.latency_ms.Get(95), p.latency_ms.Get(99),
        static_cast<unsigned long long>(p.executed - p.diffs),
        static_cast<unsigned long long>(p.diffs));
  }
  for (const OpenLoopResult& p : open) {
    std::printf(
        "open loop %4.0f q/s offered: %6.1f q/s done  p50=%.2fms "
        "p99=%.2fms (%llu ok, %llu rejected, %llu failed)\n",
        p.offered_qps, p.throughput_qps, p.latency_ms.Get(50),
        p.latency_ms.Get(99), static_cast<unsigned long long>(p.completed),
        static_cast<unsigned long long>(p.rejected),
        static_cast<unsigned long long>(p.failed));
  }

  // Lifecycle span breakdown of the served phase, from the recorder.
  std::map<std::string, PhaseBreakdown> breakdown =
      SpanBreakdown(bench_obs.recorder()->snapshot());
  std::map<std::string, std::string> sql_to_name;
  for (const MacroQuery& q : mix) sql_to_name[q.sql] = q.name;
  double coverage_min = 1.0, coverage_sum = 0.0;
  uint64_t covered = 0;
  for (const auto& [sql, b] : breakdown) {
    coverage_min = std::min(coverage_min, b.coverage_min);
    coverage_sum += b.coverage_sum;
    covered += b.queries;
  }
  const double coverage_mean =
      covered > 0 ? coverage_sum / static_cast<double>(covered) : 0.0;
  std::printf(
      "served spans: %llu queries traced, phase coverage min=%.4f "
      "mean=%.4f, %llu slow-query log entries, peak running=%d\n",
      static_cast<unsigned long long>(covered), coverage_min, coverage_mean,
      static_cast<unsigned long long>(slow_entries), peak_running);

  double plain_seconds = 0, disabled_seconds = 0, median_ratio = 1.0;
  MeasureOverhead(&engine, scan_heavy, config.reps, &plain_seconds,
                  &disabled_seconds, &median_ratio);
  const double pct_min_totals =
      plain_seconds > 0
          ? 100.0 * (disabled_seconds - plain_seconds) / plain_seconds
          : 0.0;
  const double pct_median = 100.0 * (median_ratio - 1.0);
  // True overhead is one pointer test; both estimators bound it from
  // above with independent noise, so gate on the tighter bound.
  const double overhead_percent = std::min(pct_min_totals, pct_median);
  std::printf(
      "tracing overhead (disabled): %.2f%% (min-totals %.2f%%, "
      "median %.2f%%; %.4fs -> %.4fs)\n",
      overhead_percent, pct_min_totals, pct_median, plain_seconds,
      disabled_seconds);

  if (!config.out_path.empty()) {
    FILE* f = std::fopen(config.out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", config.out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"scale\":%.6g,\"distribution\":\"%s\",\"reps\":%d,"
                 "\"correctness\":{\"queries\":%llu,\"diffs\":%llu},"
                 "\"checksums\":{",
                 config.scale, MacroDistributionName(config.distribution),
                 config.reps,
                 static_cast<unsigned long long>(total_queries),
                 static_cast<unsigned long long>(total_diffs));
    bool first = true;
    for (const auto& [name, digest] : oracle) {
      std::fprintf(f, "%s\"%s\":{\"rows\":%llu,\"checksum\":%llu}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(digest.rows),
                   static_cast<unsigned long long>(digest.checksum));
      first = false;
    }
    std::fprintf(f, "},\"modes\":[");
    for (size_t i = 0; i < modes.size(); ++i) {
      const ModeResult& m = modes[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"executed\":%llu,\"diffs\":%llu,"
                   "\"total_seconds\":%.6f,\"throughput_qps\":%.2f,"
                   "\"p50_ms\":%.4f,\"p95_ms\":%.4f,\"p99_ms\":%.4f,"
                   "\"speedup_vs_serial\":%.4f,\"per_query_mean_ms\":{",
                   i == 0 ? "" : ",", m.name.c_str(),
                   static_cast<unsigned long long>(m.executed),
                   static_cast<unsigned long long>(m.diffs), m.total_seconds,
                   m.throughput_qps, m.latency_ms.Get(50),
                   m.latency_ms.Get(95), m.latency_ms.Get(99),
                   m.speedup_vs_serial);
      bool first_q = true;
      for (const auto& [q, ms] : m.per_query_sum_ms) {
        std::fprintf(f, "%s\"%s\":%.4f", first_q ? "" : ",", q.c_str(),
                     ms / static_cast<double>(m.per_query_runs.at(q)));
        first_q = false;
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f,
                 "],\"served\":{\"peak_running\":%d,\"slow_query_entries\":"
                 "%llu,\"span_coverage_min\":%.6f,\"span_coverage_mean\":"
                 "%.6f,\"span_breakdown\":[",
                 peak_running, static_cast<unsigned long long>(slow_entries),
                 coverage_min, coverage_mean);
    first = true;
    for (const auto& [sql, b] : breakdown) {
      auto it = sql_to_name.find(sql);
      const std::string name = it != sql_to_name.end() ? it->second : sql;
      std::fprintf(f,
                   "%s{\"query\":\"%s\",\"runs\":%llu,\"total_ms\":%.4f,"
                   "\"admission_ms\":%.4f,\"queue_wait_ms\":%.4f,"
                   "\"execute_ms\":%.4f,\"drain_ms\":%.4f}",
                   first ? "" : ",", name.c_str(),
                   static_cast<unsigned long long>(b.queries), b.total_ms,
                   b.admission_ms, b.queue_ms, b.exec_ms, b.drain_ms);
      first = false;
    }
    std::fprintf(f, "],\"closed_loop\":[");
    for (size_t i = 0; i < closed.size(); ++i) {
      const ModeResult& p = closed[i];
      std::fprintf(f,
                   "%s{\"clients\":%d,\"completed\":%llu,\"failed\":%llu,"
                   "\"throughput_qps\":%.1f,\"p50_ms\":%.3f,\"p95_ms\":%.3f,"
                   "\"p99_ms\":%.3f}",
                   i == 0 ? "" : ",", p.clients,
                   static_cast<unsigned long long>(p.executed - p.diffs),
                   static_cast<unsigned long long>(p.diffs), p.throughput_qps,
                   p.latency_ms.Get(50), p.latency_ms.Get(95),
                   p.latency_ms.Get(99));
    }
    std::fprintf(f, "],\"open_loop\":[");
    for (size_t i = 0; i < open.size(); ++i) {
      const OpenLoopResult& p = open[i];
      std::fprintf(f,
                   "%s{\"offered_qps\":%.1f,\"completed\":%llu,"
                   "\"rejected\":%llu,\"failed\":%llu,"
                   "\"throughput_qps\":%.1f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                   i == 0 ? "" : ",", p.offered_qps,
                   static_cast<unsigned long long>(p.completed),
                   static_cast<unsigned long long>(p.rejected),
                   static_cast<unsigned long long>(p.failed), p.throughput_qps,
                   p.latency_ms.Get(50), p.latency_ms.Get(99));
    }
    std::fprintf(f,
                 "]},\"overhead\":{\"plain_seconds\":%.6f,"
                 "\"disabled_obs_seconds\":%.6f,\"percent\":%.4f,"
                 "\"percent_min_totals\":%.4f,\"percent_median\":%.4f}}\n",
                 plain_seconds, disabled_seconds, overhead_percent,
                 pct_min_totals, pct_median);
    std::fclose(f);
    std::printf("wrote %s\n", config.out_path.c_str());
  }

  bench_obs.Finish();
  return total_diffs == 0 ? 0 : 1;
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) { return xprs::Run(argc, argv); }
