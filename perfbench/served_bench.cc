// served_bench: the macro schema served through ServingEngine sessions.
//
//   served_bench --workload=olap_solo|olap_multi|point_lookup --seed=N
//                --seconds=S --trace=0|1 [--tail-percentile=P]
//
// One server is configured as a deployment on the host would be: the
// hardware thread count as MachineConfig::num_cpus (engine and scheduler
// alike) and as max_concurrent, a buffer pool smaller than the olap scan
// set, the slow-query log off. Each session of the workload replays the
// seeded statement sequence (served_workload.h) from its own offset in a
// closed loop for the timed window; every result is checked against a
// serial-oracle digest, computed in a child process before set-up.
//
// --trace=0 reports the end-to-end metrics of one untraced window; the
// latency tail is read at --tail-percentile (run.py passes the one
// BENCHMARK.json fixes for the workload). --trace=1 runs an untraced half
// window, then a traced half window with the obs bundle attached to the
// server and its buffer pool, then calls each layer's public entry points
// once per distinct statement at the head of the sequence, and reports the
// per-layer metrics.
//
// Progress goes to stderr; the last stdout line is one JSON object:
//   {"correct":b,"attempted":n,"failed":n,"metrics":{name:value}}
// run.py attaches the units BENCHMARK.json gives. The exit code is
// non-zero when a set-up guard, an oracle digest, the pin count or the
// session count says the run is not valid.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_obs.h"
#include "exec/fragment.h"
#include "serve/serving_engine.h"
#include "served_workload.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "util/stats.h"
#include "util/str.h"
#include "workload/macro.h"

namespace xprs {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

/// The paper's disks (nothing measures the host's page rate yet) with the
/// host's processors.
MachineConfig HostMachine() {
  MachineConfig machine = MachineConfig::PaperConfig();
  machine.num_cpus = HardwareThreads();
  return machine;
}

double Median(std::vector<double> values) {
  Percentiles p;
  for (double v : values) p.Add(v);
  return p.Get(50.0);
}

// --- database and server ---------------------------------------------------

struct Database {
  DiskArray array{4, DiskMode::kInstant};
  Catalog catalog{&array};
  CostModel model;
};

std::unique_ptr<Database> LoadDatabase() {
  auto db = std::make_unique<Database>();
  MacroWorkloadOptions options;
  options.scale = kMacroScale;
  Status st = BuildMacroTables(&db->catalog, options);
  if (!st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return db;
}

std::unique_ptr<ServingEngine> StartServer(Database* db,
                                           const Observability& obs) {
  ServingEngine::Options options;
  options.serve.machine = HostMachine();
  options.serve.max_concurrent = HardwareThreads();
  options.serve.obs = obs;
  options.buffer_pool_frames = kPoolFrames;
  return std::make_unique<ServingEngine>(&db->catalog, HostMachine(),
                                         &db->model, std::move(options));
}

/// Runs the head of the sequence (one statement per template for olap)
/// once through one session so the pool and the scheduler's threads are
/// warm before anything is timed.
bool WarmUp(ServingEngine* server, const std::vector<Statement>& sequence,
            size_t count) {
  auto session = server->OpenSession();
  bool ok = true;
  for (size_t i = 0; i < count && i < sequence.size(); ++i)
    ok = session->Execute(sequence[i].sql).ok() && ok;
  server->CloseSession(session);
  return ok;
}

uint32_t TablePages(Database* db, const char* name) {
  StatusOr<Table*> table = db->catalog.GetTable(name);
  return table.ok() ? (*table)->file().num_pages() : 0;
}

// --- set-up guards ----------------------------------------------------------

/// Keeps each workload on the layer it was chosen for: the point tables
/// fit the pool and every point statement plans as an index scan, while
/// the olap scan set does not fit.
bool CheckPurposeGuards(Database* db, ServingEngine* server,
                        const std::vector<Statement>& point_sequence) {
  bool ok = true;
  const uint32_t point_pages = TablePages(db, "customer") +
                               TablePages(db, "orders") +
                               TablePages(db, "part");
  const uint32_t olap_pages = point_pages + TablePages(db, "lineitem");
  std::fprintf(stderr, "pages: point tables %u, olap scan set %u, pool %zu\n",
               point_pages, olap_pages, kPoolFrames);
  if (point_pages > kPoolFrames) {
    std::fprintf(stderr, "guard: point tables (%u pages) exceed the pool\n",
                 point_pages);
    ok = false;
  }
  if (olap_pages <= kPoolFrames) {
    std::fprintf(stderr, "guard: olap tables (%u pages) fit in the pool\n",
                 olap_pages);
    ok = false;
  }
  std::set<int> reported;
  for (const Statement& s : point_sequence) {
    StatusOr<SqlResult> plan = server->sql_engine().Explain(s.sql);
    if (plan.ok() && plan->plan_text.find("IndexScan") != std::string::npos &&
        plan->plan_text.find("SeqScan") == std::string::npos)
      continue;
    ok = false;
    if (reported.insert(s.template_id).second)
      std::fprintf(stderr, "guard: point statement not index-served: %s\n%s\n",
                   s.sql.c_str(),
                   plan.ok() ? plan->plan_text.c_str()
                             : plan.status().ToString().c_str());
  }
  return ok;
}

// --- the timed window -------------------------------------------------------

/// Latency histogram bounds in ms: 10 us to 100 s in 2% steps, so a
/// percentile read from the histogram is within 1% of the exact one.
const std::vector<double>& LatencyBoundsMs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double ms = 0.01; ms < 1e5; ms *= 1.02) b.push_back(ms);
    return b;
  }();
  return bounds;
}

void MergeInto(const HistogramSnapshot& h, HistogramSnapshot* m) {
  if (h.count == 0) return;
  if (m->buckets.empty()) {
    *m = h;
    return;
  }
  m->min = std::min(m->min, h.min);
  m->max = std::max(m->max, h.max);
  m->count += h.count;
  m->sum += h.sum;
  for (size_t b = 0; b < h.buckets.size(); ++b) m->buckets[b] += h.buckets[b];
}

/// One session's tally. Memory is fixed when the window starts, so the
/// benchmark's own bookkeeping adds the same RSS to every run.
struct SessionTally {
  /// Latencies of the correct statements completed in the window, per
  /// one-second slice they completed in.
  std::vector<std::unique_ptr<Histogram>> slice_ms;
  std::vector<RunningStat> template_ms;  ///< latency per template
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct WindowResult {
  double seconds = 0;
  double cpu_seconds = 0;  ///< process CPU over the window
  std::vector<SessionTally> sessions;
  /// Per session: offset into the sequence it entered at.
  std::vector<size_t> offsets;

  uint64_t attempted() const {
    uint64_t n = 0;
    for (const SessionTally& s : sessions) n += s.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const SessionTally& s : sessions) n += s.failed;
    return n;
  }
  size_t slices() const { return sessions.front().slice_ms.size(); }
  /// Latencies of the correct statements completed in slice `i`.
  HistogramSnapshot SliceLatency(size_t i) const {
    HistogramSnapshot m;
    for (const SessionTally& s : sessions)
      MergeInto(s.slice_ms[i]->Snapshot(), &m);
    return m;
  }
  /// Latencies of the correct statements completed in the window.
  HistogramSnapshot Latency() const {
    HistogramSnapshot m;
    for (size_t i = 0; i < slices(); ++i) MergeInto(SliceLatency(i), &m);
    return m;
  }
  /// Sub-windows the tail is read over: as many equal ones as leave
  /// kTailMinBeyond samples beyond `percentile` in each, at most one per
  /// one-second slice.
  size_t TailParts(double percentile) const {
    const double parts =
        SamplesBeyond(Latency().count, percentile) / kTailMinBeyond;
    return std::clamp<size_t>(static_cast<size_t>(parts), 1, slices());
  }
  /// The latency at `percentile`: the median over TailParts sub-windows of
  /// each one's percentile. A stall of the host in a few seconds then does
  /// not set the figure, while a slowdown in most of them does.
  double TailMs(double percentile) const {
    const size_t n = slices();
    const size_t k = TailParts(percentile);
    std::vector<double> per_part;
    for (size_t j = 0; j < k; ++j) {
      HistogramSnapshot part;
      for (size_t i = j * n / k; i < (j + 1) * n / k; ++i)
        MergeInto(SliceLatency(i), &part);
      per_part.push_back(part.Percentile(percentile / 100));
    }
    return Median(per_part);
  }
  double qps() const {
    return static_cast<double>(Latency().count) / seconds;
  }
  double cpu_ms_per_query() const {
    const uint64_t completed = Latency().count;
    return completed > 0 ? 1e3 * cpu_seconds / static_cast<double>(completed)
                         : 0.0;
  }
};

/// `sessions` closed-loop clients, each replaying `sequence` from its own
/// offset until `seconds` have passed since the common start, while this
/// thread reads process CPU time at the window's start and end. Client
/// work between statements is one digest compare and one histogram update.
WindowResult RunWindow(ServingEngine* server,
                       const std::vector<Statement>& sequence,
                       int templates, const std::vector<Digest>& oracle,
                       int sessions, double seconds) {
  WindowResult result;
  result.seconds = seconds;
  const size_t slices =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(seconds)));
  result.sessions.resize(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    SessionTally& tally = result.sessions[static_cast<size_t>(s)];
    for (size_t i = 0; i < slices; ++i)
      tally.slice_ms.push_back(std::make_unique<Histogram>(LatencyBoundsMs()));
    tally.template_ms.resize(static_cast<size_t>(templates));
    result.offsets.push_back(SessionOffset(static_cast<size_t>(s),
                                           static_cast<size_t>(sessions),
                                           sequence.size()));
  }

  std::mutex mutex;
  std::condition_variable cv;
  int ready = 0;
  bool go = false;
  Clock::time_point t0;

  std::vector<std::thread> threads;
  for (int s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      SessionTally& tally = result.sessions[static_cast<size_t>(s)];
      auto session = server->OpenSession();
      size_t pos = result.offsets[static_cast<size_t>(s)];
      {
        std::unique_lock<std::mutex> lock(mutex);
        ++ready;
        cv.notify_all();
        cv.wait(lock, [&] { return go; });
      }
      for (;;) {
        const auto q0 = Clock::now();
        if (std::chrono::duration<double>(q0 - t0).count() >= seconds) break;
        StatusOr<SqlResult> r = session->Execute(sequence[pos].sql);
        const auto q1 = Clock::now();
        ++tally.attempted;
        if (r.ok() && DigestRows(r->rows) == oracle[pos]) {
          const double done = std::chrono::duration<double>(q1 - t0).count();
          const double ms = 1e3 * std::chrono::duration<double>(q1 - q0).count();
          if (done < seconds) {
            tally.slice_ms[std::min(slices - 1, static_cast<size_t>(done))]
                ->Observe(ms);
            tally.template_ms[static_cast<size_t>(sequence[pos].template_id)]
                .Add(ms);
          }
        } else {
          ++tally.failed;
          std::fprintf(stderr, "wrong result: %s (%s)\n",
                       sequence[pos].sql.c_str(),
                       r.ok() ? "digest mismatch"
                              : r.status().ToString().c_str());
        }
        pos = (pos + 1) % sequence.size();
      }
      server->CloseSession(session);
    });
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return ready == sessions; });
    t0 = Clock::now();
    go = true;
  }
  cv.notify_all();
  const double cpu0 = CpuSeconds();
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds)));
  result.cpu_seconds = CpuSeconds() - cpu0;
  for (std::thread& t : threads) t.join();
  return result;
}

/// After a window: nothing pinned, no session left open.
bool CheckQuiescent(ServingEngine* server) {
  Status drained = server->Drain();
  const size_t pinned = server->pool()->PinnedFrames();
  const size_t open = server->num_open_sessions();
  if (!drained.ok() || pinned != 0 || open != 0) {
    std::fprintf(stderr, "not quiescent: drain=%s pinned=%zu sessions=%zu\n",
                 drained.ToString().c_str(), pinned, open);
    return false;
  }
  return true;
}

// --- traced-run analysis ----------------------------------------------------

const TraceValue* FindArg(const TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return &v;
  return nullptr;
}

int64_t IdArg(const TraceEvent& e, const char* key) {
  const TraceValue* v = FindArg(e, key);
  return v != nullptr ? static_cast<int64_t>(v->num) : -1;
}

/// The traced run's trace sink. It keeps the serving layer's lifecycle
/// spans as compact records (ids, durations, the grant) instead of whole
/// events: 15 s of point lookups emit over a million events, more than a
/// MemoryTraceRecorder holds by default (it drops the rest and the phase
/// breakdown breaks), and whole events would take hundreds of MB. Events
/// may arrive in any order; summary() joins them as bench_macro's offline
/// span breakdown does.
class SpanTally : public TraceSink {
 public:
  struct Text {
    double exec_seconds = 0;
    double root_seconds = 0;
    double phase_seconds = 0;  ///< the four phases, summed
    uint64_t runs = 0;
    std::map<int, uint64_t> grants;  ///< granted slots -> statements

    /// The median grant; 0 when no grant was seen.
    int MedianGrant() const {
      uint64_t total = 0;
      for (const auto& [slots, n] : grants) total += n;
      uint64_t seen = 0;
      for (const auto& [slots, n] : grants)
        if ((seen += n) * 2 >= total) return slots;
      return 0;
    }
  };
  struct Summary {
    uint64_t queries = 0;
    double admission = 0, queue = 0, exec = 0, drain = 0;  ///< seconds
    /// Min over statement texts of phases / root, each summed over the
    /// text's runs.
    double coverage_min = 1.0;
    /// The same per query. A thread preempted between the root's and the
    /// admission span's clock readings (QueryLifecycle's constructor)
    /// leaves a gap of the preemption's length, so on a busy host this
    /// reads low on a handful of sub-millisecond queries.
    double query_coverage_min = 1.0;
    uint64_t granted = 0;
    uint64_t parallel_granted = 0;
    double grant_sum = 0;
    std::unordered_map<std::string, Text> texts;
  };

  void Record(TraceEvent e) override {
    if (e.category != "serve") return;
    const bool grant = e.phase == 'i' && e.name == "grant";
    if (e.phase != 'X' && !grant) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (grant) {
      const TraceValue* slots = FindArg(e, "parallelism");
      if (slots != nullptr)
        queue_grant_[IdArg(e, "parent")] = static_cast<int>(slots->num);
      return;
    }
    if (e.name == "query") {
      const TraceValue* sql = FindArg(e, "query");
      Root& root = roots_[IdArg(e, "span_id")];
      root.seconds = e.duration;
      root.text = &*texts_.insert(sql != nullptr ? sql->str : "").first;
      return;
    }
    const int64_t parent = IdArg(e, "parent");
    Phases& q = phases_[parent];
    if (e.name == "admission") q.admission += e.duration;
    if (e.name == "execute") q.exec += e.duration;
    if (e.name == "drain") q.drain += e.duration;
    if (e.name == "queue_wait") {
      q.queue += e.duration;
      queue_root_[IdArg(e, "span_id")] = parent;
    }
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    roots_.clear();
    phases_.clear();
    queue_root_.clear();
    queue_grant_.clear();
    texts_.clear();
  }

  Summary summary() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unordered_map<int64_t, int> root_grant;
    for (const auto& [queue, slots] : queue_grant_) {
      auto root = queue_root_.find(queue);
      if (root != queue_root_.end()) root_grant[root->second] = slots;
    }
    Summary s;
    for (const auto& [id, root] : roots_) {
      auto phases = phases_.find(id);
      if (phases == phases_.end()) continue;  // its phases predate Clear()
      const Phases& q = phases->second;
      ++s.queries;
      s.admission += q.admission;
      s.queue += q.queue;
      s.exec += q.exec;
      s.drain += q.drain;
      const double covered = q.admission + q.queue + q.exec + q.drain;
      if (root.seconds > 0)
        s.query_coverage_min =
            std::min(s.query_coverage_min, covered / root.seconds);
      Text& t = s.texts[*root.text];
      t.exec_seconds += q.exec;
      t.root_seconds += root.seconds;
      t.phase_seconds += covered;
      ++t.runs;
      auto g = root_grant.find(id);
      if (g == root_grant.end()) continue;
      ++s.granted;
      s.parallel_granted += g->second > 1;
      s.grant_sum += g->second;
      ++t.grants[g->second];
    }
    for (const auto& [text, t] : s.texts)
      if (t.root_seconds > 0)
        s.coverage_min =
            std::min(s.coverage_min, t.phase_seconds / t.root_seconds);
    return s;
  }

 private:
  struct Root {
    double seconds = 0;
    const std::string* text = nullptr;  ///< key in texts_
  };
  struct Phases {
    double admission = 0, queue = 0, exec = 0, drain = 0;
  };

  mutable std::mutex mutex_;
  std::unordered_map<int64_t, Root> roots_;       ///< root span id -> root
  std::unordered_map<int64_t, Phases> phases_;    ///< root span id -> phases
  std::unordered_map<int64_t, int64_t> queue_root_;  ///< queue_wait -> root
  std::unordered_map<int64_t, int> queue_grant_;     ///< queue_wait -> slots
  std::set<std::string> texts_;  ///< statement texts, interned
};

/// What each layer's public entry points report for one statement.
struct LayerProbe {
  double parse_us = 0;
  double plan_us = 0;
  double serial_ms = 0;
  double seq_time_qerror = 0;
  std::vector<double> rows_qerror;  ///< per operator of the serial plan
  uint64_t serial_build_rows = 0;
  uint64_t served_build_rows = 0;   ///< at the served grant
  uint64_t slaves = 0;
  uint64_t materialized_rows = 0;
};

uint64_t BuildRows(const QueryProfile& profile) {
  uint64_t rows = 0;
  for (const auto& op : profile.operators())
    rows += op->build_rows.load(std::memory_order_relaxed);
  return rows;
}

template <typename Fn>
double MeanMicros(int reps, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return 1e6 * SecondsSince(t0) / reps;
}

bool ProbeLayers(SqlEngine* engine, const std::string& sql, int grant,
                 LayerProbe* probe) {
  probe->parse_us = MeanMicros(20, [&] { (void)ParseSql(sql); });
  const double explain_us = MeanMicros(5, [&] { (void)engine->Explain(sql); });
  probe->plan_us = explain_us - probe->parse_us;

  StatusOr<TaskProfile> estimate = engine->EstimateProfile(sql);
  const auto t0 = Clock::now();
  StatusOr<SqlResult> serial = engine->Execute(sql);
  const double serial_seconds = SecondsSince(t0);
  StatusOr<SqlResult> analyzed = engine->ExplainAnalyze(sql);
  if (!estimate.ok() || !serial.ok() || !analyzed.ok()) return false;
  probe->serial_ms = 1e3 * serial_seconds;
  const double ratio = estimate->seq_time / std::max(serial_seconds, 1e-9);
  probe->seq_time_qerror = std::max(ratio, 1.0 / ratio);

  for (const auto& op : analyzed->profile->operators()) {
    if (!op->has_estimate) continue;
    const double actual = std::max<double>(
        1.0, static_cast<double>(op->tuples_out.load(std::memory_order_relaxed)));
    const double est = std::max(1.0, op->est_rows);
    probe->rows_qerror.push_back(std::max(est / actual, actual / est));
  }
  probe->serial_build_rows = BuildRows(*analyzed->profile);
  probe->served_build_rows = probe->serial_build_rows;
  if (grant <= 1) return true;

  // The served path at this grant runs the parallel master.
  MasterOptions master;
  master.max_slots = grant;
  StatusOr<SqlResult> parallel = engine->ExplainAnalyzeParallel(sql, master);
  if (!parallel.ok()) return false;
  const QueryProfile& profile = *parallel->profile;
  probe->served_build_rows = BuildRows(profile);
  const int root =
      FragmentGraph::Decompose(*profile.plan()).root_fragment();
  for (const FragmentStats& f : profile.fragments()) {
    probe->slaves += static_cast<uint64_t>(f.slaves_spawned);
    if (f.frag_id != root) probe->materialized_rows += f.tuples_out;
  }
  return true;
}

// --- output -----------------------------------------------------------------

using MetricValues = std::map<std::string, double>;

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const MetricValues& values) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (auto [name, v] : values) {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "metric %s was not measured; reporting 0\n",
                   name.c_str());
      v = 0.0;
    }
    out += StrFormat("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- main -------------------------------------------------------------------

/// Set-up runs this many times and setup_s is the median. Single set-ups
/// swing with the host (0.05-0.10 s for point_lookup, 0.2-0.6 s for
/// olap_solo, whose warm-up runs joins at grant 4), so every workload gets
/// the same number of repeats, whatever one costs. Within one run they
/// agree far better than from run to run, hence the split around the
/// window.
constexpr int kSetups = 20;
/// The traced run probes the distinct texts among this many statements at
/// the head of the sequence: all of them ran in the traced window, and
/// probing every olap text would take minutes.
constexpr size_t kProbeStatements = 100;

/// The child's side of ComputeOracle: loads a database of its own, digests
/// every statement and writes the digests to `fd`.
bool WriteOracle(const std::vector<Statement>& sequence, int fd) {
  std::unique_ptr<Database> db = LoadDatabase();
  if (db == nullptr) return false;
  SqlEngine engine(&db->catalog, HostMachine(), &db->model);
  std::vector<Digest> digests(sequence.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < HardwareThreads(); ++t)
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < sequence.size();) {
        StatusOr<SqlResult> r = engine.Execute(sequence[i].sql);
        if (!r.ok()) {
          std::fprintf(stderr, "oracle: %s: %s\n", sequence[i].sql.c_str(),
                       r.status().ToString().c_str());
          ok = false;
          continue;
        }
        digests[i] = DigestRows(r->rows);
      }
    });
  for (std::thread& t : threads) t.join();
  const char* out = reinterpret_cast<const char*>(digests.data());
  size_t left = digests.size() * sizeof(Digest);
  while (ok && left > 0) {
    const ssize_t n = write(fd, out, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    out += n;
    left -= static_cast<size_t>(n);
  }
  return ok;
}

/// The serial oracle: one digest per sequence position, from
/// SqlEngine::Execute (the serial tuple engine), one statement per thread
/// on every hardware thread. It runs in a child process, forked before
/// this process starts a thread, so the oracle's memory (several serial
/// joins at once) stays out of peak_rss_mb, which must follow the served
/// statements alone.
bool ComputeOracle(const std::vector<Statement>& sequence,
                   std::vector<Digest>* oracle) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    _exit(WriteOracle(sequence, fds[1]) ? 0 : 1);
  }
  close(fds[1]);
  oracle->assign(sequence.size(), Digest());
  char* in = reinterpret_cast<char*>(oracle->data());
  const size_t want = oracle->size() * sizeof(Digest);
  size_t got = 0;
  while (got < want) {
    const ssize_t n = read(fds[0], in + got, want - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == want && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

int Run(int argc, char** argv) {
  std::string workload_name;
  int seed = 1;
  double seconds = 0;
  int trace = 0;
  double tail_percentile = 0;
  for (int i = 1; i < argc; ++i) {
    if (BenchFlagString(argv[i], "--workload=", &workload_name) ||
        BenchFlagInt(argv[i], "--seed=", &seed) ||
        BenchFlagDouble(argv[i], "--seconds=", &seconds) ||
        BenchFlagInt(argv[i], "--trace=", &trace) ||
        BenchFlagDouble(argv[i], "--tail-percentile=", &tail_percentile))
      continue;
    std::fprintf(stderr, "unknown argument %s\n", argv[i]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(workload_name);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1) ||
      (trace == 0 && (tail_percentile <= 0 || tail_percentile >= 100))) {
    std::fprintf(stderr,
                 "usage: served_bench --workload=olap_solo|olap_multi|"
                 "point_lookup --seed=N --seconds=S --trace=0|1 "
                 "[--tail-percentile=P, required with --trace=0]\n");
    return 2;
  }
  const int sessions = spec->sessions > 0 ? spec->sessions : HardwareThreads();
  const int templates = NumTemplates(spec->family);
  const uint64_t seed64 = static_cast<uint64_t>(seed);
  const std::vector<Statement> sequence = BuildSequence(spec->family, seed64);
  std::fprintf(stderr,
               "served_bench: workload=%s seed=%d seconds=%.3g trace=%d "
               "sessions=%d cpus=%d statements=%zu\n",
               spec->name, seed, seconds, trace, sessions, HardwareThreads(),
               sequence.size());

  std::vector<Digest> oracle;
  const auto oracle_t0 = Clock::now();
  if (!ComputeOracle(sequence, &oracle)) {
    std::fprintf(stderr, "oracle failed\n");
    return 1;
  }
  std::fprintf(stderr, "oracle: %zu statements in %.1f s\n", sequence.size(),
               SecondsSince(oracle_t0));

  // Set-up: load + index + stats, server start, warm-up. Half of the
  // repeats run before the window and half after it, so setup_s samples
  // the host at two times a window apart. The traced run's obs bundle is
  // declared first so it outlives every server that publishes into it.
  SpanTally tally;
  MetricsRegistry metrics;
  std::vector<double> setup_seconds;
  std::unique_ptr<Database> db;
  std::unique_ptr<ServingEngine> server;
  auto set_up = [&](int times) {
    for (int i = 0; i < times; ++i) {
      server.reset();
      db.reset();
      const auto t0 = Clock::now();
      db = LoadDatabase();
      if (db == nullptr) return false;
      server = StartServer(db.get(), Observability());
      if (!WarmUp(server.get(), sequence, static_cast<size_t>(templates))) {
        std::fprintf(stderr, "warm-up failed\n");
        return false;
      }
      setup_seconds.push_back(SecondsSince(t0));
    }
    return true;
  };
  if (!set_up(kSetups / 2)) return 1;
  if (!CheckPurposeGuards(db.get(), server.get(),
                          BuildSequence(StatementFamily::kPoint, seed64)))
    return 1;
  const double window = trace == 0 ? seconds : seconds / 2;
  WindowResult plain =
      RunWindow(server.get(), sequence, templates, oracle, sessions, window);
  bool correct = CheckQuiescent(server.get());
  const double peak_rss_mb = PeakRssMb();
  if (!set_up(kSetups - kSetups / 2)) return 1;
  std::fprintf(stderr, "set-up: %zu times, %.4f to %.4f s\n",
               setup_seconds.size(),
               *std::min_element(setup_seconds.begin(), setup_seconds.end()),
               *std::max_element(setup_seconds.begin(), setup_seconds.end()));
  server.reset();

  MetricValues values;
  if (trace == 0) {
    correct = correct && plain.failed() == 0;
    const HistogramSnapshot latency = plain.Latency();
    if (TailPercentile(latency.count) < tail_percentile)
      std::fprintf(stderr,
                   "warning: fewer than %g samples beyond p%g; run longer\n",
                   kTailMinBeyond, tail_percentile);
    values["qps"] = plain.qps();
    values["latency_p50_ms"] = latency.Percentile(0.5);
    values["latency_tail_ms"] = plain.TailMs(tail_percentile);
    values["cpu_ms_per_query"] = plain.cpu_ms_per_query();
    values["success_ratio"] =
        static_cast<double>(plain.attempted() - plain.failed()) /
        static_cast<double>(std::max<uint64_t>(plain.attempted(), 1));
    values["peak_rss_mb"] = peak_rss_mb;
    values["setup_s"] = Median(setup_seconds);

    std::fprintf(stderr,
                 "window: %llu statements, %llu completed in it; %.0f beyond "
                 "p%g; tail over %zu sub-windows (whole window %.6g ms)\n",
                 static_cast<unsigned long long>(plain.attempted()),
                 static_cast<unsigned long long>(latency.count),
                 SamplesBeyond(latency.count, tail_percentile),
                 tail_percentile, plain.TailParts(tail_percentile),
                 latency.Percentile(tail_percentile / 100));
    for (int t = 0; t < templates; ++t) {
      double n = 0, sum = 0;
      for (const SessionTally& session : plain.sessions) {
        n += static_cast<double>(session.template_ms[static_cast<size_t>(t)].count());
        sum += session.template_ms[static_cast<size_t>(t)].sum();
      }
      std::fprintf(stderr, "  %-22s %6.0f completed, mean %8.3f ms\n",
                   TemplateName(spec->family, t), n, n > 0 ? sum / n : 0.0);
    }
    PrintResult(correct, plain.attempted(), plain.failed(), values);
    return correct ? 0 : 1;
  }

  // The traced half: obs bundle on the server and its pool.
  server = StartServer(db.get(), Observability{&tally, &metrics});
  server->pool()->AttachMetrics(&metrics);
  if (!WarmUp(server.get(), sequence, static_cast<size_t>(templates)))
    return 1;
  tally.Clear();
  db->array.ResetStats();
  const BufferPoolStats pool0 = server->pool()->stats();
  // Per-layer metric <- program counter, as a per-statement delta.
  const std::pair<const char*, const char*> kCounters[] = {
      {"parallel.fragments_per_query", "parallel.fragments_started"},
      {"sched.adjustments_per_query", "sched.adjustments"},
      {"storage.backpressure_per_query", "bufferpool.backpressure"},
  };
  std::map<std::string, uint64_t> counters0;
  for (const auto& [metric, counter] : kCounters)
    counters0[metric] = metrics.counter(counter)->value();
  WindowResult traced =
      RunWindow(server.get(), sequence, templates, oracle, sessions, window);
  correct = CheckQuiescent(server.get()) && correct;
  const BufferPoolStats pool1 = server->pool()->stats();
  const uint64_t disk_reads = db->array.total_stats().reads;
  const double statements = static_cast<double>(std::max<uint64_t>(
      traced.attempted(), 1));
  for (const auto& [metric, counter] : kCounters)
    values[metric] = static_cast<double>(metrics.counter(counter)->value() -
                                         counters0[metric]) /
                     statements;
  const uint64_t hits = pool1.hits - pool0.hits;
  const uint64_t misses = pool1.misses - pool0.misses;
  values["storage.pool_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0;
  values["storage.pages_read_per_query"] =
      static_cast<double>(disk_reads) / statements;
  server.reset();

  // Lifecycle spans: phase means, coverage and grants.
  const SpanTally::Summary spans = tally.summary();
  const double n_spans =
      static_cast<double>(std::max<uint64_t>(spans.queries, 1));
  values["serve.admission_ms"] = 1e3 * spans.admission / n_spans;
  values["serve.queue_wait_ms"] = 1e3 * spans.queue / n_spans;
  values["serve.execute_ms"] = 1e3 * spans.exec / n_spans;
  values["serve.drain_ms"] = 1e3 * spans.drain / n_spans;
  values["serve.span_coverage_min"] =
      spans.queries > 0 ? spans.coverage_min : 0.0;
  const double granted =
      static_cast<double>(std::max<uint64_t>(spans.granted, 1));
  values["serve.grant_parallelism_mean"] = spans.grant_sum / granted;
  values["serve.parallel_grant_share"] =
      static_cast<double>(spans.parallel_granted) / granted;

  // Texts replayed in the traced window: share that had already run.
  std::set<std::string> distinct_run;
  for (size_t i = 0; i < traced.sessions.size(); ++i) {
    const uint64_t count =
        std::min<uint64_t>(traced.sessions[i].attempted, sequence.size());
    for (uint64_t k = 0; k < count; ++k)
      distinct_run.insert(
          sequence[(traced.offsets[i] + k) % sequence.size()].sql);
  }
  values["serve.repeat_text_share"] =
      1.0 - static_cast<double>(distinct_run.size()) / statements;
  const double traced_qps = traced.qps();
  values["obs.trace_overhead_pct"] =
      plain.qps() > 0 ? 100.0 * (plain.qps() - traced_qps) / plain.qps() : 0.0;

  // Each layer's public calls, once per distinct statement at the head of
  // the sequence.
  SqlEngine engine(&db->catalog, HostMachine(), &db->model);
  std::vector<double> parse_us, plan_us, serial_ms, seq_qerror, rows_qerror;
  std::vector<double> log_speedup;
  uint64_t serial_build = 0, served_build = 0;
  double slaves = 0, materialized = 0, hash_grant_weighted = 0;
  size_t served_texts = 0;
  std::set<std::string> probed;
  for (size_t p = 0; p < sequence.size() && p < kProbeStatements; ++p) {
    const Statement& s = sequence[p];
    if (!probed.insert(s.sql).second) continue;
    // The served shape (grant, execute span) is known only for texts the
    // traced window ran; the rest contribute the serial layers alone.
    auto it = spans.texts.find(s.sql);
    const int median_grant =
        it != spans.texts.end() ? it->second.MedianGrant() : 0;
    const bool was_served = median_grant > 0;
    const int grant = was_served ? median_grant : 1;
    LayerProbe probe;
    if (!ProbeLayers(&engine, s.sql, grant, &probe)) {
      std::fprintf(stderr, "probe failed: %s\n", s.sql.c_str());
      correct = false;
      continue;
    }
    parse_us.push_back(probe.parse_us);
    plan_us.push_back(probe.plan_us);
    serial_ms.push_back(probe.serial_ms);
    seq_qerror.push_back(probe.seq_time_qerror);
    rows_qerror.insert(rows_qerror.end(), probe.rows_qerror.begin(),
                       probe.rows_qerror.end());
    if (!was_served) continue;
    ++served_texts;
    if (probe.serial_build_rows > 0) {
      serial_build += probe.serial_build_rows;
      served_build += probe.served_build_rows;
      hash_grant_weighted +=
          static_cast<double>(grant) *
          static_cast<double>(probe.serial_build_rows);
    }
    slaves += static_cast<double>(probe.slaves);
    materialized += static_cast<double>(probe.materialized_rows);
    if (it->second.exec_seconds > 0) {
      const double served_ms = 1e3 * it->second.exec_seconds /
                               static_cast<double>(it->second.runs);
      log_speedup.push_back(std::log(probe.serial_ms / served_ms));
    }
  }
  const double served_n = static_cast<double>(std::max<size_t>(served_texts, 1));
  values["sql.parse_us"] = Median(parse_us);
  values["opt.plan_us"] = Median(plan_us);
  values["opt.rows_qerror_p50"] = Median(rows_qerror);
  values["opt.seq_time_qerror_p50"] = Median(seq_qerror);
  values["exec.serial_ms"] = Median(serial_ms);
  double log_sum = 0;
  for (double l : log_speedup) log_sum += l;
  values["parallel.speedup_vs_serial"] =
      log_speedup.empty()
          ? 0.0
          : std::exp(log_sum / static_cast<double>(log_speedup.size()));
  values["parallel.build_rows_ratio"] =
      serial_build > 0 ? static_cast<double>(served_build) /
                             static_cast<double>(serial_build)
                       : 0.0;
  values["parallel.slaves_per_query"] = slaves / served_n;
  values["exec.materialized_rows_per_query"] = materialized / served_n;
  if (serial_build > 0)
    std::fprintf(stderr,
                 "hash-join statements: build rows ratio %.3f at mean grant "
                 "%.3f\n",
                 values["parallel.build_rows_ratio"],
                 hash_grant_weighted / static_cast<double>(serial_build));
  std::fprintf(stderr,
               "traced window: %llu statements, %zu spans, coverage min "
               "%.4f (per query %.4f); %zu texts probed, %zu of them served; "
               "untraced %.1f q/s, traced %.1f q/s\n",
               static_cast<unsigned long long>(traced.attempted()),
               static_cast<size_t>(spans.queries), spans.coverage_min,
               spans.query_coverage_min, probed.size(), served_texts,
               plain.qps(), traced_qps);

  const uint64_t attempted = plain.attempted() + traced.attempted();
  const uint64_t failed = plain.failed() + traced.failed();
  correct = correct && failed == 0;
  PrintResult(correct, attempted, failed, values);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace xprs

int main(int argc, char** argv) { return xprs::perfbench::Run(argc, argv); }
