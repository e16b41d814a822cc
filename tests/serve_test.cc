// Concurrency suite for the serving layer: N client threads submitting
// mixed SQL through ServingEngine sessions (results checked against a
// serial oracle), fair-share and priority dispatch ordering, queue-full
// admission rejection with its distinct status, deadline expiry while
// still queued (the job must never run), the memory-budget degrade path,
// and the differential oracle's concurrent replay mode. The whole file
// runs under tsan in CI (scripts/ci.sh stage 5).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "serve/query_scheduler.h"
#include "serve/serving_engine.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "util/check.h"
#include "util/rng.h"

namespace xprs {
namespace {

// ----------------------------------------------------------- scheduler core

// A synthetic request: no SQL, just a job that records its grant.
ServeRequest SyntheticRequest(double seq_time, double ios,
                              int64_t session_id) {
  ServeRequest request;
  request.estimate.seq_time = seq_time;
  request.estimate.total_ios = ios;
  request.session_id = session_id;
  request.job = [](const ExecGrant&) -> StatusOr<SqlResult> {
    return SqlResult();
  };
  return request;
}

TEST(QuerySchedulerTest, CompletesSubmittedJobs) {
  ServeOptions options;
  options.max_concurrent = 4;
  QueryScheduler scheduler(options);
  std::vector<ServeTicket> tickets;
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    ServeRequest request = SyntheticRequest(0.01, 1.0, i % 4);
    request.job = [&ran](const ExecGrant&) -> StatusOr<SqlResult> {
      ran.fetch_add(1);
      return SqlResult();
    };
    auto ticket = scheduler.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(*ticket);
  }
  for (ServeTicket& t : tickets) EXPECT_TRUE(t.Wait().ok());
  EXPECT_EQ(ran.load(), 32);
  EXPECT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(scheduler.NumQueued(), 0u);
  EXPECT_EQ(scheduler.NumRunning(), 0u);
}

TEST(QuerySchedulerTest, DispatchLogKeepsTheLatestIds) {
  // A server's dispatch log must not grow with every statement it serves.
  ServeOptions options;
  options.max_concurrent = 1;
  QueryScheduler scheduler(options);
  const size_t total = QueryScheduler::kDispatchLogSize + 100;
  int64_t last_id = 0;
  for (size_t i = 0; i < total; ++i) {
    auto ticket = scheduler.Submit(SyntheticRequest(0.01, 1.0, 1));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    ASSERT_TRUE(ticket->Wait().ok());
    last_id = ticket->query_id();
  }
  std::vector<int64_t> order = scheduler.dispatch_order();
  ASSERT_EQ(order.size(), QueryScheduler::kDispatchLogSize);
  EXPECT_EQ(order.back(), last_id);
  EXPECT_EQ(order.front(),
            last_id - static_cast<int64_t>(QueryScheduler::kDispatchLogSize) +
                1);
}

TEST(QuerySchedulerTest, FairShareAlternatesSessionsAndPriorityWins) {
  ServeOptions options;
  options.max_concurrent = 1;  // serialize dispatch for a deterministic order
  options.start_paused = true;
  QueryScheduler scheduler(options);

  // Four queries each for sessions 1 and 2 (equal weights), then one
  // priority query for session 3, all queued before dispatch starts.
  std::vector<ServeTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = scheduler.Submit(SyntheticRequest(1.0, 10.0, 1));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  for (int i = 0; i < 4; ++i) {
    auto t = scheduler.Submit(SyntheticRequest(1.0, 10.0, 2));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  ServeRequest urgent = SyntheticRequest(1.0, 10.0, 3);
  urgent.priority = 5;
  auto urgent_ticket = scheduler.Submit(std::move(urgent));
  ASSERT_TRUE(urgent_ticket.ok());

  scheduler.Resume();
  for (ServeTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());
  ASSERT_TRUE(urgent_ticket->Wait().ok());

  std::vector<int64_t> order = scheduler.dispatch_order();
  ASSERT_EQ(order.size(), 9u);
  // Strict priority first: the session-3 query (submitted last, id 9).
  EXPECT_EQ(order[0], urgent_ticket->query_id());
  // Weighted fair share then alternates the two equal-weight sessions:
  // ids 1..4 are session 1, ids 5..8 session 2 — never two consecutive
  // dispatches from the same session.
  auto session_of = [&](int64_t id) { return id <= 4 ? 1 : 2; };
  for (size_t i = 2; i < order.size(); ++i) {
    EXPECT_NE(session_of(order[i]), session_of(order[i - 1]))
        << "dispatch " << i << " repeated a session under fair share";
  }
}

TEST(QuerySchedulerTest, WeightedSessionGetsLargerShare) {
  ServeOptions options;
  options.max_concurrent = 1;
  options.start_paused = true;
  QueryScheduler scheduler(options);

  // Session 1 weight 2, session 2 weight 1, six queries each.
  std::vector<ServeTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    ServeRequest heavy = SyntheticRequest(1.0, 10.0, 1);
    heavy.weight = 2.0;
    auto t = scheduler.Submit(std::move(heavy));
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
    auto u = scheduler.Submit(SyntheticRequest(1.0, 10.0, 2));
    ASSERT_TRUE(u.ok());
    tickets.push_back(*u);
  }
  scheduler.Resume();
  for (ServeTicket& t : tickets) ASSERT_TRUE(t.Wait().ok());

  // In the first six dispatches the weight-2 session must have received
  // more slots than the weight-1 session.
  std::vector<int64_t> order = scheduler.dispatch_order();
  ASSERT_EQ(order.size(), 12u);
  int heavy_first_six = 0;
  for (size_t i = 0; i < 6; ++i)
    if (order[i] % 2 == 1) ++heavy_first_six;  // odd ids = session 1
  EXPECT_GE(heavy_first_six, 4) << "weight-2 session under-served";
}

TEST(QuerySchedulerTest, QueueFullRejectsWithDistinctStatus) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.max_concurrent = 1;
  options.max_queue_depth = 2;
  options.start_paused = true;
  options.obs.metrics = &metrics;
  QueryScheduler scheduler(options);

  auto first = scheduler.Submit(SyntheticRequest(1.0, 10.0, 1));
  auto second = scheduler.Submit(SyntheticRequest(1.0, 10.0, 1));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  auto third = scheduler.Submit(SyntheticRequest(1.0, 10.0, 1));
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(QueryScheduler::IsAdmissionReject(third.status()))
      << third.status().ToString();
  // Distinct from a storage-layer ResourceExhausted.
  EXPECT_FALSE(QueryScheduler::IsAdmissionReject(
      Status::ResourceExhausted("all frames pinned")));
  EXPECT_EQ(metrics.counter("serve.rejected.queue_full")->value(), 1u);
  EXPECT_EQ(metrics.counter("serve.submitted")->value(), 3u);
  EXPECT_EQ(metrics.counter("serve.admitted")->value(), 2u);

  scheduler.Resume();
  EXPECT_TRUE(first->Wait().ok());
  EXPECT_TRUE(second->Wait().ok());
}

TEST(QuerySchedulerTest, DeadlineInQueueRejectsWithoutRunningJob) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.max_concurrent = 1;
  options.start_paused = true;  // nothing is ever admitted
  options.obs.metrics = &metrics;
  QueryScheduler scheduler(options);

  CancellationToken token;
  token.SetDeadlineAfterMs(5);
  std::atomic<bool> job_ran{false};
  ServeRequest request = SyntheticRequest(1.0, 10.0, 1);
  request.cancel = &token;
  request.job = [&job_ran](const ExecGrant&) -> StatusOr<SqlResult> {
    job_ran.store(true);
    return SqlResult();
  };
  auto ticket = scheduler.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());

  // The dispatcher's deadline sweep must resolve the ticket on its own —
  // the scheduler stays paused, so admission can never be the path out.
  StatusOr<SqlResult> result = ticket->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(job_ran.load()) << "expired query must never start";
  EXPECT_EQ(metrics.counter("serve.rejected.deadline")->value(), 1u);
  EXPECT_EQ(metrics.counter("serve.dispatched")->value(), 0u);
}

TEST(QuerySchedulerTest, AlreadyExpiredTokenRejectsSynchronously) {
  ServeOptions options;
  QueryScheduler scheduler(options);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);  // already expired
  ServeRequest request = SyntheticRequest(1.0, 10.0, 1);
  request.cancel = &token;
  std::atomic<bool> job_ran{false};
  request.job = [&job_ran](const ExecGrant&) -> StatusOr<SqlResult> {
    job_ran.store(true);
    return SqlResult();
  };
  auto ticket = scheduler.Submit(std::move(request));
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(job_ran.load());
}

TEST(QuerySchedulerTest, MemoryBudgetDegradesOversizedQueryToSpill) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.max_concurrent = 2;
  options.memory_pages_budget = 50.0;
  options.obs.metrics = &metrics;
  QueryScheduler scheduler(options);

  ServeRequest request = SyntheticRequest(1.0, 10.0, 1);
  request.estimate.memory_pages = 100.0;  // can never fit
  std::atomic<bool> degraded{false};
  std::atomic<int> granted_parallelism{0};
  request.job = [&](const ExecGrant& grant) -> StatusOr<SqlResult> {
    degraded.store(grant.degrade_to_spill);
    granted_parallelism.store(grant.parallelism);
    return SqlResult();
  };
  auto ticket = scheduler.Submit(std::move(request));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ticket->Wait().ok());
  EXPECT_TRUE(degraded.load()) << "oversized query must run degraded";
  EXPECT_EQ(granted_parallelism.load(), 1);
  EXPECT_EQ(metrics.counter("serve.degraded")->value(), 1u);

  // A query that fits runs undegraded.
  ServeRequest small = SyntheticRequest(1.0, 10.0, 1);
  small.estimate.memory_pages = 10.0;
  std::atomic<bool> small_degraded{true};
  small.job = [&](const ExecGrant& grant) -> StatusOr<SqlResult> {
    small_degraded.store(grant.degrade_to_spill);
    return SqlResult();
  };
  auto small_ticket = scheduler.Submit(std::move(small));
  ASSERT_TRUE(small_ticket.ok());
  ASSERT_TRUE(small_ticket->Wait().ok());
  EXPECT_FALSE(small_degraded.load());
}

TEST(QuerySchedulerTest, ShutdownRejectsQueuedQueries) {
  ServeOptions options;
  options.start_paused = true;
  auto scheduler = std::make_unique<QueryScheduler>(options);
  auto ticket = scheduler->Submit(SyntheticRequest(1.0, 10.0, 1));
  ASSERT_TRUE(ticket.ok());
  scheduler->Shutdown();
  StatusOr<SqlResult> result = ticket->Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // Post-shutdown submits fail synchronously.
  auto late = scheduler->Submit(SyntheticRequest(1.0, 10.0, 1));
  EXPECT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

// --------------------------------------------------------------- serving

class ServingEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());

    Table* orders =
        catalog_->CreateTable("orders", Schema::PaperSchema()).value();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(orders->file()
                      .Append(Tuple({Value(int32_t{i % 100}),
                                     Value(std::string("o") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(orders->file().Flush().ok());
    ASSERT_TRUE(orders->BuildIndex(0).ok());
    ASSERT_TRUE(orders->ComputeStats().ok());

    Table* custs =
        catalog_->CreateTable("custs", Schema::PaperSchema()).value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(custs->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string("c") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(custs->file().Flush().ok());
    ASSERT_TRUE(custs->BuildIndex(0).ok());
    ASSERT_TRUE(custs->ComputeStats().ok());

    oracle_ = std::make_unique<SqlEngine>(
        catalog_.get(), MachineConfig::PaperConfig(), &model_);
  }

  std::unique_ptr<ServingEngine> MakeEngine(
      ServingEngine::Options options = {}) {
    return std::make_unique<ServingEngine>(
        catalog_.get(), MachineConfig::PaperConfig(), &model_,
        std::move(options));
  }

  static std::multiset<std::string> Canon(const std::vector<Tuple>& rows) {
    std::multiset<std::string> canon;
    for (const Tuple& t : rows) canon.insert(t.ToString());
    return canon;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  CostModel model_;
  std::unique_ptr<SqlEngine> oracle_;
};

TEST_F(ServingEngineTest, ConcurrentMixedQueriesMatchSerialOracle) {
  const std::vector<std::string> queries = {
      "SELECT * FROM custs",
      "SELECT * FROM custs WHERE a BETWEEN 10 AND 19",
      "SELECT * FROM orders WHERE a >= 90",
      "SELECT count(a) FROM orders",
      "SELECT o.a, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 25",
      "SELECT max(a) FROM custs WHERE a < 50",
  };
  // Serial oracle results first.
  std::vector<std::multiset<std::string>> expected;
  for (const std::string& sql : queries) {
    auto r = oracle_->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    expected.push_back(Canon(r->rows));
  }

  ServingEngine::Options options;
  options.serve.max_concurrent = 4;
  options.buffer_pool_frames = 64;
  auto engine = MakeEngine(std::move(options));

  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      auto session = engine->OpenSession({/*priority=*/0, /*weight=*/1.0,
                                          "client-" + std::to_string(t)});
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto result = session->Execute(queries[q]);
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (Canon(result->rows) != expected[q]) mismatches.fetch_add(1);
        }
      }
      engine->CloseSession(session);
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_TRUE(engine->Drain().ok());
  EXPECT_GE(engine->scheduler().peak_running(), 2)
      << "serving never overlapped two queries";
}

// Records how many threads are inside a page read at once. Every slave of
// a parallel fragment reads pages, so the peak counts slaves running
// together; the sleep keeps each one in the probe long enough to overlap.
class ConcurrentReadProbe : public FaultInjector {
 public:
  Status BeforeRead(BlockId) override {
    const int now = in_flight_.fetch_add(1) + 1;
    int peak = peak_.load();
    while (now > peak && !peak_.compare_exchange_weak(peak, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    in_flight_.fetch_sub(1);
    return Status::OK();
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }

  int peak() const { return peak_.load(); }

 private:
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_{0};
};

TEST_F(ServingEngineTest, GrantIsACeilingOnSlaves) {
  // A table of ~100 pages, so a fragment has granules for many slaves.
  Table* wide = catalog_->CreateTable("wide", Schema::PaperSchema()).value();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(wide->file()
                    .Append(Tuple({Value(int32_t{i % 100}),
                                   Value(std::string(1800, 'w'))}))
                    .ok());
  }
  ASSERT_TRUE(wide->file().Flush().ok());
  ASSERT_TRUE(wide->ComputeStats().ok());

  // The scheduler's machine has kGrant processors, the engine's has 8: the
  // served statements are granted kGrant slots on a host with more CPUs.
  constexpr int kGrant = 2;
  MemoryTraceRecorder trace;
  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.machine.num_cpus = kGrant;
  options.serve.obs.trace = &trace;
  auto engine = MakeEngine(std::move(options));
  ASSERT_GT(MachineConfig::PaperConfig().num_cpus, kGrant);

  ConcurrentReadProbe probe;
  array_->SetFaultInjector(&probe);
  auto session = engine->OpenSession();
  for (const char* sql :
       {"SELECT count(a) FROM wide",
        "SELECT w.a, c.b FROM wide w, custs c WHERE w.a = c.a"}) {
    auto expected = oracle_->Execute(sql);
    ASSERT_TRUE(expected.ok()) << sql;
    auto served = session->Execute(sql);
    ASSERT_TRUE(served.ok()) << sql << ": " << served.status().ToString();
    EXPECT_EQ(Canon(served->rows), Canon(expected->rows)) << sql;
  }
  array_->SetFaultInjector(nullptr);
  engine->CloseSession(session);
  ASSERT_TRUE(engine->Drain().ok());

  EXPECT_LE(probe.peak(), kGrant) << "more slaves ran than were granted";
  int grants = 0;
  int decisions = 0;
  for (const TraceEvent& event : trace.snapshot()) {
    double parallelism = 0.0;
    for (const auto& [key, value] : event.args)
      if (key == "parallelism") parallelism = value.num;
    if (event.category == "serve" && event.name == "grant") {
      ++grants;
      EXPECT_EQ(parallelism, kGrant);
    } else if (event.category == "sched" &&
               (event.name == "decide start" ||
                event.name == "decide adjust")) {
      ++decisions;
      EXPECT_LE(parallelism, kGrant) << "scheduler decided above the grant";
    }
  }
  EXPECT_EQ(grants, 2);
  EXPECT_GE(decisions, 3) << "the statements did not run on the master";
}

TEST_F(ServingEngineTest, ZeroPinnedFramesAndZeroSessionsAfterDrain) {
  ServingEngine::Options options;
  options.serve.max_concurrent = 3;
  options.buffer_pool_frames = 32;
  auto engine = MakeEngine(std::move(options));
  engine->pool()->SetSoftPinLimit(16);

  std::vector<std::shared_ptr<ServingSession>> sessions;
  std::vector<SubmittedQuery> submitted;
  for (int s = 0; s < 3; ++s) {
    auto session = engine->OpenSession();
    for (int i = 0; i < 4; ++i) {
      auto q = session->Submit(
          "SELECT o.a, c.b FROM orders o, custs c WHERE o.a = c.a");
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      submitted.push_back(*q);
    }
    sessions.push_back(std::move(session));
  }
  for (SubmittedQuery& q : submitted)
    EXPECT_TRUE(q.ticket.Wait().ok());
  ASSERT_TRUE(engine->Drain().ok());

  ASSERT_NE(engine->pool(), nullptr);
  EXPECT_EQ(engine->pool()->PinnedFrames(), 0u) << "leaked pins after drain";
  for (auto& session : sessions) {
    EXPECT_EQ(session->num_outstanding(), 0) << "leaked in-flight queries";
    engine->CloseSession(session);
  }
  EXPECT_EQ(engine->num_open_sessions(), 0u) << "leaked sessions";
}

TEST_F(ServingEngineTest, QueuedDeadlineRejectsBeforeExecution) {
  ServingEngine::Options options;
  options.serve.max_concurrent = 1;
  options.serve.start_paused = true;  // queries queue, none admitted
  auto engine = MakeEngine(std::move(options));
  auto session = engine->OpenSession();

  QueryOptions deadline;
  deadline.deadline_ms = 5;
  auto q = session->Submit("SELECT * FROM custs", deadline);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  StatusOr<SqlResult> result = q->ticket.Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(session->num_outstanding(), 0);
  engine->Resume();
  engine->CloseSession(session);
}

TEST_F(ServingEngineTest, ParseErrorsSurfaceSynchronously) {
  auto engine = MakeEngine();
  auto session = engine->OpenSession();
  auto q = session->Submit("SELECT FROM WHERE");
  EXPECT_FALSE(q.ok());
  auto missing = session->Submit("SELECT * FROM nosuch");
  EXPECT_FALSE(missing.ok());
  // Select-list binding and operand type checks happen before admission
  // too; custs and orders are (a int4, b text). An ill-typed statement
  // must never reach the executor, whose type CHECKs abort the process.
  const std::pair<const char*, StatusCode> rejected[] = {
      {"SELECT zz FROM custs", StatusCode::kInvalidArgument},
      {"SELECT a FROM custs GROUP BY a", StatusCode::kInvalidArgument},
      {"SELECT count(a), b FROM custs", StatusCode::kUnimplemented},
      {"SELECT a FROM custs WHERE a = 'x'", StatusCode::kInvalidArgument},
      {"SELECT a FROM custs WHERE b < 10", StatusCode::kInvalidArgument},
      {"SELECT a FROM custs WHERE b BETWEEN 1 AND 5",
       StatusCode::kInvalidArgument},
      {"SELECT o.a FROM orders o, custs c WHERE o.a = c.b",
       StatusCode::kInvalidArgument},
      {"SELECT count(a) FROM custs GROUP BY b", StatusCode::kInvalidArgument},
      {"SELECT sum(b) FROM custs", StatusCode::kInvalidArgument},
      {"SELECT a FROM custs WHERE a = 99999999999999999999",
       StatusCode::kInvalidArgument},
  };
  for (const auto& [sql, code] : rejected) {
    auto rejected_query = session->Submit(sql);
    ASSERT_FALSE(rejected_query.ok()) << sql;
    EXPECT_EQ(rejected_query.status().code(), code) << sql;
  }
  EXPECT_EQ(session->num_outstanding(), 0);
  // The engine keeps serving.
  auto valid = session->Submit("SELECT a FROM custs WHERE b = 'c7'");
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  StatusOr<SqlResult> result = valid->ticket.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(std::get<int32_t>(result->rows[0].value(0)), 7);
  engine->CloseSession(session);
}

TEST_F(ServingEngineTest, CancelAllResolvesInFlightQueries) {
  ServingEngine::Options options;
  options.serve.max_concurrent = 1;
  options.serve.start_paused = true;
  auto engine = MakeEngine(std::move(options));
  auto session = engine->OpenSession();
  std::vector<SubmittedQuery> submitted;
  for (int i = 0; i < 3; ++i) {
    auto q = session->Submit("SELECT * FROM custs");
    ASSERT_TRUE(q.ok());
    submitted.push_back(*q);
  }
  session->CancelAll();
  engine->Resume();
  for (SubmittedQuery& q : submitted) {
    StatusOr<SqlResult> result = q.ticket.Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
  EXPECT_EQ(session->num_outstanding(), 0);
  engine->CloseSession(session);
}

TEST_F(ServingEngineTest, ShutdownUnderLoadWithFaultsLeavesNoResidue) {
  // N client threads hammer Submit while one thread storms CancelAll and
  // another pulls Shutdown, all with storage faults injected. The suite
  // runs under tsan in CI; here the invariants are no deadlock (the test
  // finishes), every submitted query reaching a terminal state, and zero
  // pinned frames afterwards.
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.read_fault_rate = 0.05;
  injector.Arm(script, TestSeed(0x5E7E0003));
  array_->SetFaultInjector(&injector);

  ServingEngine::Options options;
  options.serve.max_concurrent = 3;
  options.serve.max_queue_depth = 16;
  options.buffer_pool_frames = 64;
  auto engine = MakeEngine(std::move(options));

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> submitted{0};
  std::atomic<int> sync_rejected{0};
  std::atomic<int> terminal{0};
  std::vector<std::shared_ptr<ServingSession>> sessions;
  for (int t = 0; t < kThreads; ++t)
    sessions.push_back(engine->OpenSession(
        {/*priority=*/t % 2, /*weight=*/1.0, "storm-" + std::to_string(t)}));

  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        submitted.fetch_add(1);
        auto q = sessions[t]->Submit(
            i % 2 == 0 ? "SELECT * FROM custs"
                       : "SELECT o.a, c.b FROM orders o, custs c "
                         "WHERE o.a = c.a");
        if (!q.ok()) {
          sync_rejected.fetch_add(1);  // queue full / shed / shut down
          terminal.fetch_add(1);
          continue;
        }
        q->ticket.Wait();  // any outcome; it just must resolve
        terminal.fetch_add(1);
      }
    });
  }
  std::thread canceller([&] {
    for (int i = 0; i < 5; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      for (auto& session : sessions) session->CancelAll();
    }
  });
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    engine->scheduler().Shutdown();
  });

  for (std::thread& c : clients) c.join();
  canceller.join();
  killer.join();

  EXPECT_EQ(terminal.load(), submitted.load())
      << "a submission never reached a terminal state";
  ASSERT_NE(engine->pool(), nullptr);
  EXPECT_EQ(engine->pool()->PinnedFrames(), 0u)
      << "leaked pins after shutdown under load";
  for (auto& session : sessions) {
    EXPECT_EQ(session->num_outstanding(), 0);
    engine->CloseSession(session);
  }
  EXPECT_EQ(engine->num_open_sessions(), 0u);
  array_->SetFaultInjector(nullptr);
}

// ------------------------------------------------- differential concurrent

TEST(ServeDifferentialTest, ConcurrentReplayMatchesSerial) {
  const uint64_t seed = TestSeed(0x5E7E0001);
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Rng rng(seed);
  auto tables = BuildGeneratedWorkload(&catalog, {}, &rng);
  ASSERT_TRUE(tables.ok());

  DifferentialOptions options;
  options.concurrent_sessions = 4;
  DifferentialOracle oracle(&array, options, seed ^ 1);
  QueryGenerator gen(tables.value(), QueryGenerator::Options(), seed ^ 2);

  std::vector<std::unique_ptr<PlanNode>> owned;
  std::vector<const PlanNode*> plans;
  for (int i = 0; i < 24; ++i) {
    owned.push_back(gen.NextPlan());
    plans.push_back(owned.back().get());
  }
  Status status = oracle.CheckPlansConcurrent(plans);
  ASSERT_TRUE(status.ok()) << "(seed " << seed << "): " << status.ToString();
  EXPECT_EQ(oracle.report().plans_checked, 24u);
}

TEST(ServeDifferentialTest, ConcurrentChaosReplayIsRetryableOrExact) {
  const uint64_t seed = TestSeed(0x5E7E0002);
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Rng rng(seed);
  auto tables = BuildGeneratedWorkload(&catalog, {}, &rng);
  ASSERT_TRUE(tables.ok());

  MetricsRegistry metrics;
  DifferentialOptions options;
  options.concurrent_sessions = 4;
  options.chaos_read_fault_rate = 0.01;
  options.chaos_obs.metrics = &metrics;
  DifferentialOracle oracle(&array, options, seed ^ 1);
  QueryGenerator gen(tables.value(), QueryGenerator::Options(), seed ^ 2);

  std::vector<std::unique_ptr<PlanNode>> owned;
  std::vector<const PlanNode*> plans;
  for (int i = 0; i < 16; ++i) {
    owned.push_back(gen.NextPlan());
    plans.push_back(owned.back().get());
  }
  Status status = oracle.CheckPlansConcurrentChaos(plans);
  ASSERT_TRUE(status.ok()) << "(seed " << seed << "): " << status.ToString();
}

}  // namespace
}  // namespace xprs
