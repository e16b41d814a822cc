// Query-lifecycle tracing suite: every served query's child spans
// (admission + queue_wait + execute + drain) must account for >= 95% of
// its root span's wall time with correct parent links; the slow-query log
// must name the scheduler's grant and the top-k operators; direct
// scheduler submissions (no serving engine in front) get a lifecycle too;
// rejected and swept queries close their spans instead of leaking them.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/lifecycle.h"
#include "serve/query_scheduler.h"
#include "serve/serving_engine.h"
#include "storage/catalog.h"
#include "util/check.h"

namespace xprs {
namespace {

struct SpanTree {
  TraceEvent root;
  std::map<std::string, TraceEvent> children;  // name -> event
};

const TraceValue* FindArg(const TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return &v;
  return nullptr;
}

// Groups 'X' serve spans into one tree per root ("query") span.
std::vector<SpanTree> CollectTrees(const std::vector<TraceEvent>& events) {
  std::vector<SpanTree> trees;
  std::map<int64_t, size_t> by_root_id;
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name != "query") continue;
    const TraceValue* id = FindArg(e, "span_id");
    if (id == nullptr) continue;
    by_root_id[static_cast<int64_t>(id->num)] = trees.size();
    trees.push_back(SpanTree{e, {}});
  }
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name == "query") continue;
    const TraceValue* parent = FindArg(e, "parent");
    if (parent == nullptr) continue;
    auto it = by_root_id.find(static_cast<int64_t>(parent->num));
    if (it != by_root_id.end()) trees[it->second].children[e.name] = e;
  }
  return trees;
}

std::unique_ptr<Catalog> MakeCatalog(DiskArray* array, int rows) {
  auto catalog = std::make_unique<Catalog>(array);
  Table* t = catalog->CreateTable("r1", Schema::PaperSchema()).value();
  for (int i = 0; i < rows; ++i) {
    XPRS_CHECK(t->file()
                   .Append(Tuple({Value(int32_t{i % 50}),
                                  Value("row" + std::to_string(i % 17))}))
                   .ok());
  }
  XPRS_CHECK(t->file().Flush().ok());
  XPRS_CHECK(t->BuildIndex(0).ok());
  XPRS_CHECK(t->ComputeStats().ok());
  return catalog;
}

// A scripted clock that advances on every read, as a preemption between
// two reads would.
double g_ticks = 0.0;
double TickingClock() { return g_ticks += 1.0; }

TEST(LifecycleTest, RootAndAdmissionStartAtOneClockReading) {
  MemoryTraceRecorder recorder;
  SetSpanClockForTest(&TickingClock);
  {
    QueryLifecycle lifecycle(Observability{&recorder, nullptr}, "SELECT 1",
                             /*session_id=*/1);
    lifecycle.OnRejected(Status::Aborted("probe"));
  }
  SetSpanClockForTest(nullptr);

  std::vector<SpanTree> trees = CollectTrees(recorder.snapshot());
  ASSERT_EQ(trees.size(), 1u);
  auto admission = trees[0].children.find("admission");
  ASSERT_NE(admission, trees[0].children.end());
  EXPECT_EQ(admission->second.timestamp, trees[0].root.timestamp);
  EXPECT_EQ(admission->second.duration, trees[0].root.duration);
}

TEST(LifecycleTest, ChildSpansCoverRootWithin95Percent) {
  DiskArray array(4, DiskMode::kInstant);
  auto catalog = MakeCatalog(&array, 2000);
  CostModel model;
  MemoryTraceRecorder recorder;
  MetricsRegistry metrics;

  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = 2;
  options.serve.obs = {&recorder, &metrics};
  {
    ServingEngine engine(catalog.get(), MachineConfig::PaperConfig(), &model,
                         std::move(options));
    auto session = engine.OpenSession();
    for (int i = 0; i < 6; ++i) {
      auto r = session->Execute("SELECT sum(a) FROM r1 WHERE a < 40");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    engine.CloseSession(session);
  }

  std::vector<SpanTree> trees = CollectTrees(recorder.snapshot());
  ASSERT_EQ(trees.size(), 6u);
  for (const SpanTree& tree : trees) {
    ASSERT_GT(tree.root.duration, 0.0);
    // All four phases present, each linked to this root.
    for (const char* phase : {"admission", "queue_wait", "execute", "drain"})
      EXPECT_TRUE(tree.children.count(phase)) << "missing " << phase;
    double covered = 0.0;
    for (const auto& [name, e] : tree.children) covered += e.duration;
    EXPECT_GE(covered, 0.95 * tree.root.duration)
        << "children cover " << covered << "s of a " << tree.root.duration
        << "s root";
    // Phases never extend past the root span.
    EXPECT_LE(covered, tree.root.duration * 1.0001);
    // The root records the query text and resolution.
    const TraceValue* query = FindArg(tree.root, "query");
    ASSERT_NE(query, nullptr);
    EXPECT_EQ(query->str, "SELECT sum(a) FROM r1 WHERE a < 40");
    const TraceValue* status = FindArg(tree.root, "status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->str, "ok");
  }

  // A grant instant event inside each query's queue_wait span.
  int grants = 0;
  for (const TraceEvent& e : recorder.snapshot())
    if (e.name == "grant" && e.phase == 'i') ++grants;
  EXPECT_EQ(grants, 6);
  // The lifecycle observed serve.total_seconds for every query.
  EXPECT_EQ(metrics.histogram("serve.total_seconds")->count(), 6u);
}

TEST(LifecycleTest, SlowQueryLogNamesGrantAndTopOperators) {
  DiskArray array(4, DiskMode::kInstant);
  auto catalog = MakeCatalog(&array, 2000);
  CostModel model;

  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = 2;
  // Threshold 0s+: every query is "slow", so the log fills determinately.
  options.slow_query_seconds = 1e-9;
  ServingEngine engine(catalog.get(), MachineConfig::PaperConfig(), &model,
                       std::move(options));

  auto session = engine.OpenSession();
  auto r = session->Execute(
      "SELECT count(a) FROM r1 WHERE a BETWEEN 0 AND 30 GROUP BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  engine.CloseSession(session);

  std::vector<SlowQueryEntry> entries = engine.slow_query_log().entries();
  ASSERT_EQ(entries.size(), 1u);
  const SlowQueryEntry& entry = entries[0];
  EXPECT_EQ(entry.query,
            "SELECT count(a) FROM r1 WHERE a BETWEEN 0 AND 30 GROUP BY a");
  EXPECT_EQ(entry.status, "ok");
  EXPECT_GT(entry.total_seconds, 0.0);
  EXPECT_GT(entry.exec_seconds, 0.0);
  // The grant is named.
  EXPECT_GE(entry.grant.parallelism, 1);
  EXPECT_FALSE(entry.grant.degraded);
  // Top-k operators from the attached profile, ordered slowest first.
  ASSERT_FALSE(entry.top_operators.empty());
  ASSERT_LE(entry.top_operators.size(), SlowQueryLog::kTopK);
  for (size_t i = 0; i < entry.top_operators.size(); ++i) {
    EXPECT_FALSE(entry.top_operators[i].label.empty());
    if (i > 0) {
      EXPECT_GE(entry.top_operators[i - 1].seconds,
                entry.top_operators[i].seconds);
    }
  }

  // The JSONL rendering names the grant and the operators too.
  std::string json = entry.ToJson();
  EXPECT_NE(json.find("\"grant\""), std::string::npos);
  EXPECT_NE(json.find("\"parallelism\""), std::string::npos);
  EXPECT_NE(json.find("\"top_operators\""), std::string::npos);
  EXPECT_NE(json.find(entry.top_operators[0].label.substr(0, 8)),
            std::string::npos);
}

TEST(LifecycleTest, DirectSchedulerSubmissionGetsLifecycle) {
  MemoryTraceRecorder recorder;
  MetricsRegistry metrics;
  ServeOptions options;
  options.max_concurrent = 1;
  options.obs = {&recorder, &metrics};
  {
    QueryScheduler scheduler(options);
    ServeRequest request;
    request.estimate.seq_time = 0.01;
    request.estimate.total_ios = 1.0;
    request.label = "synthetic job";
    request.job = [](const ExecGrant& grant) -> StatusOr<SqlResult> {
      // The scheduler hands the lifecycle through the grant.
      EXPECT_NE(grant.lifecycle, nullptr);
      return SqlResult();
    };
    auto ticket = scheduler.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(ticket->Wait().ok());
  }
  std::vector<SpanTree> trees = CollectTrees(recorder.snapshot());
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].children.size(), 4u);
  const TraceValue* query = FindArg(trees[0].root, "query");
  ASSERT_NE(query, nullptr);
  EXPECT_EQ(query->str, "synthetic job");
}

TEST(LifecycleTest, SweptDeadlineClosesSpansWithNeverRan) {
  MemoryTraceRecorder recorder;
  ServeOptions options;
  options.max_concurrent = 1;
  options.start_paused = true;  // nothing dispatches; the sweep must fire
  options.obs = {&recorder, nullptr};
  {
    QueryScheduler scheduler(options);
    CancellationToken token;
    token.SetDeadlineAfterMs(5);
    ServeRequest request;
    request.estimate.seq_time = 0.01;
    request.cancel = &token;
    request.label = "expired in queue";
    bool ran = false;
    request.job = [&ran](const ExecGrant&) -> StatusOr<SqlResult> {
      ran = true;
      return SqlResult();
    };
    auto ticket = scheduler.Submit(std::move(request));
    ASSERT_TRUE(ticket.ok());
    auto result = ticket->Wait();
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(ran);
  }
  std::vector<SpanTree> trees = CollectTrees(recorder.snapshot());
  ASSERT_EQ(trees.size(), 1u);
  ASSERT_TRUE(trees[0].children.count("queue_wait"));
  const TraceEvent& queue = trees[0].children.at("queue_wait");
  const TraceValue* never_ran = FindArg(queue, "never_ran");
  ASSERT_NE(never_ran, nullptr);
  EXPECT_TRUE(never_ran->boolean);
  EXPECT_FALSE(trees[0].children.count("execute"));
  const TraceValue* status = FindArg(trees[0].root, "status");
  ASSERT_NE(status, nullptr);
  EXPECT_NE(status->str, "ok");
}

TEST(LifecycleTest, QueueFullRejectClosesAdmissionSpan) {
  MemoryTraceRecorder recorder;
  ServeOptions options;
  options.max_concurrent = 1;
  options.max_queue_depth = 1;
  options.start_paused = true;
  options.obs = {&recorder, nullptr};
  {
    QueryScheduler scheduler(options);
    ServeRequest first;
    first.estimate.seq_time = 0.01;
    first.job = [](const ExecGrant&) -> StatusOr<SqlResult> {
      return SqlResult();
    };
    auto ok_ticket = scheduler.Submit(std::move(first));
    ASSERT_TRUE(ok_ticket.ok());

    ServeRequest second;
    second.estimate.seq_time = 0.01;
    second.label = "rejected query";
    second.job = [](const ExecGrant&) -> StatusOr<SqlResult> {
      return SqlResult();
    };
    auto rejected = scheduler.Submit(std::move(second));
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(QueryScheduler::IsAdmissionReject(rejected.status()));
    scheduler.Resume();
    ASSERT_TRUE(ok_ticket->Wait().ok());
  }
  // Both roots closed; the rejected one's admission span carries the flag.
  std::vector<SpanTree> trees = CollectTrees(recorder.snapshot());
  ASSERT_EQ(trees.size(), 2u);
  bool saw_reject = false;
  for (const SpanTree& tree : trees) {
    const TraceValue* query = FindArg(tree.root, "query");
    if (query == nullptr || query->str != "rejected query") continue;
    saw_reject = true;
    ASSERT_TRUE(tree.children.count("admission"));
    const TraceValue* rejected_arg =
        FindArg(tree.children.at("admission"), "rejected");
    ASSERT_NE(rejected_arg, nullptr);
    EXPECT_TRUE(rejected_arg->boolean);
  }
  EXPECT_TRUE(saw_reject);
}

TEST(LifecycleTest, DegradedGrantIsRecordedInSlowLog) {
  DiskArray array(4, DiskMode::kInstant);
  auto catalog = MakeCatalog(&array, 2000);
  CostModel model;

  ServingEngine::Options options;
  options.serve.machine = MachineConfig::PaperConfig();
  options.serve.max_concurrent = 1;
  // A page budget below any hash join's working set forces the degrade
  // path immediately (never fits even on an idle system).
  options.serve.memory_pages_budget = 1e-3;
  options.slow_query_seconds = 1e-9;
  ServingEngine engine(catalog.get(), MachineConfig::PaperConfig(), &model,
                       std::move(options));

  auto session = engine.OpenSession();
  auto r = session->Execute(
      "SELECT l.a FROM r1 l, r1 r WHERE l.a = r.a AND r.a < 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  engine.CloseSession(session);

  std::vector<SlowQueryEntry> entries = engine.slow_query_log().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_TRUE(entries[0].grant.degraded);
  EXPECT_EQ(entries[0].grant.parallelism, 1);
  EXPECT_NE(entries[0].ToJson().find("\"degraded\":true"), std::string::npos);
}

}  // namespace
}  // namespace xprs
