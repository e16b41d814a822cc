// Tests of the per-query profiler: golden EXPLAIN ANALYZE output on a
// fixed catalog, invisibility of the instrumentation (same rows with
// profiling on and off), reconciliation of the profile's totals with the
// table stats and the MetricsRegistry publication, the parallel-run
// fragment/timeline sections, and JSON/trace emission.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "sql/engine.h"
#include "testing/json_checker.h"

namespace xprs {
namespace {

// Same fixed catalog as sql_test: orders(300 rows, a = i % 100) and
// custs(100 rows, a = i), both with an index on column a and fresh stats.
class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    engine_ = std::make_unique<SqlEngine>(
        catalog_.get(), MachineConfig::PaperConfig(), &model_);

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
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  CostModel model_;
  std::unique_ptr<SqlEngine> engine_;
};

TEST_F(ProfileTest, GoldenExplainAnalyzeText) {
  auto r = engine_->ExplainAnalyze(
      "SELECT count(o.a) FROM orders o, custs c "
      "WHERE o.a = c.a AND c.a < 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r->profile, nullptr);

  // Wall-clock fields off: the report is byte-stable across runs.
  ProfileRenderOptions options;
  options.include_times = false;
  options.include_parallel = false;
  const std::string expected =
      "Aggregate(count(col0))"
      "  (est rows=1 ios=2 seq=0.283s)"
      "  (actual rows=1 pages=0)\n"
      "  HashJoin(l.col0 = r.col0)"
      "  (est rows=10 ios=2 seq=0.281s)"
      "  (actual rows=30 pages=0 build=10)\n"
      "    SeqScan(orders, TRUE)"
      "  (est rows=300 ios=1 seq=0.153s)"
      "  (actual rows=300 pages=1 evals=300)\n"
      "    SeqScan(custs, col0 < 10)"
      "  (est rows=10 ios=1 seq=0.060s)"
      "  (actual rows=10 pages=1 evals=100)\n";
  EXPECT_EQ(r->profile->ToText(options), expected);
}

TEST_F(ProfileTest, ProfilingDoesNotChangeResults) {
  const char* queries[] = {
      "SELECT * FROM custs WHERE a BETWEEN 10 AND 40",
      "SELECT o.b, c.b FROM orders o, custs c WHERE o.a = c.a AND c.a < 20",
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a",
  };
  for (const char* sql : queries) {
    auto plain = engine_->Execute(sql);
    auto profiled = engine_->ExplainAnalyze(sql);
    ASSERT_TRUE(plain.ok()) << sql;
    ASSERT_TRUE(profiled.ok()) << sql << ": "
                               << profiled.status().ToString();
    std::multiset<std::string> a, b;
    for (const auto& t : plain->rows) a.insert(t.ToString());
    for (const auto& t : profiled->rows) b.insert(t.ToString());
    EXPECT_EQ(a, b) << sql;
    EXPECT_FALSE(profiled->analyze_text.empty()) << sql;
    EXPECT_TRUE(plain->analyze_text.empty()) << sql;
  }
}

TEST_F(ProfileTest, InlineExplainAnalyzePrefixProfiles) {
  auto r = engine_->Execute("EXPLAIN ANALYZE SELECT count(a) FROM custs");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->analyze_text.empty());
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(std::get<int32_t>(r->rows[0].value(0)), 100);

  // Bare EXPLAIN still only plans.
  auto e = engine_->Execute("EXPLAIN SELECT count(a) FROM custs");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->rows.empty());
  EXPECT_TRUE(e->analyze_text.empty());
  EXPECT_FALSE(e->plan_text.empty());
}

TEST_F(ProfileTest, ScanCountersReconcileWithTableStats) {
  auto r = engine_->ExplainAnalyze("SELECT * FROM orders");
  ASSERT_TRUE(r.ok());
  const QueryProfile& profile = *r->profile;
  Table* orders = catalog_->GetTable("orders").value();
  // A full sequential scan reads exactly the table's pages and emits
  // exactly its tuples.
  EXPECT_EQ(profile.TotalPagesRead(), orders->stats().num_pages);
  const OperatorStats& root = *profile.operators().front();
  EXPECT_EQ(root.tuples_out.load(), orders->stats().num_tuples);
  EXPECT_EQ(profile.TotalSpillBytes(), 0u);
}

TEST_F(ProfileTest, EstimatesAnnotatedOnEveryOperator) {
  auto r = engine_->ExplainAnalyze(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a");
  ASSERT_TRUE(r.ok());
  for (const auto& op : r->profile->operators()) {
    EXPECT_TRUE(op->has_estimate) << op->label;
    EXPECT_GT(op->est_rows, 0.0) << op->label;
  }
}

TEST_F(ProfileTest, PublishMetricsReconcilesWithTotals) {
  auto r = engine_->ExplainAnalyze(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a");
  ASSERT_TRUE(r.ok());
  const QueryProfile& profile = *r->profile;
  MetricsRegistry reg;
  profile.PublishMetrics(&reg);
  EXPECT_EQ(reg.counter("profile.queries")->value(), 1u);
  EXPECT_EQ(reg.counter("profile.tuples_out")->value(),
            profile.TotalTuplesOut());
  EXPECT_EQ(reg.counter("profile.pages_read")->value(),
            profile.TotalPagesRead());
  EXPECT_EQ(reg.counter("profile.pages_written")->value(),
            profile.TotalPagesWritten());
  EXPECT_EQ(reg.counter("profile.spill_bytes")->value(),
            profile.TotalSpillBytes());
  EXPECT_EQ(reg.counter("profile.evals")->value(), profile.TotalEvals());
  EXPECT_EQ(reg.histogram("profile.operator_seconds")->count(),
            profile.operators().size());
}

TEST_F(ProfileTest, ParallelProfileRecordsFragmentsAndTimeline) {
  const char* sql =
      "SELECT count(o1.a) FROM orders o1, custs c, orders o2 "
      "WHERE o1.a = c.a AND c.a = o2.a AND c.a < 3";
  MasterOptions options;
  MetricsRegistry reg;
  options.obs.metrics = &reg;
  auto par = engine_->ExplainAnalyzeParallel(sql, options);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_EQ(par->rows.size(), 1u);
  EXPECT_EQ(std::get<int32_t>(par->rows[0].value(0)), 27);

  const QueryProfile& profile = *par->profile;
  const auto frags = profile.fragments();
  ASSERT_FALSE(frags.empty());
  for (const FragmentStats& f : frags) {
    EXPECT_GT(f.granules, 0u) << f.root_label;
    EXPECT_GT(f.initial_parallelism, 0) << f.root_label;
    EXPECT_GT(f.slaves_spawned, 0) << f.root_label;
    EXPECT_GE(f.wall_seconds, 0.0) << f.root_label;
  }
  // Every fragment starts and finishes exactly once on the timeline.
  int starts = 0, finishes = 0;
  for (const AdjustmentEvent& e : profile.timeline()) {
    starts += e.kind == AdjustmentEvent::Kind::kStart;
    finishes += e.kind == AdjustmentEvent::Kind::kFinish;
  }
  EXPECT_EQ(starts, static_cast<int>(frags.size()));
  EXPECT_EQ(finishes, static_cast<int>(frags.size()));
  // The estimated utilization timeline is present for parallel runs.
  EXPECT_FALSE(profile.utilization().empty());
  // The master's registry got the profile.* publication.
  EXPECT_EQ(reg.counter("profile.queries")->value(), 1u);
  EXPECT_EQ(reg.counter("profile.tuples_out")->value(),
            profile.TotalTuplesOut());
  // The report renders all three parallel sections.
  EXPECT_NE(par->analyze_text.find("fragments:"), std::string::npos);
  EXPECT_NE(par->analyze_text.find("timeline:"), std::string::npos);
  EXPECT_NE(par->analyze_text.find("utilization"), std::string::npos);
}

TEST_F(ProfileTest, JsonReportIsValidAndComplete) {
  auto r = engine_->ExplainAnalyze(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a");
  ASSERT_TRUE(r.ok());
  const std::string& json = r->analyze_json;
  EXPECT_TRUE(JsonChecker(json).Valid());
  for (const char* key : {"\"operators\":", "\"fragments\":",
                          "\"timeline\":", "\"utilization\":",
                          "\"totals\":", "\"est\":", "\"actual\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_EQ(json, r->profile->ToJson());
}

TEST_F(ProfileTest, EmitTraceProducesCounterEvents) {
  MasterOptions options;
  MemoryTraceRecorder recorder;
  options.obs.trace = &recorder;
  auto r = engine_->ExplainAnalyzeParallel(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a", options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int counter_events = 0, frag_spans = 0;
  for (const TraceEvent& e : recorder.snapshot()) {
    if (e.phase == 'C' && (e.name == "profile cpus busy" ||
                           e.name == "profile io rate"))
      ++counter_events;
    if (e.phase == 'X' && e.name.rfind("profile frag", 0) == 0) ++frag_spans;
  }
  EXPECT_GT(counter_events, 0);
  EXPECT_EQ(frag_spans, static_cast<int>(r->profile->fragments().size()));
  // The trace export with the profiler's events is still valid JSON.
  EXPECT_TRUE(JsonChecker(ChromeTraceJson(recorder.snapshot())).Valid());
}

TEST_F(ProfileTest, SpillCountersSurfaceInProfile) {
  // Constrain memory so the hash join goes through the grace path.
  ExecContext ctx;
  DiskArray temp(4, DiskMode::kInstant);
  ctx.spill.temp_array = &temp;
  ctx.spill.memory_tuples = 16;
  auto r = engine_->ExplainAnalyze(
      "SELECT count(o.a) FROM orders o, custs c WHERE o.a = c.a", ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(std::get<int32_t>(r->rows[0].value(0)), 300);
  const QueryProfile& profile = *r->profile;
  EXPECT_GT(profile.TotalPagesWritten(), 0u);
  EXPECT_GT(profile.TotalSpillBytes(), 0u);
  EXPECT_NE(r->analyze_text.find("spill="), std::string::npos);
}

}  // namespace
}  // namespace xprs
