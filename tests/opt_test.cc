// Tests for the cost model, join enumeration, and two-phase / parcost
// optimization. Every optimized plan is also executed and cross-checked
// against a fixed reference plan for result correctness.

#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "opt/two_phase.h"
#include "util/rng.h"
#include "util/str.h"

namespace xprs {
namespace {

// Fixture: four relations of varying size / tuple width over a 4-disk
// array. Key columns are correlated so multi-way joins have results.
class OptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());

    a_ = Load("a", 600, 24, /*key_mod=*/200);
    b_ = Load("b", 300, 400, /*key_mod=*/200);
    c_ = Load("c", 150, 40, /*key_mod=*/200);
    d_ = Load("d", 60, 2000, /*key_mod=*/200);
  }

  Table* Load(const std::string& name, int tuples, int width, int key_mod) {
    Table* t = catalog_->CreateTable(name, Schema::PaperSchema()).value();
    Rng rng(name[0]);
    for (int i = 0; i < tuples; ++i) {
      int32_t key = static_cast<int32_t>(rng.NextInt(0, key_mod - 1));
      EXPECT_TRUE(
          t->file()
              .Append(Tuple({Value(key), Value(std::string(width, 'v'))}))
              .ok());
    }
    EXPECT_TRUE(t->file().Flush().ok());
    EXPECT_TRUE(t->BuildIndex(0).ok());
    EXPECT_TRUE(t->ComputeStats().ok());
    return t;
  }

  static std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) out.insert(t.ToString());
    return out;
  }

  QuerySpec TwoWay() {
    QuerySpec q;
    q.relations = {{a_, Predicate()}, {b_, Predicate()}};
    q.joins = {{0, 0, 1, 0}};
    return q;
  }

  QuerySpec ThreeWay() {
    QuerySpec q;
    q.relations = {{a_, Predicate::Between(0, 0, 150)},
                   {b_, Predicate()},
                   {c_, Predicate()}};
    q.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}};
    return q;
  }

  QuerySpec FourWay() {
    QuerySpec q;
    q.relations = {{a_, Predicate::Between(0, 0, 100)},
                   {b_, Predicate()},
                   {c_, Predicate()},
                   {d_, Predicate()}};
    q.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}, {2, 0, 3, 0}};
    return q;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* a_ = nullptr;
  Table* b_ = nullptr;
  Table* c_ = nullptr;
  Table* d_ = nullptr;
  CostModel model_;
  ExecContext ctx_;
};

TEST_F(OptTest, CalibrationMatchesPaperIoRates) {
  // r_max: one fat tuple per page -> ~70 io/s; r_min: b tiny -> ~5 io/s.
  Table* rmax = Load("rmax", 50, 7500, 1000);
  Table* rmin = Load("rmin", 3000, 0, 1000);

  auto scan_max = MakeSeqScan(rmax, Predicate());
  PlanEstimate em = model_.Estimate(*scan_max);
  EXPECT_NEAR(em.ios / em.seq_time, 70.0, 2.0);

  auto scan_min = MakeSeqScan(rmin, Predicate());
  PlanEstimate en = model_.Estimate(*scan_min);
  EXPECT_NEAR(en.ios / en.seq_time, 5.0, 1.5);
}

TEST_F(OptTest, SelectivityFromStats) {
  // Keys 0..199 uniform; the equi-depth histogram tracks the empirical
  // draw, so allow sampling noise around the ideal 0.5.
  EXPECT_NEAR(model_.Selectivity(Predicate::Between(0, 0, 99), *a_), 0.5,
              0.05);
  EXPECT_NEAR(model_.Selectivity(Predicate::Between(0, 0, 199), *a_), 1.0,
              0.01);
  EXPECT_NEAR(model_.Selectivity(Predicate::Compare(0, CmpOp::kEq,
                                                    Value(int32_t{5})),
                                 *a_),
              1.0 / 200.0, 0.002);
  EXPECT_DOUBLE_EQ(model_.Selectivity(Predicate(), *a_), 1.0);
  EXPECT_DOUBLE_EQ(
      model_.Selectivity(Predicate::Between(0, 1000, 2000), *a_), 0.0);
}

TEST_F(OptTest, EstimateCardinalityReasonable) {
  auto scan = MakeSeqScan(a_, Predicate::Between(0, 0, 99));
  PlanEstimate est = model_.Estimate(*scan);
  auto rows = ExecutePlanSequential(*scan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_NEAR(est.rows, static_cast<double>(rows->size()),
              0.25 * rows->size() + 10);
}

TEST_F(OptTest, IndexScanCheaperForNarrowPredicate) {
  JoinEnumerator enumerator(&model_);
  QuerySpec narrow;
  narrow.relations = {{b_, Predicate::Between(0, 10, 12)}};
  CandidatePlan p = enumerator.BestAccessPath(narrow, 0);
  EXPECT_EQ(p.plan->kind, PlanKind::kIndexScan);

  QuerySpec wide;
  wide.relations = {{b_, Predicate()}};
  CandidatePlan q = enumerator.BestAccessPath(wide, 0);
  EXPECT_EQ(q.plan->kind, PlanKind::kSeqScan);
}

TEST_F(OptTest, FragmentProfilesWireDependencies) {
  auto plan = MakeHashJoin(MakeSeqScan(a_, Predicate()),
                           MakeSeqScan(b_, Predicate()), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  auto profiles = model_.FragmentProfiles(graph, /*query_id=*/7,
                                          /*id_base=*/100);
  ASSERT_EQ(profiles.size(), 2u);
  EXPECT_EQ(profiles[0].id, 100);
  EXPECT_EQ(profiles[1].id, 101);
  EXPECT_EQ(profiles[0].deps, (std::vector<TaskId>{101}));
  EXPECT_TRUE(profiles[1].deps.empty());
  for (const auto& p : profiles) {
    EXPECT_GT(p.seq_time, 0.0);
    EXPECT_EQ(p.query_id, 7);
  }
}

TEST_F(OptTest, IndexHeavyFragmentClassifiedRandom) {
  auto plan = MakeIndexScan(b_, Predicate(), KeyRange{0, 50});
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  auto profiles = model_.FragmentProfiles(graph);
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].pattern, IoPattern::kRandom);

  auto seq = MakeSeqScan(b_, Predicate());
  FragmentGraph g2 = FragmentGraph::Decompose(*seq);
  EXPECT_EQ(model_.FragmentProfiles(g2)[0].pattern, IoPattern::kSequential);
}

TEST_F(OptTest, BestPlanExecutesCorrectly) {
  JoinEnumerator enumerator(&model_);
  QuerySpec q = ThreeWay();

  auto best = enumerator.BestPlan(q, TreeShape::kBushy);
  ASSERT_TRUE(best.ok()) << best.status().ToString();

  // Reference: fixed hash-join order a-(b-c).
  auto reference = MakeHashJoin(
      MakeSeqScan(a_, Predicate::Between(0, 0, 150)),
      MakeHashJoin(MakeSeqScan(b_, Predicate()), MakeSeqScan(c_, Predicate()),
                   0, 0),
      0, 0);

  auto got = ExecutePlanSequential(*best->plan, ctx_);
  auto want = ExecutePlanSequential(*reference, ctx_);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty());

  // Output column order may differ between join orders; compare per-row
  // sorted cell multisets.
  auto canon = [](const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) {
      std::multiset<std::string> cells;
      for (size_t i = 0; i < t.size(); ++i)
        cells.insert(ValueToString(t.value(i)));
      out.insert(StrJoin(cells, "|"));
    }
    return out;
  };
  EXPECT_EQ(canon(*got), canon(*want));
}

TEST_F(OptTest, HashJoinBuildsOnTheSmallerInput) {
  // The whole-plan estimate charges a hash join's build input for being
  // materialized, so the enumerator builds on the input with fewer
  // estimated rows, whichever order FROM lists the inputs in.
  JoinEnumerator enumerator(&model_);
  const Predicate kAll;
  const Predicate kFew = Predicate::Between(0, 0, 30);
  struct Input {
    Table* table;
    Predicate pred;
  };
  const std::vector<std::pair<Input, Input>> pairs = {
      {{a_, kAll}, {b_, kAll}},
      {{a_, kAll}, {c_, kAll}},
      {{b_, kAll}, {c_, kAll}},
      {{a_, kAll}, {a_, kFew}},
      {{a_, kFew}, {c_, kAll}},
  };
  for (const auto& [x, y] : pairs) {
    for (bool swap : {false, true}) {
      const Input& first = swap ? y : x;
      const Input& second = swap ? x : y;
      QuerySpec q;
      q.relations = {{first.table, first.pred}, {second.table, second.pred}};
      q.joins = {{0, 0, 1, 0}};
      for (TreeShape shape : {TreeShape::kLeftDeep, TreeShape::kBushy}) {
        auto best = enumerator.BestPlan(q, shape);
        ASSERT_TRUE(best.ok()) << best.status().ToString();
        const PlanNode& join = *best->plan;
        const std::string where = StrFormat(
            "%s(%s) x %s(%s), %s", first.table->name().c_str(),
            first.pred.ToString().c_str(), second.table->name().c_str(),
            second.pred.ToString().c_str(), TreeShapeName(shape));
        ASSERT_EQ(join.kind, PlanKind::kHashJoin) << where;
        const double build_rows = model_.Estimate(*join.right).rows;
        const double probe_rows = model_.Estimate(*join.left).rows;
        ASSERT_NE(build_rows, probe_rows) << where;
        EXPECT_LT(build_rows, probe_rows) << where;
      }
    }
  }
}

TEST_F(OptTest, LeftDeepPlansAreLeftDeep) {
  JoinEnumerator enumerator(&model_);
  QuerySpec q = FourWay();
  auto plan = enumerator.BestPlan(q, TreeShape::kLeftDeep);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(IsLeftDeep(*plan->plan));
}

TEST_F(OptTest, BushySearchNeverWorseThanLeftDeep) {
  JoinEnumerator enumerator(&model_);
  for (QuerySpec q : {TwoWay(), ThreeWay(), FourWay()}) {
    auto ld = enumerator.BestPlan(q, TreeShape::kLeftDeep);
    auto bushy = enumerator.BestPlan(q, TreeShape::kBushy);
    ASSERT_TRUE(ld.ok());
    ASSERT_TRUE(bushy.ok());
    EXPECT_LE(bushy->seqcost, ld->seqcost + 1e-9);
  }
}

TEST_F(OptTest, TopPlansOrderedBySeqcost) {
  JoinEnumerator enumerator(&model_);
  auto plans = enumerator.TopPlans(ThreeWay(), 3);
  ASSERT_TRUE(plans.ok());
  EXPECT_GE(plans->size(), 2u);
  for (size_t i = 1; i < plans->size(); ++i)
    EXPECT_LE((*plans)[i - 1].seqcost, (*plans)[i].seqcost);
}

TEST_F(OptTest, DisconnectedJoinGraphRejected) {
  JoinEnumerator enumerator(&model_);
  QuerySpec q;
  q.relations = {{a_, Predicate()}, {b_, Predicate()}};
  // no joins
  auto plan = enumerator.BestPlan(q, TreeShape::kBushy);
  EXPECT_FALSE(plan.ok());
}

TEST_F(OptTest, ParCostBeatsSeqCost) {
  MachineConfig machine = MachineConfig::PaperConfig();
  TwoPhaseOptimizer opt(machine, &model_);
  auto result = opt.Optimize(ThreeWay(), TreeShape::kBushy);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->parcost, result->seqcost);
  EXPECT_GT(result->parcost, 0.0);
}

TEST_F(OptTest, ParCostOptimizationNeverWorse) {
  MachineConfig machine = MachineConfig::PaperConfig();
  TwoPhaseOptimizer opt(machine, &model_);

  for (QuerySpec q : {ThreeWay(), FourWay()}) {
    auto two_phase = opt.Optimize(q, TreeShape::kLeftDeep);
    auto parcost_driven = opt.OptimizeParCost(q, /*per_subset=*/3);
    ASSERT_TRUE(two_phase.ok());
    ASSERT_TRUE(parcost_driven.ok());
    // The parcost-driven search evaluates a superset of shapes including
    // the left-deep winner's shape family; it must not be worse by more
    // than the pruning tolerance.
    EXPECT_LE(parcost_driven->parcost, two_phase->parcost * 1.05 + 1e-9);
  }
}

TEST_F(OptTest, OptimizedPlansExecuteIdentically) {
  MachineConfig machine = MachineConfig::PaperConfig();
  TwoPhaseOptimizer opt(machine, &model_);
  QuerySpec q = ThreeWay();

  auto ld = opt.Optimize(q, TreeShape::kLeftDeep);
  auto bushy = opt.Optimize(q, TreeShape::kBushy);
  auto pc = opt.OptimizeParCost(q);
  ASSERT_TRUE(ld.ok());
  ASSERT_TRUE(bushy.ok());
  ASSERT_TRUE(pc.ok());

  auto canon = [&](const PlanNode& plan) {
    auto rows = ExecutePlanSequential(plan, ctx_);
    EXPECT_TRUE(rows.ok());
    std::multiset<std::string> out;
    for (const auto& t : *rows) {
      std::multiset<std::string> cells;
      for (size_t i = 0; i < t.size(); ++i)
        cells.insert(ValueToString(t.value(i)));
      out.insert(StrJoin(cells, "|"));
    }
    return out;
  };
  auto r1 = canon(*ld->plan);
  EXPECT_EQ(r1, canon(*bushy->plan));
  EXPECT_EQ(r1, canon(*pc->plan));
  EXPECT_FALSE(r1.empty());
}

TEST_F(OptTest, SingleRelationQueryOptimizes) {
  MachineConfig machine = MachineConfig::PaperConfig();
  TwoPhaseOptimizer opt(machine, &model_);
  QuerySpec q;
  q.relations = {{a_, Predicate::Between(0, 5, 10)}};
  auto result = opt.Optimize(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->profiles.size(), 1u);
}

TEST_F(OptTest, ProfilesDriveSchedulerWithDependencies) {
  // End-to-end: optimized bushy plan's fragment profiles run through the
  // fluid simulator under the adaptive scheduler, honoring deps.
  MachineConfig machine = MachineConfig::PaperConfig();
  TwoPhaseOptimizer opt(machine, &model_);
  auto result = opt.Optimize(FourWay(), TreeShape::kBushy);
  ASSERT_TRUE(result.ok());

  SchedulerOptions so;
  AdaptiveScheduler sched(machine, so);
  FluidSimulator sim(machine, SimOptions());
  SimResult r = sim.Run(&sched, result->profiles);
  EXPECT_EQ(r.tasks.size(), result->profiles.size());
  // Dependencies respected: every fragment starts after its deps finish.
  for (const auto& p : result->profiles) {
    for (TaskId dep : p.deps) {
      EXPECT_GE(r.tasks.at(p.id).start_time,
                r.tasks.at(dep).finish_time - 1e-9);
    }
  }
}

}  // namespace
}  // namespace xprs
