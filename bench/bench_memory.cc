// §5 future-work extension bench: memory-constrained scheduling and
// memory-aware optimization.
//
// The paper closes with: "we cannot run two hashjoins in parallel unless
// there is enough memory for both hash tables. As future work, we will
// integrate memory constraints into our scheduling and optimization
// algorithms." This bench shows the integrated behaviour:
//   1. scheduler: elapsed time of a hash-join-heavy batch as the shared
//      working-memory budget shrinks (pairs that don't fit serialize);
//   2. optimizer: join-method choice (hash vs sort-merge) and plan cost as
//      the per-plan memory budget shrinks (grace-hash spills priced in);
//   3. the combination: memory-aware plans + memory-aware schedule vs
//      memory-oblivious plans forced to spill.

#include <cstdio>
#include <functional>

#include "bench_obs.h"
#include "opt/two_phase.h"
#include "sim/fluid_sim.h"
#include "util/stats.h"
#include "util/str.h"
#include "workload/relations.h"

namespace xprs {
namespace {

struct Db {
  std::unique_ptr<DiskArray> array;
  std::unique_ptr<Catalog> catalog;
  Table* fat = nullptr;
  Table* fat2 = nullptr;
  Table* mid = nullptr;
  Table* thin = nullptr;
};

Db BuildDb() {
  Db db;
  db.array = std::make_unique<DiskArray>(4, DiskMode::kInstant);
  db.catalog = std::make_unique<Catalog>(db.array.get());
  Rng rng(TestSeed(31));
  db.fat = BuildRelation(db.catalog.get(), "fat", 1500, 700, 400, &rng)
               .value();
  db.fat2 = BuildRelation(db.catalog.get(), "fat2", 1200, 700, 400, &rng)
                .value();
  db.mid = BuildRelation(db.catalog.get(), "mid", 1200, 150, 400, &rng)
               .value();
  db.thin = BuildRelation(db.catalog.get(), "thin", 3000, 20, 400, &rng)
                .value();
  return db;
}

void SchedulerSweep(const Db& db, BenchObs* bench_obs) {
  std::printf("1. scheduler: hash-join batch vs shared memory budget\n");
  MachineConfig machine = MachineConfig::PaperConfig();
  CostModel model;

  // Four two-fragment hash-join queries; probe fragments hold hash tables.
  // The two heavyweights build on `fat` (~137 pages each) and their probe
  // fragments are one CPU-bound (thin outer) and one IO-bound (fat2
  // outer), so the scheduler *wants* to pair them — unless memory forbids.
  std::vector<std::unique_ptr<PlanNode>> plans;
  plans.push_back(MakeHashJoin(MakeSeqScan(db.thin, Predicate()),
                               MakeSeqScan(db.fat, Predicate()), 0, 0));
  plans.push_back(MakeHashJoin(MakeSeqScan(db.fat2, Predicate()),
                               MakeSeqScan(db.fat, Predicate()), 0, 0));
  plans.push_back(MakeHashJoin(MakeSeqScan(db.mid, Predicate()),
                               MakeSeqScan(db.thin, Predicate()), 0, 0));
  plans.push_back(MakeHashJoin(MakeSeqScan(db.thin, Predicate()),
                               MakeSeqScan(db.mid, Predicate()), 0, 0));

  std::vector<TaskProfile> all;
  std::vector<FragmentGraph> graphs;
  graphs.reserve(plans.size());
  double max_table = 0.0;
  for (size_t i = 0; i < plans.size(); ++i) {
    graphs.push_back(FragmentGraph::Decompose(*plans[i]));
    auto profiles = model.FragmentProfiles(
        graphs.back(), static_cast<int64_t>(i), static_cast<TaskId>(i) * 100);
    for (const auto& p : profiles) max_table = std::max(max_table, p.memory_pages);
    all.insert(all.end(), profiles.begin(), profiles.end());
  }

  TextTable table({"memory budget (pages)", "elapsed (s)", "cpu util",
                   "io util"});
  for (double factor : {0.0, 3.0, 1.5, 1.0, 0.7}) {
    double limit = factor == 0.0 ? 0.0 : max_table * factor;
    SchedulerOptions so;
    so.memory_pages_limit = limit;
    AdaptiveScheduler sched(machine, so);
    FluidSimulator sim(machine, SimOptions());
    if (factor == 1.0) {
      // Traced representative run: the budget that forces serialization.
      sched.SetObservability(bench_obs->obs());
      sim.SetObservability(bench_obs->obs());
    }
    SimResult r = sim.Run(&sched, all);
    table.AddRow({factor == 0.0 ? "unlimited"
                                : StrFormat("%.0f (%.1fx largest table)",
                                            limit, factor),
                  StrFormat("%.2f", r.elapsed),
                  StrFormat("%.0f%%", r.cpu_utilization * 100),
                  StrFormat("%.0f%%", r.io_utilization * 100)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void OptimizerSweep(const Db& db) {
  std::printf("2. optimizer: join-method choice vs per-plan memory budget\n");
  MachineConfig machine = MachineConfig::PaperConfig();

  QuerySpec q;
  q.relations = {{db.thin, Predicate()},
                 {db.fat, Predicate()},
                 {db.mid, Predicate()}};
  q.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}};

  TextTable table({"budget (pages)", "seqcost (s)", "parcost (s)",
                   "join methods in plan"});
  for (double budget : {0.0, 200.0, 50.0, 10.0, 1.0}) {
    CostParams params;
    params.memory_pages_budget = budget;
    CostModel model(params);
    TwoPhaseOptimizer opt(machine, &model);
    auto result = opt.Optimize(q, TreeShape::kBushy);
    XPRS_CHECK_OK(result.status());

    // Count join kinds in the chosen plan.
    int hash = 0, merge = 0, nest = 0;
    std::function<void(const PlanNode&)> walk = [&](const PlanNode& n) {
      if (n.kind == PlanKind::kHashJoin) ++hash;
      if (n.kind == PlanKind::kMergeJoin) ++merge;
      if (n.kind == PlanKind::kNestLoopJoin) ++nest;
      if (n.left) walk(*n.left);
      if (n.right) walk(*n.right);
    };
    walk(*result->plan);
    table.AddRow({budget == 0.0 ? "unlimited" : StrFormat("%.0f", budget),
                  StrFormat("%.2f", result->seqcost),
                  StrFormat("%.2f", result->parcost),
                  StrFormat("%d hash, %d merge, %d nestloop", hash, merge,
                            nest)});
  }
  std::printf("%s\n", table.ToString().c_str());
}

void CombinedStudy(const Db& db) {
  std::printf("3. memory-aware plans + schedule vs oblivious plans "
              "(tight budget)\n");
  MachineConfig machine = MachineConfig::PaperConfig();

  QuerySpec q;
  q.relations = {{db.thin, Predicate()},
                 {db.fat, Predicate()},
                 {db.mid, Predicate()}};
  q.joins = {{0, 0, 1, 0}, {1, 0, 2, 0}};

  const double budget = 10.0;  // pages

  auto run = [&](const CostModel& model,
                 const OptimizedQuery& chosen) -> SimResult {
    FragmentGraph graph = FragmentGraph::Decompose(*chosen.plan);
    auto profiles = model.FragmentProfiles(graph);
    SchedulerOptions so;
    so.memory_pages_limit = budget;
    AdaptiveScheduler sched(machine, so);
    FluidSimulator sim(machine, SimOptions());
    return sim.Run(&sched, profiles);
  };

  // Oblivious: plan chosen ignoring memory, but *costed* with the spill
  // penalty it will actually pay at runtime.
  CostModel oblivious;  // no budget: picks hash joins freely
  TwoPhaseOptimizer opt_oblivious(machine, &oblivious);
  auto plan_oblivious = opt_oblivious.Optimize(q, TreeShape::kBushy);
  XPRS_CHECK_OK(plan_oblivious.status());

  CostParams aware_params;
  aware_params.memory_pages_budget = budget;
  CostModel aware(aware_params);
  TwoPhaseOptimizer opt_aware(machine, &aware);
  auto plan_aware = opt_aware.Optimize(q, TreeShape::kBushy);
  XPRS_CHECK_OK(plan_aware.status());

  SimResult r_oblivious = run(aware, *plan_oblivious);  // real (spill) costs
  SimResult r_aware = run(aware, *plan_aware);

  TextTable table({"plan", "elapsed under budget (s)"});
  table.AddRow({"memory-oblivious choice",
                StrFormat("%.2f", r_oblivious.elapsed)});
  table.AddRow({"memory-aware choice", StrFormat("%.2f", r_aware.elapsed)});
  std::printf("%s\n", table.ToString().c_str());
}

void Run(BenchObs* bench_obs) {
  std::printf("Memory-constraint extension (paper §5 future work)\n\n");
  Db db = BuildDb();
  db.array->AttachMetrics(bench_obs->metrics());
  SchedulerSweep(db, bench_obs);
  OptimizerSweep(db);
  CombinedStudy(db);
  db.array->PublishMetrics();
  std::printf(
      "reading: shrinking the shared budget serializes hash-table-holding\n"
      "fragments (elapsed rises, utilization falls); shrinking the plan\n"
      "budget flips hash joins to small-side builds and then to sort-merge;\n"
      "choosing plans with the budget in mind beats spilling.\n");
}

}  // namespace
}  // namespace xprs

int main(int argc, char** argv) {
  xprs::BenchObs bench_obs(&argc, argv);
  xprs::Run(&bench_obs);
  bench_obs.Finish();
  return 0;
}
