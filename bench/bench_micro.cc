// Component micro-benchmarks (google-benchmark): storage primitives,
// B+tree, operators (the batch join's emission included), the
// balance-point solver, and the scheduler decision path. These are
// throughput sanity checks for the substrates, not paper figures.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_obs.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "opt/cost_model.h"
#include "sched/cost.h"
#include "sim/fluid_sim.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "util/rng.h"
#include "workload/tasks.h"

namespace xprs {
namespace {

void BM_PageAddTuple(benchmark::State& state) {
  const uint8_t data[64] = {};
  for (auto _ : state) {
    Page page;
    while (page.AddTuple(data, sizeof(data)).ok()) {
    }
    benchmark::DoNotOptimize(page.num_tuples());
  }
}
BENCHMARK(BM_PageAddTuple);

void BM_TupleSerializeRoundTrip(benchmark::State& state) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{42}), Value(std::string(64, 'x'))});
  for (auto _ : state) {
    std::vector<uint8_t> bytes;
    (void)t.Serialize(schema, &bytes);
    auto back = Tuple::Deserialize(schema, bytes.data(),
                                   static_cast<uint16_t>(bytes.size()));
    benchmark::DoNotOptimize(back.ok());
  }
}
BENCHMARK(BM_TupleSerializeRoundTrip);

void BM_BTreeInsert(benchmark::State& state) {
  Rng rng(TestSeed(1));
  for (auto _ : state) {
    state.PauseTiming();
    BTreeIndex tree;
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i)
      tree.Insert(static_cast<int32_t>(rng.NextInt(0, 1 << 20)),
                  TupleId{static_cast<uint32_t>(i), 0});
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BTreeInsert)->Arg(1000)->Arg(10000);

void BM_BTreeLookup(benchmark::State& state) {
  BTreeIndex tree;
  Rng rng(TestSeed(2));
  for (int i = 0; i < 100000; ++i)
    tree.Insert(static_cast<int32_t>(rng.NextInt(0, 1 << 20)),
                TupleId{static_cast<uint32_t>(i), 0});
  for (auto _ : state) {
    auto hits = tree.Lookup(static_cast<int32_t>(rng.NextInt(0, 1 << 20)));
    benchmark::DoNotOptimize(hits.size());
  }
}
BENCHMARK(BM_BTreeLookup);

// The storage layer's number: one buffer pool shared by 1 and 4 threads.
// In the strided pattern each of n threads fetches every n-th block of a
// scan set, as the §2.4 slaves of a grant-n scan do; in the random pattern
// each thread fetches uniformly random blocks, as concurrent point lookups
// do. items_per_second counts fetches per second of wall time over all
// threads, so it rises with the thread count only while the pool's locks
// do not serialize the threads. Thread 0 sets the pool up before the timed
// loop and tears it down after; google-benchmark starts and stops all
// threads' loops together.
struct SharedPool {
  SharedPool(BlockId blocks, size_t frames) : array(4, DiskMode::kInstant) {
    for (BlockId b = 0; b < blocks; ++b) array.AllocateBlock();
    pool = std::make_unique<BufferPool>(&array, frames);
  }
  DiskArray array;
  std::unique_ptr<BufferPool> pool;
};
std::unique_ptr<SharedPool> shared_pool;

enum class Access { kStrided, kRandom };

void SharedPoolFetches(benchmark::State& state, BlockId blocks,
                       size_t frames, Access access) {
  if (state.thread_index() == 0) {
    shared_pool = std::make_unique<SharedPool>(blocks, frames);
    for (BlockId b = 0; b < blocks; ++b) (void)shared_pool->pool->Fetch(b);
  }
  const BlockId first = static_cast<BlockId>(state.thread_index());
  const BlockId stride = static_cast<BlockId>(state.threads());
  BlockId block = first;
  Rng rng(TestSeed(3) + static_cast<uint64_t>(state.thread_index()));
  for (auto _ : state) {
    if (access == Access::kRandom) {
      block = static_cast<BlockId>(rng.NextUint64(blocks));
    }
    auto h = shared_pool->pool->Fetch(block);
    benchmark::DoNotOptimize(h.ok());
    block += stride;
    if (block >= blocks) block = first;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["hit_ratio"] = shared_pool->pool->stats().hit_rate();
    shared_pool.reset();
  }
}

// 1,024 resident blocks in 1,024 frames: every fetch is a hit.
void BM_BufferPoolHit(benchmark::State& state) {
  SharedPoolFetches(state, 1024, 1024, Access::kStrided);
}
BENCHMARK(BM_BufferPoolHit)->Threads(1)->Threads(4)->UseRealTime();

// The same resident blocks fetched at random: threads meet on the same
// shards and frames, where the strided threads keep apart.
void BM_BufferPoolRandomHit(benchmark::State& state) {
  SharedPoolFetches(state, 1024, 1024, Access::kRandom);
}
BENCHMARK(BM_BufferPoolRandomHit)->Threads(1)->Threads(4)->UseRealTime();

// A 465-block scan set through 256 frames: the clock evicts ahead of every
// scan, so nearly every fetch misses (hit_ratio near 0).
void BM_BufferPoolScanMiss(benchmark::State& state) {
  SharedPoolFetches(state, 465, 256, Access::kStrided);
}
BENCHMARK(BM_BufferPoolScanMiss)->Threads(1)->Threads(4)->UseRealTime();

struct HashJoinFixture {
  HashJoinFixture() : array(4, DiskMode::kInstant), catalog(&array) {
    Rng rng(TestSeed(4));
    left = catalog.CreateTable("l", Schema::PaperSchema()).value();
    right = catalog.CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 5000; ++i) {
      (void)left->file().Append(
          Tuple({Value(static_cast<int32_t>(rng.NextInt(0, 999))),
                 Value(std::string(16, 'l'))}));
    }
    for (int i = 0; i < 1000; ++i) {
      (void)right->file().Append(
          Tuple({Value(static_cast<int32_t>(rng.NextInt(0, 999))),
                 Value(std::string(16, 'r'))}));
    }
    (void)left->file().Flush();
    (void)right->file().Flush();
    (void)left->ComputeStats();
    (void)right->ComputeStats();
  }
  DiskArray array;
  Catalog catalog;
  Table* left;
  Table* right;
};

void BM_HashJoinExecute(benchmark::State& state) {
  static HashJoinFixture* fixture = new HashJoinFixture();
  auto plan = MakeHashJoin(MakeSeqScan(fixture->left, Predicate()),
                           MakeSeqScan(fixture->right, Predicate()), 0, 0);
  ExecContext ctx;
  for (auto _ : state) {
    auto rows = ExecutePlanSequential(*plan, ctx);
    benchmark::DoNotOptimize(rows->size());
  }
}
BENCHMARK(BM_HashJoinExecute);

// The batch join's emission layer: a BatchHashJoinOp probing a
// materialized build input (16 rows per key, the shared-index form a
// parallel probe fragment runs) with a 48,000-row scan, the size of
// olap_solo's lineitem scan at scale 8, under the one-probe-column emit
// mask an aggregate over the join sets. Every probe row matches, so each
// iteration emits 768,000 join rows; items_per_second is join rows/s.
struct FanoutJoinFixture {
  static constexpr int kKeys = 1000;
  static constexpr int kFanout = 16;
  static constexpr int kProbeRows = 48000;

  FanoutJoinFixture() : array(4, DiskMode::kInstant), catalog(&array) {
    Rng rng(TestSeed(6));
    probe = catalog.CreateTable("probe", Schema::PaperSchema()).value();
    for (int i = 0; i < kProbeRows; ++i) {
      (void)probe->file().Append(
          Tuple({Value(static_cast<int32_t>(rng.NextInt(0, kKeys - 1))),
                 Value(std::string(16, 'p'))}));
    }
    (void)probe->file().Flush();
    build.schema = Schema::PaperSchema();
    for (int k = 0; k < kKeys; ++k) {
      for (int j = 0; j < kFanout; ++j)
        build.tuples.push_back(
            Tuple({Value(int32_t{k}), Value(std::string(16, 'b'))}));
    }
    size_t inserted = 0;
    (void)build.JoinIndex(0, &inserted);  // built once, outside the loop
  }
  DiskArray array;
  Catalog catalog;
  Table* probe;
  TempResult build;
};

void BM_BatchHashJoinFanout(benchmark::State& state) {
  static FanoutJoinFixture* fixture = new FanoutJoinFixture();
  const std::vector<uint8_t> probe_key_only = {1, 0, 0, 0};
  ExecContext ctx;
  uint64_t rows = 0;
  for (auto _ : state) {
    BatchHashJoinOp join(std::make_unique<BatchSeqScanOp>(fixture->probe, ctx),
                         &fixture->build, 0, 0, ctx);
    join.PruneOutputColumns(probe_key_only);
    (void)join.Open();
    ColumnBatch batch;
    bool eof = false;
    while (join.NextBatch(&batch, &eof).ok() && !eof) rows += batch.size();
    (void)join.Close();
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchHashJoinFanout)->Unit(benchmark::kMillisecond);

void BM_BalancePointSolver(benchmark::State& state) {
  MachineConfig m = MachineConfig::PaperConfig();
  TaskProfile ti;
  ti.id = 1;
  ti.seq_time = 10;
  ti.total_ios = 650;
  ti.pattern = IoPattern::kSequential;
  TaskProfile tj;
  tj.id = 2;
  tj.seq_time = 10;
  tj.total_ios = 80;
  tj.pattern = IoPattern::kSequential;
  for (auto _ : state) {
    BalancePoint bp = SolveBalance(ti, tj, m, true);
    benchmark::DoNotOptimize(bp.xi);
  }
}
BENCHMARK(BM_BalancePointSolver);

void BM_SchedulerFullWorkload(benchmark::State& state) {
  MachineConfig m = MachineConfig::PaperConfig();
  Rng rng(TestSeed(5));
  WorkloadOptions wo;
  auto tasks = MakeWorkload(WorkloadKind::kExtremeMix, wo, &rng);
  for (auto _ : state) {
    SchedulerOptions so;
    AdaptiveScheduler sched(m, so);
    FluidSimulator sim(m, SimOptions());
    SimResult r = sim.Run(&sched, tasks);
    benchmark::DoNotOptimize(r.elapsed);
  }
}
BENCHMARK(BM_SchedulerFullWorkload);

void BM_CostModelFourWayEstimate(benchmark::State& state) {
  static HashJoinFixture* fixture = new HashJoinFixture();
  auto plan = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(fixture->left, Predicate()),
                   MakeSeqScan(fixture->right, Predicate()), 0, 0),
      MakeSeqScan(fixture->right, Predicate()), 0, 0);
  CostModel model;
  for (auto _ : state) {
    PlanEstimate est = model.Estimate(*plan);
    benchmark::DoNotOptimize(est.seq_time);
  }
}
BENCHMARK(BM_CostModelFourWayEstimate);

}  // namespace
}  // namespace xprs

// Custom main instead of BENCHMARK_MAIN(): BenchObs strips --trace-out
// before google-benchmark sees (and rejects) it.
int main(int argc, char** argv) {
  xprs::BenchObs bench_obs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Traced representative run so --trace-out yields a real schedule and the
  // metrics line carries scheduler/simulator counters.
  {
    xprs::MachineConfig m = xprs::MachineConfig::PaperConfig();
    xprs::Rng rng(xprs::TestSeed(5));
    xprs::WorkloadOptions wo;
    auto tasks = xprs::MakeWorkload(xprs::WorkloadKind::kExtremeMix, wo, &rng);
    xprs::SchedulerOptions so;
    xprs::AdaptiveScheduler sched(m, so);
    sched.SetObservability(bench_obs.obs());
    xprs::FluidSimulator sim(m, xprs::SimOptions());
    sim.SetObservability(bench_obs.obs());
    sim.Run(&sched, tasks);
  }
  bench_obs.Finish();
  return 0;
}
