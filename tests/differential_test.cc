// Differential correctness harness (fast tier): fixed-seed random queries
// run through the serial reference, the fragmented executor, parallel
// fragment runs at several degrees, the full master control loop, the
// spill path and the buffer pool — all result sets must agree — plus the
// storage fault-injection cases and the §2.2 io conservation checks.
//
// A failure prints the offending seed; replay any run with
// XPRS_SEED=<seed> (TestSeed mixes it into every site).

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <vector>

#include "util/check.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk_array.h"
#include "testing/differential.h"
#include "testing/query_gen.h"
#include "util/rng.h"
#include "workload/relations.h"

namespace xprs {
namespace {

struct Fixture {
  DiskArray array{4, DiskMode::kInstant};
  Catalog catalog{&array};
  std::vector<Table*> tables;

  explicit Fixture(uint64_t seed,
                   GeneratedWorkloadOptions workload = {}) {
    Rng rng(seed);
    auto built = BuildGeneratedWorkload(&catalog, workload, &rng);
    XPRS_CHECK_OK(built.status());
    tables = built.value();
  }
};

// The acceptance bar: 200+ generated queries, three parallel degrees, the
// master, the spill path and the pool, zero mismatches.
TEST(DifferentialTest, TwoHundredGeneratedQueries) {
  const uint64_t seed = TestSeed(0xD1FF0001);
  Fixture fx(seed);
  DifferentialOptions options;  // degrees {2, 3, 5}
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  for (int i = 0; i < 200; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckPlan(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  const DifferentialReport& report = oracle.report();
  EXPECT_EQ(report.plans_checked, 200u);
  // reference + fragmented + 3 degrees + master + spill + pooled = 8.
  EXPECT_GE(report.executions_compared, 200u * 8);
  std::cout << "differential report: " << report.ToString() << "\n";
}

// Chaos acceptance bar: 200 fixed-seed queries re-run through every mode
// with a 2% random read-fault injector armed the whole time. Every run
// must match the serial reference or fail with a retryable status, and
// the resilience ladder's recoveries must be visible downstream as
// resilience.retry.* / resilience.degrade.* metrics and trace events.
TEST(DifferentialTest, TwoHundredChaosQueries) {
  const uint64_t seed = TestSeed(0xD1FF0008);
  Fixture fx(seed);
  MetricsRegistry metrics;
  MemoryTraceRecorder trace;
  DifferentialOptions options;
  options.chaos_read_fault_rate = 0.02;
  options.chaos_obs.metrics = &metrics;
  options.chaos_obs.trace = &trace;
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  for (int i = 0; i < 200; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckPlanChaos(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  const DifferentialReport& report = oracle.report();
  EXPECT_EQ(report.plans_checked, 200u);
  EXPECT_GT(report.faults_injected, 0u);
  // The ladder modes must actually have absorbed faults and still matched
  // the reference — not merely failed retryably every time.
  EXPECT_GT(report.chaos_recovered, 0u);

  const uint64_t retries = metrics.counter("resilience.retry.query")->value() +
                           metrics.counter("resilience.retry.fragment")->value();
  const uint64_t degrades =
      metrics.counter("resilience.degrade.parallelism")->value() +
      metrics.counter("resilience.degrade.serial")->value() +
      metrics.counter("resilience.degrade.spill")->value();
  EXPECT_GT(retries, 0u);
  size_t resilience_events = 0;
  for (const TraceEvent& event : trace.snapshot()) {
    if (event.category == "resilience") ++resilience_events;
  }
  EXPECT_GE(resilience_events, retries + degrades);
  std::cout << "chaos report: " << report.ToString() << " retries=" << retries
            << " degrades=" << degrades << "\n";
}

// NULL join keys and NULL aggregate inputs must behave identically in
// every mode (serial skips them; partitioned runs must too).
TEST(DifferentialTest, NullHeavyRelations) {
  const uint64_t seed = TestSeed(0xD1FF0002);
  GeneratedWorkloadOptions workload;
  workload.max_null_key_fraction = 0.6;
  Fixture fx(seed, workload);
  DifferentialOracle oracle(&fx.array, DifferentialOptions(), seed ^ 1);
  QueryGenerator::Options gen_options;
  gen_options.max_joins = 2;
  gen_options.aggregate_prob = 0.6;
  QueryGenerator gen(fx.tables, gen_options, seed ^ 2);
  for (int i = 0; i < 40; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckPlan(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
}

// A pool of four shards: the pooled modes, the parallel(d) slaves sharing
// one pool and the concurrent sessions all fetch across shards, must match
// the reference and must leave zero pinned frames in every shard.
TEST(DifferentialTest, ShardedPool) {
  const uint64_t seed = TestSeed(0xD1FF0009);
  Fixture fx(seed);
  DifferentialOptions options;
  options.buffer_pool_frames = 4 * BufferPool::kFramesPerShard;
  ASSERT_EQ(BufferPool(&fx.array, options.buffer_pool_frames).num_shards(),
            4u);
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  std::vector<std::unique_ptr<PlanNode>> owned;
  std::vector<const PlanNode*> plans;
  for (int i = 0; i < 40; ++i) {
    owned.push_back(gen.NextPlan());
    plans.push_back(owned.back().get());
    Status status = oracle.CheckPlan(*owned.back());
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  Status status = oracle.CheckPlansConcurrent(plans);
  ASSERT_TRUE(status.ok()) << "(seed " << seed << "): " << status.ToString();
  EXPECT_EQ(oracle.report().plans_checked, 80u);
}

// §2.2: page partitioning at any degree reads exactly the serial scan's
// pages — io demand is a property of the task, not of its parallelism.
TEST(DifferentialTest, ScanIoConservation) {
  const uint64_t seed = TestSeed(0xD1FF0003);
  Fixture fx(seed);
  DifferentialOptions options;
  options.degrees = {2, 3, 4, 7};
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  for (Table* table : fx.tables) {
    Status status = oracle.CheckScanIoConservation(table);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Read and fetch hooks: the armed fault must surface as Status, leave the
// pool with zero pins, and the transient retry must match the reference.
TEST(DifferentialTest, ReadAndFetchFaultsSurfaceAsStatus) {
  const uint64_t seed = TestSeed(0xD1FF0004);
  Fixture fx(seed);
  DifferentialOracle oracle(&fx.array, DifferentialOptions(), seed ^ 1);
  QueryGenerator gen(fx.tables, QueryGenerator::Options(), seed ^ 2);
  for (int i = 0; i < 10; ++i) {
    std::unique_ptr<PlanNode> plan = gen.NextPlan();
    Status status = oracle.CheckFaultSurfacing(*plan);
    ASSERT_TRUE(status.ok()) << "query " << i << " (seed " << seed
                             << "): " << status.ToString();
  }
  // The first read and the first pool fetch fire deterministically on
  // every non-empty plan; 10 plans guarantee both hooks really injected.
  EXPECT_GE(oracle.report().fault_cases, 30u);
  EXPECT_GE(oracle.report().faults_injected, 2u);
}

// Write hook, via a plan that is guaranteed to spill: a Sort whose input
// exceeds the in-memory budget writes runs to the temp array, and the
// first of those writes is torn short.
TEST(DifferentialTest, ShortWriteDuringSpillSurfacesAsStatus) {
  const uint64_t seed = TestSeed(0xD1FF0005);
  Fixture fx(seed);
  DifferentialOptions options;
  options.spill_memory_tuples = 16;  // every table here exceeds this
  DifferentialOracle oracle(&fx.array, options, seed ^ 1);
  std::unique_ptr<PlanNode> plan =
      MakeSort(MakeSeqScan(fx.tables[0], Predicate()), 0);
  const uint64_t before = oracle.report().faults_injected;
  ASSERT_TRUE(oracle.CheckFaultSurfacing(*plan).ok());
  EXPECT_GE(oracle.report().faults_injected, before + 3);  // all three hooks
}

// Write hook at the storage layer proper: a torn write during bulk load
// must fail the loader with a Status, not corrupt silently.
TEST(DifferentialTest, ShortWriteDuringBulkLoadSurfacesAsStatus) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Status status =
      CheckShortWriteSurfacing(&catalog, "torn", TestSeed(0xD1FF0006));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

// Same seed, same tables, same options => identical plan sequence; the
// printed-seed replay contract rests on this.
TEST(DifferentialTest, GeneratorIsDeterministic) {
  const uint64_t seed = TestSeed(0xD1FF0007);
  Fixture fx(seed);
  QueryGenerator a(fx.tables, QueryGenerator::Options(), 99);
  QueryGenerator b(fx.tables, QueryGenerator::Options(), 99);
  for (int i = 0; i < 25; ++i)
    EXPECT_EQ(a.NextPlan()->ToString(), b.NextPlan()->ToString());
}

}  // namespace
}  // namespace xprs
