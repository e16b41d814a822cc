// Tests for the dynamic parallelism adjustment protocols (§2.4, Figures
// 5/6) and the parallel fragment executor. The load-bearing property is
// exactly-once delivery: every page / index entry is handed out exactly
// once across any sequence of adjustments, under real concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "exec/page_partition.h"
#include "exec/range_partition.h"
#include "parallel/fragment_run.h"
#include "parallel/master.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace xprs {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Harness: runs slave threads against a page scan, lets the test fire
// adjustments (spawning any newly activated slots), and returns every page
// taken. Asserts nothing itself.
class PageScanHarness {
 public:
  explicit PageScanHarness(AdjustablePageScan* scan) : scan_(scan) {}

  void SpawnInitial() {
    for (int i = 0; i < scan_->parallelism(); ++i) Spawn(i);
  }

  void Adjust(int n) {
    auto r = scan_->Adjust(n);
    for (int slot : r.slots_to_start) Spawn(slot);
  }

  std::vector<uint32_t> Finish() {
    while (!scan_->Done()) SleepMs(1);
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto& t : threads_)
      if (t.joinable()) t.join();
    return taken_;
  }

 private:
  void Spawn(int slot) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.emplace_back([this, slot] {
      for (;;) {
        auto p = scan_->NextPage(slot);
        if (!p.has_value()) return;
        {
          std::lock_guard<std::mutex> l2(mu_);
          taken_.push_back(*p);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(150));
      }
    });
  }

  AdjustablePageScan* scan_;
  std::mutex mu_;
  std::vector<uint32_t> taken_;
  std::mutex threads_mu_;
  std::vector<std::thread> threads_;
};

void ExpectExactlyOnce(const std::vector<uint32_t>& taken, uint32_t n) {
  std::set<uint32_t> unique(taken.begin(), taken.end());
  EXPECT_EQ(taken.size(), n) << "pages delivered more or less than once";
  EXPECT_EQ(unique.size(), n);
  if (n > 0) {
    EXPECT_EQ(*unique.begin(), 0u);
    EXPECT_EQ(*unique.rbegin(), n - 1);
  }
}

TEST(PagePartitionTest, AllPagesExactlyOnceNoAdjustment) {
  AdjustablePageScan scan(97, 3, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  ExpectExactlyOnce(h.Finish(), 97);
}

TEST(PagePartitionTest, GrowMidScanCoversExactlyOnce) {
  AdjustablePageScan scan(400, 2, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  SleepMs(5);
  h.Adjust(6);
  ExpectExactlyOnce(h.Finish(), 400);
  EXPECT_EQ(scan.num_adjustments(), 1);
}

TEST(PagePartitionTest, ShrinkMidScanCoversExactlyOnce) {
  AdjustablePageScan scan(300, 6, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  SleepMs(3);
  h.Adjust(2);
  ExpectExactlyOnce(h.Finish(), 300);
}

TEST(PagePartitionTest, ManyRandomAdjustments) {
  AdjustablePageScan scan(1000, 4, 8);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  Rng rng(99);
  for (int round = 0; round < 8 && !scan.Done(); ++round) {
    SleepMs(2);
    h.Adjust(static_cast<int>(rng.NextInt(1, 8)));
  }
  ExpectExactlyOnce(h.Finish(), 1000);
}

TEST(PagePartitionTest, SingleSlaveSingularPage) {
  AdjustablePageScan scan(1, 1, 4);
  PageScanHarness h(&scan);
  h.SpawnInitial();
  ExpectExactlyOnce(h.Finish(), 1);
}

class RangePartitionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
      int32_t key = static_cast<int32_t>(rng.NextInt(0, 499));
      index_.Insert(key, TupleId{static_cast<uint32_t>(i), 0});
      ++expected_[key];
    }
  }
  BTreeIndex index_;
  std::map<int32_t, int> expected_;
};

TEST_F(RangePartitionTest, EntriesExactlyOnceWithAdjustments) {
  AdjustableRangeScan scan(&index_, {0, 499}, 3, 8, /*chunk_entries=*/64);
  std::mutex mu;
  std::map<int32_t, int> got;
  std::vector<std::thread> threads;
  std::mutex threads_mu;

  std::function<void(int)> spawn = [&](int slot) {
    std::lock_guard<std::mutex> lock(threads_mu);
    threads.emplace_back([&, slot] {
      for (;;) {
        auto chunk = scan.NextChunk(slot);
        if (!chunk.has_value()) return;
        std::map<int32_t, int> local;
        for (auto it = index_.Scan(chunk->lo, chunk->hi); it.Valid();
             it.Next())
          ++local[it.key()];
        {
          std::lock_guard<std::mutex> l2(mu);
          for (auto& [k, c] : local) got[k] += c;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  };
  for (int i = 0; i < 3; ++i) spawn(i);

  Rng rng(13);
  for (int round = 0; round < 6 && !scan.Done(); ++round) {
    SleepMs(2);
    auto r = scan.Adjust(static_cast<int>(rng.NextInt(1, 8)));
    for (int slot : r.slots_to_start) spawn(slot);
  }
  while (!scan.Done()) SleepMs(1);
  {
    std::lock_guard<std::mutex> lock(threads_mu);
    for (auto& t : threads)
      if (t.joinable()) t.join();
  }

  EXPECT_EQ(got, expected_) << "index entries not delivered exactly once";
}

TEST_F(RangePartitionTest, InitialPartitionIsBalanced) {
  AdjustableRangeScan scan(&index_, {0, 499}, 4, 8, /*chunk_entries=*/32);
  // Drain each slot single-threadedly (no adjustments -> no rendezvous).
  std::vector<size_t> per_slot(4, 0);
  for (int slot = 0; slot < 4; ++slot) {
    for (;;) {
      auto chunk = scan.NextChunk(slot);
      if (!chunk.has_value()) break;
      per_slot[slot] += index_.CountRange(chunk->lo, chunk->hi);
    }
  }
  size_t total = 0;
  for (size_t c : per_slot) {
    EXPECT_GT(c, 250u);  // ideal 500 each; allow slack for duplicates
    EXPECT_LT(c, 900u);
    total += c;
  }
  EXPECT_EQ(total, 2000u);
}

// ------------------------------------------------------ fragment run tests

class FragmentRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    r_ = catalog_->CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 3000; ++i) {
      ASSERT_TRUE(r_->file()
                      .Append(Tuple({Value(int32_t{i % 500}),
                                     Value(std::string(20, 'x'))}))
                      .ok());
    }
    ASSERT_TRUE(r_->file().Flush().ok());
    ASSERT_TRUE(r_->BuildIndex(0).ok());
    ASSERT_TRUE(r_->ComputeStats().ok());

    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string(10, 'y'))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->BuildIndex(0).ok());
  }

  static std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) out.insert(t.ToString());
    return out;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* r_ = nullptr;
  Table* s_ = nullptr;
  ExecContext ctx_;
};

TEST_F(FragmentRunTest, SeqScanFragmentMatchesSequential) {
  auto plan = MakeSeqScan(r_, Predicate::Between(0, 100, 300));
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 4;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
  EXPECT_EQ(result->tuples.size(), 201u * 6);  // 201 keys x 6 dups
}

TEST_F(FragmentRunTest, AdjustmentsDuringRunPreserveResult) {
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 2;
  opts.max_slots = 8;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  // Fire adjustments while the scan races.
  run.Adjust(6);
  run.Adjust(1);
  run.Adjust(4);
  auto result = run.Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->tuples.size(), 3000u);
  EXPECT_GE(run.num_adjustments(), 1);
}

TEST_F(FragmentRunTest, IndexScanFragmentMatchesSequential) {
  auto plan = MakeIndexScan(r_, Predicate(), KeyRange{50, 150});
  FragmentGraph graph = FragmentGraph::Decompose(*plan);

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  run.Adjust(5);
  auto result = run.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
}

TEST_F(FragmentRunTest, SortRootFragmentProducesSortedOutput) {
  auto plan = MakeSort(MakeSeqScan(r_, Predicate::Between(0, 0, 100)), 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 1u);  // sort at the root: own fragment

  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 4;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  ASSERT_TRUE(run.Start().ok());
  auto result = run.Wait();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->tuples.size(), 101u * 6);
  for (size_t i = 1; i < result->tuples.size(); ++i) {
    EXPECT_LE(std::get<int32_t>(result->tuples[i - 1].value(0)),
              std::get<int32_t>(result->tuples[i].value(0)));
  }
}

TEST_F(FragmentRunTest, HashJoinPlanViaParallelFragments) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 2u);
  int build_id = graph.fragment(graph.root_fragment()).deps[0];

  // Build fragment in parallel.
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 3;
  opts.ctx = ctx_;
  ParallelFragmentRun build(&graph, build_id, {}, opts);
  ASSERT_TRUE(build.Start().ok());
  auto build_result = build.Wait();
  ASSERT_TRUE(build_result.ok());

  // Probe fragment in parallel, with an adjustment mid-run.
  std::map<int, const TempResult*> inputs{{build_id, &build_result.value()}};
  ParallelFragmentRun probe(&graph, graph.root_fragment(), inputs, opts);
  ASSERT_TRUE(probe.Start().ok());
  probe.Adjust(6);
  auto probe_result = probe.Wait();
  ASSERT_TRUE(probe_result.ok());

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(probe_result->tuples), Normalize(*expected));
}

// Sleeps on every page read, so a one-slave probe is still scanning when
// the master adjusts it.
class SlowReads : public FaultInjector {
 public:
  Status BeforeRead(BlockId) override {
    SleepMs(1);
    return Status::OK();
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }
};

// Starts the probe fragment (query 0's root fragment, task 0) at one
// slave and, once that slave is probing, adjusts it up to four: the §2.4
// path a re-balancing scheduler takes when a partner fragment finishes.
class MidProbeAdjustMaster : public ParallelMaster {
 public:
  using ParallelMaster::ParallelMaster;

  void StartTask(TaskId id, double parallelism) override {
    if (id != 0) return ParallelMaster::StartTask(id, parallelism);
    ParallelMaster::StartTask(id, 1);
    const double unstarted = RemainingSeqTime(id);
    while (RemainingSeqTime(id) == unstarted) std::this_thread::yield();
    AdjustParallelism(id, 4);
  }
};

uint64_t BuildRows(const QueryProfile& profile) {
  uint64_t rows = 0;
  for (const auto& op : profile.operators()) rows += op->build_rows.load();
  return rows;
}

TEST_F(FragmentRunTest, MasterBuildsEachHashTableOnce) {
  // The build fragment's output is indexed once, and every slave of the
  // probe fragment probes that one table. So at 4 slots the profile counts
  // each build row once, as the serial run does, also when the probe gains
  // slaves mid-run, and on the batch path as on the tuple path.
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  QueryProfile serial_profile(plan.get());
  ExecContext serial_ctx = ctx_;
  serial_ctx.profile = &serial_profile;
  auto serial = ExecutePlanSequential(*plan, serial_ctx);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_EQ(BuildRows(serial_profile), 400u);

  const CostModel model;
  SlowReads slow_reads;
  for (bool vectorized : {false, true}) {
    for (bool adjust : {false, true}) {
      SCOPED_TRACE(adjust ? "mid-probe adjust" : "no adjust");
      SCOPED_TRACE(vectorized ? "vectorized" : "tuple");
      QueryProfile profile(plan.get());
      MasterOptions options;
      options.max_slots = 4;
      options.ctx = ctx_;
      options.ctx.profile = &profile;
      options.ctx.vectorized = vectorized;
      std::unique_ptr<ParallelMaster> master;
      if (adjust) {
        master = std::make_unique<MidProbeAdjustMaster>(
            MachineConfig::PaperConfig(), &model, options);
        array_->SetFaultInjector(&slow_reads);
      } else {
        master = std::make_unique<ParallelMaster>(MachineConfig::PaperConfig(),
                                                  &model, options);
      }
      auto run = master->Run({{plan.get(), /*query_id=*/0}});
      array_->SetFaultInjector(nullptr);
      ASSERT_TRUE(run.ok()) << run.status().ToString();

      EXPECT_EQ(Normalize(run->query_results.at(0)), Normalize(*serial));
      EXPECT_EQ(BuildRows(profile), BuildRows(serial_profile));
      bool saw_probe = false;
      for (const FragmentStats& frag : profile.fragments()) {
        if (frag.frag_id != 0) continue;  // the build fragment
        saw_probe = true;
        EXPECT_GT(frag.slaves_spawned, 1) << "the probe never ran parallel";
        if (adjust) {
          EXPECT_GE(frag.adjustments, 1);
        }
      }
      EXPECT_TRUE(saw_probe);
    }
  }
}

TEST_F(FragmentRunTest, TempDrivenFragmentPartitionsBatches) {
  // Fragment whose driving leaf is a materialized input: build a sort
  // below a hash join probe... simplest: merge join of two sorts, top
  // fragment driven by the left sort's output.
  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                            MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ASSERT_EQ(graph.fragments().size(), 3u);

  std::map<int, TempResult> results;
  for (int id : graph.TopologicalOrder()) {
    std::map<int, const TempResult*> inputs;
    for (int dep : graph.fragment(id).deps) inputs[dep] = &results.at(dep);
    ParallelFragmentRun::Options opts;
    opts.initial_parallelism = id == graph.root_fragment() ? 1 : 3;
    opts.ctx = ctx_;
    ParallelFragmentRun run(&graph, id, inputs, opts);
    ASSERT_TRUE(run.Start().ok());
    auto r = run.Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    results[id] = std::move(r).value();
  }

  auto expected = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(Normalize(results.at(graph.root_fragment()).tuples),
            Normalize(*expected));
}

TEST_F(FragmentRunTest, SpawnsSlavesOnlyForSlotsWithWork) {
  // Runs a one-fragment plan at initial parallelism 4, checks its result
  // against the serial run's and returns the slaves its profile recorded.
  auto slaves_spawned = [&](const PlanNode& plan) {
    FragmentGraph graph = FragmentGraph::Decompose(plan);
    QueryProfile profile(&plan);
    ParallelFragmentRun::Options opts;
    opts.initial_parallelism = 4;
    opts.ctx = ctx_;
    opts.ctx.profile = &profile;
    ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
    EXPECT_TRUE(run.Start().ok());
    auto result = run.Wait();
    auto expected = ExecutePlanSequential(plan, ctx_);
    EXPECT_TRUE(result.ok() && expected.ok());
    if (!result.ok() || !expected.ok()) return -1;
    EXPECT_EQ(Normalize(result->tuples), Normalize(*expected));
    const auto fragments = profile.fragments();
    EXPECT_EQ(fragments.size(), 1u);
    return fragments.empty() ? -1 : fragments[0].slaves_spawned;
  };

  // One key cannot be split, so its 6 entries all go to slot 0.
  auto lookup = MakeIndexScan(r_, Predicate(), KeyRange{17, 17});
  EXPECT_EQ(slaves_spawned(*lookup), 1);

  // Two pages for four slots.
  Table* two = catalog_->CreateTable("two", Schema::PaperSchema()).value();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(two->file()
                    .Append(Tuple({Value(int32_t{i}),
                                   Value(std::string(400, 'z'))}))
                    .ok());
  }
  ASSERT_TRUE(two->file().Flush().ok());
  ASSERT_EQ(two->file().num_pages(), 2u);
  auto scan = MakeSeqScan(two, Predicate());
  EXPECT_EQ(slaves_spawned(*scan), 2);
}

TEST_F(FragmentRunTest, ProgressReachesOne) {
  auto plan = MakeSeqScan(r_, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  ParallelFragmentRun::Options opts;
  opts.initial_parallelism = 2;
  opts.ctx = ctx_;
  ParallelFragmentRun run(&graph, graph.root_fragment(), {}, opts);
  EXPECT_DOUBLE_EQ(run.Progress(), 0.0);
  ASSERT_TRUE(run.Start().ok());
  ASSERT_TRUE(run.Wait().ok());
  EXPECT_DOUBLE_EQ(run.Progress(), 1.0);
  EXPECT_TRUE(run.finished());
}

}  // namespace
}  // namespace xprs
