// Tests for the spilling operators (external merge sort, and the hash join
// spilling as a grace hash join) and their integration with the plan
// builders via ExecContext::spill.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "exec/spill_ops.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace xprs {
namespace {

class SpillTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    Rng rng(13);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(
          t_->file()
              .Append(Tuple({Value(static_cast<int32_t>(rng.NextInt(0, 399))),
                             Value(std::string(30, 's'))}))
              .ok());
    }
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_TRUE(t_->ComputeStats().ok());

    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i % 400}),
                                     Value(std::string(10, 'u'))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->ComputeStats().ok());
  }

  SpillConfig Spilling(size_t memory_tuples) {
    SpillConfig c;
    c.temp_array = array_.get();
    c.memory_tuples = memory_tuples;
    return c;
  }

  static std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
    std::multiset<std::string> out;
    for (const auto& t : rows) out.insert(t.ToString());
    return out;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
  Table* s_ = nullptr;
  ExecContext plain_;
};

TEST_F(SpillTest, ExternalSortMatchesInMemorySort) {
  // Reference: std::stable_sort of the drained input.
  SeqScanOp input(t_, Predicate(), plain_);
  std::vector<Tuple> in_mem = Drain(&input).value();
  std::stable_sort(in_mem.begin(), in_mem.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return CompareValues(a.value(0), b.value(0)) < 0;
                   });

  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  ExternalSortOp sort(std::move(scan), 0, Spilling(128));
  auto spilled = Drain(&sort);
  ASSERT_TRUE(spilled.ok());
  ASSERT_GT(sort.runs_spilled(), 4u);  // 2000 tuples / 128 per run

  ASSERT_EQ(spilled->size(), in_mem.size());
  for (size_t i = 0; i < in_mem.size(); ++i) {
    EXPECT_EQ(std::get<int32_t>((*spilled)[i].value(0)),
              std::get<int32_t>(in_mem[i].value(0)))
        << "position " << i;
  }
}

TEST_F(SpillTest, ExternalSortStaysInMemoryWhenInputFits) {
  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  ExternalSortOp sort(std::move(scan), 0, Spilling(100000));
  auto rows = Drain(&sort);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(sort.runs_spilled(), 0u);
  EXPECT_EQ(rows->size(), 2000u);
}

TEST_F(SpillTest, ExternalSortNoTempArrayNeverSpills) {
  SpillConfig c;
  c.memory_tuples = 8;
  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  ExternalSortOp sort(std::move(scan), 0, c);
  auto rows = Drain(&sort);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(sort.runs_spilled(), 0u);
}

TEST_F(SpillTest, ExternalSortPaysTempIo) {
  array_->ResetStats();
  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  ExternalSortOp sort(std::move(scan), 0, Spilling(128));
  ASSERT_TRUE(Drain(&sort).ok());
  // Merge re-reads every spilled run page over and above the base scan.
  EXPECT_GT(array_->total_stats().reads, t_->file().num_pages());
}

TEST_F(SpillTest, GraceHashJoinMatchesInMemoryJoin) {
  // Reference: the nested-loop join, which builds no hash table.
  auto reference = [&] {
    auto plan = MakeNestLoopJoin(MakeSeqScan(t_, Predicate()),
                                 MakeSeqScan(s_, Predicate()), 0, 0);
    return ExecutePlanSequential(*plan, plain_).value();
  }();

  auto outer = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  auto inner = std::make_unique<SeqScanOp>(s_, Predicate(), plain_);
  HashJoinOp join(std::move(outer), std::move(inner), 0, 0, Spilling(64));
  auto rows = Drain(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(join.spilled());
  EXPECT_EQ(join.open_partitions(), 0u);  // Drain closed the join
  EXPECT_EQ(Normalize(*rows), Normalize(reference));
}

TEST_F(SpillTest, GraceHashJoinStaysInMemoryWhenBuildFits) {
  auto outer = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  auto inner = std::make_unique<SeqScanOp>(s_, Predicate(), plain_);
  HashJoinOp join(std::move(outer), std::move(inner), 0, 0,
                  Spilling(100000));
  auto rows = Drain(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(join.spilled());
  EXPECT_FALSE(rows->empty());
}

TEST_F(SpillTest, BuilderUsesSpillingOpsWhenConfigured) {
  ExecContext spilling;
  spilling.spill = Spilling(64);

  auto plan = MakeHashJoin(
      MakeSort(MakeSeqScan(t_, Predicate::Between(0, 0, 200)), 0),
      MakeSeqScan(s_, Predicate()), 0, 0);

  auto expected = ExecutePlanSequential(*plan, plain_);
  auto spilled = ExecutePlanSequential(*plan, spilling);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(Normalize(*expected), Normalize(*spilled));
}

TEST_F(SpillTest, FragmentedExecutionWithSpill) {
  ExecContext spilling;
  spilling.spill = Spilling(64);

  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(t_, Predicate()), 0),
                            MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  auto expected = ExecutePlanSequential(*plan, plain_);
  auto spilled = ExecutePlanFragmented(*plan, spilling);
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_EQ(Normalize(*expected), Normalize(*spilled));
}

TEST_F(SpillTest, SpilledSortPropagatesIoError) {
  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), plain_);
  ExternalSortOp sort(std::move(scan), 0, Spilling(128));
  array_->FailNextReads(1);
  auto rows = Drain(&sort);
  EXPECT_FALSE(rows.ok());
  array_->FailNextReads(0);
}

TEST_F(SpillTest, GraceJoinWithDuplicatesAndNulls) {
  Table* nulls = catalog_->CreateTable("nulls", Schema::PaperSchema()).value();
  for (int i = 0; i < 300; ++i) {
    Value key = (i % 10 == 0) ? Value(std::monostate{})
                              : Value(int32_t{i % 5});
    ASSERT_TRUE(
        nulls->file().Append(Tuple({key, Value(std::string("n"))})).ok());
  }
  ASSERT_TRUE(nulls->file().Flush().ok());

  auto reference = [&] {
    auto plan = MakeNestLoopJoin(MakeSeqScan(nulls, Predicate()),
                                 MakeSeqScan(nulls, Predicate()), 0, 0);
    return ExecutePlanSequential(*plan, plain_).value();
  }();

  auto outer = std::make_unique<SeqScanOp>(nulls, Predicate(), plain_);
  auto inner = std::make_unique<SeqScanOp>(nulls, Predicate(), plain_);
  HashJoinOp join(std::move(outer), std::move(inner), 0, 0, Spilling(32));
  auto rows = Drain(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(join.spilled());
  EXPECT_EQ(rows->size(), reference.size());  // NULL keys join nothing
}

// The budget counts the build rows the join holds: NULL-keyed rows join
// nothing and are dropped before they count.
TEST_F(SpillTest, HashJoinBudgetCountsOnlyRowsItHolds) {
  Table* sparse =
      catalog_->CreateTable("sparse", Schema::PaperSchema()).value();
  for (int i = 0; i < 200; ++i) {
    Value key = i < 20 ? Value(int32_t{i}) : Value(std::monostate{});
    ASSERT_TRUE(
        sparse->file().Append(Tuple({key, Value(std::string("p"))})).ok());
  }
  ASSERT_TRUE(sparse->file().Flush().ok());

  auto outer = std::make_unique<SeqScanOp>(s_, Predicate(), plain_);
  auto inner = std::make_unique<SeqScanOp>(sparse, Predicate(), plain_);
  HashJoinOp join(std::move(outer), std::move(inner), 0, 0, Spilling(20));
  auto rows = Drain(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(join.spilled());  // 20 keyed rows held, 180 NULL keys dropped
  EXPECT_EQ(rows->size(), 40u);  // s_ holds keys 0..99 twice
}

// A spilled join holds at most its budget of build rows, whatever the key
// skew: it joins each partition in budget-sized build chunks, because
// hashing cannot split a partition that holds one key.
TEST_F(SpillTest, SpilledHashJoinHoldsAtMostItsBudget) {
  for (const bool one_key : {false, true}) {
    SCOPED_TRACE(one_key ? "one key" : "distinct keys");
    Table* build = catalog_
                       ->CreateTable(one_key ? "one_key" : "distinct",
                                     Schema::PaperSchema())
                       .value();
    for (int i = 0; i < 2000; ++i) {
      const int32_t key = one_key ? 7 : i;
      ASSERT_TRUE(
          build->file().Append(Tuple({Value(key), Value(std::string("b"))}))
              .ok());
    }
    ASSERT_TRUE(build->file().Flush().ok());
    const Predicate probe = Predicate::Between(0, 0, 49);  // keys 0..49 twice
    auto reference =
        ExecutePlanSequential(*MakeNestLoopJoin(MakeSeqScan(s_, probe),
                                                MakeSeqScan(build, Predicate()),
                                                0, 0),
                              plain_)
            .value();
    EXPECT_EQ(reference.size(), one_key ? 4000u : 100u);

    auto outer = std::make_unique<SeqScanOp>(s_, probe, plain_);
    auto inner = std::make_unique<SeqScanOp>(build, Predicate(), plain_);
    HashJoinOp join(std::move(outer), std::move(inner), 0, 0, Spilling(64));
    auto rows = Drain(&join);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_TRUE(join.spilled());
    EXPECT_LE(join.peak_held_rows(), 64u);
    EXPECT_EQ(join.open_partitions(), 0u);
    EXPECT_EQ(Normalize(*rows), Normalize(reference));
  }
}

// Forwards its child and cancels the token after `after` tuples, so a
// blocking consumer (sort / hash-join drain) observes the cancellation
// mid-spill, from inside its own Open.
class CancelAfterOp : public Operator {
 public:
  CancelAfterOp(std::unique_ptr<Operator> child, CancellationToken* token,
                uint64_t after)
      : child_(std::move(child)), token_(token), after_(after) {}

  Status Open() override { return child_->Open(); }
  Status Next(Tuple* out, bool* eof) override {
    if (++seen_ > after_) token_->Cancel("test: cancel mid-spill");
    XPRS_RETURN_IF_ERROR(token_->Check());
    return child_->Next(out, eof);
  }
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<Operator> child_;
  CancellationToken* const token_;
  const uint64_t after_;
  uint64_t seen_ = 0;
};

// A sort cancelled after several runs have already spilled must surface
// Cancelled from Open, drop every temp run, and leave zero pinned frames.
TEST_F(SpillTest, ExternalSortCancelledMidSpillReleasesRuns) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;

  auto scan = std::make_unique<SeqScanOp>(t_, Predicate(), ctx);
  auto fuse =
      std::make_unique<CancelAfterOp>(std::move(scan), &token, /*after=*/500);
  ExternalSortOp sort(std::move(fuse), 0, Spilling(64));
  Status st = sort.Open();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_GE(sort.runs_spilled(), 5u);  // 500+ tuples / 64 per run
  EXPECT_EQ(sort.open_runs(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// Same for a grace hash join cancelled while partitioning: every build and
// probe partition file is dropped, pins balance.
TEST_F(SpillTest, GraceHashJoinCancelledMidSpillReleasesPartitions) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;

  auto outer = std::make_unique<SeqScanOp>(t_, Predicate(), ctx);
  auto inner = std::make_unique<SeqScanOp>(s_, Predicate(), ctx);
  // The build side (500 tuples) exceeds the budget, so partitioning
  // starts; the fuse on the probe side then cancels mid-partition.
  auto fuse =
      std::make_unique<CancelAfterOp>(std::move(outer), &token, /*after=*/300);
  HashJoinOp join(std::move(fuse), std::move(inner), 0, 0, Spilling(64));
  Status st = join.Open();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(join.open_partitions(), 0u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

}  // namespace
}  // namespace xprs
