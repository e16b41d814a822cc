// Tests for the vectorized (batch-at-a-time) execution path: ColumnBatch,
// its column gathers and selection-vector edge cases,
// Predicate::FilterBatch, and the batch operators cross-checked against
// the tuple reference executor — including NULL keys, empty inputs, tiny
// batch sizes, the join's output order and batch boundaries, cancellation,
// pooled pin balance, and profiled stats ownership.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "exec/batch.h"
#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/profile.h"
#include "resilience/cancellation.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace xprs {
namespace {

std::multiset<std::string> Normalize(const std::vector<Tuple>& rows) {
  std::multiset<std::string> out;
  for (const auto& t : rows) out.insert(t.ToString());
  return out;
}

// ------------------------------------------------------------ ColumnBatch

TEST(ColumnBatchTest, EmptyBatch) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.ActiveSize(), 0u);
  EXPECT_FALSE(batch.has_selection());
}

TEST(ColumnBatchTest, AddRowsStartAllNull) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  uint32_t r = batch.AddRows(1);
  EXPECT_EQ(r, 0u);
  EXPECT_TRUE(batch.IsNullAt(0, r));
  EXPECT_TRUE(batch.IsNullAt(1, r));
  batch.SetInt(0, r, 42);
  batch.SetText(1, r, "hi", 2);
  EXPECT_FALSE(batch.IsNullAt(0, r));
  EXPECT_EQ(batch.IntAt(0, r), 42);
  EXPECT_EQ(batch.TextAt(1, r), "hi");
}

TEST(ColumnBatchTest, AppendTupleRoundTripsNulls) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  Tuple with_null({Value(std::monostate{}), Value(std::string("x"))});
  Tuple plain({Value(int32_t{7}), Value(std::string("y"))});
  batch.AppendTuple(with_null);
  batch.AppendTuple(plain);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_TRUE(batch.IsNullAt(0, 0));
  EXPECT_EQ(batch.MaterializeRow(0), with_null);
  EXPECT_EQ(batch.MaterializeRow(1), plain);
}

TEST(ColumnBatchTest, SelectionVector) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  const uint32_t first = batch.AddRows(5);
  for (int i = 0; i < 5; ++i) batch.SetInt(0, first + i, i);
  EXPECT_EQ(batch.ActiveSize(), 5u);
  EXPECT_EQ(batch.ActiveRow(3), 3u);

  batch.SetSelection({1, 4});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveSize(), 2u);
  EXPECT_EQ(batch.ActiveRow(0), 1u);
  EXPECT_EQ(batch.ActiveRow(1), 4u);
  EXPECT_EQ(batch.size(), 5u);  // physical rows untouched

  // All-filtered: empty selection is distinct from no selection.
  batch.SetSelection({});
  EXPECT_TRUE(batch.has_selection());
  EXPECT_EQ(batch.ActiveSize(), 0u);

  batch.ClearSelection();
  EXPECT_EQ(batch.ActiveSize(), 5u);
}

TEST(ColumnBatchTest, ResetClearsRowsAndSelection) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  batch.AddRows(1);
  batch.SetSelection({0});
  batch.Reset(&schema);
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_FALSE(batch.has_selection());
}

TEST(ColumnBatchTest, IntColumnWithTrailingNullsGathers) {
  // Rows 2 and 3 are NULL and never set: their int slots still exist, so
  // a gather that lists them reads inside the column.
  Schema schema = Schema::PaperSchema();
  ColumnBatch src, out;
  src.Reset(&schema);
  const uint32_t first = src.AddRows(4);
  src.SetInt(0, first, 10);
  src.SetInt(0, first + 1, 11);
  EXPECT_GE(src.column(0).ints.size(), src.size());

  out.Reset(&schema);
  const std::vector<uint32_t> rows = {3, 0, 2, 1};
  out.Gather(out.AddRows(4), src, rows);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out.IsNullAt(0, 0));
  EXPECT_EQ(out.IntAt(0, 1), 10);
  EXPECT_TRUE(out.IsNullAt(0, 2));
  EXPECT_EQ(out.IntAt(0, 3), 11);
  for (uint32_t r = 0; r < 4; ++r) EXPECT_TRUE(out.IsNullAt(1, r));
}

TEST(ColumnBatchTest, GatherConcatenatesAndSkipsMaskedColumns) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch a, b, out;
  a.Reset(&schema);
  b.Reset(&schema);
  const uint32_t ra = a.AddRows(1);
  a.SetInt(0, ra, 1);
  a.SetText(1, ra, "left", 4);
  const uint32_t rb = b.AddRows(1);
  b.SetInt(0, rb, 2);  // column 1 stays NULL

  Schema joined = Schema::Concat(schema, schema);
  out.Reset(&joined);
  const std::vector<uint32_t> left = {ra}, right = {rb};
  uint32_t first = out.AddRows(1);
  out.Gather(first, a, left);
  out.Gather(first, b, right, /*offset=*/2);
  EXPECT_EQ(out.MaterializeRow(first),
            Tuple({Value(int32_t{1}), Value(std::string("left")),
                   Value(int32_t{2}), Value(std::monostate{})}));

  // Masked-out columns are never touched: they stay NULL although both
  // sources hold values there.
  const std::vector<uint8_t> mask = {1, 0, 0, 0};
  first = out.AddRows(1);
  out.Gather(first, a, left, 0, &mask);
  out.Gather(first, b, right, 2, &mask);
  EXPECT_EQ(out.MaterializeRow(first),
            Tuple({Value(int32_t{1}), Value(std::monostate{}),
                   Value(std::monostate{}), Value(std::monostate{})}));
}

TEST(ColumnBatchTest, GatherCopiesTextFromBatchesAndTuples) {
  Schema schema = Schema::PaperSchema();
  const std::vector<Tuple> tuples = {
      Tuple({Value(int32_t{7}), Value(std::string("seven"))}),
      Tuple({Value(std::monostate{}), Value(std::monostate{})}),
      Tuple({Value(int32_t{9}), Value(std::string("nine"))}),
  };
  ColumnBatch src, out;
  src.Reset(&schema);
  for (const Tuple& t : tuples) src.AppendTuple(t);

  // The second pass reuses the batch: its NULL rows land on slots the
  // first pass filled with text, and must still read NULL.
  for (const std::vector<uint32_t>& rows :
       {std::vector<uint32_t>{2, 1, 0, 2}, std::vector<uint32_t>{1, 2, 1, 0}}) {
    out.Reset(&schema);
    out.Gather(out.AddRows(4), src, rows);
    out.Gather(out.AddRows(4), tuples, rows);
    ASSERT_EQ(out.size(), 8u);
    for (uint32_t r = 0; r < 8; ++r)
      EXPECT_EQ(out.MaterializeRow(r), tuples[rows[r % 4]]) << "row " << r;
  }
}

// ------------------------------------------------------------ FilterBatch

class FilterBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::PaperSchema();
    batch_.Reset(&schema_);
    // a = 0..9, b = "t<i>"; row 5 has NULL a.
    for (int i = 0; i < 10; ++i) {
      uint32_t r = batch_.AddRows(1);
      if (i != 5) batch_.SetInt(0, r, i);
      const std::string text = "t" + std::to_string(i);
      batch_.SetText(1, r, text.data(), text.size());
    }
  }

  std::vector<uint32_t> Active() const {
    std::vector<uint32_t> out;
    for (uint32_t k = 0; k < batch_.ActiveSize(); ++k)
      out.push_back(batch_.ActiveRow(k));
    return out;
  }

  Schema schema_;
  ColumnBatch batch_;
};

TEST_F(FilterBatchTest, TrueIsNoOp) {
  Predicate().FilterBatch(&batch_);
  EXPECT_FALSE(batch_.has_selection());
  EXPECT_EQ(batch_.ActiveSize(), 10u);
}

TEST_F(FilterBatchTest, CompareSelectsMatchingRows) {
  Predicate::Compare(0, CmpOp::kGe, Value(int32_t{7})).FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{7, 8, 9}));
}

TEST_F(FilterBatchTest, NullNeverPasses) {
  // Row 5 has a NULL key: neither Eq nor Ne admits it (SQL semantics,
  // same as Predicate::Eval on the tuple path).
  Predicate::Compare(0, CmpOp::kNe, Value(int32_t{-1})).FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

TEST_F(FilterBatchTest, AllFiltered) {
  Predicate::Compare(0, CmpOp::kGt, Value(int32_t{100})).FilterBatch(&batch_);
  EXPECT_TRUE(batch_.has_selection());
  EXPECT_EQ(batch_.ActiveSize(), 0u);
}

TEST_F(FilterBatchTest, AndRefinesSequentially) {
  Predicate::Between(0, 3, 6).FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{3, 4, 6}));  // 5 is NULL
}

TEST_F(FilterBatchTest, OrUnionsSortedWithoutDuplicates) {
  Predicate::Or(Predicate::Compare(0, CmpOp::kLe, Value(int32_t{2})),
                Predicate::Compare(0, CmpOp::kEq, Value(int32_t{1})))
      .FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{0, 1, 2}));
}

TEST_F(FilterBatchTest, RefinesExistingSelection) {
  batch_.SetSelection({0, 2, 4, 6, 8});
  Predicate::Compare(0, CmpOp::kGe, Value(int32_t{3})).FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{4, 6, 8}));
}

TEST_F(FilterBatchTest, TextCompare) {
  Predicate::Compare(1, CmpOp::kEq, Value(std::string("t3")))
      .FilterBatch(&batch_);
  EXPECT_EQ(Active(), (std::vector<uint32_t>{3}));
}

// --------------------------------------------- batch ops vs tuple engine

// Fixture: r(a, b) with a = 0..199 once each; s(a, b) with a = i % 100
// (each key twice); n(a, b) with every third key NULL.
class BatchExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    r_ = catalog_->CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(r_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value("r" + std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(r_->file().Flush().ok());
    ASSERT_TRUE(r_->ComputeStats().ok());
    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i % 100}),
                                     Value("s" + std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->ComputeStats().ok());
    n_ = catalog_->CreateTable("n", Schema::PaperSchema()).value();
    for (int i = 0; i < 90; ++i) {
      Value key = i % 3 == 0 ? Value(std::monostate{}) : Value(int32_t{i % 10});
      ASSERT_TRUE(
          n_->file().Append(Tuple({key, Value("n" + std::to_string(i))})).ok());
    }
    ASSERT_TRUE(n_->file().Flush().ok());
    ASSERT_TRUE(n_->ComputeStats().ok());
  }

  // Both engines must agree on `plan`, at the default and a tiny batch size.
  void ExpectEquivalent(const PlanNode& plan) {
    ExecContext plain;
    auto want = ExecutePlanSequential(plan, plain);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t batch_rows : {size_t{1024}, size_t{3}}) {
      ExecContext ctx;
      ctx.batch_rows = batch_rows;
      auto got = ExecutePlanVectorized(plan, ctx);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(Normalize(*got), Normalize(*want))
          << "batch_rows=" << batch_rows << "\n"
          << plan.ToString();
    }
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* r_ = nullptr;
  Table* s_ = nullptr;
  Table* n_ = nullptr;
  ExecContext ctx_;
};

TEST_F(BatchExecTest, BatchSeqScanMatchesTupleScan) {
  BatchSeqScanOp scan(r_, ctx_);
  ASSERT_TRUE(scan.Open().ok());
  ColumnBatch batch;
  std::vector<Tuple> rows;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(scan.NextBatch(&batch, &eof).ok());
    if (eof) break;
    ASSERT_GT(batch.ActiveSize(), 0u);
    for (uint32_t k = 0; k < batch.ActiveSize(); ++k)
      rows.push_back(batch.MaterializeRow(batch.ActiveRow(k)));
  }
  ASSERT_TRUE(scan.Close().ok());
  EXPECT_EQ(scan.pages_read(), r_->file().num_pages());

  SeqScanOp ref(r_, Predicate(), ctx_);
  auto want = Drain(&ref);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(Normalize(rows), Normalize(*want));
}

TEST_F(BatchExecTest, ScanFilterEquivalent) {
  ExpectEquivalent(*MakeSeqScan(r_, Predicate::Between(0, 50, 59)));
}

TEST_F(BatchExecTest, HashJoinEquivalent) {
  ExpectEquivalent(*MakeHashJoin(MakeSeqScan(r_, Predicate()),
                                 MakeSeqScan(s_, Predicate()), 0, 0));
}

TEST_F(BatchExecTest, HashJoinDropsNullKeys) {
  // NULL keys on either side never match; both engines must agree.
  ExpectEquivalent(*MakeHashJoin(MakeSeqScan(n_, Predicate()),
                                 MakeSeqScan(s_, Predicate()), 0, 0));
  ExpectEquivalent(*MakeHashJoin(MakeSeqScan(s_, Predicate()),
                                 MakeSeqScan(n_, Predicate()), 0, 0));
}

TEST_F(BatchExecTest, AggregateEquivalent) {
  ExpectEquivalent(
      *MakeAggregate(MakeSeqScan(s_, Predicate()), AggFunc::kSum, 0, 0));
  ExpectEquivalent(
      *MakeAggregate(MakeSeqScan(r_, Predicate()), AggFunc::kMax, 0, -1));
  // NULL group keys are dropped, same as the tuple path.
  ExpectEquivalent(
      *MakeAggregate(MakeSeqScan(n_, Predicate()), AggFunc::kCount, 0, 0));
}

TEST_F(BatchExecTest, EmptyInputEquivalent) {
  Predicate none = Predicate::Compare(0, CmpOp::kGt, Value(int32_t{100000}));
  ExpectEquivalent(*MakeSeqScan(r_, none));
  ExpectEquivalent(*MakeHashJoin(MakeSeqScan(r_, none),
                                 MakeSeqScan(s_, Predicate()), 0, 0));
  ExpectEquivalent(*MakeHashJoin(MakeSeqScan(s_, Predicate()),
                                 MakeSeqScan(r_, none), 0, 0));
  // Global aggregate over nothing still emits its one row (count = 0).
  ExpectEquivalent(
      *MakeAggregate(MakeSeqScan(r_, none), AggFunc::kCount, 0, -1));
}

TEST_F(BatchExecTest, JoinUnderAggregateEquivalent) {
  ExpectEquivalent(
      *MakeAggregate(MakeHashJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 99)),
                                  MakeSeqScan(s_, Predicate()), 0, 0),
                     AggFunc::kCount, 0, 0));
}

TEST_F(BatchExecTest, NonVectorizableRootFallsBack) {
  // Sort is not vectorizable: ctx.vectorized must still produce the right
  // answer (tuple crown over a vectorized scan subtree).
  auto plan = MakeSort(MakeSeqScan(s_, Predicate::Between(0, 10, 30)), 0);
  ExecContext plain;
  auto want = ExecutePlanSequential(*plan, plain);
  ASSERT_TRUE(want.ok());
  auto got = ExecutePlanVectorized(*plan, plain);
  ASSERT_TRUE(got.ok());
  // Sort output order is part of the contract here.
  EXPECT_EQ(*got, *want);
}

TEST_F(BatchExecTest, VectorizableSubtreePredicate) {
  ExecContext plain;
  EXPECT_TRUE(VectorizableSubtree(*MakeSeqScan(r_, Predicate()), plain));
  EXPECT_TRUE(VectorizableSubtree(
      *MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                    0, 0),
      plain));
  EXPECT_FALSE(VectorizableSubtree(*MakeSort(MakeSeqScan(r_, Predicate()), 0),
                                   plain));
  // Text join keys fall back to the tuple path (it never type-checks keys
  // it does not extract, and batch columns are int4-keyed).
  EXPECT_FALSE(VectorizableSubtree(
      *MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                    1, 1),
      plain));
  // Joins that may spill stay on the tuple path: only HashJoinOp spills.
  ExecContext spilling = plain;
  DiskArray temp(1, DiskMode::kInstant);
  spilling.spill.temp_array = &temp;
  spilling.spill.memory_tuples = 8;
  EXPECT_FALSE(VectorizableSubtree(
      *MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                    0, 0),
      spilling));
}

TEST_F(BatchExecTest, CancellationStopsVectorizedRun) {
  CancellationToken token;
  token.Cancel();
  ExecContext ctx;
  ctx.cancel = &token;
  auto got = ExecutePlanVectorized(*MakeSeqScan(r_, Predicate()), ctx);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
}

TEST_F(BatchExecTest, PooledVectorizedRunLeavesNoPins) {
  BufferPool pool(array_.get(), 8);
  ExecContext ctx;
  ctx.pool = &pool;
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  auto got = ExecutePlanVectorized(*plan, ctx);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(BatchExecTest, ProfiledVectorizedRunCountsRootRows) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 49)),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  QueryProfile profile(plan.get());
  ExecContext ctx;
  ctx.profile = &profile;
  ctx.vectorized = true;
  auto got = ExecutePlanSequential(*plan, ctx);
  ASSERT_TRUE(got.ok());
  // One stats owner per node: the join's tuples_out must equal the result
  // cardinality exactly (no adapter double-counting), and the scans must
  // have read pages.
  OperatorStats* root = profile.StatsFor(plan.get());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->tuples_out.load(), got->size());
  EXPECT_EQ(root->opens.load(), 1u);
  OperatorStats* scan = profile.StatsFor(plan->left.get());
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(scan->pages_read.load(), 0u);
  // The scan node's tuples_out is the filter's output: rows with a in
  // [0, 49].
  EXPECT_EQ(scan->tuples_out.load(), 50u);
}

// Every batch a batch operator emits, materialized (all physical rows:
// the join emits no selection).
std::vector<std::vector<Tuple>> DrainBatches(BatchOperator* op) {
  std::vector<std::vector<Tuple>> batches;
  EXPECT_TRUE(op->Open().ok());
  ColumnBatch batch;
  bool eof = false;
  while (op->NextBatch(&batch, &eof).ok() && !eof) {
    EXPECT_FALSE(batch.has_selection());
    std::vector<Tuple>& rows = batches.emplace_back();
    for (uint32_t r = 0; r < batch.size(); ++r)
      rows.push_back(batch.MaterializeRow(r));
  }
  EXPECT_TRUE(eof);
  EXPECT_TRUE(op->Close().ok());
  return batches;
}

TEST_F(BatchExecTest, ProbeRowOvershootsTargetWholeInOneBatch) {
  // A shared build input with five rows of key 7 and one of key 8, probed
  // by r (every key once) at a 3-row target: key 7's five matches overshoot
  // the target in one batch, and key 8's match comes next, on its own.
  TempResult build;
  build.schema = Schema::PaperSchema();
  for (int i = 0; i < 5; ++i)
    build.tuples.push_back(
        Tuple({Value(int32_t{7}), Value("seven" + std::to_string(i))}));
  build.tuples.push_back(Tuple({Value(int32_t{8}), Value(std::monostate{})}));
  ExecContext ctx;
  ctx.batch_rows = 3;
  BatchHashJoinOp join(std::make_unique<BatchSeqScanOp>(r_, ctx), &build, 0,
                       0, ctx);
  const std::vector<std::vector<Tuple>> batches = DrainBatches(&join);
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(batches[0][i],
              Tuple({Value(int32_t{7}), Value(std::string("r7")),
                     Value(int32_t{7}), Value("seven" + std::to_string(i))}));
  }
  ASSERT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1][0],
            Tuple({Value(int32_t{8}), Value(std::string("r8")),
                   Value(int32_t{8}), Value(std::monostate{})}));
}

TEST_F(BatchExecTest, FanoutJoinMatchesTupleJoinInOrder) {
  // A seeded build side with 16 rows per key (some NULL text) in shuffled
  // order, probed by hits, misses and NULL keys. The batch join emits
  // HashJoinOp's rows in HashJoinOp's order: with an inline build, with a
  // shared build input, and under an emit mask.
  Rng rng(TestSeed(27));
  std::vector<int32_t> keys;
  for (int32_t k = 0; k < 40; ++k) keys.insert(keys.end(), 16, k);
  rng.Shuffle(&keys);
  Table* build =
      catalog_->CreateTable("fanout_build", Schema::PaperSchema()).value();
  for (size_t i = 0; i < keys.size(); ++i) {
    Value text = rng.NextBool(0.1) ? Value(std::monostate{})
                                   : Value("b" + std::to_string(i));
    ASSERT_TRUE(
        build->file().Append(Tuple({Value(keys[i]), std::move(text)})).ok());
  }
  ASSERT_TRUE(build->file().Flush().ok());
  Table* probe =
      catalog_->CreateTable("fanout_probe", Schema::PaperSchema()).value();
  for (int i = 0; i < 600; ++i) {
    Value key = rng.NextBool(0.1)
                    ? Value(std::monostate{})
                    : Value(static_cast<int32_t>(rng.NextInt(-5, 44)));
    ASSERT_TRUE(probe->file()
                    .Append(Tuple({std::move(key),
                                   Value("p" + std::to_string(i))}))
                    .ok());
  }
  ASSERT_TRUE(probe->file().Flush().ok());

  ExecContext plain;
  HashJoinOp tuple_join(std::make_unique<SeqScanOp>(probe, Predicate(), plain),
                        std::make_unique<SeqScanOp>(build, Predicate(), plain),
                        0, 0);
  auto want = Drain(&tuple_join);
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->size(), 0u);
  EXPECT_EQ(want->size() % 16, 0u);  // a probe row hits 16 rows or none

  SeqScanOp build_scan(build, Predicate(), plain);
  auto build_rows = Drain(&build_scan);
  ASSERT_TRUE(build_rows.ok());
  TempResult shared;
  shared.schema = Schema::PaperSchema();
  shared.tuples = std::move(*build_rows);

  // The emit mask keeps the probe key and the build text.
  const std::vector<uint8_t> mask = {1, 0, 0, 1};
  std::vector<Tuple> want_masked;
  for (const Tuple& t : *want) {
    want_masked.push_back(Tuple({t.value(0), Value(std::monostate{}),
                                 Value(std::monostate{}), t.value(3)}));
  }

  for (size_t batch_rows : {size_t{1024}, size_t{7}, size_t{1}}) {
    ExecContext ctx;
    ctx.batch_rows = batch_rows;
    for (int form = 0; form < 3; ++form) {
      std::unique_ptr<BatchOperator> join;
      auto outer = std::make_unique<BatchSeqScanOp>(probe, ctx);
      if (form == 0) {
        join = std::make_unique<BatchHashJoinOp>(
            std::move(outer), std::make_unique<BatchSeqScanOp>(build, ctx), 0,
            0, ctx);
      } else {
        join = std::make_unique<BatchHashJoinOp>(std::move(outer), &shared, 0,
                                                 0, ctx);
      }
      if (form == 2) join->PruneOutputColumns(mask);
      VectorizedAdapterOp adapter(std::move(join), nullptr);
      auto got = Drain(&adapter);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, form == 2 ? want_masked : *want)
          << "form " << form << ", batch_rows " << batch_rows;
    }
  }
}

// Forwards its child and counts the Next calls made after the child
// reported end of input.
class EofCountingOp : public Operator {
 public:
  EofCountingOp(std::unique_ptr<Operator> child, int* calls_after_eof)
      : child_(std::move(child)), calls_after_eof_(calls_after_eof) {}

  Status Open() override {
    done_ = false;
    return child_->Open();
  }
  Status Next(Tuple* out, bool* eof) override {
    if (done_) ++*calls_after_eof_;
    XPRS_RETURN_IF_ERROR(child_->Next(out, eof));
    done_ = *eof;
    return Status::OK();
  }
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<Operator> child_;
  int* const calls_after_eof_;
  bool done_ = false;
};

TEST_F(BatchExecTest, BatchFromTupleBridgesTupleSources) {
  // The bridge never asks its child again after end of input: a source on
  // a slave's slot would ask the shared partition for more pages.
  int calls_after_eof = 0;
  auto scan = std::make_unique<EofCountingOp>(
      std::make_unique<SeqScanOp>(s_, Predicate::Between(0, 0, 9), ctx_),
      &calls_after_eof);
  BatchFromTupleOp bridge(std::move(scan), /*batch_rows=*/7);
  ASSERT_TRUE(bridge.Open().ok());
  ColumnBatch batch;
  size_t rows = 0;
  bool eof = false;
  while (true) {
    ASSERT_TRUE(bridge.NextBatch(&batch, &eof).ok());
    if (eof) break;
    EXPECT_LE(batch.ActiveSize(), 7u);
    rows += batch.ActiveSize();
  }
  ASSERT_TRUE(bridge.Close().ok());
  EXPECT_EQ(rows, 20u);  // keys 0..9, each twice
  EXPECT_EQ(calls_after_eof, 0);
}

}  // namespace
}  // namespace xprs
