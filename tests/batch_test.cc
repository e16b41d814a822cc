// Tests for the vectorized (batch-at-a-time) execution path: ColumnBatch
// and selection-vector edge cases, Predicate::FilterBatch, and the batch
// operators cross-checked against the tuple reference executor — including
// NULL keys, empty inputs, tiny batch sizes, cancellation, pooled pin
// balance, and profiled stats ownership.

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

TEST(ColumnBatchTest, AddRowStartsAllNull) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch batch;
  batch.Reset(&schema);
  uint32_t r = batch.AddRow();
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
  for (int i = 0; i < 5; ++i) {
    uint32_t r = batch.AddRow();
    batch.SetInt(0, r, i);
  }
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
  batch.AddRow();
  batch.SetSelection({0});
  batch.Reset(&schema);
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_FALSE(batch.has_selection());
}

TEST(ColumnBatchTest, AppendRowFromAndConcat) {
  Schema schema = Schema::PaperSchema();
  ColumnBatch a, b, out;
  a.Reset(&schema);
  b.Reset(&schema);
  uint32_t ra = a.AddRow();
  a.SetInt(0, ra, 1);
  a.SetText(1, ra, "left", 4);
  uint32_t rb = b.AddRow();
  b.SetInt(0, rb, 2);  // column 1 stays NULL

  ColumnBatch copy;
  copy.Reset(&schema);
  copy.AppendRowFrom(a, ra);
  EXPECT_EQ(copy.MaterializeRow(0), a.MaterializeRow(ra));

  Schema joined = Schema::Concat(schema, schema);
  out.Reset(&joined);
  out.AppendConcatRow(a, ra, b, rb);
  Tuple row = out.MaterializeRow(0);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row.value(0), Value(int32_t{1}));
  EXPECT_EQ(row.value(1), Value(std::string("left")));
  EXPECT_EQ(row.value(2), Value(int32_t{2}));
  EXPECT_TRUE(IsNull(row.value(3)));
}

// ------------------------------------------------------------ FilterBatch

class FilterBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::PaperSchema();
    batch_.Reset(&schema_);
    // a = 0..9, b = "t<i>"; row 5 has NULL a.
    for (int i = 0; i < 10; ++i) {
      uint32_t r = batch_.AddRow();
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
