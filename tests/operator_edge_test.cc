// Edge-case coverage for the Volcano operators: empty inputs, all-null
// keys, single-row inputs, rescans, and operator re-opening.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/operators.h"
#include "exec/spill_ops.h"
#include "storage/catalog.h"

namespace xprs {
namespace {

class OperatorEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(2, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    empty_ = Make("empty", {});
    one_ = Make("one", {5});
    nulls_ = catalog_->CreateTable("nulls", Schema::PaperSchema()).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(nulls_->file()
                      .Append(Tuple({Value(std::monostate{}),
                                     Value(std::string("n"))}))
                      .ok());
    }
    ASSERT_TRUE(nulls_->file().Flush().ok());
    ASSERT_TRUE(nulls_->ComputeStats().ok());
    filled_ = Make("filled", {1, 2, 2, 3, 3, 3});
  }

  Table* Make(const std::string& name, std::vector<int32_t> keys) {
    Table* t = catalog_->CreateTable(name, Schema::PaperSchema()).value();
    for (int32_t k : keys) {
      EXPECT_TRUE(
          t->file().Append(Tuple({Value(k), Value(std::string("x"))})).ok());
    }
    EXPECT_TRUE(t->file().Flush().ok());
    EXPECT_TRUE(t->ComputeStats().ok());
    return t;
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* empty_ = nullptr;
  Table* one_ = nullptr;
  Table* nulls_ = nullptr;
  Table* filled_ = nullptr;
  ExecContext ctx_;
};

TEST_F(OperatorEdgeTest, ScanOfEmptyRelation) {
  SeqScanOp scan(empty_, Predicate(), ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(OperatorEdgeTest, JoinsWithEmptyInputs) {
  for (auto kind :
       {PlanKind::kNestLoopJoin, PlanKind::kHashJoin, PlanKind::kMergeJoin}) {
    auto make = [&](Table* l, Table* r) -> std::unique_ptr<PlanNode> {
      auto ls = MakeSeqScan(l, Predicate());
      auto rs = MakeSeqScan(r, Predicate());
      switch (kind) {
        case PlanKind::kNestLoopJoin:
          return MakeNestLoopJoin(std::move(ls), std::move(rs), 0, 0);
        case PlanKind::kHashJoin:
          return MakeHashJoin(std::move(ls), std::move(rs), 0, 0);
        default:
          return MakeMergeJoin(MakeSort(std::move(ls), 0),
                               MakeSort(std::move(rs), 0), 0, 0);
      }
    };
    for (auto [l, r] : {std::pair{empty_, filled_}, {filled_, empty_},
                        {empty_, empty_}}) {
      auto rows = ExecutePlanSequential(*make(l, r), ctx_);
      ASSERT_TRUE(rows.ok()) << PlanKindName(kind);
      EXPECT_TRUE(rows->empty()) << PlanKindName(kind);
    }
  }
}

TEST_F(OperatorEdgeTest, AllNullKeysJoinNothing) {
  for (auto kind :
       {PlanKind::kNestLoopJoin, PlanKind::kHashJoin, PlanKind::kMergeJoin}) {
    auto ls = MakeSeqScan(nulls_, Predicate());
    auto rs = MakeSeqScan(filled_, Predicate());
    std::unique_ptr<PlanNode> plan;
    switch (kind) {
      case PlanKind::kNestLoopJoin:
        plan = MakeNestLoopJoin(std::move(ls), std::move(rs), 0, 0);
        break;
      case PlanKind::kHashJoin:
        plan = MakeHashJoin(std::move(ls), std::move(rs), 0, 0);
        break;
      default:
        plan = MakeMergeJoin(MakeSort(std::move(ls), 0),
                             MakeSort(std::move(rs), 0), 0, 0);
        break;
    }
    auto rows = ExecutePlanSequential(*plan, ctx_);
    ASSERT_TRUE(rows.ok()) << PlanKindName(kind);
    EXPECT_TRUE(rows->empty()) << PlanKindName(kind);
  }
}

TEST_F(OperatorEdgeTest, SingleRowJoin) {
  auto plan = MakeHashJoin(MakeSeqScan(one_, Predicate()),
                           MakeSeqScan(one_, Predicate()), 0, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
}

TEST_F(OperatorEdgeTest, MergeJoinDuplicateGroupsCrossProduct) {
  // 2x'2' joins 2x'2' -> 4; 3x'3' joins 3x'3' -> 9; 1x'1' -> 1. Total 14.
  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(filled_, Predicate()), 0),
                            MakeSort(MakeSeqScan(filled_, Predicate()), 0),
                            0, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 14u);
}

TEST_F(OperatorEdgeTest, OperatorReopenProducesSameRows) {
  auto plan = MakeHashJoin(MakeSeqScan(filled_, Predicate()),
                           MakeSeqScan(one_, Predicate()), 0, 0);
  auto op = BuildOperatorTree(*plan, ctx_);
  ASSERT_TRUE(op.ok());
  auto first = Drain(op->get());
  auto second = Drain(op->get());  // Drain re-opens
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->size(), second->size());
}

TEST_F(OperatorEdgeTest, FilterChain) {
  auto scan = std::make_unique<SeqScanOp>(filled_, Predicate(), ctx_);
  auto f1 = std::make_unique<FilterOp>(
      std::move(scan), Predicate::Compare(0, CmpOp::kGe, Value(int32_t{2})));
  FilterOp f2(std::move(f1),
              Predicate::Compare(0, CmpOp::kLe, Value(int32_t{2})));
  auto rows = Drain(&f2);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);  // the two 2s
}

TEST_F(OperatorEdgeTest, TempSourceRoundTrip) {
  TempResult temp;
  temp.schema = filled_->schema();
  SeqScanOp scan(filled_, Predicate(), ctx_);
  temp.tuples = Drain(&scan).value();

  TempSourceOp source(&temp);
  auto rows = Drain(&source);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), temp.tuples.size());
}

TEST_F(OperatorEdgeTest, SortStability) {
  // Equal keys must keep their scan order (stable sort).
  auto scan = std::make_unique<SeqScanOp>(filled_, Predicate(), ctx_);
  ExternalSortOp sort(std::move(scan), 0, SpillConfig());
  auto rows = Drain(&sort);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE(std::get<int32_t>((*rows)[i - 1].value(0)),
              std::get<int32_t>((*rows)[i].value(0)));
  }
}

TEST_F(OperatorEdgeTest, IndexScanEmptyRange) {
  Table* t = Make("idx", {1, 2, 3});
  ASSERT_TRUE(t->BuildIndex(0).ok());
  IndexScanOp scan(t, Predicate(), KeyRange{10, 20}, ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

}  // namespace
}  // namespace xprs
