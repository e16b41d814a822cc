// Tests for expressions, plans, operators, and fragment decomposition.
// Join operators are cross-checked against each other and fragmented
// execution against the sequential reference executor.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <set>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "exec/plan.h"
#include "exec/spill_ops.h"
#include "storage/catalog.h"
#include "util/rng.h"

namespace xprs {
namespace {

// Fixture: a small database with two relations.
//   r(a, b): a = 0..199 (each value once), b short text
//   s(a, b): a = 0..99 duplicated twice, b short text
class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());

    r_ = catalog_->CreateTable("r", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(r_->file()
                      .Append(Tuple({Value(int32_t{i}),
                                     Value(std::string("r") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(r_->file().Flush().ok());
    ASSERT_TRUE(r_->BuildIndex(0).ok());
    ASSERT_TRUE(r_->ComputeStats().ok());

    s_ = catalog_->CreateTable("s", Schema::PaperSchema()).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(s_->file()
                      .Append(Tuple({Value(int32_t{i % 100}),
                                     Value(std::string("s") +
                                           std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE(s_->file().Flush().ok());
    ASSERT_TRUE(s_->BuildIndex(0).ok());
    ASSERT_TRUE(s_->ComputeStats().ok());
  }

  // Normalizes results for order-insensitive comparison.
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

TEST(PredicateTest, TrueAcceptsEverything) {
  Predicate p;
  EXPECT_TRUE(p.IsTrue());
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{1})})));
}

TEST(PredicateTest, CompareEvaluates) {
  Tuple t({Value(int32_t{10}), Value(std::string("x"))});
  EXPECT_TRUE(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{10})).Eval(t));
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kLt, Value(int32_t{10})).Eval(t));
  EXPECT_TRUE(Predicate::Compare(0, CmpOp::kLe, Value(int32_t{10})).Eval(t));
  EXPECT_TRUE(
      Predicate::Compare(1, CmpOp::kEq, Value(std::string("x"))).Eval(t));
}

TEST(PredicateTest, NullComparesFalse) {
  Tuple t({Value(std::monostate{})});
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{0})).Eval(t));
  EXPECT_FALSE(Predicate::Compare(0, CmpOp::kNe, Value(int32_t{0})).Eval(t));
}

TEST(PredicateTest, BetweenAndLogic) {
  Predicate p = Predicate::Between(0, 5, 10);
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{5})})));
  EXPECT_TRUE(p.Eval(Tuple({Value(int32_t{10})})));
  EXPECT_FALSE(p.Eval(Tuple({Value(int32_t{11})})));
  Predicate q = Predicate::Or(Predicate::Compare(0, CmpOp::kEq, Value(int32_t{1})),
                              Predicate::Compare(0, CmpOp::kEq, Value(int32_t{2})));
  EXPECT_TRUE(q.Eval(Tuple({Value(int32_t{2})})));
  EXPECT_FALSE(q.Eval(Tuple({Value(int32_t{3})})));
}

TEST(PredicateTest, ExtractKeyRangeNarrows) {
  KeyRange range{INT32_MIN, INT32_MAX};
  Predicate p = Predicate::Between(0, 5, 10);
  EXPECT_TRUE(p.ExtractKeyRange(0, &range));
  EXPECT_EQ(range.lo, 5);
  EXPECT_EQ(range.hi, 10);

  KeyRange range2{INT32_MIN, INT32_MAX};
  Predicate lt = Predicate::Compare(0, CmpOp::kLt, Value(int32_t{7}));
  EXPECT_TRUE(lt.ExtractKeyRange(0, &range2));
  EXPECT_EQ(range2.hi, 6);

  KeyRange range3{INT32_MIN, INT32_MAX};
  EXPECT_FALSE(lt.ExtractKeyRange(1, &range3));  // other column
  Predicate orp = Predicate::Or(lt, lt);
  EXPECT_FALSE(orp.ExtractKeyRange(0, &range3));  // OR is not a range
}

TEST(PredicateTest, ShiftColumns) {
  Predicate p = Predicate::Compare(1, CmpOp::kEq, Value(int32_t{5}));
  Predicate shifted = p.ShiftColumns(2);
  Tuple t({Value(int32_t{0}), Value(int32_t{0}), Value(int32_t{0}),
           Value(int32_t{5})});
  EXPECT_TRUE(shifted.Eval(t));
}

TEST_F(ExecTest, SeqScanReadsEverything) {
  SeqScanOp scan(r_, Predicate(), ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 200u);
  EXPECT_EQ(scan.pages_read(), r_->file().num_pages());
}

TEST_F(ExecTest, SeqScanAppliesPredicate) {
  SeqScanOp scan(r_, Predicate::Between(0, 50, 59), ctx_);
  auto rows = Drain(&scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST_F(ExecTest, IndexScanMatchesSeqScanFilter) {
  KeyRange range{20, 40};
  IndexScanOp iscan(r_, Predicate(), range, ctx_);
  auto via_index = Drain(&iscan);
  ASSERT_TRUE(via_index.ok());

  SeqScanOp sscan(r_, Predicate::Between(0, 20, 40), ctx_);
  auto via_seq = Drain(&sscan);
  ASSERT_TRUE(via_seq.ok());

  EXPECT_EQ(Normalize(*via_index), Normalize(*via_seq));
  EXPECT_EQ(iscan.tuples_fetched(), 21u);
}

TEST_F(ExecTest, IndexScanPaysRandomIo) {
  array_->ResetStats();
  KeyRange range{0, 199};
  IndexScanOp scan(r_, Predicate(), range, ctx_);
  ASSERT_TRUE(Drain(&scan).ok());
  DiskStats stats = array_->total_stats();
  // One page read per tuple, overwhelmingly random/short-seek.
  EXPECT_EQ(stats.reads, 200u);
  EXPECT_GT(stats.rand_reads + stats.almost_seq_reads, 150u);
}

TEST_F(ExecTest, FilterOp) {
  auto scan = std::make_unique<SeqScanOp>(r_, Predicate(), ctx_);
  FilterOp filter(std::move(scan),
                  Predicate::Compare(0, CmpOp::kLt, Value(int32_t{5})));
  auto rows = Drain(&filter);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST_F(ExecTest, SortOrdersRows) {
  auto scan = std::make_unique<SeqScanOp>(s_, Predicate(), ctx_);
  ExternalSortOp sort(std::move(scan), 0, SpillConfig());
  auto rows = Drain(&sort);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 200u);
  for (size_t i = 1; i < rows->size(); ++i) {
    EXPECT_LE(std::get<int32_t>((*rows)[i - 1].value(0)),
              std::get<int32_t>((*rows)[i].value(0)));
  }
}

// All three join algorithms must agree with each other.
TEST_F(ExecTest, JoinAlgorithmsAgree) {
  auto run = [&](PlanKind kind) {
    std::unique_ptr<PlanNode> plan;
    auto r_scan = MakeSeqScan(r_, Predicate::Between(0, 0, 80));
    auto s_scan = MakeSeqScan(s_, Predicate());
    switch (kind) {
      case PlanKind::kNestLoopJoin:
        plan = MakeNestLoopJoin(std::move(r_scan), std::move(s_scan), 0, 0);
        break;
      case PlanKind::kHashJoin:
        plan = MakeHashJoin(std::move(r_scan), std::move(s_scan), 0, 0);
        break;
      case PlanKind::kMergeJoin:
        plan = MakeMergeJoin(MakeSort(std::move(r_scan), 0),
                             MakeSort(std::move(s_scan), 0), 0, 0);
        break;
      default:
        ADD_FAILURE();
    }
    auto rows = ExecutePlanSequential(*plan, ctx_);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    return Normalize(*rows);
  };

  auto nl = run(PlanKind::kNestLoopJoin);
  auto hj = run(PlanKind::kHashJoin);
  auto mj = run(PlanKind::kMergeJoin);
  // r.a in [0,80] joins s.a in {0..99} x2 -> 81 keys x 2 = 162 rows.
  EXPECT_EQ(nl.size(), 162u);
  EXPECT_EQ(nl, hj);
  EXPECT_EQ(nl, mj);
}

// The row positions `table` holds under `key`, in entry order.
std::vector<uint32_t> Matches(const JoinHashTable& table, int32_t key) {
  std::vector<uint32_t> rows;
  const auto [first, last] = table.Bucket(key);
  for (uint32_t e = first; e < last; ++e)
    if (table.key(e) == key) rows.push_back(table.row(e));
  return rows;
}

TEST(JoinHashTableTest, EmptyAndAllNullInputsIndexNothing) {
  JoinHashTable table;
  table.Build(std::vector<Tuple>(), 0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(Matches(table, 0).empty());
  table.Build(std::vector<Tuple>(5, Tuple({Value(std::monostate{})})), 0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(Matches(table, 0).empty());
}

// Every key finds exactly its rows, duplicates in row order, at sizes on
// both sides of a power of two and at the int32 extremes; the key-array
// Build and the Tuple overload lay out the same table.
TEST(JoinHashTableTest, FindsEachKeysRowsInRowOrder) {
  for (size_t n : {1, 2, 3, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025}) {
    std::vector<int32_t> keys;
    std::vector<uint32_t> rows;
    std::vector<Tuple> tuples;
    std::map<int32_t, std::vector<uint32_t>> want;
    for (size_t i = 0; i < n; ++i) {
      if (i % 7 == 6) {  // NULL keys join nothing
        tuples.push_back(Tuple({Value(std::monostate{})}));
        continue;
      }
      const int32_t key = i % 5 == 0   ? INT32_MIN
                          : i % 5 == 1 ? INT32_MAX
                                       : static_cast<int32_t>(i / 3);
      keys.push_back(key);
      rows.push_back(static_cast<uint32_t>(i));
      tuples.push_back(Tuple({Value(key)}));
      want[key].push_back(static_cast<uint32_t>(i));
    }
    JoinHashTable from_keys;
    from_keys.Build(keys, rows);
    JoinHashTable from_tuples;
    from_tuples.Build(tuples, 0);
    ASSERT_EQ(from_keys.size(), keys.size()) << n;
    ASSERT_EQ(from_tuples.size(), keys.size()) << n;
    for (const auto& [key, positions] : want) {
      EXPECT_EQ(Matches(from_keys, key), positions) << n << " key " << key;
    }
    EXPECT_TRUE(Matches(from_keys, -1).empty()) << n;
    EXPECT_TRUE(Matches(from_keys, static_cast<int32_t>(n)).empty()) << n;
    for (uint32_t e = 0; e < from_keys.size(); ++e) {
      EXPECT_EQ(from_keys.key(e), from_tuples.key(e)) << n;
      EXPECT_EQ(from_keys.row(e), from_tuples.row(e)) << n;
    }
  }
}

TEST_F(ExecTest, JoinOutputSchemaIsConcatenation) {
  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(plan->output_schema.num_columns(), 4u);
}

TEST_F(ExecTest, IsLeftDeepClassification) {
  auto left_deep = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_TRUE(IsLeftDeep(*left_deep));

  auto bushy = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      0, 0);
  EXPECT_FALSE(IsLeftDeep(*bushy));
  EXPECT_EQ(PlanSize(*bushy), 7u);
}

TEST_F(ExecTest, CloneIsDeepAndEquivalent) {
  auto plan = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                            MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  auto copy = plan->Clone();
  auto a = ExecutePlanSequential(*plan, ctx_);
  auto b = ExecutePlanSequential(*copy, ctx_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(Normalize(*a), Normalize(*b));
}

TEST_F(ExecTest, FragmentDecompositionCounts) {
  // Single scan: one fragment.
  auto scan_plan = MakeSeqScan(r_, Predicate());
  EXPECT_EQ(FragmentGraph::Decompose(*scan_plan).fragments().size(), 1u);

  // Hash join: probe fragment + build fragment.
  auto hj = MakeHashJoin(MakeSeqScan(r_, Predicate()),
                         MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(FragmentGraph::Decompose(*hj).fragments().size(), 2u);

  // Merge join of two sorts: top fragment + two sort fragments.
  auto mj = MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate()), 0),
                          MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*mj);
  EXPECT_EQ(g.fragments().size(), 3u);
  EXPECT_EQ(g.fragment(g.root_fragment()).deps.size(), 2u);

  // Nest loop: everything pipelines -> one fragment.
  auto nl = MakeNestLoopJoin(MakeSeqScan(r_, Predicate()),
                             MakeSeqScan(s_, Predicate()), 0, 0);
  EXPECT_EQ(FragmentGraph::Decompose(*nl).fragments().size(), 1u);
}

TEST_F(ExecTest, TopologicalOrderRespectsDeps) {
  auto plan = MakeHashJoin(
      MakeHashJoin(MakeSeqScan(r_, Predicate()), MakeSeqScan(s_, Predicate()),
                   0, 0),
      MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0);
  FragmentGraph g = FragmentGraph::Decompose(*plan);
  auto order = g.TopologicalOrder();
  std::map<int, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& f : g.fragments())
    for (int dep : f.deps) EXPECT_LT(pos[dep], pos[f.id]);
}

TEST_F(ExecTest, FragmentedExecutionMatchesSequential) {
  // A bushy plan exercising every boundary kind.
  auto bushy = MakeHashJoin(
      MakeMergeJoin(MakeSort(MakeSeqScan(r_, Predicate::Between(0, 0, 120)), 0),
                    MakeSort(MakeSeqScan(s_, Predicate()), 0), 0, 0),
      MakeHashJoin(MakeSeqScan(r_, Predicate()),
                   MakeSeqScan(s_, Predicate::Between(0, 10, 60)), 0, 0),
      0, 0);

  auto seq = ExecutePlanSequential(*bushy, ctx_);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  auto frag = ExecutePlanFragmented(*bushy, ctx_);
  ASSERT_TRUE(frag.ok()) << frag.status().ToString();
  EXPECT_EQ(Normalize(*seq), Normalize(*frag));
  EXPECT_FALSE(seq->empty());
}

TEST_F(ExecTest, BufferPoolPathAgreesWithDirectPath) {
  BufferPool pool(array_.get(), 64);
  ExecContext pooled;
  pooled.pool = &pool;

  auto plan = MakeHashJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 99)),
                           MakeSeqScan(s_, Predicate()), 0, 0);
  auto direct = ExecutePlanSequential(*plan, ctx_);
  auto buffered = ExecutePlanSequential(*plan, pooled);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(Normalize(*direct), Normalize(*buffered));
  EXPECT_GT(pool.stats().misses, 0u);
}

TEST_F(ExecTest, NestLoopInnerRescanPaysIo) {
  array_->ResetStats();
  auto plan = MakeNestLoopJoin(MakeSeqScan(r_, Predicate::Between(0, 0, 9)),
                               MakeSeqScan(s_, Predicate()), 0, 0);
  auto rows = ExecutePlanSequential(*plan, ctx_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 20u);  // 10 keys x 2 dup in s
  // Inner rescans: io grows with outer cardinality.
  EXPECT_GT(array_->total_stats().reads,
            static_cast<uint64_t>(r_->file().num_pages() +
                                  s_->file().num_pages()));
}

}  // namespace
}  // namespace xprs
