// Open-failure resource-balance regression tests. Blocking operators
// (hash join, sort, aggregate, merge join — tuple and batch variants)
// drain a child inside Open(); when that drain fails the operator must
// close every child it opened before returning, releasing any pinned
// buffer-pool frames. Drain() was the only caller that papered over the
// old leak by never Closing after a failed Open — these tests pin the
// convention down with a counting wrapper and storage fault injection.

#include <gtest/gtest.h>

#include "exec/batch_ops.h"
#include "exec/executor.h"
#include "exec/plan.h"
#include "exec/spill_ops.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/fault_injector.h"

namespace xprs {
namespace {

// Counting wrapper: tracks Open/Close balance and can fail Open outright
// or fail Next after a set number of successful calls.
class HookOp : public Operator {
 public:
  struct Counters {
    int opens = 0;
    int closes = 0;
  };

  HookOp(std::unique_ptr<Operator> child, Counters* counters,
         int fail_next_after = -1, bool fail_open = false)
      : child_(std::move(child)),
        counters_(counters),
        fail_next_after_(fail_next_after),
        fail_open_(fail_open) {}

  Status Open() override {
    if (fail_open_) return Status::Internal("injected open failure");
    XPRS_RETURN_IF_ERROR(child_->Open());
    ++counters_->opens;
    nexts_ = 0;
    return Status::OK();
  }

  Status Next(Tuple* out, bool* eof) override {
    if (fail_next_after_ >= 0 && nexts_ >= fail_next_after_)
      return Status::Internal("injected next failure");
    ++nexts_;
    return child_->Next(out, eof);
  }

  Status Close() override {
    ++counters_->closes;
    return child_->Close();
  }

  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<Operator> child_;
  Counters* const counters_;
  const int fail_next_after_;
  const bool fail_open_;
  int nexts_ = 0;
};

class OpenLeakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(t_->file()
                      .Append(Tuple({Value(int32_t{i % 40}),
                                     Value(std::string(30, 'x'))}))
                      .ok());
    }
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_TRUE(t_->ComputeStats().ok());
  }

  std::unique_ptr<Operator> Scan(const ExecContext& ctx) {
    return std::make_unique<SeqScanOp>(t_, Predicate(), ctx);
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
  ExecContext ctx_;
};

TEST_F(OpenLeakTest, HashJoinOpenFailureClosesInner) {
  // The build-side Next fails mid-drain; the inner child was open and must
  // be closed on the failure exit.
  HookOp::Counters inner;
  HashJoinOp join(Scan(ctx_),
                  std::make_unique<HookOp>(Scan(ctx_), &inner,
                                           /*fail_next_after=*/3),
                  0, 0);
  ASSERT_FALSE(join.Open().ok());
  EXPECT_EQ(inner.opens, 1);
  EXPECT_EQ(inner.closes, 1);
}

TEST_F(OpenLeakTest, HashJoinOpenFailureReleasesPinnedFrames) {
  // A pooled scan holds its current page pinned across Next calls; a
  // build-phase failure must not leak that pin. This is the original bug:
  // HashJoinOp::Open returned without closing the mid-page inner scan.
  BufferPool pool(array_.get(), 8);
  ExecContext pooled;
  pooled.pool = &pool;
  HookOp::Counters inner;
  HashJoinOp join(Scan(pooled),
                  std::make_unique<HookOp>(Scan(pooled), &inner,
                                           /*fail_next_after=*/3),
                  0, 0);
  ASSERT_FALSE(join.Open().ok());
  EXPECT_EQ(inner.closes, 1);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST_F(OpenLeakTest, HashJoinFetchFaultLeavesZeroPins) {
  // End-to-end variant through the executor: a pool-level fetch fault
  // fires mid-build and the whole failed query must leave zero pins.
  BufferPool pool(array_.get(), 8);
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.fail_nth_fetch = 3;
  injector.Arm(script);
  pool.SetFaultInjector(&injector);
  ExecContext ctx;
  ctx.pool = &pool;
  auto plan = MakeHashJoin(MakeSeqScan(t_, Predicate()),
                           MakeSeqScan(t_, Predicate()), 0, 0);
  auto rows = ExecutePlanSequential(*plan, ctx);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.SetFaultInjector(nullptr);
}

TEST_F(OpenLeakTest, VectorizedHashJoinFetchFaultLeavesZeroPins) {
  BufferPool pool(array_.get(), 8);
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.fail_nth_fetch = 3;
  injector.Arm(script);
  pool.SetFaultInjector(&injector);
  ExecContext ctx;
  ctx.pool = &pool;
  auto plan = MakeHashJoin(MakeSeqScan(t_, Predicate()),
                           MakeSeqScan(t_, Predicate()), 0, 0);
  auto rows = ExecutePlanVectorized(*plan, ctx);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.SetFaultInjector(nullptr);
}

TEST_F(OpenLeakTest, SortOpenFailureClosesChild) {
  HookOp::Counters child;
  ExternalSortOp sort(std::make_unique<HookOp>(Scan(ctx_), &child,
                                               /*fail_next_after=*/5),
                      0, SpillConfig());
  ASSERT_FALSE(sort.Open().ok());
  EXPECT_EQ(child.opens, 1);
  EXPECT_EQ(child.closes, 1);
}

TEST_F(OpenLeakTest, AggregateOpenFailureClosesChild) {
  HookOp::Counters child;
  AggregateOp agg(std::make_unique<HookOp>(Scan(ctx_), &child,
                                           /*fail_next_after=*/5),
                  Schema({{"key"}, {"agg"}}), AggFunc::kSum, 0, 0);
  ASSERT_FALSE(agg.Open().ok());
  EXPECT_EQ(child.opens, 1);
  EXPECT_EQ(child.closes, 1);
}

TEST_F(OpenLeakTest, MergeJoinOpenFailureClosesOpenedChildren) {
  // The inner child's Open fails after the outer was opened: the outer
  // must be closed on the way out.
  HookOp::Counters outer;
  HookOp::Counters inner;  // never opened; its Close tolerates that
  MergeJoinOp join(std::make_unique<HookOp>(Scan(ctx_), &outer),
                   std::make_unique<HookOp>(Scan(ctx_), &inner,
                                            /*fail_next_after=*/-1,
                                            /*fail_open=*/true),
                   0, 0);
  ASSERT_FALSE(join.Open().ok());
  EXPECT_EQ(outer.opens, 1);
  EXPECT_EQ(outer.closes, 1);
  EXPECT_EQ(inner.opens, 0);
}

TEST_F(OpenLeakTest, BatchHashJoinOpenFailureClosesInner) {
  HookOp::Counters inner;
  auto bridge = std::make_unique<BatchFromTupleOp>(
      std::make_unique<HookOp>(Scan(ctx_), &inner, /*fail_next_after=*/3),
      /*batch_rows=*/16);
  auto outer = std::make_unique<BatchSeqScanOp>(t_, ctx_);
  BatchHashJoinOp join(std::move(outer), std::move(bridge), 0, 0, ctx_);
  ASSERT_FALSE(join.Open().ok());
  EXPECT_EQ(inner.opens, 1);
  EXPECT_EQ(inner.closes, 1);
}

TEST_F(OpenLeakTest, BatchAggregateOpenFailureClosesChild) {
  HookOp::Counters child;
  auto bridge = std::make_unique<BatchFromTupleOp>(
      std::make_unique<HookOp>(Scan(ctx_), &child, /*fail_next_after=*/5),
      /*batch_rows=*/16);
  BatchAggregateOp agg(std::move(bridge), Schema({{"key"}, {"agg"}}),
                       AggFunc::kSum, 0, 0, ctx_);
  ASSERT_FALSE(agg.Open().ok());
  EXPECT_EQ(child.opens, 1);
  EXPECT_EQ(child.closes, 1);
}

TEST_F(OpenLeakTest, DrainClosesOnNextError) {
  // Drain opens successfully, then hits a mid-stream Next error: it must
  // still close the operator (releasing scan pins) before surfacing.
  HookOp::Counters hook;
  HookOp op(Scan(ctx_), &hook, /*fail_next_after=*/2);
  auto rows = Drain(&op);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(hook.opens, 1);
  EXPECT_EQ(hook.closes, 1);
}

TEST_F(OpenLeakTest, FailedOpenLeavesOperatorReopenable) {
  // The self-cleanup path must reset state: after a failed Open the same
  // operator opens and runs clean.
  int calls = 0;
  class FlakyOp : public Operator {
   public:
    FlakyOp(std::unique_ptr<Operator> child, int* calls)
        : child_(std::move(child)), calls_(calls) {}
    Status Open() override { return child_->Open(); }
    Status Next(Tuple* out, bool* eof) override {
      if (++*calls_ == 3) return Status::Internal("transient");
      return child_->Next(out, eof);
    }
    Status Close() override { return child_->Close(); }
    const Schema& schema() const override { return child_->schema(); }

   private:
    std::unique_ptr<Operator> child_;
    int* const calls_;
  };

  HashJoinOp join(Scan(ctx_),
                  std::make_unique<FlakyOp>(Scan(ctx_), &calls), 0, 0);
  ASSERT_FALSE(join.Open().ok());
  ASSERT_TRUE(join.Open().ok());
  auto rows = Drain(&join);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4000u);  // 400 rows, 10 matches per key
}

}  // namespace
}  // namespace xprs
