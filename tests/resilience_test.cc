// Resilience subsystem tests: cancellation tokens and deadlines (checked
// from the serial executor, the parallel master and the SQL front door,
// always with zero pinned frames left behind), the fragment retry /
// degrade ladder, and buffer-pool backpressure with inline retry.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "opt/cost_model.h"
#include "parallel/master.h"
#include "resilience/cancellation.h"
#include "resilience/retry.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"
#include "util/rng.h"

namespace xprs {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    array_ = std::make_unique<DiskArray>(4, DiskMode::kInstant);
    catalog_ = std::make_unique<Catalog>(array_.get());
    t_ = catalog_->CreateTable("t", Schema::PaperSchema()).value();
    for (int i = 0; i < 800; ++i) {
      ASSERT_TRUE(t_->file()
                      .Append(Tuple({Value(int32_t{i % 60}),
                                     Value(std::string(40, 'r'))}))
                      .ok());
    }
    ASSERT_TRUE(t_->file().Flush().ok());
    ASSERT_TRUE(t_->BuildIndex(0).ok());
    ASSERT_TRUE(t_->ComputeStats().ok());
  }

  std::unique_ptr<PlanNode> JoinPlan() {
    return MakeHashJoin(MakeSeqScan(t_, Predicate()),
                        MakeSeqScan(t_, Predicate()), 0, 0);
  }

  std::unique_ptr<DiskArray> array_;
  std::unique_ptr<Catalog> catalog_;
  Table* t_ = nullptr;
};

TEST_F(ResilienceTest, TokenLatchesFirstTerminalState) {
  CancellationToken token;
  EXPECT_TRUE(token.Check().ok());
  EXPECT_FALSE(token.cancelled());

  token.Cancel("user abort");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);

  // An expiring deadline cannot override the latched cancellation.
  token.SetDeadlineAfterMs(0);
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);

  CancellationToken deadline;
  deadline.SetDeadlineAfterMs(0);
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
  // ... and the deadline latches too: a later Cancel changes nothing.
  deadline.Cancel("too late");
  EXPECT_EQ(deadline.Check().code(), StatusCode::kDeadlineExceeded);
}

// A 0 ms deadline must return DeadlineExceeded from the serial executor —
// not crash, not run to completion — with every pin released.
TEST_F(ResilienceTest, ZeroDeadlineSerialExecutor) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;
  auto rows = ExecutePlanSequential(*JoinPlan(), ctx);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// Same bar for the parallel master: the control loop is a cancellation
// point even while slaves run, and the cancel event is published.
TEST_F(ResilienceTest, ZeroDeadlineParallelMaster) {
  MetricsRegistry metrics;
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  CostModel model;
  MasterOptions options;
  options.ctx.pool = &pool;
  options.ctx.cancel = &token;
  options.obs.metrics = &metrics;
  auto plan = JoinPlan();
  ParallelMaster master(MachineConfig::PaperConfig(), &model, options);
  auto result = master.Run({{plan.get(), 1}});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_GE(metrics.counter("resilience.cancel.deadline")->value(), 1u);
  // Cancellation is terminal: the ladder must not burn retry budget (or
  // sleep) on a query the user already gave up on.
  EXPECT_EQ(metrics.counter("resilience.retry.fragment")->value(), 0u);
  EXPECT_EQ(metrics.counter("resilience.degrade.parallelism")->value(), 0u);
  EXPECT_EQ(metrics.counter("resilience.degrade.serial")->value(), 0u);
}

// The SQL front door honors the token from planning onwards.
TEST_F(ResilienceTest, SqlEngineHonorsDeadline) {
  CostModel model;
  SqlEngine engine(catalog_.get(), MachineConfig::PaperConfig(), &model);
  CancellationToken token;
  token.SetDeadlineAfterMs(0);
  ExecContext ctx;
  ctx.cancel = &token;
  auto result = engine.Execute("SELECT * FROM t", ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Cancelling while a scan holds a pooled page: the scan serves out its
// current page, then surfaces Cancelled and drops the pin.
TEST_F(ResilienceTest, CancelMidScanReleasesPinnedPage) {
  BufferPool pool(array_.get(), 8);
  CancellationToken token;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.cancel = &token;
  SeqScanOp scan(t_, Predicate(), ctx);
  ASSERT_TRUE(scan.Open().ok());
  Tuple tuple;
  bool eof = false;
  ASSERT_TRUE(scan.Next(&tuple, &eof).ok());
  ASSERT_FALSE(eof);
  EXPECT_GT(pool.PinnedFrames(), 0u);  // the current page is pinned

  token.Cancel("user abort");
  Status status;
  do {
    status = scan.Next(&tuple, &eof);
  } while (status.ok() && !eof);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

// A transient fault is absorbed by the fragment retry rung, and the
// recovery is visible as a metric and a trace event.
TEST_F(ResilienceTest, FragmentRetryRecoversTransientFault) {
  MetricsRegistry metrics;
  MemoryTraceRecorder trace;
  CostModel model;
  MasterOptions options;
  options.retry.initial_backoff_ms = 0;
  options.obs.metrics = &metrics;
  options.obs.trace = &trace;
  auto plan = MakeSeqScan(t_, Predicate());
  ParallelMaster master(MachineConfig::PaperConfig(), &model, options);
  array_->FailNextReads(1);
  auto result = master.Run({{plan.get(), 1}});
  array_->FailNextReads(0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->query_results.at(1).size(), 800u);
  EXPECT_GE(result->fragment_retries, 1u);
  EXPECT_GE(metrics.counter("resilience.retry.fragment")->value(), 1u);
  bool saw_event = false;
  for (const TraceEvent& event : trace.snapshot()) {
    if (event.category == "resilience") saw_event = true;
  }
  EXPECT_TRUE(saw_event);
}

// Fails every read issued off the master thread; the serial fallback
// (which runs on the master thread) is the only rung that can succeed.
class SlaveOnlyFaultInjector : public FaultInjector {
 public:
  explicit SlaveOnlyFaultInjector(std::thread::id master) : master_(master) {}
  Status BeforeRead(BlockId) override {
    if (std::this_thread::get_id() == master_) return Status::OK();
    return Status::IoError("injected slave-side read fault");
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }
  Status BeforeFetch(BlockId) override { return Status::OK(); }

 private:
  const std::thread::id master_;
};

// A fault that persists across every parallel attempt walks the whole
// ladder — retry, halve, halve, ... — and lands on the serial executor.
TEST_F(ResilienceTest, DegradeToSerialFallback) {
  MetricsRegistry metrics;
  SlaveOnlyFaultInjector injector(std::this_thread::get_id());
  array_->SetFaultInjector(&injector);
  CostModel model;
  MasterOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0;
  options.obs.metrics = &metrics;
  auto plan = MakeSeqScan(t_, Predicate());
  ParallelMaster master(MachineConfig::PaperConfig(), &model, options);
  auto result = master.Run({{plan.get(), 1}});
  array_->SetFaultInjector(nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->query_results.at(1).size(), 800u);
  EXPECT_EQ(result->serial_fallbacks, 1u);
  EXPECT_GE(result->fragment_retries, 1u);
  EXPECT_GE(metrics.counter("resilience.degrade.serial")->value(), 1u);
}

// Admission control: once pinned frames reach the soft limit, misses are
// refused with ResourceExhausted while hits on resident pages still serve
// (refusing re-pins would livelock the holder).
TEST_F(ResilienceTest, SoftPinLimitRefusesMissesNotHits) {
  BufferPool pool(array_.get(), 8);
  pool.SetSoftPinLimit(1);
  BlockId b0 = t_->file().BlockOf(0).value();
  BlockId b1 = t_->file().BlockOf(1).value();

  auto held = pool.Fetch(b0);
  ASSERT_TRUE(held.ok());
  auto refused = pool.Fetch(b1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  auto hit = pool.Fetch(b0);
  EXPECT_TRUE(hit.ok());
}

// FetchWithBackpressure keeps retrying while another query drains its
// pins, then succeeds; the waiting shows up as backpressure.retry events.
TEST_F(ResilienceTest, BackpressureRetryRecoversWhenPinsDrain) {
  MetricsRegistry metrics;
  BufferPool pool(array_.get(), 8);
  pool.SetSoftPinLimit(1);
  BlockId b0 = t_->file().BlockOf(0).value();
  BlockId b1 = t_->file().BlockOf(1).value();

  std::optional<PageHandle> held(pool.Fetch(b0).value());
  RetryPolicy retry;
  retry.max_attempts = 200;
  retry.initial_backoff_ms = 1;
  retry.backoff_multiplier = 1.0;
  retry.max_backoff_ms = 1;
  ExecContext ctx;
  ctx.pool = &pool;
  ctx.fetch_retry = &retry;
  ctx.obs.metrics = &metrics;

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    held.reset();
  });
  auto handle = FetchWithBackpressure(ctx, b1);
  releaser.join();
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_GE(metrics.counter("resilience.backpressure.retry")->value(), 1u);
}

}  // namespace
}  // namespace xprs
