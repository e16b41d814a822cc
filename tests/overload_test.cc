// Overload-control suite: the health state machine (escalation on fault
// rate / queue depth / memory pressure, monotone dwell-gated recovery),
// per-domain circuit breakers (open -> half-open -> closed, failed-probe
// re-open), poison-query quarantine with synchronous fast-reject, the
// preemptable cancellation token (hard Cancel beats Preempt), jittered
// backoff bounds, and the scheduler's emergency memory reclaim preempting
// the lowest-priority running query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "resilience/cancellation.h"
#include "resilience/retry.h"
#include "serve/overload.h"
#include "serve/query_scheduler.h"
#include "util/rng.h"

namespace xprs {
namespace {

void SleepMs(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// The controller, breaker and poison-log thresholds are constants; each
// case drives them by name.
using Controller = OverloadController;

// ------------------------------------------------------ OverloadController

TEST(OverloadControllerTest, FaultRateEscalatesToShedding) {
  MetricsRegistry metrics;
  Observability obs;
  obs.metrics = &metrics;
  OverloadController controller(obs);
  ASSERT_EQ(controller.state(), HealthState::kHealthy);

  // Below kMinSamples nothing fires, even at 100% failures.
  for (size_t i = 0; i + 1 < Controller::kMinSamples; ++i)
    controller.RecordOutcome(true);
  controller.Evaluate(OverloadSignals{});
  EXPECT_EQ(controller.state(), HealthState::kHealthy);

  // Crossing kMinSamples with every outcome failed => fault rate 1.0,
  // escalation to shedding is immediate (no dwell on the way up).
  controller.RecordOutcome(true);
  controller.Evaluate(OverloadSignals{});
  EXPECT_EQ(controller.state(), HealthState::kShedding);
  EXPECT_TRUE(controller.reached(HealthState::kShedding));

  // Shedding rejects default-priority work but admits priority >= floor.
  Status shed = controller.AdmissionCheck(Controller::kShedPriorityFloor - 1);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(OverloadController::IsOverloadShed(shed));
  EXPECT_FALSE(OverloadController::IsOverloadShed(
      Status::ResourceExhausted("all frames pinned")));
  EXPECT_TRUE(controller.AdmissionCheck(Controller::kShedPriorityFloor).ok());
  EXPECT_EQ(controller.sheds(), 1u);
  EXPECT_EQ(metrics.counter("overload.shed")->value(), 1u);
  EXPECT_EQ(metrics.gauge("overload.state")->value(),
            static_cast<int64_t>(HealthState::kShedding));
}

TEST(OverloadControllerTest, QueueAndMemorySignalsEscalate) {
  Observability obs;
  OverloadController controller(obs);

  OverloadSignals signals;
  signals.queue_frac = Controller::kDegradedQueueFrac;  // < shedding's
  controller.Evaluate(signals);
  EXPECT_EQ(controller.state(), HealthState::kDegraded);
  EXPECT_DOUBLE_EQ(controller.budget_scale(), Controller::kDegradedBudgetScale);
  EXPECT_DOUBLE_EQ(controller.queue_scale(), 1.0);  // only shrinks shedding
  // Degraded sheds no priority; only shedding does.
  EXPECT_TRUE(controller.AdmissionCheck(-100).ok());
  EXPECT_EQ(controller.sheds(), 0u);

  signals.queue_frac = Controller::kSheddingQueueFrac;
  controller.Evaluate(signals);
  EXPECT_EQ(controller.state(), HealthState::kShedding);
  EXPECT_DOUBLE_EQ(controller.budget_scale(), Controller::kSheddingBudgetScale);
  EXPECT_DOUBLE_EQ(controller.queue_scale(), Controller::kSheddingQueueScale);

  // The scheduler's mem_frac alone escalates too.
  OverloadController squeezed(obs);
  signals = OverloadSignals{};
  signals.mem_frac = Controller::kDegradedMemFrac;
  squeezed.Evaluate(signals);
  EXPECT_EQ(squeezed.state(), HealthState::kDegraded);

  // The buffer-pool probe is max-ed with the scheduler's own mem_frac.
  OverloadController probed(obs);
  probed.SetMemoryProbe([] { return Controller::kSheddingMemFrac; });
  probed.Evaluate(OverloadSignals{});
  EXPECT_EQ(probed.state(), HealthState::kShedding);
}

TEST(OverloadControllerTest, RecoveryIsMonotoneAndDwellGated) {
  Observability obs;
  OverloadController controller(obs);

  for (size_t i = 0; i < Controller::kWindow; ++i)
    controller.RecordOutcome(true);
  controller.Evaluate(OverloadSignals{});
  ASSERT_EQ(controller.state(), HealthState::kShedding);

  // A window of clean outcomes pushes the failures out...
  for (size_t i = 0; i < Controller::kWindow; ++i)
    controller.RecordOutcome(false);
  // ...but one clean evaluation does not step down: recovery needs
  // kRecoveryCleanEvals consecutive clean looks AND the dwell.
  controller.Evaluate(OverloadSignals{});
  EXPECT_EQ(controller.state(), HealthState::kShedding);

  // Keep evaluating past the dwell; the controller must pass through
  // degraded (one level per step), never jump shedding -> healthy.
  for (int i = 0; i < 200 && controller.state() != HealthState::kHealthy;
       ++i) {
    SleepMs(5);
    controller.Evaluate(OverloadSignals{});
  }
  ASSERT_EQ(controller.state(), HealthState::kHealthy);

  std::vector<OverloadTransition> transitions = controller.transitions();
  ASSERT_EQ(transitions.size(), 3u);
  for (size_t i = 0; i < transitions.size(); ++i) {
    const OverloadTransition& t = transitions[i];
    int delta = static_cast<int>(t.to) - static_cast<int>(t.from);
    EXPECT_LE(delta, 2);   // escalation may jump straight to shedding
    EXPECT_GE(delta, -1);  // recovery steps down exactly one level
    // Each step down held its state for the dwell.
    if (i > 0) {
      EXPECT_GE(t.t_seconds - transitions[i - 1].t_seconds,
                Controller::kMinDwellSeconds);
    }
  }
  EXPECT_EQ(static_cast<int>(transitions.back().to),
            static_cast<int>(HealthState::kHealthy));
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpensFastFailsThenProbeCloses) {
  MetricsRegistry metrics;
  Observability obs;
  obs.metrics = &metrics;
  CircuitBreaker breaker("storage_read", obs);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow().ok());

  for (int i = 0; i + 1 < CircuitBreaker::kFailureThreshold; ++i)
    EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // below threshold
  EXPECT_TRUE(breaker.RecordFailure());  // this failure opened it
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.RecordFailure());  // already open

  // While open every attempt fast-fails without touching the domain.
  Status gate = breaker.Allow();
  ASSERT_FALSE(gate.ok());
  EXPECT_TRUE(CircuitBreaker::IsBreakerOpen(gate));
  EXPECT_FALSE(CircuitBreaker::IsBreakerOpen(
      Status::ResourceExhausted("admission queue full")));
  EXPECT_GE(breaker.fast_fails(), 1u);
  EXPECT_EQ(metrics.counter("overload.breaker.storage_read.opened")->value(),
            1u);

  // After the cooldown one half-open probe goes through; its success
  // closes the breaker.
  SleepMs(static_cast<int>(CircuitBreaker::kOpenSeconds * 1000) + 20);
  EXPECT_TRUE(breaker.Allow().ok());
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow().ok());
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  Observability obs;
  CircuitBreaker breaker("spill_io", obs);
  for (int i = 0; i < CircuitBreaker::kFailureThreshold; ++i)
    breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  SleepMs(static_cast<int>(CircuitBreaker::kOpenSeconds * 1000) + 20);
  ASSERT_TRUE(breaker.Allow().ok());  // half-open probe
  EXPECT_TRUE(breaker.RecordFailure());
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  EXPECT_FALSE(breaker.Allow().ok());
}

// --------------------------------------------------------------- PoisonLog

TEST(PoisonLogTest, QuarantinesAfterThresholdAndFastRejects) {
  MetricsRegistry metrics;
  Observability obs;
  obs.metrics = &metrics;
  PoisonLog log(obs);
  const std::string sql = "SELECT * FROM cursed";
  GrantSnapshot grant;
  grant.parallelism = 4;
  grant.memory_pages = 64.0;

  for (int i = 0; i + 1 < PoisonLog::kQuarantineFailures; ++i) {
    EXPECT_FALSE(log.RecordFailure(sql, 7, grant, Status::IoError("boom"),
                                   3, /*seed=*/42));
  }
  EXPECT_FALSE(log.IsQuarantined(sql));
  EXPECT_TRUE(log.RejectIfQuarantined(sql).ok());

  EXPECT_TRUE(log.RecordFailure(sql, 7, grant, Status::IoError("boom"),
                                3, /*seed=*/42));
  EXPECT_TRUE(log.IsQuarantined(sql));
  EXPECT_EQ(log.quarantined_count(), 1u);

  Status reject = log.RejectIfQuarantined(sql);
  ASSERT_FALSE(reject.ok());
  EXPECT_EQ(reject.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(PoisonLog::IsPoisonReject(reject));
  EXPECT_FALSE(PoisonLog::IsPoisonReject(Status::FailedPrecondition("shut")));
  EXPECT_EQ(metrics.counter("overload.poison.quarantined")->value(), 1u);
  EXPECT_EQ(metrics.counter("overload.poison.rejected")->value(), 1u);

  // A different statement is unaffected.
  EXPECT_TRUE(log.RejectIfQuarantined("SELECT 1").ok());

  ASSERT_EQ(log.entries().size(), 1u);
  PoisonEntry entry = log.entries()[0];
  EXPECT_EQ(entry.query, sql);
  EXPECT_EQ(entry.failures, PoisonLog::kQuarantineFailures);
  EXPECT_EQ(entry.seed, 42u);
  EXPECT_TRUE(entry.quarantined);
  EXPECT_EQ(entry.rejected, 1u);
  // The replay record carries the grant and the seed.
  std::string json = entry.ToJson();
  EXPECT_NE(json.find("cursed"), std::string::npos);
  EXPECT_NE(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(log.DumpJsonLines().find("cursed"), std::string::npos);
}

// Quarantine means kQuarantineFailures failures in a row: a success in
// between drops the count, so a storm that fails an honest statement now
// and then never quarantines it. A quarantined statement stays
// quarantined.
TEST(PoisonLogTest, SuccessBetweenFailuresResetsTheCount) {
  PoisonLog log;
  const std::string sql = "SELECT * FROM orders";
  const int below = PoisonLog::kQuarantineFailures - 1;

  log.RecordSuccess(sql);  // nothing to drop
  EXPECT_EQ(log.size(), 0u);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < below; ++i)
      EXPECT_FALSE(log.RecordFailure(sql, 1, GrantSnapshot{},
                                     Status::IoError("storm"), 1));
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log.entries()[0].failures, below);
    // Another statement's success leaves this one's count alone.
    log.RecordSuccess("SELECT 1");
    EXPECT_EQ(log.entries()[0].failures, below);
    log.RecordSuccess(sql);
    EXPECT_EQ(log.size(), 0u);
  }
  EXPECT_FALSE(log.IsQuarantined(sql));

  for (int i = 0; i < below; ++i)
    log.RecordFailure(sql, 1, GrantSnapshot{}, Status::IoError("storm"), 1);
  EXPECT_TRUE(log.RecordFailure(sql, 1, GrantSnapshot{},
                                Status::IoError("storm"), 1));
  log.RecordSuccess(sql);
  EXPECT_TRUE(log.IsQuarantined(sql));
  EXPECT_EQ(log.size(), 1u);
}

// The serving engine calls ClearStreaks when a fault domain's breaker
// opens: the domain is failing, so the counts in progress are dropped.
// Quarantines stay.
TEST(PoisonLogTest, ClearStreaksKeepsQuarantines) {
  PoisonLog log;
  const std::string cursed = "SELECT * FROM cursed";
  const std::string honest = "SELECT * FROM orders";
  for (int i = 0; i < PoisonLog::kQuarantineFailures; ++i)
    log.RecordFailure(cursed, 1, GrantSnapshot{}, Status::IoError("bad"), 1);
  for (int i = 0; i + 1 < PoisonLog::kQuarantineFailures; ++i)
    log.RecordFailure(honest, 2, GrantSnapshot{}, Status::IoError("storm"), 1);
  ASSERT_EQ(log.size(), 2u);

  log.ClearStreaks();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.IsQuarantined(cursed));
  // The storm-hit statement counts from zero again.
  EXPECT_FALSE(log.RecordFailure(honest, 2, GrantSnapshot{},
                                 Status::IoError("storm"), 1));
  for (const PoisonEntry& entry : log.entries()) {
    if (entry.query == honest) {
      EXPECT_EQ(entry.failures, 1);
    }
  }
}

// ------------------------------------------------------- CancellationToken

TEST(CancellationTokenTest, PreemptLatchesAndResetRearms) {
  CancellationToken token;
  ASSERT_TRUE(token.Check().ok());
  EXPECT_TRUE(token.Preempt());
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  // A second Preempt on a latched token is a no-op.
  EXPECT_FALSE(token.Preempt());

  EXPECT_TRUE(token.ResetPreempted());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.Check().ok());
  // Reset on a live token does nothing.
  EXPECT_FALSE(token.ResetPreempted());
}

TEST(CancellationTokenTest, HardCancelBeatsPreempt) {
  // Cancel after Preempt: the reset must fail and the cancel stand.
  CancellationToken token;
  ASSERT_TRUE(token.Preempt());
  token.Cancel("user said stop");
  EXPECT_FALSE(token.ResetPreempted());
  EXPECT_EQ(token.Check().code(), StatusCode::kCancelled);
  EXPECT_NE(token.Check().message().find("user said stop"),
            std::string::npos);

  // Cancel before Preempt: the preemption is refused outright.
  CancellationToken cancelled_first;
  cancelled_first.Cancel();
  EXPECT_FALSE(cancelled_first.Preempt());
  EXPECT_FALSE(cancelled_first.ResetPreempted());
  EXPECT_EQ(cancelled_first.Check().code(), StatusCode::kCancelled);
}

// --------------------------------------------------------- JitteredBackoff

TEST(JitteredBackoffTest, StaysWithinDecorrelationBounds) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 8;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 50;
  Rng rng(123);
  for (int failures = 1; failures <= 6; ++failures) {
    int base = policy.BackoffMs(failures);
    int half = std::max(1, base / 2);
    for (int draw = 0; draw < 100; ++draw) {
      int ms = JitteredBackoffMs(policy, failures, &rng);
      EXPECT_GE(ms, half) << "failures=" << failures;
      EXPECT_LE(ms, base + half) << "failures=" << failures;
    }
  }
}

// ------------------------------------------------- scheduler memory reclaim

TEST(QuerySchedulerTest, PreemptsLowestPriorityVictimForMemory) {
  MetricsRegistry metrics;
  ServeOptions options;
  options.max_concurrent = 2;
  options.memory_pages_budget = 100.0;
  options.obs.metrics = &metrics;
  QueryScheduler scheduler(options);

  // Victim: low priority, holds 80 of the 100 pages, blocks until its
  // token fires; on the post-preemption re-run it completes immediately.
  CancellationToken victim_token;
  std::atomic<int> victim_runs{0};
  ServeRequest victim;
  victim.estimate.seq_time = 1.0;
  victim.estimate.total_ios = 10.0;
  victim.estimate.memory_pages = 80.0;
  victim.session_id = 1;
  victim.priority = 0;
  victim.cancel = &victim_token;
  victim.job = [&](const ExecGrant& grant) -> StatusOr<SqlResult> {
    if (victim_runs.fetch_add(1) == 0) {
      // First run: spin at a cancellation point until preempted (bounded
      // so a missed preemption fails the test instead of hanging it).
      for (int i = 0; i < 2000; ++i) {
        Status st = grant.cancel->Check();
        if (!st.ok()) return st;
        SleepMs(1);
      }
      return Status::Internal("victim was never preempted");
    }
    return SqlResult();
  };
  auto victim_ticket = scheduler.Submit(std::move(victim));
  ASSERT_TRUE(victim_ticket.ok());

  // Wait until the victim is actually running and holding its pages.
  for (int i = 0; i < 2000 && victim_runs.load() == 0; ++i) SleepMs(1);
  ASSERT_EQ(victim_runs.load(), 1);

  // Contender: higher priority, also needs 80 pages — cannot fit until
  // the victim's pages come back. After kDegradeWaitSeconds the
  // scheduler must reclaim by preempting the victim, not degrade the
  // contender to spill.
  std::atomic<bool> contender_degraded{false};
  ServeRequest contender;
  contender.estimate.seq_time = 1.0;
  contender.estimate.total_ios = 10.0;
  contender.estimate.memory_pages = 80.0;
  contender.session_id = 2;
  contender.priority = 5;
  contender.job = [&](const ExecGrant& grant) -> StatusOr<SqlResult> {
    contender_degraded.store(grant.degrade_to_spill);
    return SqlResult();
  };
  auto contender_ticket = scheduler.Submit(std::move(contender));
  ASSERT_TRUE(contender_ticket.ok());

  // Contender runs at full memory; victim is requeued and completes on
  // its re-run once the pages free up.
  StatusOr<SqlResult> contender_result = contender_ticket->Wait();
  ASSERT_TRUE(contender_result.ok()) << contender_result.status().ToString();
  EXPECT_FALSE(contender_degraded.load())
      << "contender was degraded to spill instead of reclaiming memory";
  StatusOr<SqlResult> victim_result = victim_ticket->Wait();
  ASSERT_TRUE(victim_result.ok()) << victim_result.status().ToString();
  EXPECT_EQ(victim_runs.load(), 2) << "victim must re-run after preemption";

  EXPECT_EQ(scheduler.preemptions(), 1u);
  EXPECT_EQ(metrics.counter("serve.preempted")->value(), 1u);
  // The reclaim invariant: all pages returned, nothing left running.
  EXPECT_TRUE(scheduler.Drain().ok());
  EXPECT_EQ(scheduler.NumRunning(), 0u);
  EXPECT_EQ(scheduler.NumQueued(), 0u);
}

}  // namespace
}  // namespace xprs
