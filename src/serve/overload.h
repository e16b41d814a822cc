// Overload control for the serving layer: health states, circuit
// breakers, and poison-query quarantine.
//
// The §2.3 balance-point scheduler assumes queries that run to completion
// on a healthy machine. Under a sustained fault storm or memory squeeze
// that optimism turns into retry loops, unbounded queues and a disk being
// hammered by work that cannot succeed. This header adds the three
// classic serving defenses on top of the scheduler's static budgets:
//
//   OverloadController  an explicit health state machine
//                       (healthy -> degraded -> shedding) driven by a
//                       rolling window of fault rate plus instantaneous
//                       queue depth / memory / buffer-pool pressure.
//                       Escalation is immediate; recovery is monotone and
//                       deliberate (a minimum dwell time and N consecutive
//                       clean evaluations per step down). While unhealthy
//                       the controller shrinks the scheduler's effective
//                       cpu/io/memory/queue budgets and, in shedding,
//                       fast-rejects low-priority work at admission.
//
//   CircuitBreaker      per fault domain (storage reads, spill io).
//                       Consecutive failures open the breaker; while open
//                       every attempt fast-fails instead of hammering the
//                       failing disk; after a cooldown a half-open probe
//                       decides between closing and re-opening.
//
//   PoisonLog           SlowQueryLog-style quarantine record. A statement
//                       that fails, after whole-query retries, on several
//                       consecutive submissions is recorded (sql, session,
//                       grant, seed, status) and never re-admitted:
//                       re-submissions are rejected synchronously without
//                       touching the planner or an operator, so one bad
//                       plan cannot starve the fleet.
//
// All three are thread-safe and publish `overload.*` metrics plus
// state-transition trace events through the shared Observability.

#ifndef XPRS_SERVE_OVERLOAD_H_
#define XPRS_SERVE_OVERLOAD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "serve/lifecycle.h"
#include "util/status.h"

namespace xprs {

// --- health state machine ---------------------------------------------------

enum class HealthState { kHealthy = 0, kDegraded = 1, kShedding = 2 };

const char* HealthStateName(HealthState state);

/// Instantaneous pressure the scheduler reports at each evaluation.
struct OverloadSignals {
  double queue_frac = 0.0;
  double mem_frac = 0.0;
};

/// One recorded state change (timestamps are seconds since the controller
/// was constructed, on the steady clock).
struct OverloadTransition {
  double t_seconds = 0.0;
  HealthState from = HealthState::kHealthy;
  HealthState to = HealthState::kHealthy;
  std::string reason;
};

class OverloadController {
 public:
  /// Message prefix of every admission-shed status (IsOverloadShed).
  static const char* kShedPrefix;

  // Thresholds. bench_soak tuned the first four so its storm shows every
  // transition within seconds; no other caller ever leaves healthy.
  static constexpr size_t kWindow = 32;     // outcomes the fault rate spans
  static constexpr size_t kMinSamples = 8;  // outcomes before it counts
  // Recovery steps down one level once the state held kMinDwellSeconds
  // and kRecoveryCleanEvals evaluations in a row were below its bar.
  static constexpr double kMinDwellSeconds = 0.05;
  static constexpr int kRecoveryCleanEvals = 4;
  // Degraded and shedding bars. Queue: fraction of max_queue_depth;
  // memory: budget in use, or the pool's pinned fraction if higher.
  static constexpr double kDegradedFaultRate = 0.25, kSheddingFaultRate = 0.5;
  static constexpr double kDegradedQueueFrac = 0.80, kSheddingQueueFrac = 0.95;
  static constexpr double kDegradedMemFrac = 0.92, kSheddingMemFrac = 0.99;
  // Shedding rejects priorities below the floor (default-priority work);
  // degraded rejects none. Budget scales apply to cpu, io and memory.
  static constexpr int kShedPriorityFloor = 1;
  static constexpr double kDegradedBudgetScale = 0.75;
  static constexpr double kSheddingBudgetScale = 0.5, kSheddingQueueScale = 0.5;

  explicit OverloadController(const Observability& obs);

  OverloadController(const OverloadController&) = delete;
  OverloadController& operator=(const OverloadController&) = delete;

  /// Optional extra memory-pressure probe (e.g. buffer-pool pinned
  /// fraction); sampled at every evaluation and max-ed with the
  /// scheduler's own mem_frac. Install before queries flow.
  void SetMemoryProbe(std::function<double()> probe);

  /// Records one completed query: whether it failed (cancellations are the
  /// caller's business to exclude).
  void RecordOutcome(bool failure);

  /// Re-evaluates the state machine against the rolling window plus the
  /// instantaneous signals. Cheap; called at every submit and completion.
  void Evaluate(const OverloadSignals& signals);

  /// OK when `priority` may be admitted in the current state; otherwise a
  /// distinct ResourceExhausted shed status (IsOverloadShed). Counts the
  /// shed.
  Status AdmissionCheck(int priority);

  /// True iff `status` is the controller's admission shed (as opposed to a
  /// queue-full reject or storage ResourceExhausted).
  static bool IsOverloadShed(const Status& status);

  /// Counts a shed decided by the caller (e.g. the scheduler's scaled
  /// queue cap) so sheds()/metrics stay complete.
  void CountShed();

  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }

  // Effective-budget scales for the current state (1.0 while healthy):
  // one for the cpu, io and memory budgets, one for the queue.
  double budget_scale() const;
  double queue_scale() const;

  std::vector<OverloadTransition> transitions() const;
  /// True iff the controller ever reached `state`.
  bool reached(HealthState state) const;
  uint64_t sheds() const { return sheds_.load(std::memory_order_relaxed); }

 private:
  /// Highest state the current signals justify, plus a reason.
  HealthState TargetLocked(const OverloadSignals& signals,
                           std::string* reason) const;
  void TransitionLocked(HealthState to, const std::string& reason);
  double NowSeconds() const;

  Observability obs_;

  mutable std::mutex mutex_;
  std::function<double()> memory_probe_;
  std::deque<bool> outcomes_;       // true = failure
  size_t window_failures_ = 0;
  double last_transition_seconds_ = 0.0;
  int clean_evals_ = 0;
  std::vector<OverloadTransition> transitions_;
  bool reached_[3] = {true, false, false};

  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
  std::atomic<uint64_t> sheds_{0};

  std::chrono::steady_clock::time_point epoch_;

  Gauge* g_state_ = nullptr;
  Counter* m_transitions_ = nullptr;
  Counter* m_shed_ = nullptr;
};

// --- circuit breaker --------------------------------------------------------

enum class BreakerState { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

const char* BreakerStateName(BreakerState state);

/// One fault domain's breaker (storage reads, spill io). Thread-safe.
class CircuitBreaker {
 public:
  /// Consecutive domain failures that trip the breaker open.
  static constexpr int kFailureThreshold = 5;
  /// Cooldown before a half-open probe goes through (bench_soak's value).
  /// The probe's success closes the breaker; its failure re-opens it.
  static constexpr double kOpenSeconds = 0.05;

  CircuitBreaker(std::string domain, const Observability& obs);

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// OK when an attempt may proceed (closed, or half-open probe);
  /// otherwise the fast-fail status (IsBreakerOpen) without touching the
  /// domain.
  Status Allow();

  void RecordSuccess();
  /// Returns true when this failure opened the breaker.
  bool RecordFailure();

  /// True iff `status` is a breaker fast-fail. Fast-fails carry
  /// kResourceExhausted (nominally retryable) — retry ladders must check
  /// this predicate and stop instead of spinning on an open breaker.
  static bool IsBreakerOpen(const Status& status);

  BreakerState state() const;
  const std::string& domain() const { return domain_; }
  uint64_t fast_fails() const;
  uint64_t times_opened() const;

 private:
  void TransitionLocked(BreakerState to);
  double NowSeconds() const;

  const std::string domain_;
  Observability obs_;

  mutable std::mutex mutex_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  double opened_at_seconds_ = 0.0;
  uint64_t fast_fails_ = 0;
  uint64_t times_opened_ = 0;

  std::chrono::steady_clock::time_point epoch_;

  Counter* m_fast_fail_ = nullptr;
  Counter* m_opened_ = nullptr;
};

// --- poison-query quarantine ------------------------------------------------

/// One quarantine record: everything needed to replay the failure offline.
struct PoisonEntry {
  std::string query;       ///< submitted SQL
  int64_t session_id = 0;  ///< session of the last failing submission
  int failures = 0;        ///< consecutive terminal failures
  int attempts = 0;        ///< execution attempts including retries
  std::string last_status;
  GrantSnapshot last_grant;
  uint64_t seed = 0;       ///< caller-provided replay seed (0 = none)
  bool quarantined = false;
  uint64_t rejected = 0;   ///< fast-rejects since quarantine

  /// One-line JSON object (stable key order).
  std::string ToJson() const;
};

/// Threshold-triggered quarantine log keyed by statement text.
/// Thread-safe.
class PoisonLog {
 public:
  /// Terminal failures in a row (after the per-query retry ladder) that
  /// quarantine a statement (bench_soak's value). A success of the
  /// statement, or ClearStreaks, starts its count again.
  static constexpr int kQuarantineFailures = 4;

  explicit PoisonLog(const Observability& obs = Observability());

  PoisonLog(const PoisonLog&) = delete;
  PoisonLog& operator=(const PoisonLog&) = delete;

  /// Records one terminal failure of `sql`. Returns true when this failure
  /// crossed the threshold and quarantined the statement.
  bool RecordFailure(const std::string& sql, int64_t session_id,
                     const GrantSnapshot& grant, const Status& status,
                     int attempts, uint64_t seed = 0);

  /// Records a success of `sql`: its failure count, if any, is dropped
  /// unless it is already quarantined. While the log is empty this is one
  /// relaxed load.
  void RecordSuccess(const std::string& sql);

  /// Drops every failure count short of quarantine. Called when a fault
  /// domain's breaker opens: the domain itself is failing, so the failures
  /// counted so far say nothing about the statements.
  void ClearStreaks();

  bool IsQuarantined(const std::string& sql) const;

  /// OK when `sql` may be admitted; otherwise the distinct quarantine
  /// reject status (IsPoisonReject), with the fast-reject counted on the
  /// entry. Callers must not run (or even plan) the statement on a reject.
  Status RejectIfQuarantined(const std::string& sql);

  /// True iff `status` is a quarantine fast-reject.
  static bool IsPoisonReject(const Status& status);

  std::vector<PoisonEntry> entries() const;
  size_t size() const { return size_.load(std::memory_order_relaxed); }
  size_t quarantined_count() const;
  /// All entries, one JSON object per line (a JSONL log).
  std::string DumpJsonLines() const;

 private:
  Observability obs_;

  mutable std::mutex mutex_;
  std::vector<PoisonEntry> entries_;  // few entries expected: linear scan
  /// entries_.size(), readable without the mutex.
  std::atomic<size_t> size_{0};

  Counter* m_quarantined_ = nullptr;
  Counter* m_rejected_ = nullptr;
};

}  // namespace xprs

#endif  // XPRS_SERVE_OVERLOAD_H_
