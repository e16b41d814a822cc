// QueryScheduler: admission control and dispatch for N concurrent queries.
//
// The paper's two-phase architecture plans one query at a time; this layer
// extends the §2.3 balance machinery from one query to a workload. Queries
// arrive with an admission-time TaskProfile (estimated sequential time,
// total i/o, pattern, working memory) and wait in a priority + weighted
// fair-share queue. A dispatcher thread admits them against three global
// budgets:
//
//   processors   sum of granted parallelism degrees <= N. The grant for a
//                candidate comes from SolveBalance between the candidate
//                and the aggregate of what is already running — the same
//                io/cpu balance point the intra-query scheduler uses,
//                applied across queries.
//   disk i/o     sum of granted io rates (C_i * x_i, capped at the task's
//                single-stream ceiling) <= the array's nominal bandwidth.
//                An io-bound candidate is held back while the disks are
//                saturated rather than admitted to thrash them.
//   memory       sum of working-set pages <= the configured budget. A
//                query that does not fit waits briefly, then is degraded:
//                admitted serial with spill-to-disk operators so its
//                footprint collapses to the spill bound instead of the
//                full hash/sort working set.
//
// Load shedding is explicit: a full queue rejects new work synchronously
// with a distinct ResourceExhausted status (IsAdmissionReject) and a
// serve.rejected.queue_full counter, and a deadline that expires while the
// query is still queued completes it with DeadlineExceeded without ever
// opening an operator. Every transition is published through obs:
// queue-wait and run-time histograms, admitted/rejected/degraded counters,
// queued/running gauges.
//
// Locking: one scheduler mutex guards the queue, the handoff and the
// resource accounting; each ticket has its own mutex + condvar. The
// scheduler mutex is never held while a ticket mutex is taken with user
// code on the stack, and jobs run with no scheduler lock held.

#ifndef XPRS_SERVE_QUERY_SCHEDULER_H_
#define XPRS_SERVE_QUERY_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "resilience/cancellation.h"
#include "serve/lifecycle.h"
#include "serve/overload.h"
#include "sched/balance.h"
#include "sched/machine.h"
#include "sched/task.h"
#include "sql/engine.h"
#include "util/status.h"

namespace xprs {

/// What the scheduler granted an admitted query. The job callback shapes
/// its execution around this: parallelism 1 runs the serial executor,
/// > 1 the parallel master with that many slots; degrade_to_spill asks for
/// memory-bounded spilling operators.
struct ExecGrant {
  int parallelism = 1;
  double memory_pages = 0.0;
  bool degrade_to_spill = false;
  /// The query's cancellation token (also reachable by the submitter);
  /// jobs must thread it into their ExecContext.
  CancellationToken* cancel = nullptr;
  /// Scheduler-assigned query id (matches the ticket's).
  int64_t query_id = -1;
  /// Granted aggregate io rate (io/s) charged against the disk budget.
  double io_rate = 0.0;
  /// How long the query waited between enqueue and dispatch.
  double queue_wait_seconds = 0.0;
  /// The query's lifecycle tracker (null when tracing and the slow-query
  /// log are both off). Jobs may AttachProfile through it; the scheduler
  /// keeps it alive until the query resolves.
  QueryLifecycle* lifecycle = nullptr;
};

/// The work an admitted query runs on a scheduler worker thread.
using ServeJob = std::function<StatusOr<SqlResult>(const ExecGrant&)>;

/// One query submitted for scheduling.
struct ServeRequest {
  ServeJob job;
  /// Admission-time resource estimate (PreparedStatement::estimate).
  TaskProfile estimate;
  /// Session the query belongs to; fair-share is balanced across sessions.
  int64_t session_id = 0;
  /// Fair-share weight: a session with weight 2 receives twice the served
  /// work of a weight-1 session under contention. Must be > 0.
  double weight = 1.0;
  /// Strict priority: higher runs first regardless of fair shares.
  int priority = 0;
  /// Cancellation / deadline token. Nullable. Must outlive the query
  /// (keep it alive until the ticket resolves).
  CancellationToken* cancel = nullptr;
  std::string label;
  /// Fired exactly once when the query completes (any outcome, including
  /// queue rejection at dispatch time — not the synchronous Submit
  /// reject). Runs on a scheduler thread, strictly before ticket waiters
  /// are released, so completion side effects are visible once Wait()
  /// returns; must not call back into the scheduler.
  std::function<void(const Status&)> on_complete;
  /// Lifecycle tracker covering work done before submission (the serving
  /// engine starts it before parse/bind so admission time is attributed).
  /// When absent and tracing is on, the scheduler creates one at Submit.
  /// The scheduler drives every later transition and resolves it exactly
  /// once.
  std::shared_ptr<QueryLifecycle> lifecycle;
};

/// Handle on a submitted query. Cheap to copy; all copies share the result
/// slot. Wait() blocks until the query resolves and may be called from any
/// thread, repeatedly.
class ServeTicket {
 public:
  ServeTicket() = default;

  /// Blocks until the query completes, then returns its result (statuses
  /// propagate: Cancelled, DeadlineExceeded, execution errors).
  StatusOr<SqlResult> Wait() const;

  bool done() const;

  /// Scheduler-assigned query id (dense, in submission order).
  int64_t query_id() const;

  bool valid() const { return state_ != nullptr; }

 private:
  friend class QueryScheduler;

  struct State {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    bool done = false;
    std::optional<StatusOr<SqlResult>> result;
    int64_t id = -1;
  };

  explicit ServeTicket(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

struct ServeOptions {
  MachineConfig machine;
  /// Worker threads, i.e. queries that may execute simultaneously.
  int max_concurrent = 2;
  /// Queue capacity; a Submit beyond it is rejected synchronously.
  size_t max_queue_depth = 64;
  /// Global working-memory budget in 8 KB pages. 0 = unlimited.
  double memory_pages_budget = 0.0;
  /// Aggregate io-rate budget in io/s. 0 = the machine's nominal
  /// bandwidth.
  double io_rate_budget = 0.0;
  /// How long a memory-blocked query waits for pages to free up before
  /// it is degraded to the serial spill path.
  double degrade_wait_seconds = 0.05;
  /// Start with dispatch paused; queries queue until Resume(). Tests use
  /// this to fill the queue deterministically.
  bool start_paused = false;
  /// Overload-control knobs (see serve/overload.h). While the controller
  /// is degraded/shedding the effective cpu/io/memory/queue budgets shrink
  /// by its scale factors and low-priority submissions are shed.
  OverloadOptions overload;
  /// Emergency memory reclaim: when a strictly higher-priority query has
  /// waited past degrade_wait_seconds for pages, preempt (cancel + requeue)
  /// the lowest-priority running query instead of degrading the waiter.
  bool enable_preemption = true;
  /// Times one query may be preempted before it stops being a victim.
  int max_preemptions = 1;
  Observability obs;
};

class QueryScheduler {
 public:
  explicit QueryScheduler(const ServeOptions& options);
  ~QueryScheduler();

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// Enqueues a query. Fails synchronously with the admission-reject
  /// status when the queue is full, with the token's status when it is
  /// already cancelled/expired, and with FailedPrecondition after
  /// Shutdown. On success the ticket resolves when the query completes.
  StatusOr<ServeTicket> Submit(ServeRequest request);

  /// Releases a paused scheduler (ServeOptions::start_paused).
  void Resume();

  /// Blocks until every submitted query has resolved.
  Status Drain();

  /// Rejects all queued queries with Cancelled, waits for running ones,
  /// joins the threads. Idempotent; the destructor calls it.
  void Shutdown();

  /// True iff `status` is the scheduler's queue-full admission reject (as
  /// opposed to ResourceExhausted from the storage layer).
  static bool IsAdmissionReject(const Status& status);

  // --- introspection -----------------------------------------------------
  size_t NumQueued() const;
  size_t NumRunning() const;
  /// High-water mark of simultaneously running queries.
  int peak_running() const;
  /// Ids of the last kDispatchLogSize queries, in the order the dispatcher
  /// started them. Older ids are dropped, so a long-running server's log
  /// stays bounded.
  std::vector<int64_t> dispatch_order() const;
  static constexpr size_t kDispatchLogSize = 1024;
  /// The health state machine driving admission under overload.
  OverloadController& overload() { return overload_; }
  const OverloadController& overload() const { return overload_; }
  /// Queries preempted (cancelled + requeued) for memory reclaim so far.
  uint64_t preemptions() const;

 private:
  struct Entry {
    int64_t id = -1;
    ServeRequest request;
    std::shared_ptr<ServeTicket::State> state;
    std::chrono::steady_clock::time_point enqueued;
    /// Set while the entry is parked waiting for memory.
    bool mem_blocked = false;
    std::chrono::steady_clock::time_point mem_blocked_since;
    /// Times this query has been preempted and requeued.
    int preemptions = 0;
  };

  struct RunningInfo {
    TaskProfile estimate;
    int parallelism = 1;
    double memory_pages = 0.0;
    double io_rate = 0.0;
    /// For victim selection during emergency memory reclaim.
    CancellationToken* cancel = nullptr;
    int priority = 0;
    int preempt_count = 0;
    /// Set once this query has been asked to unwind for reclaim.
    bool preempted = false;
  };

  void DispatcherLoop();
  void WorkerLoop();

  // All Locked() helpers require mutex_ held.
  void CompleteLocked(std::unique_ptr<Entry> entry, StatusOr<SqlResult> result,
                      std::unique_lock<std::mutex>& lock);
  /// Sweeps queued entries whose deadline or token already fired;
  /// completes them without running the job.
  void SweepExpiredLocked(std::unique_lock<std::mutex>& lock);
  /// Picks the next admissible entry and computes its grant. Returns the
  /// queue index or -1; fills *grant.
  int PickNextLocked(ExecGrant* grant);
  /// Emergency memory reclaim: asks the lowest-priority running query
  /// (strictly below `cand`'s priority) to unwind so `cand` can fit.
  /// Returns true when a victim was preempted.
  bool TryPreemptLocked(const Entry& cand);
  /// Instantaneous pressure signals for the overload controller.
  OverloadSignals SignalsLocked() const;
  /// Parallelism for `cand` against the currently running aggregate via
  /// the §2.3 balance point.
  int GrantParallelismLocked(const TaskProfile& cand) const;
  double GrantedIoRate(const TaskProfile& cand, int parallelism) const;

  void ResolveMetrics();
  void PublishGaugesLocked();

  const ServeOptions options_;
  const double io_budget_;
  OverloadController overload_;

  mutable std::mutex mutex_;
  std::condition_variable dispatch_cv_;  // dispatcher wakeups
  std::condition_variable work_cv_;      // worker wakeups (handoff)
  std::condition_variable idle_cv_;      // Drain waiters

  bool paused_ = false;
  bool shutdown_ = false;
  int64_t next_id_ = 1;

  std::deque<std::unique_ptr<Entry>> queue_;
  // Dispatcher -> worker handoff: admitted entries with their grants.
  std::deque<std::pair<std::unique_ptr<Entry>, ExecGrant>> handoff_;
  std::map<int64_t, RunningInfo> running_;

  // Resource accounting for admitted queries.
  double cpus_in_use_ = 0.0;
  double mem_in_use_ = 0.0;
  double io_in_use_ = 0.0;

  // Weighted fair queueing: served sequential-time per session, scaled by
  // 1/weight.
  std::map<int64_t, double> served_work_;

  /// Queries whose job is executing on a worker right now (<= running_
  /// size; an admitted entry sits in handoff_ until a worker picks it up).
  int n_executing_ = 0;
  /// Completions mid-flight: CompleteLocked drops the mutex to resolve the
  /// ticket and fire on_complete, and Drain must not report idle until
  /// those callbacks have finished.
  int n_completing_ = 0;
  int peak_running_ = 0;
  uint64_t preemptions_ = 0;
  std::deque<int64_t> dispatch_order_;

  // Metrics (resolved once; null when no registry attached).
  Counter* m_submitted_ = nullptr;
  Counter* m_admitted_ = nullptr;
  Counter* m_rejected_queue_full_ = nullptr;
  Counter* m_rejected_deadline_ = nullptr;
  Counter* m_dispatched_ = nullptr;
  Counter* m_completed_ = nullptr;
  Counter* m_failed_ = nullptr;
  Counter* m_degraded_ = nullptr;
  Counter* m_cancelled_ = nullptr;
  Counter* m_rejected_shed_ = nullptr;
  Counter* m_preempted_ = nullptr;
  Gauge* g_queued_ = nullptr;
  Gauge* g_running_ = nullptr;
  Gauge* g_peak_running_ = nullptr;
  Histogram* h_queue_wait_ = nullptr;
  Histogram* h_run_seconds_ = nullptr;

  std::thread dispatcher_;
  std::vector<std::thread> workers_;
};

}  // namespace xprs

#endif  // XPRS_SERVE_QUERY_SCHEDULER_H_
