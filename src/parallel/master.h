// ParallelMaster: the XPRS master backend (Figure 2).
//
// Takes a batch of optimized queries, decomposes each plan into fragments,
// estimates their TaskProfiles with the cost model, and drives the
// adaptive scheduler against *real* slave-backend threads: StartTask spawns
// a ParallelFragmentRun at the commanded degree of parallelism,
// AdjustParallelism triggers the §2.4 shared-memory adjustment protocol on
// the running fragment, and fragment completions feed back into the
// scheduler, which re-pairs and re-balances.
//
// The master's grant (MasterOptions::max_slots) is a ceiling: the scheduler
// plans over min(num_cpus, max_slots) processors, and every start,
// adjustment and retry is clamped to max_slots, so a fragment never runs
// more slaves than the grant — a task at parallelism x uses x processors
// (§2.2).

#ifndef XPRS_PARALLEL_MASTER_H_
#define XPRS_PARALLEL_MASTER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "opt/cost_model.h"
#include "parallel/fragment_run.h"
#include "sched/scheduler.h"

namespace xprs {

/// One query handed to the master: a sequential plan to parallelize.
struct QueryJob {
  const PlanNode* plan = nullptr;
  int64_t query_id = 0;
};

/// Outcome of a master run.
struct MasterRunResult {
  double elapsed_seconds = 0.0;
  /// Final output tuples per query.
  std::map<int64_t, std::vector<Tuple>> query_results;
  /// Dynamic adjustments issued by the scheduler.
  size_t num_adjustments = 0;
  /// Wall-clock finish time (seconds since run start) per task.
  std::map<TaskId, double> task_finish_times;
  /// The scheduler's full decision log (starts and adjustments, in order);
  /// the differential harness validates it with ValidateSchedDecisions.
  std::vector<SchedDecision> decisions;
  /// Resilience ladder activity: fragment re-dispatches after transient
  /// faults, parallelism halvings, and serial-executor fallbacks.
  size_t fragment_retries = 0;
  size_t parallelism_degrades = 0;
  size_t serial_fallbacks = 0;
};

/// Master backend options.
struct MasterOptions {
  SchedulerOptions sched;
  ExecContext ctx;
  /// The grant: no fragment ever runs more slaves than this. The
  /// scheduler plans over min(machine num_cpus, max_slots) processors and
  /// the master clamps every start, adjustment and retry to it. >= 1.
  int max_slots = 16;
  /// Trace/metrics publishing for the run (fragment spans, adjustment
  /// events); also handed to the internal scheduler. Optional.
  Observability obs;
  /// Retry budget per rung of the fragment degradation ladder: a
  /// ParallelFragmentRun that fails with a retryable status is re-run
  /// (same fragment, same granule protocol) up to retry.max_attempts
  /// times with exponential backoff, then the ladder halves the
  /// parallelism (§2.4 adjustment path) and retries again, down to 1.
  /// The final rung re-runs the fragment once with the trusted serial
  /// executor on the master thread; its failure surfaces.
  RetryPolicy retry;
};

/// The master backend. Not reusable across Run() calls concurrently.
class ParallelMaster : public ExecutionEnv {
 public:
  ParallelMaster(const MachineConfig& machine, const CostModel* model,
                 const MasterOptions& options);

  /// Runs all queries to completion under the configured policy.
  StatusOr<MasterRunResult> Run(const std::vector<QueryJob>& queries);

  // --- ExecutionEnv (invoked by the scheduler on the master thread) ---
  double Now() const override;
  void StartTask(TaskId id, double parallelism) override;
  void AdjustParallelism(TaskId id, double parallelism) override;
  double RemainingSeqTime(TaskId id) const override;

 private:
  struct TaskState {
    int query_index = -1;
    int frag_id = -1;
    TaskProfile profile;
    std::unique_ptr<ParallelFragmentRun> run;
    TempResult result;
    bool completed = false;
    /// Wait() was called on `run` (its threads are joined and its result
    /// consumed); guards against double-draining.
    bool waited = false;
    /// Commanded parallelism of the current attempt; halved by the
    /// degradation ladder.
    int parallelism = 1;
    /// Retryable failures at the current rung.
    int failures = 0;
  };
  struct QueryState {
    QueryJob job;
    FragmentGraph graph;
    std::vector<TaskId> task_ids;  // per fragment id
  };

  /// Task ids are query_index * kTaskIdStride + fragment id.
  static constexpr TaskId kTaskIdStride = 1000;

  /// Rounds a scheduler-commanded parallelism into [1, max_slots].
  int ClampToGrant(double parallelism) const;
  /// Materialized inputs from the task's completed dependency fragments.
  std::map<int, const TempResult*> GatherInputs(const TaskState& task);
  /// (Re-)creates and starts the task's ParallelFragmentRun at
  /// `parallelism`. `notify` wires the completion into the done queue;
  /// the recovery path waits synchronously instead.
  void LaunchRun(TaskId id, int parallelism, bool notify);
  /// Runs the degradation ladder for a task whose run failed with
  /// `failure`: bounded retries at the current parallelism, halve and
  /// retry, then one serial-executor pass. Blocks the master thread.
  StatusOr<TempResult> RecoverTask(TaskId id, Status failure,
                                   MasterRunResult* result);
  /// Joins every started-but-unconsumed run (cancellation/failure exit:
  /// slaves observe the token or finish; pins drain before Run returns).
  void DrainOutstanding();

  MachineConfig machine_;
  const CostModel* const model_;
  MasterOptions options_;

  std::vector<QueryState> queries_;
  std::map<TaskId, TaskState> tasks_;
  std::chrono::steady_clock::time_point start_;

  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::deque<TaskId> done_queue_;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_MASTER_H_
