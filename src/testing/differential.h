// The differential correctness oracle.
//
// Every generated plan is executed several independent ways and the
// canonicalized result sets (multisets of rendered tuples — row order is
// not part of the comparison) must agree with the trusted sequential
// reference executor:
//
//   - serial           ExecutePlanSequential, direct disk reads
//   - fragmented       ExecutePlanFragmented (fragment-at-a-time, serial)
//   - parallel(d)      ParallelFragmentRun per fragment in dependency
//                      order at each configured degree, with random
//                      mid-run parallelism adjustments (§2.4); when the
//                      configured pool is sharded the slaves share one,
//                      and the run must leave zero pinned frames
//   - master           the full ParallelMaster control loop under the
//                      adaptive scheduler (§2.5); the decision log is
//                      validated with ValidateSchedDecisions
//   - profiled         ExecutePlanSequential with a QueryProfile attached;
//                      the instrumentation must be invisible to the result
//   - spill            memory-constrained external sort / spilling hash
//                      join (§5 extension) over a temp disk array
//   - merge-joins      the plan with every hash join rewritten to a merge
//                      join over sorts of its inputs: every other mode's
//                      hash joins share one JoinHashTable, so this mode
//                      checks that table independently
//   - pooled           reads through a small shared BufferPool; the run
//                      must leave zero pinned frames
//   - vectorized       ctx.vectorized batch execution (exec/batch_ops.h),
//                      run bare, with a tiny batch size (carry-over state),
//                      fragmented, pooled (zero pinned frames), profiled
//                      (root tuples_out must match), parallel, and under
//                      the master, as the serving engine runs statements
//   - concurrent       the whole plan set replayed through the serve
//                      QueryScheduler with several sessions submitting in
//                      parallel against a shared buffer pool
//                      (CheckPlansConcurrent, plus a chaos variant)
//
// Structural invariants ride along: every plan's fragment decomposition is
// checked with ValidateFragmentGraph, and CheckScanIoConservation asserts
// the §2.2 fluid-model premise that a task's total io demand D_i is a
// property of the task — a parallel scan at any degree, adjusted mid-scan,
// tuple or batch, must read exactly the pages the serial scan reads, no
// more, no fewer.
//
// CheckFaultSurfacing arms the storage fault hooks (disk-array read,
// buffer-pool fetch, short write during spill) one at a time and asserts
// injected faults surface as Status — never aborts — with balanced pins,
// and that the transient-fault retry reproduces the reference result.

#ifndef XPRS_TESTING_DIFFERENTIAL_H_
#define XPRS_TESTING_DIFFERENTIAL_H_

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/fragment.h"
#include "opt/cost_model.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"
#include "storage/fault_injector.h"
#include "util/rng.h"

namespace xprs {

/// Knobs of one oracle instance.
struct DifferentialOptions {
  /// Degrees of parallelism the per-fragment parallel mode runs at.
  std::vector<int> degrees = {2, 3, 5};
  bool run_fragmented = true;
  bool run_master = true;
  bool run_spill = true;
  bool run_buffer_pool = true;
  /// Re-run sequentially with a QueryProfile attached: the instrumentation
  /// decorators must not change the result, and the profile's root
  /// tuples_out must equal the reference cardinality.
  bool run_profiled = true;
  /// Re-run through the vectorized (batch-at-a-time) path: bare, with a
  /// deliberately tiny batch size, fragmented, pooled, profiled, and at
  /// the first configured parallel degree. Also adds a vectorized case to
  /// chaos mode.
  bool run_vectorized = true;
  /// Batch size for the tiny-batch vectorized run; a small prime stresses
  /// batch-boundary carry-over state (partial probe batches, result
  /// slicing) that a page-aligned 1024 never hits.
  size_t small_batch_rows = 7;
  /// Issue random Adjust() calls while parallel fragments run.
  bool adjust_during_run = true;
  /// Spill threshold (tuples in memory per operator). Small enough that
  /// generated joins and sorts actually hit the external paths.
  size_t spill_memory_tuples = 64;
  /// Frames of the pooled modes' BufferPool. A pool of two or more shards
  /// (2 * BufferPool::kFramesPerShard frames or more) holds max_slots
  /// slaves' pins, so the parallel(d) slaves then share one too.
  size_t buffer_pool_frames = 16;
  int max_slots = 8;

  /// Chaos mode (CheckPlanChaos): while each execution mode runs, every
  /// disk read independently fails with this probability (seeded from the
  /// oracle's rng). Bare modes may fail — any failure must carry a
  /// *retryable* status (IoError / ResourceExhausted), never a crash or a
  /// wrong answer — while the modes behind the resilience ladder
  /// (resilient serial, master) usually absorb the faults and must then
  /// match the reference exactly. 0 disables CheckPlanChaos.
  double chaos_read_fault_rate = 0.0;
  /// Retry budget per rung for the chaos resilient-serial / master runs.
  /// Backoff defaults to zero so fixed-seed chaos suites stay fast.
  RetryPolicy chaos_retry = [] {
    RetryPolicy p;
    p.max_attempts = 4;
    p.initial_backoff_ms = 0;
    return p;
  }();
  /// resilience.* metric + trace sink for chaos recoveries. Optional.
  Observability chaos_obs;

  /// Concurrent mode (CheckPlansConcurrent): number of parallel sessions
  /// replaying a plan set through the serve QueryScheduler — each plan is
  /// submitted to one of this many round-robin sessions and executed on
  /// the scheduler's worker threads against a shared buffer pool. Every
  /// per-query result must match its serial reference and the pool must
  /// end with zero pinned frames. 0 disables the mode.
  int concurrent_sessions = 4;
  /// Scheduler queue capacity for the concurrent mode (clamped up to the
  /// plan-set size so replay never trips admission control).
  size_t concurrent_queue_depth = 64;
};

/// Counters accumulated across CheckPlan / fault / conservation calls.
struct DifferentialReport {
  uint64_t plans_checked = 0;
  uint64_t executions_compared = 0;
  uint64_t reference_rows = 0;
  uint64_t faults_injected = 0;
  uint64_t fault_cases = 0;
  /// Chaos-mode outcomes: runs that absorbed at least one injected fault
  /// and still matched the reference, vs. runs that failed retryably.
  uint64_t chaos_recovered = 0;
  uint64_t chaos_retryable_failures = 0;
  std::string ToString() const;
};

class DifferentialOracle {
 public:
  /// `array` is the disk array the checked plans' tables live on; it is
  /// also the target of the read-hook fault cases. Must outlive the
  /// oracle. All randomness (adjustment points, fault placement) derives
  /// from `seed`.
  DifferentialOracle(DiskArray* array, const DifferentialOptions& options,
                     uint64_t seed);

  /// Runs `plan` through every configured mode and compares against the
  /// sequential reference. Non-OK describes the first divergence (the
  /// message embeds the plan and the mode).
  Status CheckPlan(const PlanNode& plan);

  /// Fault cases for the read and fetch hooks (plus the spill write hook
  /// when the plan spills): each armed fault must surface as Status with
  /// zero pinned frames, and the transient retry must match the reference.
  Status CheckFaultSurfacing(const PlanNode& plan);

  /// Chaos mode: re-runs `plan` through the configured modes with a
  /// seeded rate-`options.chaos_read_fault_rate` read-fault injector armed
  /// the whole time. Every mode must either reproduce the reference result
  /// exactly or fail with a retryable status; the resilience-ladder modes
  /// record their recoveries on `options.chaos_obs` (resilience.retry.* /
  /// resilience.degrade.* counters and trace events). No-op when the rate
  /// is <= 0.
  Status CheckPlanChaos(const PlanNode& plan);

  /// Random-rate read faults: while armed, every disk read independently
  /// fails with probability `rate` (seeded from the oracle's rng). The run
  /// must either fail with a Status — with every injected fault accounted
  /// for — or succeed with the exact reference result; after disarming,
  /// an identical run must match the reference. No-op when rate <= 0.
  Status CheckRandomReadFaults(const PlanNode& plan, double rate);

  /// Concurrent mode: replays `plans` through a serve QueryScheduler with
  /// `options.concurrent_sessions` sessions submitting in round-robin.
  /// Serial references are computed first; each concurrently executed
  /// query must reproduce its reference exactly, and the shared buffer
  /// pool must end with zero pinned frames. No-op when
  /// concurrent_sessions is 0 or `plans` is empty.
  Status CheckPlansConcurrent(const std::vector<const PlanNode*>& plans);

  /// Chaos variant of the concurrent mode: the whole replay runs with a
  /// seeded rate-`chaos_read_fault_rate` read-fault injector armed on the
  /// array while every query executes behind the resilience ladder
  /// (retry + spill degrade). Each query must either match its reference
  /// or fail with a retryable status. No-op when the rate is <= 0.
  Status CheckPlansConcurrentChaos(const std::vector<const PlanNode*>& plans);

  /// §2.2 io conservation: `table` scanned by a ParallelFragmentRun at
  /// every configured degree, with tuple and with vectorized slaves and one
  /// mid-scan adjustment, reads exactly the serial scan's pages and returns
  /// exactly its rows.
  Status CheckScanIoConservation(Table* table);

  const DifferentialReport& report() const { return report_; }

 private:
  using Canon = std::multiset<std::string>;
  static Canon Canonicalize(const std::vector<Tuple>& rows);
  Status Compare(const PlanNode& plan, const std::string& mode,
                 const Canon& reference, const std::vector<Tuple>& got);

  StatusOr<std::vector<Tuple>> RunParallelFragments(const PlanNode& plan,
                                                    int degree,
                                                    bool vectorized = false);
  // `chaos` arms the resilience ladder (options_.chaos_retry + chaos_obs)
  // on the master so injected faults are retried / degraded instead of
  // failing the run outright.
  StatusOr<std::vector<Tuple>> RunMaster(const PlanNode& plan,
                                         bool chaos = false,
                                         bool vectorized = false);
  // One armed-hook case: runs `plan` under `ctx`, asserting a fired fault
  // surfaces as Status and a clean retry matches `reference`.
  Status FaultCase(const PlanNode& plan, const Canon& reference,
                   const ExecContext& ctx, ScriptedFaultInjector* injector,
                   const std::string& label);
  // One chaos case: runs `run` with a rate injector armed on the array;
  // the outcome must be the reference result or a retryable failure.
  Status ChaosCase(const PlanNode& plan, const Canon& reference,
                   const std::string& label,
                   const std::function<StatusOr<std::vector<Tuple>>()>& run);
  // Shared body of the concurrent modes.
  Status RunConcurrent(const std::vector<const PlanNode*>& plans, bool chaos);

  DiskArray* const array_;
  const DifferentialOptions options_;
  Rng rng_;
  /// Spill target for the memory-constrained mode (and the write-hook
  /// fault case). kInstant: only accounting, no sleeps.
  DiskArray temp_array_;
  CostModel model_;
  DifferentialReport report_;
};

/// Write-hook fault case independent of query shape: arms a short write on
/// `array` and bulk-loads a throwaway relation into `catalog` (which must
/// live on `array`), asserting the torn write surfaces as Status from the
/// loader. `name` must be unused in the catalog.
Status CheckShortWriteSurfacing(Catalog* catalog, const std::string& name,
                                uint64_t seed);

}  // namespace xprs

#endif  // XPRS_TESTING_DIFFERENTIAL_H_
