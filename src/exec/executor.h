// The sequential reference executor (plans build through
// BuildOperatorTree, exec/fragment.h).

#ifndef XPRS_EXEC_EXECUTOR_H_
#define XPRS_EXEC_EXECUTOR_H_

#include <memory>
#include <vector>

#include "exec/fragment.h"
#include "exec/operators.h"
#include "exec/plan.h"

namespace xprs {

/// Convenience: build + drain. The trusted reference executor tests and
/// the parallel executor compare against.
StatusOr<std::vector<Tuple>> ExecutePlanSequential(const PlanNode& plan,
                                                   const ExecContext& ctx);

/// ExecutePlanSequential with ctx.vectorized forced on: batch-capable
/// subtrees run through the ColumnBatch operators (exec/batch_ops.h).
StatusOr<std::vector<Tuple>> ExecutePlanVectorized(const PlanNode& plan,
                                                   const ExecContext& ctx);

/// Knobs for ExecutePlanResilient.
struct ResilientExecOptions {
  /// Budget per rung of the ladder (the first attempt counts).
  RetryPolicy retry;
  /// When set, a ResourceExhausted that survives the retry budget —
  /// buffer-pool admission control under memory pressure — degrades the
  /// query instead of failing it: the plan re-runs with the pool bypassed
  /// and spilling enabled on this temp array (§5 memory-bounded paths).
  DiskArray* degrade_spill_array = nullptr;
  /// In-memory tuple budget per operator for the degraded spill run.
  size_t degrade_spill_tuples = 64;
  /// resilience.* metric / trace target. Optional.
  Observability obs;
};

/// Serial execution behind the resilience ladder: retryable failures
/// (IoError, ResourceExhausted) are retried with bounded exponential
/// backoff; persistent buffer-pool exhaustion degrades to the spill path
/// when configured; cancellation and deadlines are never retried. Each
/// rung emits resilience.retry.query / resilience.degrade.spill events.
StatusOr<std::vector<Tuple>> ExecutePlanResilient(
    const PlanNode& plan, const ExecContext& ctx,
    const ResilientExecOptions& options);

}  // namespace xprs

#endif  // XPRS_EXEC_EXECUTOR_H_
