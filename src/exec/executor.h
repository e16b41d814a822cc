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

}  // namespace xprs

#endif  // XPRS_EXEC_EXECUTOR_H_
