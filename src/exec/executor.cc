#include "exec/executor.h"

namespace xprs {

StatusOr<std::vector<Tuple>> ExecutePlanSequential(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root,
                        BuildOperatorTree(plan, ctx));
  return Drain(root.get());
}

StatusOr<std::vector<Tuple>> ExecutePlanVectorized(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  ExecContext vectorized_ctx = ctx;
  vectorized_ctx.vectorized = true;
  return ExecutePlanSequential(plan, vectorized_ctx);
}

}  // namespace xprs
