#include "exec/executor.h"

#include <algorithm>

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

StatusOr<std::vector<Tuple>> ExecutePlanResilient(
    const PlanNode& plan, const ExecContext& ctx,
    const ResilientExecOptions& options) {
  ExecContext attempt_ctx = ctx;
  // Let scans absorb transient backpressure inline before a whole-plan
  // retry becomes necessary.
  if (attempt_ctx.fetch_retry == nullptr)
    attempt_ctx.fetch_retry = &options.retry;
  if (attempt_ctx.obs.trace == nullptr && attempt_ctx.obs.metrics == nullptr)
    attempt_ctx.obs = options.obs;
  bool degraded = false;
  int failures = 0;
  for (;;) {
    auto result = ExecutePlanSequential(plan, attempt_ctx);
    if (result.ok() || !IsRetryableStatus(result.status())) return result;
    ++failures;
    if (failures < options.retry.max_attempts) {
      EmitResilienceEvent(options.obs, "retry.query", -1.0, 0,
                          {{"failures", failures},
                           {"status", result.status().ToString()}});
      XPRS_RETURN_IF_ERROR(BackoffSleep(options.retry, failures, ctx.cancel));
      continue;
    }
    if (!degraded &&
        result.status().code() == StatusCode::kResourceExhausted &&
        options.degrade_spill_array != nullptr) {
      // The retry budget could not absorb the memory pressure: bypass the
      // pool and bound operator memory via the spill path instead of
      // failing the query.
      degraded = true;
      failures = 0;
      attempt_ctx.pool = nullptr;
      attempt_ctx.spill.temp_array = options.degrade_spill_array;
      attempt_ctx.spill.memory_tuples =
          attempt_ctx.spill.temp_array == ctx.spill.temp_array &&
                  ctx.spill.temp_array != nullptr
              ? std::min(ctx.spill.memory_tuples,
                         options.degrade_spill_tuples)
              : options.degrade_spill_tuples;
      EmitResilienceEvent(options.obs, "degrade.spill", -1.0, 0,
                          {{"memory_tuples",
                            static_cast<int64_t>(
                                attempt_ctx.spill.memory_tuples)}});
      continue;
    }
    return result;
  }
}

}  // namespace xprs
