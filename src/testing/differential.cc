#include "testing/differential.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "parallel/fragment_run.h"
#include "parallel/master.h"
#include "sched/machine.h"
#include "serve/query_scheduler.h"
#include "storage/buffer_pool.h"
#include "util/check.h"
#include "util/str.h"
#include "workload/relations.h"

namespace xprs {

std::string DifferentialReport::ToString() const {
  return StrFormat(
      "plans=%llu executions=%llu reference_rows=%llu fault_cases=%llu "
      "faults_injected=%llu chaos_recovered=%llu chaos_retryable=%llu",
      static_cast<unsigned long long>(plans_checked),
      static_cast<unsigned long long>(executions_compared),
      static_cast<unsigned long long>(reference_rows),
      static_cast<unsigned long long>(fault_cases),
      static_cast<unsigned long long>(faults_injected),
      static_cast<unsigned long long>(chaos_recovered),
      static_cast<unsigned long long>(chaos_retryable_failures));
}

namespace {

// First node of `kind` in the plan tree, or nullptr.
const PlanNode* FindNode(const PlanNode& plan, PlanKind kind) {
  if (plan.kind == kind) return &plan;
  if (plan.left != nullptr) {
    if (const PlanNode* hit = FindNode(*plan.left, kind)) return hit;
  }
  if (plan.right != nullptr) {
    if (const PlanNode* hit = FindNode(*plan.right, kind)) return hit;
  }
  return nullptr;
}

// Rewrites every hash join under *node to a merge join over sorts of its
// inputs: the same join, computed without a hash table.
void HashJoinsToMergeJoins(std::unique_ptr<PlanNode>* node) {
  PlanNode& n = **node;
  if (n.left != nullptr) HashJoinsToMergeJoins(&n.left);
  if (n.right != nullptr) HashJoinsToMergeJoins(&n.right);
  if (n.kind != PlanKind::kHashJoin) return;
  *node = MakeMergeJoin(MakeSort(std::move(n.left), n.left_key),
                        MakeSort(std::move(n.right), n.right_key),
                        n.left_key, n.right_key);
}

}  // namespace

DifferentialOracle::DifferentialOracle(DiskArray* array,
                                       const DifferentialOptions& options,
                                       uint64_t seed)
    : array_(array),
      options_(options),
      rng_(seed),
      temp_array_(array != nullptr ? array->num_disks() : 4,
                  DiskMode::kInstant),
      model_(CostParams()) {
  XPRS_CHECK(array_ != nullptr);
}

DifferentialOracle::Canon DifferentialOracle::Canonicalize(
    const std::vector<Tuple>& rows) {
  Canon canon;
  for (const Tuple& t : rows) canon.insert(t.ToString());
  return canon;
}

Status DifferentialOracle::Compare(const PlanNode& plan,
                                   const std::string& mode,
                                   const Canon& reference,
                                   const std::vector<Tuple>& got) {
  ++report_.executions_compared;
  Canon actual = Canonicalize(got);
  if (actual == reference) return Status::OK();

  // Render a small symmetric difference for the failure message.
  std::string diff;
  int shown = 0;
  for (const std::string& row : reference) {
    if (actual.count(row) != reference.count(row) && shown < 3) {
      diff += StrFormat("\n  reference x%d, %s x%d: %s",
                        static_cast<int>(reference.count(row)), mode.c_str(),
                        static_cast<int>(actual.count(row)), row.c_str());
      ++shown;
    }
  }
  for (const std::string& row : actual) {
    if (reference.count(row) == 0 && shown < 6) {
      diff += StrFormat("\n  only in %s: %s", mode.c_str(), row.c_str());
      ++shown;
    }
  }
  return Status::Internal(StrFormat(
      "differential mismatch in mode '%s': reference has %d rows, got %d%s\n"
      "plan:\n%s",
      mode.c_str(), static_cast<int>(reference.size()),
      static_cast<int>(actual.size()), diff.c_str(),
      plan.ToString().c_str()));
}

StatusOr<std::vector<Tuple>> DifferentialOracle::RunParallelFragments(
    const PlanNode& plan, int degree, bool vectorized) {
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  std::unique_ptr<BufferPool> pool;
  if (options_.run_buffer_pool &&
      options_.buffer_pool_frames >= 2 * BufferPool::kFramesPerShard)
    pool = std::make_unique<BufferPool>(array_, options_.buffer_pool_frames);
  std::map<int, TempResult> done;
  for (int id : graph.TopologicalOrder()) {
    std::map<int, const TempResult*> inputs;
    for (int dep : graph.fragment(id).deps) inputs[dep] = &done.at(dep);

    ParallelFragmentRun::Options run_options;
    run_options.initial_parallelism = degree;
    run_options.max_slots = std::max(options_.max_slots, degree);
    run_options.ctx.vectorized = vectorized;
    run_options.ctx.pool = pool.get();
    ParallelFragmentRun run(&graph, id, std::move(inputs), run_options);
    XPRS_RETURN_IF_ERROR(run.Start());
    if (options_.adjust_during_run) {
      // Exercise the §2.4 adjustment protocol mid-run: bounce the degree
      // down and back up. Adjustments racing fragment completion are
      // ignored by the run — both interleavings are legal.
      run.Adjust(1 + static_cast<int>(rng_.NextUint64(
                         static_cast<uint64_t>(run_options.max_slots))));
      run.Adjust(degree);
    }
    auto result = run.Wait();
    if (!result.ok()) return result.status();
    done[id] = std::move(result).value();
  }
  if (pool != nullptr && pool->PinnedFrames() != 0) {
    return Status::Internal(StrFormat(
        "parallel(%d) run left %d pinned frames\nplan:\n%s", degree,
        static_cast<int>(pool->PinnedFrames()), plan.ToString().c_str()));
  }
  return std::move(done.at(graph.root_fragment()).tuples);
}

StatusOr<std::vector<Tuple>> DifferentialOracle::RunMaster(
    const PlanNode& plan, bool chaos, bool vectorized) {
  MachineConfig machine;
  machine.num_cpus = 4;
  MasterOptions master_options;
  master_options.sched.policy = SchedPolicy::kInterWithAdj;
  master_options.max_slots = options_.max_slots;
  master_options.ctx.vectorized = vectorized;
  if (chaos) {
    master_options.retry = options_.chaos_retry;
    master_options.obs = options_.chaos_obs;
  }
  ParallelMaster master(machine, &model_, master_options);
  auto result = master.Run({QueryJob{&plan, /*query_id=*/1}});
  if (!result.ok()) return result.status();
  XPRS_RETURN_IF_ERROR(
      ValidateSchedDecisions(result->decisions, &result->task_finish_times));
  return std::move(result->query_results.at(1));
}

Status DifferentialOracle::CheckPlan(const PlanNode& plan) {
  // Structural invariant first: the decomposition must account for every
  // plan node exactly once.
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  XPRS_RETURN_IF_ERROR(ValidateFragmentGraph(graph, plan));

  ExecContext plain;
  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> ref,
                        ExecutePlanSequential(plan, plain));
  Canon reference = Canonicalize(ref);
  ++report_.plans_checked;
  ++report_.executions_compared;  // the reference run itself
  report_.reference_rows += ref.size();

  if (options_.run_fragmented) {
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          ExecutePlanFragmented(plan, plain));
    XPRS_RETURN_IF_ERROR(Compare(plan, "fragmented", reference, got));
  }

  for (int degree : options_.degrees) {
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          RunParallelFragments(plan, degree));
    XPRS_RETURN_IF_ERROR(
        Compare(plan, StrFormat("parallel(%d)", degree), reference, got));
  }

  if (options_.run_master) {
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got, RunMaster(plan));
    XPRS_RETURN_IF_ERROR(Compare(plan, "master", reference, got));
  }

  if (options_.run_profiled) {
    // Profiling decorators must be invisible to the result, and the
    // profile's root operator must account for every reference row.
    QueryProfile profile(&plan);
    ExecContext ctx;
    ctx.profile = &profile;
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          ExecutePlanSequential(plan, ctx));
    XPRS_RETURN_IF_ERROR(Compare(plan, "profiled", reference, got));
    const uint64_t root_out =
        profile.operators().front()->tuples_out.load(std::memory_order_relaxed);
    if (root_out != ref.size()) {
      return Status::Internal(StrFormat(
          "profiled run: root operator counted %llu tuples, reference has "
          "%llu\nplan:\n%s",
          static_cast<unsigned long long>(root_out),
          static_cast<unsigned long long>(ref.size()),
          plan.ToString().c_str()));
    }
  }

  if (options_.run_spill) {
    ExecContext ctx;
    ctx.spill.temp_array = &temp_array_;
    ctx.spill.memory_tuples = options_.spill_memory_tuples;
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          ExecutePlanSequential(plan, ctx));
    XPRS_RETURN_IF_ERROR(Compare(plan, "spill", reference, got));
  }

  if (FindNode(plan, PlanKind::kHashJoin) != nullptr) {
    std::unique_ptr<PlanNode> merged = plan.Clone();
    HashJoinsToMergeJoins(&merged);
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          ExecutePlanSequential(*merged, plain));
    XPRS_RETURN_IF_ERROR(Compare(plan, "merge-joins", reference, got));
  }

  if (options_.run_buffer_pool) {
    BufferPool pool(array_, options_.buffer_pool_frames);
    ExecContext ctx;
    ctx.pool = &pool;
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                          ExecutePlanSequential(plan, ctx));
    XPRS_RETURN_IF_ERROR(Compare(plan, "pooled", reference, got));
    if (pool.PinnedFrames() != 0) {
      return Status::Internal(
          StrFormat("pooled run left %d pinned frames\nplan:\n%s",
                    static_cast<int>(pool.PinnedFrames()),
                    plan.ToString().c_str()));
    }
  }

  if (options_.run_vectorized) {
    // Bare vectorized run at the default batch size.
    {
      XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                            ExecutePlanVectorized(plan, plain));
      XPRS_RETURN_IF_ERROR(Compare(plan, "vectorized", reference, got));
    }
    // Tiny batches stress every batch-boundary carry-over path.
    {
      ExecContext ctx;
      ctx.batch_rows = options_.small_batch_rows;
      XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                            ExecutePlanVectorized(plan, ctx));
      XPRS_RETURN_IF_ERROR(Compare(
          plan,
          StrFormat("vectorized(batch=%d)",
                    static_cast<int>(options_.small_batch_rows)),
          reference, got));
    }
    // Batch subtrees under fragment boundaries (temp sources bridged in
    // through BatchFromTupleOp).
    if (options_.run_fragmented) {
      ExecContext ctx;
      ctx.vectorized = true;
      XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                            ExecutePlanFragmented(plan, ctx));
      XPRS_RETURN_IF_ERROR(
          Compare(plan, "vectorized-fragmented", reference, got));
    }
    // Batched scans over the shared pool: page pins are scoped to each
    // page's decode, so the run must leave zero pinned frames.
    if (options_.run_buffer_pool) {
      BufferPool pool(array_, options_.buffer_pool_frames);
      ExecContext ctx;
      ctx.pool = &pool;
      XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                            ExecutePlanVectorized(plan, ctx));
      XPRS_RETURN_IF_ERROR(Compare(plan, "vectorized-pooled", reference, got));
      if (pool.PinnedFrames() != 0) {
        return Status::Internal(StrFormat(
            "vectorized pooled run left %d pinned frames\nplan:\n%s",
            static_cast<int>(pool.PinnedFrames()), plan.ToString().c_str()));
      }
    }
    // The batch operators own their plan nodes' stats: the profiled run
    // must be invisible to the result and account for every root row.
    if (options_.run_profiled) {
      QueryProfile profile(&plan);
      ExecContext ctx;
      ctx.profile = &profile;
      ctx.vectorized = true;
      XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> got,
                            ExecutePlanSequential(plan, ctx));
      XPRS_RETURN_IF_ERROR(
          Compare(plan, "vectorized-profiled", reference, got));
      const uint64_t root_out = profile.operators().front()->tuples_out.load(
          std::memory_order_relaxed);
      if (root_out != ref.size()) {
        return Status::Internal(StrFormat(
            "vectorized profiled run: root operator counted %llu tuples, "
            "reference has %llu\nplan:\n%s",
            static_cast<unsigned long long>(root_out),
            static_cast<unsigned long long>(ref.size()),
            plan.ToString().c_str()));
      }
    }
    // Slave pipelines built vectorized (one degree keeps the mode cheap).
    if (!options_.degrees.empty()) {
      const int degree = options_.degrees.front();
      XPRS_ASSIGN_OR_RETURN(
          std::vector<Tuple> got,
          RunParallelFragments(plan, degree, /*vectorized=*/true));
      XPRS_RETURN_IF_ERROR(
          Compare(plan, StrFormat("vectorized-parallel(%d)", degree),
                  reference, got));
    }
    // The master with vectorized slaves, as the serving engine runs it.
    if (options_.run_master) {
      XPRS_ASSIGN_OR_RETURN(
          std::vector<Tuple> got,
          RunMaster(plan, /*chaos=*/false, /*vectorized=*/true));
      XPRS_RETURN_IF_ERROR(Compare(plan, "vectorized-master", reference, got));
    }
  }
  return Status::OK();
}

Status DifferentialOracle::FaultCase(const PlanNode& plan,
                                     const Canon& reference,
                                     const ExecContext& ctx,
                                     ScriptedFaultInjector* injector,
                                     const std::string& label) {
  ++report_.fault_cases;
  const uint64_t before = injector->faults_injected();
  auto faulted = ExecutePlanSequential(plan, ctx);
  const uint64_t fired = injector->faults_injected() - before;
  report_.faults_injected += fired;

  if (ctx.pool != nullptr && ctx.pool->PinnedFrames() != 0) {
    return Status::Internal(StrFormat(
        "fault case '%s' left %d pinned frames after the faulted run",
        label.c_str(), static_cast<int>(ctx.pool->PinnedFrames())));
  }
  if (faulted.ok() && fired > 0) {
    return Status::Internal(StrFormat(
        "fault case '%s': %d injected fault(s) did not surface as Status\n"
        "plan:\n%s",
        label.c_str(), static_cast<int>(fired), plan.ToString().c_str()));
  }
  // fired == 0 with an OK run means the plan never exercised this hook
  // (e.g. an empty index range, or a spill hook on a non-spilling plan);
  // the comparison below still has to hold.

  // Transient faults clear after firing: the identical retry must succeed
  // and reproduce the reference exactly.
  auto retried = ExecutePlanSequential(plan, ctx);
  if (!retried.ok()) {
    return Status::Internal(StrFormat(
        "fault case '%s': retry after transient fault failed: %s",
        label.c_str(), retried.status().ToString().c_str()));
  }
  XPRS_RETURN_IF_ERROR(
      Compare(plan, StrFormat("%s-retry", label.c_str()), reference,
              retried.value()));
  if (ctx.pool != nullptr && ctx.pool->PinnedFrames() != 0) {
    return Status::Internal(
        StrFormat("fault case '%s' left %d pinned frames after the retry",
                  label.c_str(), static_cast<int>(ctx.pool->PinnedFrames())));
  }
  return Status::OK();
}

Status DifferentialOracle::CheckFaultSurfacing(const PlanNode& plan) {
  ExecContext plain;
  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> ref,
                        ExecutePlanSequential(plan, plain));
  Canon reference = Canonicalize(ref);

  {
    // Disk-array read hook: the first page read fails with IoError.
    ScriptedFaultInjector injector;
    ScriptedFaultInjector::Script script;
    script.fail_nth_read = 1;
    injector.Arm(script);
    array_->SetFaultInjector(&injector);
    Status status = FaultCase(plan, reference, plain, &injector, "read-fault");
    array_->SetFaultInjector(nullptr);
    XPRS_RETURN_IF_ERROR(status);
  }
  {
    // Buffer-pool fetch hook: the first Fetch fails before touching pool
    // state; pins must balance on both the faulted run and the retry.
    BufferPool pool(array_, options_.buffer_pool_frames);
    ScriptedFaultInjector injector;
    ScriptedFaultInjector::Script script;
    script.fail_nth_fetch = 1;
    injector.Arm(script);
    pool.SetFaultInjector(&injector);
    ExecContext ctx;
    ctx.pool = &pool;
    Status status = FaultCase(plan, reference, ctx, &injector, "fetch-fault");
    pool.SetFaultInjector(nullptr);
    XPRS_RETURN_IF_ERROR(status);
  }
  if (const PlanNode* scan = FindNode(plan, PlanKind::kSeqScan);
      scan != nullptr && scan->table != nullptr) {
    // Heap-file read hook: targets a single relation's pages instead of
    // the whole array; the first ReadPage of that file fails.
    ScriptedFaultInjector injector;
    ScriptedFaultInjector::Script script;
    script.fail_nth_read = 1;
    injector.Arm(script);
    scan->table->file().SetFaultInjector(&injector);
    Status status =
        FaultCase(plan, reference, plain, &injector, "heapfile-read-fault");
    scan->table->file().SetFaultInjector(nullptr);
    XPRS_RETURN_IF_ERROR(status);
  }
  if (const PlanNode* scan = FindNode(plan, PlanKind::kIndexScan);
      scan != nullptr && scan->table != nullptr &&
      scan->table->mutable_index() != nullptr) {
    // B+tree read hook: the first checked descent/scan over the index
    // fails before any tuple fetch.
    ScriptedFaultInjector injector;
    ScriptedFaultInjector::Script script;
    script.fail_nth_read = 1;
    injector.Arm(script);
    scan->table->mutable_index()->SetFaultInjector(&injector);
    Status status =
        FaultCase(plan, reference, plain, &injector, "btree-read-fault");
    scan->table->mutable_index()->SetFaultInjector(nullptr);
    XPRS_RETURN_IF_ERROR(status);
  }
  {
    // Temp-array write hook: the first spill write is torn short. Plans
    // that never spill exercise the vacuous branch of FaultCase.
    ScriptedFaultInjector injector;
    ScriptedFaultInjector::Script script;
    script.short_nth_write = 1;
    script.short_write_bytes = 512;
    injector.Arm(script);
    temp_array_.SetFaultInjector(&injector);
    ExecContext ctx;
    ctx.spill.temp_array = &temp_array_;
    ctx.spill.memory_tuples = options_.spill_memory_tuples;
    Status status =
        FaultCase(plan, reference, ctx, &injector, "short-write-fault");
    temp_array_.SetFaultInjector(nullptr);
    XPRS_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status DifferentialOracle::ChaosCase(
    const PlanNode& plan, const Canon& reference, const std::string& label,
    const std::function<StatusOr<std::vector<Tuple>>()>& run) {
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.read_fault_rate = options_.chaos_read_fault_rate;
  injector.Arm(script, rng_.Next());
  array_->SetFaultInjector(&injector);
  ++report_.fault_cases;
  auto got = run();
  array_->SetFaultInjector(nullptr);
  const uint64_t fired = injector.faults_injected();
  report_.faults_injected += fired;

  if (!got.ok()) {
    // A chaos failure is legal exactly when it is retryable: the caller
    // could re-submit and (the faults being independent) expect to make
    // progress. Cancelled / Internal / crash-shaped outcomes are bugs.
    if (!IsRetryableStatus(got.status())) {
      return Status::Internal(StrFormat(
          "chaos mode '%s' failed with a non-retryable status: %s\nplan:\n%s",
          label.c_str(), got.status().ToString().c_str(),
          plan.ToString().c_str()));
    }
    ++report_.chaos_retryable_failures;
    return Status::OK();
  }
  if (fired > 0) ++report_.chaos_recovered;
  return Compare(plan, StrFormat("chaos-%s", label.c_str()), reference,
                 got.value());
}

Status DifferentialOracle::CheckPlanChaos(const PlanNode& plan) {
  if (options_.chaos_read_fault_rate <= 0.0) return Status::OK();

  // Clean reference first (no injector armed).
  ExecContext plain;
  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> ref,
                        ExecutePlanSequential(plan, plain));
  Canon reference = Canonicalize(ref);
  ++report_.plans_checked;
  ++report_.executions_compared;
  report_.reference_rows += ref.size();

  // Modes behind the resilience ladder: expected to absorb most faults
  // (retry / degrade), recorded on chaos_obs.
  XPRS_RETURN_IF_ERROR(ChaosCase(plan, reference, "resilient-serial", [&] {
    ResilientExecOptions res;
    res.retry = options_.chaos_retry;
    res.degrade_spill_array = &temp_array_;
    res.degrade_spill_tuples = options_.spill_memory_tuples;
    res.obs = options_.chaos_obs;
    return ExecutePlanResilient(plan, plain, res);
  }));
  if (options_.run_master) {
    XPRS_RETURN_IF_ERROR(ChaosCase(plan, reference, "master", [&] {
      return RunMaster(plan, /*chaos=*/true);
    }));
  }

  // Bare modes: no ladder, so injected faults usually surface — which is
  // fine as long as the status is retryable and the result never diverges.
  if (options_.run_fragmented) {
    XPRS_RETURN_IF_ERROR(ChaosCase(plan, reference, "fragmented", [&] {
      ExecContext ctx;
      return ExecutePlanFragmented(plan, ctx);
    }));
  }
  for (int degree : options_.degrees) {
    XPRS_RETURN_IF_ERROR(
        ChaosCase(plan, reference, StrFormat("parallel(%d)", degree),
                  [&] { return RunParallelFragments(plan, degree); }));
  }
  if (options_.run_buffer_pool) {
    BufferPool pool(array_, options_.buffer_pool_frames);
    ExecContext ctx;
    ctx.pool = &pool;
    XPRS_RETURN_IF_ERROR(
        ChaosCase(plan, reference, "pooled",
                  [&] { return ExecutePlanSequential(plan, ctx); }));
    if (pool.PinnedFrames() != 0) {
      return Status::Internal(
          StrFormat("chaos pooled run left %d pinned frames\nplan:\n%s",
                    static_cast<int>(pool.PinnedFrames()),
                    plan.ToString().c_str()));
    }
  }
  if (options_.run_vectorized) {
    // Bare vectorized run under chaos: faults surfacing mid-batch (scan
    // decode, hash build) must propagate retryably through the adapter.
    XPRS_RETURN_IF_ERROR(
        ChaosCase(plan, reference, "vectorized",
                  [&] { return ExecutePlanVectorized(plan, plain); }));
  }
  return Status::OK();
}

Status DifferentialOracle::CheckRandomReadFaults(const PlanNode& plan,
                                                 double rate) {
  if (rate <= 0.0) return Status::OK();
  ExecContext plain;
  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> ref,
                        ExecutePlanSequential(plan, plain));
  Canon reference = Canonicalize(ref);

  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.read_fault_rate = rate;
  injector.Arm(script, rng_.Next());
  array_->SetFaultInjector(&injector);
  ++report_.fault_cases;
  auto faulted = ExecutePlanSequential(plan, plain);
  array_->SetFaultInjector(nullptr);
  const uint64_t fired = injector.faults_injected();
  report_.faults_injected += fired;

  if (faulted.ok()) {
    if (fired > 0) {
      return Status::Internal(StrFormat(
          "random read faults: %d injected fault(s) did not surface\n"
          "plan:\n%s",
          static_cast<int>(fired), plan.ToString().c_str()));
    }
    XPRS_RETURN_IF_ERROR(
        Compare(plan, "random-fault-clean", reference, faulted.value()));
  }

  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> retried,
                        ExecutePlanSequential(plan, plain));
  return Compare(plan, "random-fault-retry", reference, retried);
}

Status DifferentialOracle::CheckPlansConcurrent(
    const std::vector<const PlanNode*>& plans) {
  return RunConcurrent(plans, /*chaos=*/false);
}

Status DifferentialOracle::CheckPlansConcurrentChaos(
    const std::vector<const PlanNode*>& plans) {
  if (options_.chaos_read_fault_rate <= 0.0) return Status::OK();
  return RunConcurrent(plans, /*chaos=*/true);
}

Status DifferentialOracle::RunConcurrent(
    const std::vector<const PlanNode*>& plans, bool chaos) {
  if (options_.concurrent_sessions <= 0 || plans.empty()) return Status::OK();

  // Serial references first, with nothing armed and no pool attached.
  ExecContext plain;
  std::vector<Canon> references;
  references.reserve(plans.size());
  for (const PlanNode* plan : plans) {
    XPRS_CHECK(plan != nullptr);
    XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> ref,
                          ExecutePlanSequential(*plan, plain));
    report_.reference_rows += ref.size();
    references.push_back(Canonicalize(ref));
    ++report_.plans_checked;
  }

  BufferPool pool(array_, options_.buffer_pool_frames);

  ServeOptions serve;
  serve.machine = MachineConfig::PaperConfig();
  serve.max_concurrent = options_.concurrent_sessions;
  serve.max_queue_depth =
      std::max(options_.concurrent_queue_depth, plans.size());
  QueryScheduler scheduler(serve);

  ScriptedFaultInjector injector;
  if (chaos) {
    ScriptedFaultInjector::Script script;
    script.read_fault_rate = options_.chaos_read_fault_rate;
    injector.Arm(script, rng_.Next());
    array_->SetFaultInjector(&injector);
    ++report_.fault_cases;
  }

  std::vector<ServeTicket> tickets(plans.size());
  Status overall = Status::OK();
  for (size_t i = 0; i < plans.size(); ++i) {
    const PlanNode* plan = plans[i];
    ServeRequest request;
    PlanEstimate est = model_.Estimate(*plan);
    request.estimate.name = StrFormat("concurrent-%d", static_cast<int>(i));
    request.estimate.seq_time = std::max(est.seq_time, 1e-6);
    request.estimate.total_ios = est.ios;
    request.session_id =
        static_cast<int64_t>(i) % options_.concurrent_sessions;
    request.label = request.estimate.name;
    if (chaos) {
      // Behind the resilience ladder: injected faults are retried, and
      // persistent pool pressure degrades to the spill path.
      request.job = [this, plan,
                     &pool](const ExecGrant& grant) -> StatusOr<SqlResult> {
        ExecContext ctx;
        ctx.pool = &pool;
        ctx.cancel = grant.cancel;
        ResilientExecOptions res;
        res.retry = options_.chaos_retry;
        res.degrade_spill_array = &temp_array_;
        res.degrade_spill_tuples = options_.spill_memory_tuples;
        res.obs = options_.chaos_obs;
        XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                              ExecutePlanResilient(*plan, ctx, res));
        SqlResult result;
        result.rows = std::move(rows);
        return result;
      };
    } else {
      request.job = [plan,
                     &pool](const ExecGrant& grant) -> StatusOr<SqlResult> {
        ExecContext ctx;
        ctx.pool = &pool;
        ctx.cancel = grant.cancel;
        XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> rows,
                              ExecutePlanSequential(*plan, ctx));
        SqlResult result;
        result.rows = std::move(rows);
        return result;
      };
    }
    StatusOr<ServeTicket> ticket = scheduler.Submit(std::move(request));
    if (!ticket.ok()) {
      overall = Status::Internal(
          StrFormat("concurrent submit %d rejected: %s", static_cast<int>(i),
                    ticket.status().ToString().c_str()));
      break;
    }
    tickets[i] = *ticket;
  }

  // Wait for every accepted query before disarming anything.
  for (size_t i = 0; i < plans.size(); ++i) {
    if (!tickets[i].valid()) continue;
    StatusOr<SqlResult> result = tickets[i].Wait();
    if (!result.ok()) {
      if (chaos && IsRetryableStatus(result.status())) {
        ++report_.chaos_retryable_failures;
        continue;
      }
      if (overall.ok()) {
        overall = Status::Internal(StrFormat(
            "concurrent query %d failed: %s\nplan:\n%s", static_cast<int>(i),
            result.status().ToString().c_str(),
            plans[i]->ToString().c_str()));
      }
      continue;
    }
    Status compared =
        Compare(*plans[i], chaos ? "concurrent-chaos" : "concurrent",
                references[i], result->rows);
    if (compared.ok() && chaos && injector.faults_injected() > 0)
      ++report_.chaos_recovered;
    if (!compared.ok() && overall.ok()) overall = compared;
  }

  scheduler.Shutdown();
  if (chaos) {
    array_->SetFaultInjector(nullptr);
    report_.faults_injected += injector.faults_injected();
  }
  XPRS_RETURN_IF_ERROR(overall);
  if (pool.PinnedFrames() != 0) {
    return Status::Internal(
        StrFormat("concurrent replay left %d pinned frames",
                  static_cast<int>(pool.PinnedFrames())));
  }
  if (scheduler.NumQueued() != 0 || scheduler.NumRunning() != 0) {
    return Status::Internal("concurrent replay left queries behind");
  }
  return Status::OK();
}

Status DifferentialOracle::CheckScanIoConservation(Table* table) {
  XPRS_CHECK(table != nullptr);
  ExecContext plain;

  array_->ResetStats();
  SeqScanOp serial(table, Predicate(), plain);
  XPRS_ASSIGN_OR_RETURN(std::vector<Tuple> serial_rows, Drain(&serial));
  const uint64_t serial_pages = serial.pages_read();
  const uint64_t serial_reads = array_->total_stats().reads;
  Canon reference = Canonicalize(serial_rows);
  ++report_.executions_compared;

  if (serial_pages != table->stats().num_pages) {
    return Status::Internal(StrFormat(
        "serial scan of %s read %d pages but the catalog says %d",
        table->name().c_str(), static_cast<int>(serial_pages),
        static_cast<int>(table->stats().num_pages)));
  }

  // The scan as a one-node fragment, run as the master runs it: slaves pull
  // pages from one adjustable partition, which is re-cut once mid-scan. A
  // vectorized slave scans its slot with the batch scan.
  std::unique_ptr<PlanNode> plan = MakeSeqScan(table, Predicate());
  FragmentGraph graph = FragmentGraph::Decompose(*plan);
  for (bool vectorized : {false, true}) {
    for (int degree : options_.degrees) {
      QueryProfile profile(plan.get());
      ParallelFragmentRun::Options run_options;
      run_options.initial_parallelism = degree;
      run_options.max_slots = std::max(options_.max_slots, degree + 1);
      run_options.ctx.profile = &profile;
      run_options.ctx.vectorized = vectorized;
      // Any parallelism but the current one, so the rendezvous moves pages.
      int adjust_to =
          1 + static_cast<int>(rng_.NextUint64(
                  static_cast<uint64_t>(run_options.max_slots - 1)));
      if (adjust_to >= degree) ++adjust_to;

      array_->ResetStats();
      ParallelFragmentRun run(&graph, graph.root_fragment(), {}, run_options);
      XPRS_RETURN_IF_ERROR(run.Start());
      run.Adjust(adjust_to);
      XPRS_ASSIGN_OR_RETURN(TempResult merged, run.Wait());
      const uint64_t partition_pages =
          profile.StatsFor(plan.get())->pages_read.load();
      const uint64_t partition_reads = array_->total_stats().reads;
      const std::string mode =
          StrFormat("%sparallel-scan(%d)", vectorized ? "vectorized-" : "",
                    degree);
      // §2.2: parallelism rescales time, never the io demand D_i. The
      // slaves must cover the serial page set exactly, both as counted by
      // the scans and as served by the array.
      if (partition_pages != serial_pages || partition_reads != serial_reads) {
        return Status::Internal(StrFormat(
            "io conservation violated on %s in mode %s (adjusted to %d): "
            "serial %d pages (%d array reads), slaves %d pages (%d array "
            "reads)",
            table->name().c_str(), mode.c_str(), adjust_to,
            static_cast<int>(serial_pages), static_cast<int>(serial_reads),
            static_cast<int>(partition_pages),
            static_cast<int>(partition_reads)));
      }
      XPRS_RETURN_IF_ERROR(Compare(*plan, mode, reference, merged.tuples));
    }
  }
  array_->ResetStats();
  return Status::OK();
}

Status CheckShortWriteSurfacing(Catalog* catalog, const std::string& name,
                                uint64_t seed) {
  XPRS_CHECK(catalog != nullptr);
  ScriptedFaultInjector injector;
  ScriptedFaultInjector::Script script;
  script.short_nth_write = 1;
  script.short_write_bytes = 256;
  injector.Arm(script);
  catalog->disk_array()->SetFaultInjector(&injector);
  Rng rng(seed);
  auto built = BuildRelation(catalog, name, /*num_tuples=*/300,
                             /*text_width=*/24, /*key_range=*/50, &rng);
  catalog->disk_array()->SetFaultInjector(nullptr);
  if (built.ok()) {
    return Status::Internal(
        "short write during bulk load did not surface as Status");
  }
  if (injector.faults_injected() == 0) {
    return Status::Internal(
        "bulk load failed but no fault was injected: " +
        built.status().ToString());
  }
  return Status::OK();
}

}  // namespace xprs
