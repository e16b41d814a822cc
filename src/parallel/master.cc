#include "parallel/master.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/logging.h"
#include "util/str.h"

namespace xprs {

namespace {

// Appends one entry to the profile's §2.4 parallelism timeline, if the
// query being profiled owns this fragment.
void RecordTimeline(QueryProfile* profile, const PlanNode* frag_root,
                    AdjustmentEvent::Kind kind, double time, int frag_id,
                    TaskId task, double parallelism) {
  if (profile == nullptr || !profile->Covers(frag_root)) return;
  AdjustmentEvent event;
  event.kind = kind;
  event.time_seconds = time;
  event.frag_id = frag_id;
  event.task = task;
  event.parallelism = parallelism;
  profile->RecordEvent(event);
}

}  // namespace

ParallelMaster::ParallelMaster(const MachineConfig& machine,
                               const CostModel* model,
                               const MasterOptions& options)
    : machine_(machine), model_(model), options_(options) {
  XPRS_CHECK(model != nullptr);
  XPRS_CHECK_GE(options.max_slots, 1);
}

double ParallelMaster::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::map<int, const TempResult*> ParallelMaster::GatherInputs(
    const TaskState& task) {
  QueryState& query = queries_[task.query_index];
  std::map<int, const TempResult*> inputs;
  for (int dep : query.graph.fragment(task.frag_id).deps) {
    TaskState& dep_task = tasks_.at(query.task_ids[dep]);
    XPRS_CHECK_MSG(dep_task.completed, "scheduler started task before dep");
    inputs[dep] = &dep_task.result;
  }
  return inputs;
}

void ParallelMaster::LaunchRun(TaskId id, int parallelism, bool notify) {
  TaskState& task = tasks_.at(id);
  QueryState& query = queries_[task.query_index];

  ParallelFragmentRun::Options run_options;
  run_options.initial_parallelism = parallelism;
  run_options.max_slots = options_.max_slots;
  run_options.ctx = options_.ctx;

  task.run = std::make_unique<ParallelFragmentRun>(
      &query.graph, task.frag_id, GatherInputs(task), run_options);
  task.waited = false;
  if (notify) {
    task.run->set_on_finish([this, id] {
      {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_queue_.push_back(id);
      }
      done_cv_.notify_all();
    });
  }
  XPRS_CHECK_OK(task.run->Start());
}

void ParallelMaster::StartTask(TaskId id, double parallelism) {
  TaskState& task = tasks_.at(id);
  XPRS_CHECK(task.run == nullptr);
  QueryState& query = queries_[task.query_index];

  task.parallelism = ClampToGrant(parallelism);
  task.failures = 0;
  if (options_.obs.tracing()) {
    options_.obs.Emit(
        {StrFormat("frag q%lld/f%d", static_cast<long long>(query.job.query_id),
                   task.frag_id),
         "parallel", 'B', Now(), 0.0, id,
         {{"parallelism", task.parallelism},
          {"seq_time_est", task.profile.seq_time}}});
  }
  if (options_.obs.metrics != nullptr)
    options_.obs.metrics->counter("parallel.fragments_started")->Increment();
  RecordTimeline(options_.ctx.profile,
                 query.graph.fragment(task.frag_id).root,
                 AdjustmentEvent::Kind::kStart, Now(), task.frag_id, id,
                 task.parallelism);
  LaunchRun(id, task.parallelism, /*notify=*/true);
}

void ParallelMaster::AdjustParallelism(TaskId id, double parallelism) {
  TaskState& task = tasks_.at(id);
  XPRS_CHECK(task.run != nullptr);
  const int target = ClampToGrant(parallelism);
  task.parallelism = target;  // retries re-dispatch at the adjusted degree
  task.run->Adjust(target);
  if (options_.obs.tracing()) {
    options_.obs.Emit({"adjust", "parallel", 'i', Now(), 0.0, id,
                       {{"parallelism", target}}});
  }
  if (options_.obs.metrics != nullptr)
    options_.obs.metrics->counter("parallel.adjustments")->Increment();
  RecordTimeline(options_.ctx.profile,
                 queries_[task.query_index].graph.fragment(task.frag_id).root,
                 AdjustmentEvent::Kind::kAdjust, Now(), task.frag_id, id,
                 target);
}

int ParallelMaster::ClampToGrant(double parallelism) const {
  return std::clamp(static_cast<int>(std::llround(parallelism)), 1,
                    options_.max_slots);
}

double ParallelMaster::RemainingSeqTime(TaskId id) const {
  const TaskState& task = tasks_.at(id);
  if (task.run == nullptr) return task.profile.seq_time;
  double left = 1.0 - task.run->Progress();
  return std::max(0.0, task.profile.seq_time * left);
}

StatusOr<MasterRunResult> ParallelMaster::Run(
    const std::vector<QueryJob>& queries) {
  queries_.clear();
  tasks_.clear();
  done_queue_.clear();

  // Decompose and profile every query.
  std::vector<TaskProfile> all_profiles;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    XPRS_CHECK(queries[qi].plan != nullptr);
    QueryState qs;
    qs.job = queries[qi];
    qs.graph = FragmentGraph::Decompose(*queries[qi].plan);
    TaskId base = static_cast<TaskId>(qi) * kTaskIdStride;
    XPRS_CHECK_LT(qs.graph.fragments().size(),
                  static_cast<size_t>(kTaskIdStride));
    std::vector<TaskProfile> profiles =
        model_->FragmentProfiles(qs.graph, queries[qi].query_id, base);
    for (const Fragment& frag : qs.graph.fragments()) {
      TaskId id = base + frag.id;
      qs.task_ids.push_back(id);
      TaskState ts;
      ts.query_index = static_cast<int>(qi);
      ts.frag_id = frag.id;
      ts.profile = profiles[frag.id];
      tasks_[id] = std::move(ts);
    }
    all_profiles.insert(all_profiles.end(), profiles.begin(), profiles.end());
    queries_.push_back(std::move(qs));
  }

  // The scheduler plans over the granted processors only, so none of its
  // starts or adjustments exceeds the grant.
  MachineConfig granted = machine_;
  granted.num_cpus = std::min(machine_.num_cpus, options_.max_slots);
  AdaptiveScheduler scheduler(granted, options_.sched);
  scheduler.Bind(this);
  scheduler.SetObservability(options_.obs);
  start_ = std::chrono::steady_clock::now();
  scheduler.SubmitBatch(all_profiles);

  MasterRunResult result;
  size_t completed = 0;
  CancellationToken* const cancel = options_.ctx.cancel;
  while (completed < tasks_.size()) {
    TaskId id;
    {
      std::unique_lock<std::mutex> lock(done_mutex_);
      for (;;) {
        if (!done_queue_.empty()) {
          id = done_queue_.front();
          done_queue_.pop_front();
          break;
        }
        // The control loop's cancellation point: a cancelled or expired
        // query stops here even if every slave is wedged mid-fragment.
        if (cancel != nullptr) {
          Status live = cancel->Check();
          if (!live.ok()) {
            lock.unlock();
            EmitResilienceEvent(
                options_.obs,
                live.code() == StatusCode::kDeadlineExceeded
                    ? "cancel.deadline"
                    : "cancel.query",
                Now(), -1, {{"status", live.ToString()}});
            DrainOutstanding();
            return live;
          }
        }
        done_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
    }
    TaskState& task = tasks_.at(id);
    auto temp = task.run->Wait();
    task.waited = true;
    if (!temp.ok()) {
      temp = RecoverTask(id, temp.status(), &result);
      if (!temp.ok()) {
        // A slave can observe the token before the control loop does;
        // publish the cancel event on this exit path too.
        const StatusCode code = temp.status().code();
        if (code == StatusCode::kCancelled ||
            code == StatusCode::kDeadlineExceeded) {
          EmitResilienceEvent(options_.obs,
                              code == StatusCode::kDeadlineExceeded
                                  ? "cancel.deadline"
                                  : "cancel.query",
                              Now(), -1,
                              {{"status", temp.status().ToString()}});
        }
        DrainOutstanding();
        return temp.status();
      }
    }
    task.result = std::move(temp).value();
    task.completed = true;
    result.task_finish_times[id] = Now();
    if (options_.obs.tracing()) {
      const QueryState& qs = queries_[task.query_index];
      options_.obs.Emit(
          {StrFormat("frag q%lld/f%d",
                     static_cast<long long>(qs.job.query_id), task.frag_id),
           "parallel", 'E', Now(), 0.0, id,
           {{"tuples", static_cast<int64_t>(task.result.tuples.size())}}});
    }
    if (options_.obs.metrics != nullptr)
      options_.obs.metrics->counter("parallel.fragments_completed")
          ->Increment();
    RecordTimeline(options_.ctx.profile,
                   queries_[task.query_index].graph.fragment(task.frag_id).root,
                   AdjustmentEvent::Kind::kFinish, Now(), task.frag_id, id,
                   task.run->parallelism());
    ++completed;
    // The scheduler may immediately start or adjust other tasks here.
    scheduler.OnTaskFinished(id);
  }
  XPRS_CHECK(scheduler.Idle());

  result.elapsed_seconds = Now();
  result.num_adjustments = scheduler.num_adjustments();
  result.decisions = scheduler.decisions();
  for (auto& qs : queries_) {
    TaskId root = qs.task_ids[qs.graph.root_fragment()];
    result.query_results[qs.job.query_id] =
        std::move(tasks_.at(root).result.tuples);
  }
  return result;
}

StatusOr<TempResult> ParallelMaster::RecoverTask(TaskId id, Status failure,
                                                 MasterRunResult* result) {
  TaskState& task = tasks_.at(id);
  QueryState& query = queries_[task.query_index];
  const PlanNode* frag_root = query.graph.fragment(task.frag_id).root;
  while (IsRetryableStatus(failure)) {
    ++task.failures;
    if (task.failures < options_.retry.max_attempts) {
      // Same fragment, same granule protocol, fresh run.
      ++result->fragment_retries;
      EmitResilienceEvent(options_.obs, "retry.fragment", Now(), id,
                          {{"failures", task.failures},
                           {"parallelism", task.parallelism},
                           {"status", failure.ToString()}});
    } else if (task.parallelism > 1) {
      // Rung exhausted: degrade via the §2.4 adjustment path — the next
      // attempt runs at half the parallelism with a fresh retry budget.
      task.parallelism = std::max(1, task.parallelism / 2);
      task.failures = 0;
      ++result->parallelism_degrades;
      EmitResilienceEvent(options_.obs, "degrade.parallelism", Now(), id,
                          {{"parallelism", task.parallelism},
                           {"status", failure.ToString()}});
      RecordTimeline(options_.ctx.profile, frag_root,
                     AdjustmentEvent::Kind::kAdjust, Now(), task.frag_id, id,
                     task.parallelism);
    } else {
      // Ladder floor: one pass with the trusted serial executor on the
      // master thread.
      ++result->serial_fallbacks;
      EmitResilienceEvent(options_.obs, "degrade.serial", Now(), id,
                          {{"status", failure.ToString()}});
      RecordTimeline(options_.ctx.profile, frag_root,
                     AdjustmentEvent::Kind::kAdjust, Now(), task.frag_id, id,
                     1.0);
      return ExecuteFragment(query.graph, task.frag_id, GatherInputs(task),
                             options_.ctx);
    }
    XPRS_RETURN_IF_ERROR(BackoffSleep(options_.retry,
                                      std::max(1, task.failures),
                                      options_.ctx.cancel));
    // The recovery attempt is awaited synchronously (no done-queue
    // notification), so the main loop never sees it twice.
    LaunchRun(id, task.parallelism, /*notify=*/false);
    auto attempt = task.run->Wait();
    task.waited = true;
    if (attempt.ok()) return attempt;
    failure = attempt.status();
  }
  return failure;
}

void ParallelMaster::DrainOutstanding() {
  for (auto& entry : tasks_) {
    TaskState& task = entry.second;
    if (task.run != nullptr && !task.waited) {
      // Join the slaves and drop the result: the query is aborting, and
      // returning before the threads exit would leak pins past Run().
      (void)task.run->Wait();
      task.waited = true;
    }
  }
}

}  // namespace xprs
