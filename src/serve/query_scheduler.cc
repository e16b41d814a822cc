#include "serve/query_scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "resilience/retry.h"
#include "util/str.h"

namespace xprs {

namespace {

constexpr const char* kAdmissionRejectPrefix = "admission queue full";

// Times one query may be preempted before it stops being a victim. A
// preempted query re-runs from scratch, so a second eviction would throw
// its work away again; capping it at one keeps a low-priority query from
// starving behind a stream of higher-priority arrivals.
constexpr int kMaxPreemptions = 1;

int64_t SteadyNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

// --- ServeTicket -----------------------------------------------------------

StatusOr<SqlResult> ServeTicket::Wait() const {
  if (state_ == nullptr)
    return Status::FailedPrecondition("wait on an empty ticket");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return *state_->result;
}

bool ServeTicket::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->done;
}

int64_t ServeTicket::query_id() const {
  return state_ != nullptr ? state_->id : -1;
}

// --- QueryScheduler --------------------------------------------------------

QueryScheduler::QueryScheduler(const ServeOptions& options)
    : options_(options),
      io_budget_(options.machine.nominal_bandwidth()),
      overload_(options.obs),
      paused_(options.start_paused) {
  ResolveMetrics();
  int workers = std::max(1, options_.max_concurrent);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::ResolveMetrics() {
  MetricsRegistry* m = options_.obs.metrics;
  if (m == nullptr) return;
  m_submitted_ = m->counter("serve.submitted");
  m_admitted_ = m->counter("serve.admitted");
  m_rejected_queue_full_ = m->counter("serve.rejected.queue_full");
  m_rejected_deadline_ = m->counter("serve.rejected.deadline");
  m_dispatched_ = m->counter("serve.dispatched");
  m_completed_ = m->counter("serve.completed");
  m_failed_ = m->counter("serve.failed");
  m_degraded_ = m->counter("serve.degraded");
  m_cancelled_ = m->counter("serve.cancelled");
  m_rejected_shed_ = m->counter("serve.rejected.shed");
  m_preempted_ = m->counter("serve.preempted");
  g_queued_ = m->gauge("serve.queued");
  g_running_ = m->gauge("serve.running");
  g_peak_running_ = m->gauge("serve.peak_running");
  h_queue_wait_ = m->histogram("serve.queue_wait_seconds");
  h_run_seconds_ = m->histogram("serve.run_seconds");
}

void QueryScheduler::PublishGaugesLocked() {
  if (g_queued_ != nullptr)
    g_queued_->Set(static_cast<double>(queue_.size()));
  if (g_running_ != nullptr)
    g_running_->Set(static_cast<double>(running_.size()));
  if (g_peak_running_ != nullptr)
    g_peak_running_->Set(static_cast<double>(peak_running_));
}

bool QueryScheduler::IsAdmissionReject(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message().rfind(kAdmissionRejectPrefix, 0) == 0;
}

StatusOr<ServeTicket> QueryScheduler::Submit(ServeRequest request) {
  if (!request.job)
    return Status::InvalidArgument("serve request carries no job");
  if (request.weight <= 0) request.weight = 1.0;
  // Direct submissions (no serving engine in front) still get a lifecycle
  // when tracing is on, so every query in a trace has its span tree.
  if (request.lifecycle == nullptr && options_.obs.tracing()) {
    request.lifecycle = std::make_shared<QueryLifecycle>(
        options_.obs, request.label, request.session_id);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  if (m_submitted_ != nullptr) m_submitted_->Increment();
  if (shutdown_) {
    Status status = Status::FailedPrecondition("query scheduler is shut down");
    if (request.lifecycle != nullptr) request.lifecycle->OnRejected(status);
    return status;
  }
  if (request.cancel != nullptr) {
    Status token = request.cancel->Check();
    if (!token.ok()) {
      if (m_rejected_deadline_ != nullptr &&
          token.code() == StatusCode::kDeadlineExceeded)
        m_rejected_deadline_->Increment();
      if (request.lifecycle != nullptr) request.lifecycle->OnRejected(token);
      return token;
    }
  }
  // Overload shedding rejects low-priority work before it ever queues;
  // the controller also shrinks the effective queue while shedding so a
  // deep backlog drains instead of growing. A queue already at capacity
  // reports the queue-full status (the more actionable signal for the
  // client) even when the controller is simultaneously shedding.
  overload_.Evaluate(SignalsLocked());
  const size_t queue_cap = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(options_.max_queue_depth) *
                             overload_.queue_scale()));
  if (queue_.size() >= options_.max_queue_depth) {
    if (m_rejected_queue_full_ != nullptr) m_rejected_queue_full_->Increment();
    EmitResilienceEvent(options_.obs, "serve.reject_queue_full", -1.0,
                        request.session_id);
    Status status = Status::ResourceExhausted(
        StrFormat("%s: %d queries waiting (capacity %d)",
                  kAdmissionRejectPrefix, static_cast<int>(queue_.size()),
                  static_cast<int>(options_.max_queue_depth)));
    if (request.lifecycle != nullptr) request.lifecycle->OnRejected(status);
    return status;
  }
  Status shed = overload_.AdmissionCheck(request.priority);
  if (shed.ok() && queue_.size() >= queue_cap) {
    // The overload-scaled cap (never the configured one) rejects as a
    // shed: the queue has room in steady state but the controller is
    // draining backlog.
    shed = Status::ResourceExhausted(StrFormat(
        "%s: queue scaled to %d while shedding", OverloadController::kShedPrefix,
        static_cast<int>(queue_cap)));
    overload_.CountShed();
  }
  if (!shed.ok()) {
    if (m_rejected_shed_ != nullptr) m_rejected_shed_->Increment();
    EmitResilienceEvent(options_.obs, "serve.reject_shed", -1.0,
                        request.session_id);
    if (request.lifecycle != nullptr) request.lifecycle->OnRejected(shed);
    return shed;
  }

  auto entry = std::make_unique<Entry>();
  entry->id = next_id_++;
  entry->request = std::move(request);
  entry->state = std::make_shared<ServeTicket::State>();
  entry->state->id = entry->id;
  entry->enqueued = std::chrono::steady_clock::now();
  if (entry->request.lifecycle != nullptr) {
    entry->request.lifecycle->OnQueryId(entry->id);
    entry->request.lifecycle->OnEnqueued();
  }
  ServeTicket ticket(entry->state);
  queue_.push_back(std::move(entry));
  if (m_admitted_ != nullptr) m_admitted_->Increment();
  PublishGaugesLocked();
  lock.unlock();
  dispatch_cv_.notify_one();
  return ticket;
}

void QueryScheduler::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  dispatch_cv_.notify_all();
}

Status QueryScheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return shutdown_ ||
           (queue_.empty() && handoff_.empty() && running_.empty() &&
            n_executing_ == 0 && n_completing_ == 0);
  });
  if (shutdown_) return Status::FailedPrecondition("scheduler shut down");
  return Status::OK();
}

void QueryScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!shutdown_) {
      shutdown_ = true;
      paused_ = false;
      while (!queue_.empty()) {
        std::unique_ptr<Entry> entry = std::move(queue_.front());
        queue_.pop_front();
        CompleteLocked(std::move(entry),
                       Status::Cancelled("query scheduler shutdown"), lock);
      }
      PublishGaugesLocked();
    }
  }
  dispatch_cv_.notify_all();
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

size_t QueryScheduler::NumQueued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

size_t QueryScheduler::NumRunning() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_.size();
}

int QueryScheduler::peak_running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_running_;
}

std::vector<int64_t> QueryScheduler::dispatch_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {dispatch_order_.begin(), dispatch_order_.end()};
}

uint64_t QueryScheduler::preemptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return preemptions_;
}

OverloadSignals QueryScheduler::SignalsLocked() const {
  OverloadSignals signals;
  if (options_.max_queue_depth > 0)
    signals.queue_frac = static_cast<double>(queue_.size()) /
                         static_cast<double>(options_.max_queue_depth);
  if (options_.memory_pages_budget > 0)
    signals.mem_frac = mem_in_use_ / options_.memory_pages_budget;
  return signals;
}

// --- completion ------------------------------------------------------------

void QueryScheduler::CompleteLocked(std::unique_ptr<Entry> entry,
                                    StatusOr<SqlResult> result,
                                    std::unique_lock<std::mutex>& lock) {
  if (result.ok()) {
    if (m_completed_ != nullptr) m_completed_->Increment();
  } else {
    StatusCode code = result.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      if (m_cancelled_ != nullptr) m_cancelled_->Increment();
    } else if (m_failed_ != nullptr) {
      m_failed_->Increment();
    }
  }
  // Feed the health state machine. Cancellations are the user's doing and
  // say nothing about machine health; deadline misses under load do, and
  // count as failures. Breaker fast-fails count too: an open breaker is
  // driven by its own probes (not by admission decisions), so a query the
  // breaker refused is real evidence the domain is still sick — without
  // it the controller goes blind exactly when the breaker is doing its
  // job. Admission sheds never reach here, so shedding cannot feed
  // itself.
  if (!shutdown_) {
    StatusCode code = result.ok() ? StatusCode::kOk : result.status().code();
    if (code != StatusCode::kCancelled) {
      overload_.RecordOutcome(!result.ok());
      overload_.Evaluate(SignalsLocked());
    }
  }
  PublishGaugesLocked();

  std::shared_ptr<ServeTicket::State> state = std::move(entry->state);
  std::function<void(const Status&)> on_complete =
      std::move(entry->request.on_complete);
  std::shared_ptr<QueryLifecycle> lifecycle =
      std::move(entry->request.lifecycle);
  Status status = result.ok() ? Status::OK() : result.status();
  entry.reset();

  // Fire the callback, then resolve the ticket, with the scheduler
  // unlocked so waiters and callbacks never observe the mutex held. The
  // callback runs first so that once Wait() returns, every completion
  // side effect (session accounting included) has already happened.
  ++n_completing_;
  lock.unlock();
  // Close the span tree before waiters are released: a thread returning
  // from Wait() can immediately inspect the trace / slow-query log.
  if (lifecycle != nullptr) lifecycle->OnResolved(status);
  if (on_complete) on_complete(status);
  {
    std::lock_guard<std::mutex> ticket_lock(state->mutex);
    state->result = std::move(result);
    state->done = true;
  }
  state->cv.notify_all();
  lock.lock();
  --n_completing_;
  idle_cv_.notify_all();
}

void QueryScheduler::SweepExpiredLocked(std::unique_lock<std::mutex>& lock) {
  bool removed = true;
  while (removed && !shutdown_) {
    removed = false;
    for (size_t i = 0; i < queue_.size(); ++i) {
      CancellationToken* token = queue_[i]->request.cancel;
      if (token == nullptr) continue;
      Status status = token->Check();
      if (status.ok()) continue;
      std::unique_ptr<Entry> entry = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<long>(i));
      if (status.code() == StatusCode::kDeadlineExceeded &&
          m_rejected_deadline_ != nullptr)
        m_rejected_deadline_->Increment();
      EmitResilienceEvent(options_.obs, "serve.expired_in_queue", -1.0,
                          entry->id);
      // The job never ran: no operator was opened for this query.
      CompleteLocked(std::move(entry), status, lock);
      removed = true;
      break;  // CompleteLocked dropped the lock; indices may have shifted.
    }
  }
}

// --- grant computation -----------------------------------------------------

int QueryScheduler::GrantParallelismLocked(const TaskProfile& cand) const {
  const MachineConfig& machine = options_.machine;
  double free_cpus =
      std::max(1.0, static_cast<double>(machine.num_cpus) - cpus_in_use_);

  double x;
  if (running_.empty()) {
    // Alone on the machine: the §2.2 intra-operation limit applies.
    x = MaxParallelism(cand, machine);
  } else {
    // Aggregate the running queries into one pseudo-task and solve the
    // §2.3 balance point between it and the candidate.
    TaskProfile agg;
    agg.name = "running-aggregate";
    for (const auto& [id, info] : running_) {
      agg.seq_time += info.estimate.seq_time;
      agg.total_ios += info.estimate.total_ios;
      if (info.estimate.pattern == IoPattern::kRandom)
        agg.pattern = IoPattern::kRandom;
    }
    agg.seq_time = std::max(agg.seq_time, 1e-9);
    BalancePoint bp = SolveBalance(cand, agg, machine);
    if (bp.valid) {
      x = bp.xi;
    } else if (IsIoBound(cand, machine)) {
      x = MaxParallelism(cand, machine);
    } else {
      x = free_cpus;
    }
  }
  x = std::min(x, free_cpus);
  return std::max(1, static_cast<int>(std::lround(std::floor(x + 0.5))));
}

double QueryScheduler::GrantedIoRate(const TaskProfile& cand,
                                     int parallelism) const {
  double demanded = cand.io_rate() * parallelism;
  double ceiling = options_.machine.single_stream_bandwidth(
      cand.pattern, static_cast<double>(parallelism));
  return std::min(demanded, ceiling);
}

int QueryScheduler::PickNextLocked(ExecGrant* grant) {
  const auto now = std::chrono::steady_clock::now();

  // Candidate order: strict priority, then weighted fair share (least
  // served session first), then FIFO by id.
  std::vector<size_t> order(queue_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Entry& ea = *queue_[a];
    const Entry& eb = *queue_[b];
    if (ea.request.priority != eb.request.priority)
      return ea.request.priority > eb.request.priority;
    double wa = served_work_.count(ea.request.session_id)
                    ? served_work_.at(ea.request.session_id)
                    : 0.0;
    double wb = served_work_.count(eb.request.session_id)
                    ? served_work_.at(eb.request.session_id)
                    : 0.0;
    if (wa != wb) return wa < wb;
    return ea.id < eb.id;
  });

  // The overload controller shrinks the effective budgets while unhealthy.
  const double mem_budget =
      options_.memory_pages_budget * overload_.budget_scale();
  const double io_budget = io_budget_ * overload_.budget_scale();

  for (size_t idx : order) {
    Entry& entry = *queue_[idx];
    const TaskProfile& est = entry.request.estimate;
    bool degrade = false;

    // Memory admission against the global page budget.
    if (mem_budget > 0 && est.memory_pages > 0) {
      double remaining = mem_budget - mem_in_use_;
      if (est.memory_pages > remaining) {
        if (est.memory_pages > mem_budget) {
          // Never fits even on an idle system: degrade immediately.
          degrade = true;
        } else if (!entry.mem_blocked) {
          entry.mem_blocked = true;
          entry.mem_blocked_since = now;
          continue;  // wait a beat for pages to free up
        } else if (std::chrono::duration<double>(now -
                                                 entry.mem_blocked_since)
                       .count() >= kDegradeWaitSeconds) {
          // The wait expired. Emergency reclaim first: a strictly
          // higher-priority waiter may evict the lowest-priority running
          // query instead of degrading itself to the spill path.
          if (TryPreemptLocked(entry)) {
            entry.mem_blocked_since = now;  // wait for the unwind
            continue;
          }
          degrade = true;
        } else {
          continue;
        }
      } else {
        entry.mem_blocked = false;
      }
    }

    // Disk admission: an io-bound query joining a saturated array would
    // only add seek interference — hold it until bandwidth frees up.
    if (!degrade && !running_.empty() && io_in_use_ >= io_budget &&
        IsIoBound(est, options_.machine)) {
      continue;
    }

    *grant = ExecGrant();
    grant->cancel = entry.request.cancel;
    if (degrade) {
      grant->parallelism = 1;
      grant->degrade_to_spill = true;
      grant->memory_pages = 0.0;
    } else {
      grant->parallelism = GrantParallelismLocked(est);
      grant->memory_pages = est.memory_pages;
    }
    return static_cast<int>(idx);
  }
  return -1;
}

bool QueryScheduler::TryPreemptLocked(const Entry& cand) {
  // One reclaim in flight at a time: wait for the victim to unwind and
  // release its pages before deciding whether another eviction is needed.
  for (const auto& [id, info] : running_)
    if (info.preempted) return false;

  // Victim: the lowest-priority running query holding pages, strictly
  // below the candidate's priority, cancellable, and not already evicted
  // past its preemption allowance.
  int64_t victim_id = -1;
  const RunningInfo* victim = nullptr;
  for (const auto& [id, info] : running_) {
    if (info.cancel == nullptr || info.memory_pages <= 0) continue;
    if (info.priority >= cand.request.priority) continue;
    if (info.preempt_count >= kMaxPreemptions) continue;
    if (victim == nullptr || info.priority < victim->priority) {
      victim_id = id;
      victim = &info;
    }
  }
  if (victim == nullptr) return false;

  const double mem_budget =
      options_.memory_pages_budget * overload_.budget_scale();
  double remaining = mem_budget - mem_in_use_;
  // Only evict when the reclaim actually lets the candidate fit.
  if (cand.request.estimate.memory_pages > remaining + victim->memory_pages)
    return false;

  if (!running_[victim_id].cancel->Preempt(
          StrFormat("preempted for memory reclaim (query %lld)",
                    static_cast<long long>(cand.id))))
    return false;  // already terminal: the worker will reap it shortly
  running_[victim_id].preempted = true;
  ++preemptions_;
  if (m_preempted_ != nullptr) m_preempted_->Increment();
  EmitResilienceEvent(
      options_.obs, "serve.preempt", -1.0, victim_id,
      {{"victim", victim_id},
       {"for", cand.id},
       {"victim_pages", running_[victim_id].memory_pages}});
  return true;
}

// --- dispatcher / workers --------------------------------------------------

void QueryScheduler::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (shutdown_) return;
    SweepExpiredLocked(lock);
    if (shutdown_) return;

    bool dispatched = false;
    // While degraded/shedding the controller shrinks the effective
    // concurrency so the machine drains instead of thrashing.
    const int effective_concurrent = std::max(
        1, static_cast<int>(std::lround(options_.max_concurrent *
                                        overload_.budget_scale())));
    while (!paused_ && !queue_.empty() &&
           running_.size() + handoff_.size() <
               static_cast<size_t>(effective_concurrent)) {
      ExecGrant grant;
      int idx = PickNextLocked(&grant);
      if (idx < 0) break;

      std::unique_ptr<Entry> entry = std::move(queue_[static_cast<size_t>(idx)]);
      queue_.erase(queue_.begin() + idx);
      const TaskProfile& est = entry->request.estimate;

      RunningInfo info;
      info.estimate = est;
      info.parallelism = grant.parallelism;
      info.memory_pages = grant.memory_pages;
      info.io_rate = GrantedIoRate(est, grant.parallelism);
      info.cancel = entry->request.cancel;
      info.priority = entry->request.priority;
      info.preempt_count = entry->preemptions;
      cpus_in_use_ += grant.parallelism;
      mem_in_use_ += info.memory_pages;
      io_in_use_ += info.io_rate;
      running_[entry->id] = info;

      grant.query_id = entry->id;
      grant.io_rate = info.io_rate;
      grant.queue_wait_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        entry->enqueued)
              .count();
      grant.lifecycle = entry->request.lifecycle.get();

      served_work_[entry->request.session_id] +=
          est.seq_time / entry->request.weight;
      dispatch_order_.push_back(entry->id);
      if (dispatch_order_.size() > kDispatchLogSize)
        dispatch_order_.pop_front();
      if (m_dispatched_ != nullptr) m_dispatched_->Increment();
      if (grant.degrade_to_spill) {
        if (m_degraded_ != nullptr) m_degraded_->Increment();
        EmitResilienceEvent(options_.obs, "serve.degrade_spill", -1.0,
                            entry->id);
      }
      if (h_queue_wait_ != nullptr)
        h_queue_wait_->Observe(grant.queue_wait_seconds);
      if (entry->request.lifecycle != nullptr) {
        GrantSnapshot snapshot;
        snapshot.parallelism = grant.parallelism;
        snapshot.memory_pages = grant.memory_pages;
        snapshot.io_rate = info.io_rate;
        snapshot.degraded = grant.degrade_to_spill;
        entry->request.lifecycle->OnGrant(snapshot);
      }
      handoff_.emplace_back(std::move(entry), grant);
      PublishGaugesLocked();
      work_cv_.notify_one();
      dispatched = true;
    }
    if (dispatched) continue;

    // Nothing to do right now: sleep until the earliest queued deadline or
    // memory-degrade timer, or until a submit/completion wakes us.
    int64_t wake_ns = -1;
    for (const std::unique_ptr<Entry>& e : queue_) {
      if (e->request.cancel != nullptr) {
        int64_t dn = e->request.cancel->deadline_ns();
        if (dn >= 0 && (wake_ns < 0 || dn < wake_ns)) wake_ns = dn;
      }
      if (e->mem_blocked) {
        int64_t dn = SteadyNs(e->mem_blocked_since) +
                     static_cast<int64_t>(kDegradeWaitSeconds * 1e9);
        if (wake_ns < 0 || dn < wake_ns) wake_ns = dn;
      }
    }
    if (wake_ns >= 0) {
      int64_t delta = std::max<int64_t>(wake_ns - CancellationToken::NowNs(),
                                        1000000);  // >= 1 ms
      dispatch_cv_.wait_for(lock, std::chrono::nanoseconds(delta));
    } else {
      dispatch_cv_.wait(lock);
    }
  }
}

void QueryScheduler::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] { return shutdown_ || !handoff_.empty(); });
    if (handoff_.empty()) {
      if (shutdown_) return;
      continue;
    }
    std::unique_ptr<Entry> entry = std::move(handoff_.front().first);
    ExecGrant grant = handoff_.front().second;
    handoff_.pop_front();
    ++n_executing_;
    peak_running_ = std::max(peak_running_, n_executing_);
    PublishGaugesLocked();

    lock.unlock();
    if (entry->request.lifecycle != nullptr)
      entry->request.lifecycle->OnExecStart();
    const auto t0 = std::chrono::steady_clock::now();
    StatusOr<SqlResult> result = entry->request.job(grant);
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (entry->request.lifecycle != nullptr)
      entry->request.lifecycle->OnExecEnd();
    lock.lock();

    --n_executing_;
    bool was_preempted = false;
    auto it = running_.find(entry->id);
    if (it != running_.end()) {
      cpus_in_use_ -= it->second.parallelism;
      mem_in_use_ -= it->second.memory_pages;
      io_in_use_ -= it->second.io_rate;
      was_preempted = it->second.preempted;
      running_.erase(it);
    }
    if (h_run_seconds_ != nullptr) h_run_seconds_->Observe(run_seconds);

    // A query evicted for memory reclaim unwound with Cancelled; if no
    // real cancellation raced in, re-arm its token and put it back in the
    // queue instead of failing it. A preempted query that managed to
    // finish anyway just completes.
    const bool requeue =
        was_preempted && !shutdown_ && !result.ok() &&
        result.status().code() == StatusCode::kCancelled &&
        entry->request.cancel != nullptr &&
        entry->request.cancel->ResetPreempted();
    if (requeue) {
      ++entry->preemptions;
      entry->mem_blocked = false;
      if (entry->request.lifecycle != nullptr)
        entry->request.lifecycle->OnPreempted();
      EmitResilienceEvent(options_.obs, "serve.requeued", -1.0, entry->id,
                          {{"preemptions", entry->preemptions}});
      queue_.push_back(std::move(entry));
      PublishGaugesLocked();
    } else {
      CompleteLocked(std::move(entry), std::move(result), lock);
    }
    dispatch_cv_.notify_all();
  }
}

}  // namespace xprs
