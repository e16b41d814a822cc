#include "serve/serving_engine.h"

#include <algorithm>
#include <utility>

#include "resilience/retry.h"

namespace xprs {

namespace {

// Backoff for buffer-pool backpressure retries.
constexpr RetryPolicy kFetchRetry{};
// In-memory tuple bound for degraded (spilling) queries.
constexpr size_t kDegradeSpillTuples = 64;
// Whole-statement retries: 3 attempts, backoff 1 ms doubling to an 8 ms cap.
constexpr RetryPolicy kQueryRetry{.max_backoff_ms = 8};

}  // namespace

// --- ServingSession --------------------------------------------------------

StatusOr<SubmittedQuery> ServingSession::Submit(const std::string& sql,
                                                const QueryOptions& options) {
  return engine_->SubmitQuery(this, sql, options);
}

StatusOr<SqlResult> ServingSession::Execute(const std::string& sql,
                                            const QueryOptions& options) {
  XPRS_ASSIGN_OR_RETURN(SubmittedQuery submitted, Submit(sql, options));
  return submitted.ticket.Wait();
}

void ServingSession::CancelAll() {
  std::vector<std::shared_ptr<CancellationToken>> live;
  {
    std::lock_guard<std::mutex> lock(tokens_mutex_);
    for (const std::weak_ptr<CancellationToken>& weak : tokens_)
      if (std::shared_ptr<CancellationToken> token = weak.lock())
        live.push_back(std::move(token));
    tokens_.clear();
  }
  for (const std::shared_ptr<CancellationToken>& token : live)
    token->Cancel("session cancelled");
}

void ServingSession::TrackToken(
    const std::shared_ptr<CancellationToken>& token) {
  std::lock_guard<std::mutex> lock(tokens_mutex_);
  // Prune resolved queries' tokens so the list tracks in-flight work only.
  tokens_.erase(std::remove_if(tokens_.begin(), tokens_.end(),
                               [](const std::weak_ptr<CancellationToken>& w) {
                                 return w.expired();
                               }),
                tokens_.end());
  tokens_.push_back(token);
}

// --- ServingEngine ---------------------------------------------------------

ServingEngine::ServingEngine(Catalog* catalog, const MachineConfig& machine,
                             const CostModel* model, Options options)
    : options_(std::move(options)),
      engine_(catalog, machine, model),
      spill_array_(machine.num_disks, DiskMode::kInstant),
      slow_log_(options_.slow_query_seconds),
      poison_log_(options_.serve.obs),
      read_breaker_("storage_read", options_.serve.obs),
      spill_breaker_("spill_io", options_.serve.obs),
      scheduler_(options_.serve) {
  if (options_.buffer_pool_frames > 0) {
    pool_ = std::make_unique<BufferPool>(catalog->disk_array(),
                                         options_.buffer_pool_frames);
    // Buffer-pool pressure feeds the overload controller next to the
    // scheduler's own page accounting.
    scheduler_.overload().SetMemoryProbe([pool = pool_.get()] {
      const size_t frames = pool->num_frames();
      return frames > 0 ? static_cast<double>(pool->PinnedFrames()) /
                              static_cast<double>(frames)
                        : 0.0;
    });
  }
}

ServingEngine::~ServingEngine() {
  // Scheduler shutdown (member destruction) rejects queued queries and
  // waits for running ones; cancel in-flight work first so it is prompt.
  std::vector<std::shared_ptr<ServingSession>> open;
  {
    std::lock_guard<std::mutex> lock(sessions_mutex_);
    for (auto& [id, session] : sessions_) open.push_back(session);
    sessions_.clear();
  }
  for (const std::shared_ptr<ServingSession>& session : open)
    session->CancelAll();
}

std::shared_ptr<ServingSession> ServingEngine::OpenSession(
    const SessionOptions& options) {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  int64_t id = next_session_id_++;
  double weight = options.weight > 0 ? options.weight : 1.0;
  std::shared_ptr<ServingSession> session(new ServingSession(
      this, id, options.priority, weight, options.label));
  sessions_[id] = session;
  return session;
}

void ServingEngine::CloseSession(
    const std::shared_ptr<ServingSession>& session) {
  if (session == nullptr) return;
  session->CancelAll();
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  sessions_.erase(session->id());
}

size_t ServingEngine::num_open_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mutex_);
  return sessions_.size();
}

StatusOr<SubmittedQuery> ServingEngine::SubmitQuery(
    ServingSession* session, const std::string& sql,
    const QueryOptions& options) {
  // The lifecycle starts before parse/bind so its admission span covers
  // every cycle spent on the query before the scheduler accepts it.
  std::shared_ptr<QueryLifecycle> lifecycle;
  if (options_.serve.obs.tracing() || slow_log_.enabled()) {
    lifecycle = std::make_shared<QueryLifecycle>(
        options_.serve.obs, sql, session->id(),
        slow_log_.enabled() ? &slow_log_ : nullptr);
  }

  // Quarantined statements fast-reject before the planner even sees them:
  // "never re-admitted" means no parse, no estimate, no queue slot.
  Status poison = poison_log_.RejectIfQuarantined(sql);
  if (!poison.ok()) {
    if (lifecycle != nullptr) lifecycle->OnRejected(poison);
    return poison;
  }

  // Parse, bind and optimize once (bushy), synchronously, so malformed SQL
  // fails here, not on a worker thread; the estimate drives admission and
  // the job runs this same plan.
  StatusOr<PreparedStatement> prepared = engine_.Prepare(sql);
  if (!prepared.ok()) {
    if (lifecycle != nullptr) lifecycle->OnRejected(prepared.status());
    return prepared.status();
  }

  auto token = std::make_shared<CancellationToken>();
  if (options.deadline_ms > 0) token->SetDeadlineAfterMs(options.deadline_ms);
  session->TrackToken(token);

  ServeRequest request;
  request.estimate = prepared->estimate;
  request.estimate.query_id = session->id();
  if (!session->label_.empty()) request.estimate.name = session->label_;
  request.session_id = session->id();
  request.weight = session->weight_;
  request.priority = session->priority_;
  request.cancel = token.get();
  request.label = sql.substr(0, 48);
  request.lifecycle = lifecycle;

  session->submitted_.fetch_add(1, std::memory_order_relaxed);
  // The callback holds a strong reference: the caller may drop (or close)
  // the session the moment its ticket resolves, which happens *before*
  // on_complete fires on the scheduler thread.
  std::shared_ptr<ServingSession> keep = session->shared_from_this();
  std::function<void(const Status&)> user_hook = options.on_complete;
  request.on_complete = [keep, user_hook](const Status& status) {
    keep->completed_.fetch_add(1, std::memory_order_relaxed);
    if (user_hook) user_hook(status);
  };

  // The closure owns the token (keeps it alive past a dropped handle) and
  // the prepared statement, and runs it as the scheduler's grant says, on
  // the batch operators wherever the plan has them (every slave too):
  // index lookups and a spill-degraded statement's hash joins stay tuple.
  // With the slow-query log armed, every statement runs profiled so an
  // entry can name the operators the time went to.
  request.job = [this, sql, statement = std::move(*prepared), token,
                 lifecycle, replay_seed = options.replay_seed,
                 session_id = session->id()](
                    const ExecGrant& grant) -> StatusOr<SqlResult> {
    RunOptions run;
    run.ctx.vectorized = true;
    run.ctx.cancel = grant.cancel;
    run.ctx.obs = options_.serve.obs;
    if (pool_ != nullptr) {
      run.ctx.pool = pool_.get();
      run.ctx.fetch_retry = &kFetchRetry;
    }
    if (grant.degrade_to_spill) {
      run.ctx.spill.temp_array = &spill_array_;
      run.ctx.spill.memory_tuples = kDegradeSpillTuples;
    } else if (grant.parallelism > 1) {
      run.master.emplace();
      run.master->max_slots = grant.parallelism;
      run.master->obs = options_.serve.obs;
    }
    run.profile = slow_log_.enabled();

    // Whole-statement retry ladder above the per-fragment one. The breaker
    // for the query's fault domain is consulted before every attempt: an
    // open breaker fast-fails the statement instead of hammering the disk,
    // and that fast-fail is never retried and never counts toward
    // quarantine.
    CircuitBreaker& breaker =
        grant.degrade_to_spill ? spill_breaker_ : read_breaker_;
    Rng jitter(options_.retry_jitter_seed ^
               static_cast<uint64_t>(grant.query_id));
    StatusOr<SqlResult> result = Status::Internal("query never ran");
    int attempts = 0;
    for (int attempt = 1;; ++attempt) {
      Status gate = breaker.Allow();
      if (!gate.ok()) {
        result = gate;
        break;
      }
      ++attempts;
      result = engine_.Run(statement, run);
      if (result.ok()) {
        breaker.RecordSuccess();
        break;
      }
      const Status& st = result.status();
      // An opening breaker means the domain is failing, not the
      // statements: no failure so far counts toward quarantine.
      if (st.code() == StatusCode::kIoError && breaker.RecordFailure())
        poison_log_.ClearStreaks();
      if (!IsRetryableStatus(st) ||
          attempt >= kQueryRetry.max_attempts ||
          (token != nullptr && token->cancelled()))
        break;
      EmitResilienceEvent(options_.serve.obs, "serve.query_retry", -1.0,
                          grant.query_id,
                          {{"attempt", attempt}, {"status", st.ToString()}});
      Status slept = BackoffSleepMs(
          JitteredBackoffMs(kQueryRetry, attempt, &jitter),
          token.get());
      if (!slept.ok()) {
        result = slept;
        break;
      }
    }

    if (result.ok()) {
      poison_log_.RecordSuccess(sql);
    } else {
      // Terminal failure: record toward quarantine unless the failure was
      // the user's (cancel/deadline) or shed work (open breaker) — those
      // say nothing about the statement itself.
      const Status& st = result.status();
      if (st.code() != StatusCode::kCancelled &&
          st.code() != StatusCode::kDeadlineExceeded &&
          !CircuitBreaker::IsBreakerOpen(st)) {
        poison_log_.RecordFailure(sql, session_id,
                                  {.parallelism = grant.parallelism,
                                   .memory_pages = grant.memory_pages,
                                   .io_rate = grant.io_rate,
                                   .degraded = grant.degrade_to_spill},
                                  st, attempts, replay_seed);
      }
    }
    if (lifecycle != nullptr && result.ok() && result->profile != nullptr)
      lifecycle->AttachProfile(result->profile);
    return result;
  };

  StatusOr<ServeTicket> ticket = scheduler_.Submit(std::move(request));
  if (!ticket.ok()) {
    // Synchronous reject: the on_complete callback will never fire.
    session->completed_.fetch_add(1, std::memory_order_relaxed);
    return ticket.status();
  }
  return SubmittedQuery{*ticket, std::move(token)};
}

}  // namespace xprs
