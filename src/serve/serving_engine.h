// ServingEngine: a thread-safe, multi-session front door over SqlEngine.
//
// Where SqlEngine executes one statement for one caller, the serving
// engine runs a workload: clients open sessions, submit SQL concurrently,
// and every statement flows through the QueryScheduler's admission control
// before it touches an operator. The engine owns the shared machinery one
// server process would own once — the buffer pool, the spill disk for
// degraded queries, and the scheduler's worker pool — and hands each
// admitted query an ExecContext assembled from its grant: serial
// execution at parallelism 1, the parallel master at higher degrees,
// spilling operators when the scheduler degraded the query to fit the
// memory budget.
//
// Sessions are cheap handles: they carry fair-share weight and priority,
// track their in-flight queries, and can cancel them in one call. Each
// submitted statement gets its own CancellationToken (deadline optional);
// the token is owned by the returned SubmittedQuery and kept alive by the
// job closure, so dropping the handle early never leaves the executor
// with a dangling token.

#ifndef XPRS_SERVE_SERVING_ENGINE_H_
#define XPRS_SERVE_SERVING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/overload.h"
#include "serve/query_scheduler.h"
#include "sql/engine.h"
#include "storage/buffer_pool.h"

namespace xprs {

class ServingEngine;

/// Per-statement options.
struct QueryOptions {
  /// Deadline in milliseconds from submission; 0 = none. Applies while
  /// queued too: a deadline that fires before admission rejects the query
  /// without running it.
  int64_t deadline_ms = 0;
  /// Caller-provided replay seed recorded on poison-log entries when the
  /// statement ends up quarantined (0 = none). Workload drivers pass their
  /// generator seed so a poisoned query is reproducible offline.
  uint64_t replay_seed = 0;
  /// Optional completion hook, fired exactly once on a scheduler thread
  /// when the query resolves (any outcome), strictly before ticket
  /// waiters are released. Must not call back into the serving engine.
  /// bench_macro's open loop uses this to timestamp completions without a
  /// waiter thread per query.
  std::function<void(const Status&)> on_complete;
};

/// Handle on one submitted statement. The token may be used to cancel the
/// query from another thread; the ticket resolves when it completes.
struct SubmittedQuery {
  ServeTicket ticket;
  std::shared_ptr<CancellationToken> cancel;
};

/// One client session. Obtained from ServingEngine::OpenSession; safe to
/// use from multiple threads.
class ServingSession : public std::enable_shared_from_this<ServingSession> {
 public:
  /// Enqueues `sql` for scheduling; returns immediately. Parse and bind
  /// errors, queue-full rejections and pre-expired deadlines surface
  /// synchronously; everything later resolves through the ticket.
  StatusOr<SubmittedQuery> Submit(const std::string& sql,
                                  const QueryOptions& options = QueryOptions());

  /// Submit + Wait.
  StatusOr<SqlResult> Execute(const std::string& sql,
                              const QueryOptions& options = QueryOptions());

  /// Cancels every in-flight query of this session.
  void CancelAll();

  int64_t id() const { return id_; }
  /// Queries submitted but not yet resolved.
  int64_t num_outstanding() const {
    return submitted_.load() - completed_.load();
  }

 private:
  friend class ServingEngine;

  ServingSession(ServingEngine* engine, int64_t id, int priority,
                 double weight, std::string label)
      : engine_(engine),
        id_(id),
        priority_(priority),
        weight_(weight),
        label_(std::move(label)) {}

  void TrackToken(const std::shared_ptr<CancellationToken>& token);

  ServingEngine* const engine_;
  const int64_t id_;
  const int priority_;
  const double weight_;
  const std::string label_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> completed_{0};

  std::mutex tokens_mutex_;
  std::vector<std::weak_ptr<CancellationToken>> tokens_;
};

struct SessionOptions {
  int priority = 0;
  double weight = 1.0;
  std::string label;
};

class ServingEngine {
 public:
  struct Options {
    ServeOptions serve;
    /// Shared buffer pool size; 0 = execute without a pool.
    size_t buffer_pool_frames = 0;
    /// Slow-query threshold (submit to resolve, seconds). When > 0 every
    /// statement runs with a profile attached and queries over the
    /// threshold land in slow_query_log() with their grant, phase
    /// breakdown and slowest operators. 0 disables the log (and the
    /// profiling overhead).
    double slow_query_seconds = 0.0;
    /// Seed mixed with the query id for the retry jitter, so backoffs are
    /// decorrelated across queries yet reproducible per run.
    uint64_t retry_jitter_seed = 0x9E3779B97F4A7C15ULL;
  };

  ServingEngine(Catalog* catalog, const MachineConfig& machine,
                const CostModel* model, Options options);
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  std::shared_ptr<ServingSession> OpenSession(
      const SessionOptions& options = SessionOptions());

  /// Cancels the session's in-flight queries and forgets it.
  void CloseSession(const std::shared_ptr<ServingSession>& session);

  size_t num_open_sessions() const;

  /// Blocks until every submitted query resolved (see QueryScheduler).
  Status Drain() { return scheduler_.Drain(); }
  void Resume() { scheduler_.Resume(); }

  QueryScheduler& scheduler() { return scheduler_; }
  BufferPool* pool() { return pool_.get(); }
  SqlEngine& sql_engine() { return engine_; }
  /// Entries recorded for queries over Options::slow_query_seconds.
  SlowQueryLog& slow_query_log() { return slow_log_; }
  /// Quarantine records for statements that kept failing (see overload.h).
  PoisonLog& poison_log() { return poison_log_; }
  /// Fault-domain breakers. Tests and the soak harness read their state.
  CircuitBreaker& read_breaker() { return read_breaker_; }
  CircuitBreaker& spill_breaker() { return spill_breaker_; }
  /// The scheduler's health state machine.
  OverloadController& overload() { return scheduler_.overload(); }
  /// Temp array backing degraded (spilling) queries; the soak harness arms
  /// fault injectors on it to exercise the spill-io breaker domain.
  DiskArray* spill_array() { return &spill_array_; }

 private:
  friend class ServingSession;

  StatusOr<SubmittedQuery> SubmitQuery(ServingSession* session,
                                       const std::string& sql,
                                       const QueryOptions& options);

  const Options options_;
  SqlEngine engine_;
  /// Temp files for degraded (spilling) queries.
  DiskArray spill_array_;
  std::unique_ptr<BufferPool> pool_;
  SlowQueryLog slow_log_;
  PoisonLog poison_log_;
  CircuitBreaker read_breaker_;
  CircuitBreaker spill_breaker_;

  mutable std::mutex sessions_mutex_;
  int64_t next_session_id_ = 1;
  std::map<int64_t, std::shared_ptr<ServingSession>> sessions_;

  /// Declared last: destroyed first, so scheduler shutdown (which waits
  /// for running jobs) happens while the engine/pool are still alive.
  QueryScheduler scheduler_;
};

}  // namespace xprs

#endif  // XPRS_SERVE_SERVING_ENGINE_H_
