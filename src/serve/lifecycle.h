// QueryLifecycle: end-to-end span tree + slow-query log for one served
// query.
//
// Every query the serving layer touches gets a root span covering its
// whole submit-to-resolve wall time and a chain of child phases that
// partition it:
//
//   admission    synchronous work before the scheduler accepts the query
//                (parse, bind, cost, estimate) — ends when it is enqueued
//   queue_wait   enqueue to dispatcher pickup; the scheduler's grant is
//                recorded inside it as an instant event carrying the
//                decision (parallelism, memory pages, io rate, degraded)
//   execute      the job running on a worker thread
//   drain        execution end to ticket resolution (completion callback,
//                result publication)
//
// Adjacent phases share one boundary timestamp (Span::EndAt), so the
// children tile the root with no uncovered gap — a trace consumer can
// attribute every microsecond of a query's latency to exactly one phase.
// Queries that never execute (swept deadlines, shutdown, synchronous
// rejects) close early with a `never_ran` / `rejected` argument instead of
// fabricating empty execute/drain phases.
//
// Transitions are driven by the scheduler in submission/dispatch order and
// are properly sequenced by its mutex handoffs (submitter -> dispatcher ->
// worker -> completer); the lifecycle itself therefore needs no lock. The
// SlowQueryLog is the exception — workers append concurrently — and takes
// its own mutex per append.

#ifndef XPRS_SERVE_LIFECYCLE_H_
#define XPRS_SERVE_LIFECYCLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/profile.h"
#include "obs/obs.h"
#include "util/status.h"

namespace xprs {

/// What the scheduler decided for a query, as recorded in its trace and
/// slow-query entry.
struct GrantSnapshot {
  int parallelism = 1;
  double memory_pages = 0.0;
  double io_rate = 0.0;
  bool degraded = false;
};

/// One operator line of a slow-query entry (top-k by inclusive time).
struct SlowQueryOperator {
  std::string label;
  double seconds = 0.0;
  uint64_t tuples_out = 0;
};

/// One structured slow-query record: where the time went (phase
/// breakdown), what the scheduler granted, and which operators dominated.
struct SlowQueryEntry {
  int64_t query_id = -1;
  int64_t session_id = 0;
  std::string query;  ///< submitted SQL (or scheduler label)
  std::string status = "ok";
  double total_seconds = 0.0;
  double admission_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  double exec_seconds = 0.0;
  double drain_seconds = 0.0;
  GrantSnapshot grant;
  /// Top-k operators by inclusive wall time; empty when the query ran
  /// without a profile attached.
  std::vector<SlowQueryOperator> top_operators;

  /// One-line JSON object (stable key order).
  std::string ToJson() const;
};

/// Threshold-triggered sink for SlowQueryEntry records. Thread-safe.
class SlowQueryLog {
 public:
  /// How many of a statement's slowest operators an entry names.
  static constexpr size_t kTopK = 3;

  /// Queries slower than `threshold_seconds` (submit to resolve) are
  /// recorded with their kTopK slowest operators. threshold <= 0 disables
  /// recording entirely.
  explicit SlowQueryLog(double threshold_seconds = 0.0);

  bool enabled() const { return threshold_seconds_ > 0.0; }
  double threshold_seconds() const { return threshold_seconds_; }

  void Record(SlowQueryEntry entry);

  std::vector<SlowQueryEntry> entries() const;
  size_t size() const;
  /// All entries, one JSON object per line (a JSONL log).
  std::string DumpJsonLines() const;

 private:
  double threshold_seconds_;
  mutable std::mutex mutex_;
  std::vector<SlowQueryEntry> entries_;
};

/// The per-query lifecycle tracker. Created by the submitter (the serving
/// engine, or the scheduler itself for direct submissions) and advanced by
/// the scheduler through the transitions below, strictly in order:
///
///   ctor -> OnQueryId -> OnEnqueued -> OnGrant -> OnExecStart
///        -> [AttachProfile] -> OnExecEnd -> OnResolved
///
/// with two early exits: OnRejected (synchronous submit failure) and
/// OnResolved without OnExecStart (swept from the queue).
class QueryLifecycle {
 public:
  /// Starts the root and admission spans now. `label` is the query text
  /// (it ends up in span args and slow-log entries). `slow_log` may be
  /// null; when set and enabled, OnResolved appends an entry for queries
  /// over its threshold.
  QueryLifecycle(const Observability& obs, std::string label,
                 int64_t session_id, SlowQueryLog* slow_log = nullptr);

  QueryLifecycle(const QueryLifecycle&) = delete;
  QueryLifecycle& operator=(const QueryLifecycle&) = delete;
  ~QueryLifecycle();

  /// Scheduler-assigned id; re-targets the spans' track so a viewer groups
  /// the query's phases on one row.
  void OnQueryId(int64_t query_id);
  /// Admission ends, queue wait begins (shared boundary).
  void OnEnqueued();
  /// The dispatcher's decision, recorded as an instant event inside the
  /// queue-wait span.
  void OnGrant(const GrantSnapshot& grant);
  /// Queue wait ends, execution begins (shared boundary).
  void OnExecStart();
  /// The profiled run's stats, for the slow log's top-k operators. Called
  /// by the job between OnExecStart and OnExecEnd.
  void AttachProfile(std::shared_ptr<const QueryProfile> profile);
  /// Execution ends, drain begins (shared boundary).
  void OnExecEnd();
  /// The scheduler evicted the query for memory reclaim and requeued it:
  /// closes the just-opened drain span with a `preempted` argument and
  /// reopens a queue-wait phase. OnGrant/OnExecStart then fire again for
  /// the re-run, so the children still tile the root.
  void OnPreempted();
  /// Terminal: closes whatever phase is open plus the root, observes
  /// serve.total_seconds, and appends a slow-log entry when warranted.
  void OnResolved(const Status& status);
  /// Terminal: the submit failed synchronously (queue full, expired
  /// token); closes admission + root with a `rejected` argument.
  void OnRejected(const Status& status);

  int64_t query_id() const { return query_id_; }
  const GrantSnapshot& grant() const { return grant_; }

 private:
  void Finish(const Status& status, bool rejected);

  Observability obs_;
  const std::string label_;
  const int64_t session_id_;
  SlowQueryLog* const slow_log_;
  Histogram* h_total_ = nullptr;

  int64_t query_id_ = -1;
  GrantSnapshot grant_;
  bool granted_ = false;
  bool executed_ = false;
  bool finished_ = false;
  double start_seconds_ = 0.0;
  double enqueued_seconds_ = 0.0;
  double exec_start_seconds_ = 0.0;
  double exec_end_seconds_ = 0.0;
  std::shared_ptr<const QueryProfile> profile_;

  Span root_;
  Span admission_;
  Span queue_wait_;
  Span execute_;
  Span drain_;
};

}  // namespace xprs

#endif  // XPRS_SERVE_LIFECYCLE_H_
