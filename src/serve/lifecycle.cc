#include "serve/lifecycle.h"

#include <algorithm>
#include <utility>

#include "util/str.h"

namespace xprs {

// --- SlowQueryEntry --------------------------------------------------------

std::string SlowQueryEntry::ToJson() const {
  std::string out = StrFormat(
      "{\"query_id\":%lld,\"session_id\":%lld,\"query\":\"%s\","
      "\"status\":\"%s\",\"total_seconds\":%.9g,"
      "\"admission_seconds\":%.9g,\"queue_wait_seconds\":%.9g,"
      "\"exec_seconds\":%.9g,\"drain_seconds\":%.9g,"
      "\"grant\":{\"parallelism\":%d,\"memory_pages\":%.9g,"
      "\"io_rate\":%.9g,\"degraded\":%s},\"top_operators\":[",
      static_cast<long long>(query_id), static_cast<long long>(session_id),
      JsonEscape(query).c_str(), JsonEscape(status).c_str(), total_seconds,
      admission_seconds, queue_wait_seconds, exec_seconds, drain_seconds,
      grant.parallelism, grant.memory_pages, grant.io_rate,
      grant.degraded ? "true" : "false");
  bool first = true;
  for (const SlowQueryOperator& op : top_operators) {
    if (!first) out += ",";
    first = false;
    out += StrFormat("{\"label\":\"%s\",\"seconds\":%.9g,\"tuples_out\":%llu}",
                     JsonEscape(op.label).c_str(), op.seconds,
                     static_cast<unsigned long long>(op.tuples_out));
  }
  out += "]}";
  return out;
}

// --- SlowQueryLog ----------------------------------------------------------

SlowQueryLog::SlowQueryLog(double threshold_seconds)
    : threshold_seconds_(threshold_seconds) {}

void SlowQueryLog::Record(SlowQueryEntry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.push_back(std::move(entry));
}

std::vector<SlowQueryEntry> SlowQueryLog::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

size_t SlowQueryLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string SlowQueryLog::DumpJsonLines() const {
  std::vector<SlowQueryEntry> snapshot = entries();
  std::string out;
  for (const SlowQueryEntry& entry : snapshot) {
    out += entry.ToJson();
    out += "\n";
  }
  return out;
}

// --- QueryLifecycle --------------------------------------------------------

QueryLifecycle::QueryLifecycle(const Observability& obs, std::string label,
                               int64_t session_id, SlowQueryLog* slow_log)
    : obs_(obs),
      label_(std::move(label)),
      session_id_(session_id),
      slow_log_(slow_log),
      start_seconds_(SpanNowSeconds()),
      root_(obs.trace, "query", "serve", 0),
      admission_(obs.trace, "admission", "serve", 0, root_.id()) {
  root_.set_start(start_seconds_);  // one clock reading: no uncovered gap
  admission_.set_start(start_seconds_);
  if (obs_.metrics != nullptr)
    h_total_ = obs_.metrics->histogram("serve.total_seconds");
  root_.AddArg("query", label_);
  root_.AddArg("session", static_cast<int64_t>(session_id_));
}

QueryLifecycle::~QueryLifecycle() {
  // A lifecycle dropped without a terminal transition (e.g. the submitter
  // bailed before handing it to the scheduler) still closes its spans via
  // the Span destructors; mark it so traces show the abandonment.
  if (!finished_) root_.AddArg("abandoned", true);
}

void QueryLifecycle::OnQueryId(int64_t query_id) {
  query_id_ = query_id;
  root_.set_track(query_id);
  root_.AddArg("query_id", static_cast<int64_t>(query_id));
  admission_.set_track(query_id);
}

void QueryLifecycle::OnEnqueued() {
  enqueued_seconds_ = SpanNowSeconds();
  admission_.EndAt(enqueued_seconds_);
  queue_wait_ = Span(obs_.trace, "queue_wait", "serve", query_id_, root_.id());
  queue_wait_.set_start(enqueued_seconds_);
}

void QueryLifecycle::OnGrant(const GrantSnapshot& grant) {
  grant_ = grant;
  granted_ = true;
  if (!obs_.tracing()) return;
  TraceEvent event;
  event.name = "grant";
  event.category = "serve";
  event.phase = 'i';
  event.timestamp = SpanNowSeconds();
  event.track = query_id_;
  event.args.emplace_back("parallelism", grant.parallelism);
  event.args.emplace_back("memory_pages", grant.memory_pages);
  event.args.emplace_back("io_rate", grant.io_rate);
  event.args.emplace_back("degraded", grant.degraded);
  if (queue_wait_.id() != 0)
    event.args.emplace_back("parent", static_cast<int64_t>(queue_wait_.id()));
  obs_.Emit(std::move(event));
}

void QueryLifecycle::OnExecStart() {
  exec_start_seconds_ = SpanNowSeconds();
  queue_wait_.EndAt(exec_start_seconds_);
  execute_ = Span(obs_.trace, "execute", "serve", query_id_, root_.id());
  execute_.set_start(exec_start_seconds_);
  if (granted_) {
    execute_.AddArg("parallelism", grant_.parallelism);
    if (grant_.degraded) execute_.AddArg("degraded", true);
  }
  executed_ = true;
}

void QueryLifecycle::AttachProfile(
    std::shared_ptr<const QueryProfile> profile) {
  profile_ = std::move(profile);
}

void QueryLifecycle::OnExecEnd() {
  exec_end_seconds_ = SpanNowSeconds();
  execute_.EndAt(exec_end_seconds_);
  drain_ = Span(obs_.trace, "drain", "serve", query_id_, root_.id());
  drain_.set_start(exec_end_seconds_);
}

void QueryLifecycle::OnPreempted() {
  const double now = SpanNowSeconds();
  drain_.AddArg("preempted", true);
  drain_.EndAt(now);
  queue_wait_ = Span(obs_.trace, "queue_wait", "serve", query_id_, root_.id());
  queue_wait_.set_start(now);
  // The re-run drives OnExecStart again; until then the query is queued,
  // so a sweep (shutdown, deadline) closes queue_wait as never-ran.
  executed_ = false;
}

void QueryLifecycle::OnResolved(const Status& status) {
  Finish(status, /*rejected=*/false);
}

void QueryLifecycle::OnRejected(const Status& status) {
  Finish(status, /*rejected=*/true);
}

void QueryLifecycle::Finish(const Status& status, bool rejected) {
  if (finished_) return;
  finished_ = true;
  const double end = SpanNowSeconds();
  const double total = end > start_seconds_ ? end - start_seconds_ : 0.0;

  if (rejected) {
    admission_.AddArg("rejected", true);
    admission_.EndAt(end);
  } else if (!executed_) {
    // Swept from the queue (deadline / cancellation / shutdown) without
    // ever opening an operator.
    queue_wait_.AddArg("never_ran", true);
    queue_wait_.EndAt(end);
    // A query rejected inside Submit after enqueueing never got this far;
    // an un-enqueued admission span is still open on odd paths.
    admission_.EndAt(end);
  } else {
    drain_.EndAt(end);
  }
  root_.AddArg("status", status.ok() ? "ok" : status.ToString());
  root_.EndAt(end);

  if (h_total_ != nullptr) h_total_->Observe(total);

  if (slow_log_ == nullptr || !slow_log_->enabled() ||
      total < slow_log_->threshold_seconds())
    return;

  SlowQueryEntry entry;
  entry.query_id = query_id_;
  entry.session_id = session_id_;
  entry.query = label_;
  entry.status = status.ok() ? "ok" : status.ToString();
  entry.total_seconds = total;
  entry.admission_seconds =
      (enqueued_seconds_ > 0 ? enqueued_seconds_ : end) - start_seconds_;
  if (executed_) {
    entry.queue_wait_seconds = exec_start_seconds_ - enqueued_seconds_;
    entry.exec_seconds = exec_end_seconds_ > 0
                             ? exec_end_seconds_ - exec_start_seconds_
                             : end - exec_start_seconds_;
    entry.drain_seconds =
        exec_end_seconds_ > 0 ? end - exec_end_seconds_ : 0.0;
  } else if (enqueued_seconds_ > 0) {
    entry.queue_wait_seconds = end - enqueued_seconds_;
  }
  entry.grant = grant_;

  if (profile_ != nullptr) {
    std::vector<const OperatorStats*> ops;
    ops.reserve(profile_->operators().size());
    for (const std::unique_ptr<OperatorStats>& op : profile_->operators())
      ops.push_back(op.get());
    std::stable_sort(ops.begin(), ops.end(),
                     [](const OperatorStats* a, const OperatorStats* b) {
                       return a->inclusive_seconds() > b->inclusive_seconds();
                     });
    const size_t k = std::min(SlowQueryLog::kTopK, ops.size());
    for (size_t i = 0; i < k; ++i) {
      SlowQueryOperator op;
      op.label = ops[i]->label;
      op.seconds = ops[i]->inclusive_seconds();
      op.tuples_out = ops[i]->tuples_out.load(std::memory_order_relaxed);
      entry.top_operators.push_back(std::move(op));
    }
  }
  slow_log_->Record(std::move(entry));
}

}  // namespace xprs
