#include "exec/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "exec/operators.h"
#include "util/check.h"
#include "util/str.h"

namespace xprs {

namespace {

constexpr std::memory_order kRelaxed = std::memory_order_relaxed;

const char* EventKindName(AdjustmentEvent::Kind kind) {
  switch (kind) {
    case AdjustmentEvent::Kind::kStart:
      return "start";
    case AdjustmentEvent::Kind::kAdjust:
      return "adjust";
    case AdjustmentEvent::Kind::kFinish:
      return "finish";
  }
  return "?";
}

// The timing decorator. Inserted between a parent and its child only when
// a profile is attached, so the profiling-off hot path never sees it.
// Times are *inclusive* (children run inside the parent's Next); the text
// renderer derives self time by subtracting child inclusive times.
class ProfiledOp : public Operator {
 public:
  ProfiledOp(std::unique_ptr<Operator> inner, OperatorStats* stats)
      : inner_(std::move(inner)), stats_(stats) {
    XPRS_CHECK(inner_ != nullptr);
    XPRS_CHECK(stats_ != nullptr);
  }

  Status Open() override {
    const uint64_t t0 = ProfileNowNs();
    Status status = inner_->Open();
    stats_->open_ns.fetch_add(ProfileNowNs() - t0, kRelaxed);
    stats_->opens.fetch_add(1, kRelaxed);
    return status;
  }

  Status Next(Tuple* out, bool* eof) override {
    const uint64_t t0 = ProfileNowNs();
    Status status = inner_->Next(out, eof);
    stats_->next_ns.fetch_add(ProfileNowNs() - t0, kRelaxed);
    if (status.ok() && !*eof) stats_->tuples_out.fetch_add(1, kRelaxed);
    return status;
  }

  Status Close() override {
    const uint64_t t0 = ProfileNowNs();
    Status status = inner_->Close();
    stats_->close_ns.fetch_add(ProfileNowNs() - t0, kRelaxed);
    return status;
  }

  const Schema& schema() const override { return inner_->schema(); }

 private:
  std::unique_ptr<Operator> inner_;
  OperatorStats* const stats_;
};

std::string Ns2Ms(uint64_t ns) {
  return StrFormat("%.3fms", static_cast<double>(ns) * 1e-6);
}

}  // namespace

std::string AdjustmentEvent::ToString() const {
  return StrFormat("+%.3fs %s f%d x%g", time_seconds, EventKindName(kind),
                   frag_id, parallelism);
}

std::string OperatorLabel(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kSeqScan:
      return StrFormat("SeqScan(%s, %s)", node.table->name().c_str(),
                       node.predicate.ToString().c_str());
    case PlanKind::kIndexScan:
      return StrFormat("IndexScan(%s, %s, keys %s)",
                       node.table->name().c_str(),
                       node.predicate.ToString().c_str(),
                       node.index_range.ToString().c_str());
    case PlanKind::kSort:
      return StrFormat("Sort(col%zu)", node.sort_key);
    case PlanKind::kAggregate:
      return StrFormat("Aggregate(%s(col%zu)%s)", AggFuncName(node.agg_func),
                       node.agg_col,
                       node.group_col >= 0
                           ? StrFormat(" group by col%d", node.group_col)
                                 .c_str()
                           : "");
    default:
      return StrFormat("%s(l.col%zu = r.col%zu)", PlanKindName(node.kind),
                       node.left_key, node.right_key);
  }
}

QueryProfile::QueryProfile(const PlanNode* plan) : plan_(plan) {
  XPRS_CHECK(plan != nullptr);
  Index(plan, /*parent=*/-1, /*depth=*/0);
}

void QueryProfile::Index(const PlanNode* node, int parent, int depth) {
  auto stats = std::make_unique<OperatorStats>();
  stats->id = static_cast<int>(operators_.size());
  stats->parent = parent;
  stats->depth = depth;
  stats->kind = node->kind;
  stats->label = OperatorLabel(*node);
  OperatorStats* raw = stats.get();
  operators_.push_back(std::move(stats));
  by_node_[node] = raw;
  const int id = raw->id;
  if (node->left) Index(node->left.get(), id, depth + 1);
  if (node->right) Index(node->right.get(), id, depth + 1);
}

void QueryProfile::AdoptPlan(std::shared_ptr<const PlanNode> plan) {
  XPRS_CHECK(plan.get() == plan_);
  owned_plan_ = std::move(plan);
}

OperatorStats* QueryProfile::StatsFor(const PlanNode* node) {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

const OperatorStats* QueryProfile::StatsFor(const PlanNode* node) const {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

bool QueryProfile::Covers(const PlanNode* node) const {
  return by_node_.count(node) != 0;
}

void QueryProfile::SetEstimate(const PlanNode* node, double rows, double ios,
                               double seq_time) {
  OperatorStats* stats = StatsFor(node);
  if (stats == nullptr) return;
  stats->est_rows = rows;
  stats->est_ios = ios;
  stats->est_seq_time = seq_time;
  stats->has_estimate = true;
}

void QueryProfile::RecordFragment(const FragmentStats& stats) {
  std::lock_guard<std::mutex> lock(mutex_);
  fragments_.push_back(stats);
}

void QueryProfile::RecordEvent(const AdjustmentEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  timeline_.push_back(event);
}

void QueryProfile::AddUtilSample(const UtilSample& sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  utilization_.push_back(sample);
}

std::vector<FragmentStats> QueryProfile::fragments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FragmentStats> out = fragments_;
  std::sort(out.begin(), out.end(),
            [](const FragmentStats& a, const FragmentStats& b) {
              return a.frag_id < b.frag_id;
            });
  return out;
}

std::vector<AdjustmentEvent> QueryProfile::timeline() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return timeline_;
}

std::vector<UtilSample> QueryProfile::utilization() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return utilization_;
}

uint64_t QueryProfile::TotalTuplesOut() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->tuples_out.load(kRelaxed);
  return total;
}

uint64_t QueryProfile::TotalPagesRead() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->pages_read.load(kRelaxed);
  return total;
}

uint64_t QueryProfile::TotalPagesWritten() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->pages_written.load(kRelaxed);
  return total;
}

uint64_t QueryProfile::TotalSpillBytes() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->spill_bytes.load(kRelaxed);
  return total;
}

uint64_t QueryProfile::TotalEvals() const {
  uint64_t total = 0;
  for (const auto& op : operators_) total += op->evals.load(kRelaxed);
  return total;
}

std::string QueryProfile::ToText(const ProfileRenderOptions& options) const {
  // Inclusive nanoseconds per operator; self = inclusive - children.
  std::vector<uint64_t> inclusive(operators_.size(), 0);
  std::vector<uint64_t> self(operators_.size(), 0);
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorStats& op = *operators_[i];
    inclusive[i] = op.open_ns.load(kRelaxed) + op.next_ns.load(kRelaxed) +
                   op.close_ns.load(kRelaxed);
    self[i] = inclusive[i];
  }
  for (size_t i = 0; i < operators_.size(); ++i) {
    int parent = operators_[i]->parent;
    if (parent >= 0) {
      uint64_t& p = self[parent];
      p = p > inclusive[i] ? p - inclusive[i] : 0;
    }
  }

  std::string out;
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorStats& op = *operators_[i];
    out += std::string(2 * static_cast<size_t>(op.depth), ' ');
    out += op.label;
    if (op.has_estimate) {
      out += StrFormat("  (est rows=%.0f ios=%.0f seq=%.3fs)", op.est_rows,
                       op.est_ios, op.est_seq_time);
    }
    out += StrFormat("  (actual rows=%llu pages=%llu",
                     static_cast<unsigned long long>(
                         op.tuples_out.load(kRelaxed)),
                     static_cast<unsigned long long>(
                         op.pages_read.load(kRelaxed)));
    if (uint64_t w = op.pages_written.load(kRelaxed); w > 0) {
      out += StrFormat(
          " written=%llu spill=%lluB runs=%llu",
          static_cast<unsigned long long>(w),
          static_cast<unsigned long long>(op.spill_bytes.load(kRelaxed)),
          static_cast<unsigned long long>(op.spill_runs.load(kRelaxed)));
    }
    if (uint64_t b = op.build_rows.load(kRelaxed); b > 0) {
      out += StrFormat(" build=%llu", static_cast<unsigned long long>(b));
    }
    if (uint64_t e = op.evals.load(kRelaxed); e > 0) {
      out += StrFormat(" evals=%llu", static_cast<unsigned long long>(e));
      if (options.include_times) {
        out += StrFormat(" eval=%s",
                         Ns2Ms(op.eval_ns.load(kRelaxed)).c_str());
      }
    }
    if (options.include_times) {
      out += StrFormat(" open=%s self=%s total=%s",
                       Ns2Ms(op.open_ns.load(kRelaxed)).c_str(),
                       Ns2Ms(self[i]).c_str(), Ns2Ms(inclusive[i]).c_str());
    }
    out += ")\n";
  }

  if (!options.include_parallel) return out;

  const std::vector<FragmentStats> frags = fragments();
  if (!frags.empty()) {
    out += "fragments:\n";
    for (const FragmentStats& f : frags) {
      out += StrFormat("  f%d %s  %s granules=%llu  degree %d->%d"
                       " adjusts=%d slaves=%d tuples=%llu",
                       f.frag_id, f.root_label.c_str(),
                       f.partition_kind.c_str(),
                       static_cast<unsigned long long>(f.granules),
                       f.initial_parallelism, f.final_parallelism,
                       f.adjustments, f.slaves_spawned,
                       static_cast<unsigned long long>(f.tuples_out));
      if (options.include_times)
        out += StrFormat("  wall=%.3fms", f.wall_seconds * 1e3);
      out += "\n";
    }
  }
  const std::vector<AdjustmentEvent> events = timeline();
  if (!events.empty()) {
    out += "timeline:\n";
    for (const AdjustmentEvent& e : events) {
      if (options.include_times) {
        out += "  " + e.ToString() + "\n";
      } else {
        out += StrFormat("  %s f%d x%g\n", EventKindName(e.kind), e.frag_id,
                         e.parallelism);
      }
    }
  }
  const std::vector<UtilSample> util = utilization();
  if (!util.empty()) {
    double total = 0.0, cpu = 0.0, io = 0.0;
    for (const UtilSample& s : util) {
      total += s.duration;
      cpu += s.cpus_busy * s.duration;
      io += s.io_rate * s.duration;
    }
    if (total > 0.0) {
      out += StrFormat(
          "utilization (fluid-sim estimate): %zu samples over %.3fs, "
          "avg %.2f cpus busy, avg %.1f io/s\n",
          util.size(), total, cpu / total, io / total);
    }
  }
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"operators\":[";
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorStats& op = *operators_[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"id\":%d,\"parent\":%d,\"kind\":\"%s\",\"label\":\"%s\"",
        op.id, op.parent, PlanKindName(op.kind),
        JsonEscape(op.label).c_str());
    if (op.has_estimate) {
      out += StrFormat(
          ",\"est\":{\"rows\":%.9g,\"ios\":%.9g,\"seq_time\":%.9g}",
          op.est_rows, op.est_ios, op.est_seq_time);
    }
    out += StrFormat(
        ",\"actual\":{\"rows\":%llu,\"pages_read\":%llu,"
        "\"pages_written\":%llu,\"spill_bytes\":%llu,\"spill_runs\":%llu,"
        "\"build_rows\":%llu,\"evals\":%llu,\"eval_seconds\":%.9g,"
        "\"open_seconds\":%.9g,\"next_seconds\":%.9g,"
        "\"close_seconds\":%.9g,\"opens\":%llu}}",
        static_cast<unsigned long long>(op.tuples_out.load(kRelaxed)),
        static_cast<unsigned long long>(op.pages_read.load(kRelaxed)),
        static_cast<unsigned long long>(op.pages_written.load(kRelaxed)),
        static_cast<unsigned long long>(op.spill_bytes.load(kRelaxed)),
        static_cast<unsigned long long>(op.spill_runs.load(kRelaxed)),
        static_cast<unsigned long long>(op.build_rows.load(kRelaxed)),
        static_cast<unsigned long long>(op.evals.load(kRelaxed)),
        1e-9 * static_cast<double>(op.eval_ns.load(kRelaxed)),
        1e-9 * static_cast<double>(op.open_ns.load(kRelaxed)),
        1e-9 * static_cast<double>(op.next_ns.load(kRelaxed)),
        1e-9 * static_cast<double>(op.close_ns.load(kRelaxed)),
        static_cast<unsigned long long>(op.opens.load(kRelaxed)));
  }
  out += "],\"fragments\":[";
  const std::vector<FragmentStats> frags = fragments();
  for (size_t i = 0; i < frags.size(); ++i) {
    const FragmentStats& f = frags[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"id\":%d,\"root\":\"%s\",\"partition\":\"%s\","
        "\"granules\":%llu,\"initial_parallelism\":%d,"
        "\"final_parallelism\":%d,\"adjustments\":%d,\"slaves\":%d,"
        "\"wall_seconds\":%.9g,\"tuples\":%llu}",
        f.frag_id, JsonEscape(f.root_label).c_str(),
        JsonEscape(f.partition_kind).c_str(),
        static_cast<unsigned long long>(f.granules), f.initial_parallelism,
        f.final_parallelism, f.adjustments, f.slaves_spawned, f.wall_seconds,
        static_cast<unsigned long long>(f.tuples_out));
  }
  out += "],\"timeline\":[";
  const std::vector<AdjustmentEvent> events = timeline();
  for (size_t i = 0; i < events.size(); ++i) {
    const AdjustmentEvent& e = events[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"kind\":\"%s\",\"time\":%.9g,\"fragment\":%d,\"task\":%lld,"
        "\"parallelism\":%.9g}",
        EventKindName(e.kind), e.time_seconds, e.frag_id,
        static_cast<long long>(e.task), e.parallelism);
  }
  out += "],\"utilization\":[";
  const std::vector<UtilSample> util = utilization();
  for (size_t i = 0; i < util.size(); ++i) {
    const UtilSample& s = util[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"time\":%.9g,\"duration\":%.9g,\"cpus_busy\":%.9g,"
        "\"io_rate\":%.9g,\"effective_bw\":%.9g,\"tasks\":%d}",
        s.time, s.duration, s.cpus_busy, s.io_rate, s.effective_bw,
        s.tasks_running);
  }
  out += StrFormat(
      "],\"totals\":{\"tuples_out\":%llu,\"pages_read\":%llu,"
      "\"pages_written\":%llu,\"spill_bytes\":%llu,\"evals\":%llu,"
      "\"operators\":%zu}}",
      static_cast<unsigned long long>(TotalTuplesOut()),
      static_cast<unsigned long long>(TotalPagesRead()),
      static_cast<unsigned long long>(TotalPagesWritten()),
      static_cast<unsigned long long>(TotalSpillBytes()),
      static_cast<unsigned long long>(TotalEvals()), operators_.size());
  return out;
}

Status QueryProfile::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open())
    return Status::Internal("cannot open profile output " + path);
  out << ToJson() << "\n";
  out.close();
  if (!out.good()) return Status::Internal("short write to " + path);
  return Status::OK();
}

void QueryProfile::PublishMetrics(MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->counter("profile.queries")->Increment();
  metrics->counter("profile.tuples_out")->Increment(TotalTuplesOut());
  metrics->counter("profile.pages_read")->Increment(TotalPagesRead());
  metrics->counter("profile.pages_written")->Increment(TotalPagesWritten());
  metrics->counter("profile.spill_bytes")->Increment(TotalSpillBytes());
  metrics->counter("profile.evals")->Increment(TotalEvals());
  Histogram* hist = metrics->histogram("profile.operator_seconds");
  for (const auto& op : operators_) hist->Observe(op->inclusive_seconds());
}

void QueryProfile::EmitTrace(TraceSink* sink) const {
  if (sink == nullptr) return;
  for (const UtilSample& s : utilization()) {
    sink->Record({"profile cpus busy", "profile", 'C', s.time, 0.0, 0,
                  {{"value", s.cpus_busy}}});
    sink->Record({"profile io rate", "profile", 'C', s.time, 0.0, 0,
                  {{"value", s.io_rate}}});
  }
  for (const FragmentStats& f : fragments()) {
    // Fragment spans are anchored at the matching timeline start event
    // when one exists (master runs); standalone runs start at 0.
    double begin = 0.0;
    for (const AdjustmentEvent& e : timeline()) {
      if (e.frag_id == f.frag_id && e.kind == AdjustmentEvent::Kind::kStart) {
        begin = e.time_seconds;
        break;
      }
    }
    sink->Record({StrFormat("profile frag f%d", f.frag_id), "profile", 'X',
                  begin, f.wall_seconds, f.frag_id,
                  {{"root", f.root_label},
                   {"granules", static_cast<int64_t>(f.granules)},
                   {"adjustments", f.adjustments},
                   {"tuples", static_cast<int64_t>(f.tuples_out)}}});
  }
}

std::unique_ptr<Operator> MaybeProfile(std::unique_ptr<Operator> op,
                                       const PlanNode* node,
                                       QueryProfile* profile) {
  if (profile == nullptr || op == nullptr) return op;
  OperatorStats* stats = profile->StatsFor(node);
  if (stats == nullptr) return op;  // foreign plan sharing the context
  op->set_profile_stats(stats);
  return std::make_unique<ProfiledOp>(std::move(op), stats);
}

}  // namespace xprs
