#include "parallel/fragment_run.h"

#include <algorithm>

#include "util/check.h"
#include "util/logging.h"
#include "util/str.h"

namespace xprs {

ParallelFragmentRun::ParallelFragmentRun(
    const FragmentGraph* graph, int frag_id,
    std::map<int, const TempResult*> inputs, const Options& options)
    : graph_(graph),
      frag_id_(frag_id),
      inputs_(std::move(inputs)),
      options_(options) {
  XPRS_CHECK(graph != nullptr);
  XPRS_CHECK_GE(options.initial_parallelism, 1);
  XPRS_CHECK_GE(options.max_slots, options.initial_parallelism);

  const Fragment& frag = graph_->fragment(frag_id_);
  const PlanNode* leaf = DrivingLeaf(frag);
  auto blocked = frag.blocked_inputs.find(leaf);

  if (blocked != frag.blocked_inputs.end()) {
    // Driving source is a materialized input: page-partition its batches.
    driving_is_temp_ = true;
    const TempResult* temp = inputs_.at(blocked->second);
    total_granules_ = TempSourceOp::NumBatches(temp->tuples.size());
    page_scan_ = std::make_unique<AdjustablePageScan>(
        total_granules_, options.initial_parallelism, options.max_slots);
  } else if (leaf->kind == PlanKind::kSeqScan) {
    total_granules_ = leaf->table->file().num_pages();
    page_scan_ = std::make_unique<AdjustablePageScan>(
        total_granules_, options.initial_parallelism, options.max_slots);
  } else {
    XPRS_CHECK(leaf->kind == PlanKind::kIndexScan);
    const BTreeIndex* index = leaf->table->index();
    total_granules_ = static_cast<uint32_t>(
        index->CountRange(leaf->index_range.lo, leaf->index_range.hi));
    range_scan_ = std::make_unique<AdjustableRangeScan>(
        index, leaf->index_range, options.initial_parallelism,
        options.max_slots);
  }
  current_parallelism_ = options.initial_parallelism;
}

ParallelFragmentRun::~ParallelFragmentRun() {
  for (auto& t : threads_)
    if (t.joinable()) t.join();
}

void ParallelFragmentRun::SlaveMain(int slot) {
  const DrivingSlot driving{page_scan_.get(), range_scan_.get(), slot};
  auto pipeline = BuildFragmentOperators(*graph_, frag_id_, inputs_,
                                         options_.ctx, &driving);
  std::vector<Tuple> local;
  Status status = pipeline.ok() ? Status::OK() : pipeline.status();
  if (status.ok()) {
    auto rows = Drain(pipeline.value().get());
    if (rows.ok()) {
      local = std::move(rows).value();
    } else {
      status = rows.status();
    }
  }

  if (!status.ok()) {
    // Abort: withdraw from the partition so a rendezvous never waits on us.
    if (page_scan_) page_scan_->Retire(slot);
    if (range_scan_) range_scan_->Retire(slot);
  }

  bool is_last = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!status.ok() && first_error_.ok()) first_error_ = status;
    output_.insert(output_.end(), std::make_move_iterator(local.begin()),
                   std::make_move_iterator(local.end()));
    --running_slaves_;
    bool scan_done = page_scan_ ? page_scan_->Done() : range_scan_->Done();
    if (running_slaves_ == 0 && (scan_done || !first_error_.ok())) {
      finished_ = true;
      finish_ns_ = ProfileNowNs();
      is_last = true;
    }
  }
  if (is_last) {
    done_cv_.notify_all();
    if (on_finish_) on_finish_();
  }
}

void ParallelFragmentRun::SpawnLocked(int slot) {
  ++running_slaves_;
  threads_.emplace_back([this, slot] { SlaveMain(slot); });
}

Status ParallelFragmentRun::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  XPRS_CHECK(!started_);
  started_ = true;
  start_ns_ = finish_ns_ = ProfileNowNs();
  if (total_granules_ == 0) {
    finished_ = true;
    done_cv_.notify_all();
    if (on_finish_) on_finish_();
    return Status::OK();
  }
  for (int i = 0; i < options_.initial_parallelism; ++i) SpawnLocked(i);
  return Status::OK();
}

void ParallelFragmentRun::Adjust(int new_parallelism) {
  new_parallelism = std::clamp(new_parallelism, 1, options_.max_slots);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || finished_) return;
    current_parallelism_ = new_parallelism;
  }
  // The rendezvous must run without holding our mutex (slaves take it when
  // finishing); the partition state has its own synchronization.
  std::vector<int> to_start;
  if (page_scan_) {
    to_start = page_scan_->Adjust(new_parallelism).slots_to_start;
  } else {
    to_start = range_scan_->Adjust(new_parallelism).slots_to_start;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (finished_) return;
  for (int slot : to_start) SpawnLocked(slot);
}

StatusOr<TempResult> ParallelFragmentRun::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [this] { return finished_; });
  lock.unlock();
  for (auto& t : threads_)
    if (t.joinable()) t.join();
  lock.lock();

  if (!first_error_.ok()) return first_error_;

  TempResult result;
  const PlanNode* root = graph_->fragment(frag_id_).root;
  result.schema = root->output_schema;
  result.tuples = std::move(output_);
  if (root->kind == PlanKind::kSort) {
    size_t key = root->sort_key;
    std::stable_sort(result.tuples.begin(), result.tuples.end(),
                     [key](const Tuple& a, const Tuple& b) {
                       return CompareValues(a.value(key), b.value(key)) < 0;
                     });
  } else if (root->kind == PlanKind::kAggregate) {
    // Two-phase aggregation: each slave produced partial aggregates over
    // its partition; combine them (count/sum -> sum, min -> min,
    // max -> max). Group key is column 0 when grouped.
    const bool grouped = root->group_col >= 0;
    const size_t agg_col = grouped ? 1 : 0;
    std::map<int32_t, int64_t> groups;  // key (or 0 for global) -> value
    bool any = false;
    for (const Tuple& t : result.tuples) {
      int32_t key = grouped ? std::get<int32_t>(t.value(0)) : 0;
      const Value& v = t.value(agg_col);
      if (IsNull(v)) continue;
      int64_t partial = std::get<int32_t>(v);
      auto [it, inserted] = groups.emplace(key, partial);
      if (!inserted) {
        switch (root->agg_func) {
          case AggFunc::kCount:
          case AggFunc::kSum:
            it->second += partial;
            break;
          case AggFunc::kMin:
            it->second = std::min(it->second, partial);
            break;
          case AggFunc::kMax:
            it->second = std::max(it->second, partial);
            break;
        }
      }
      any = true;
    }
    result.tuples.clear();
    for (const auto& [key, value] : groups) {
      std::vector<Value> values;
      if (grouped) values.push_back(Value(key));
      values.push_back(Value(static_cast<int32_t>(value)));
      result.tuples.push_back(Tuple(std::move(values)));
    }
    // Global count over an empty input still yields one zero row.
    if (!any && !grouped && root->agg_func == AggFunc::kCount) {
      result.tuples.push_back(Tuple({Value(int32_t{0})}));
    }
  }

  if (QueryProfile* profile = options_.ctx.profile;
      profile != nullptr && profile->Covers(root)) {
    FragmentStats stats;
    stats.frag_id = frag_id_;
    stats.root_label = OperatorLabel(*root);
    stats.partition_kind =
        driving_is_temp_ ? "batches" : (page_scan_ ? "pages" : "range");
    stats.granules = total_granules_;
    stats.initial_parallelism = options_.initial_parallelism;
    stats.final_parallelism = current_parallelism_;
    stats.adjustments = num_adjustments();
    stats.slaves_spawned = static_cast<int>(threads_.size());
    stats.wall_seconds = 1e-9 * static_cast<double>(finish_ns_ - start_ns_);
    stats.tuples_out = result.tuples.size();
    profile->RecordFragment(stats);
  }
  return result;
}

double ParallelFragmentRun::Progress() const {
  if (total_granules_ == 0) return 1.0;
  if (page_scan_) {
    return static_cast<double>(page_scan_->pages_taken()) / total_granules_;
  }
  // Range scans do not expose taken-entry counts directly; approximate
  // with doneness.
  return range_scan_->Done() ? 1.0 : 0.5;
}

bool ParallelFragmentRun::finished() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return finished_;
}

int ParallelFragmentRun::parallelism() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_parallelism_;
}

int ParallelFragmentRun::num_adjustments() const {
  return page_scan_ ? page_scan_->num_adjustments()
                    : range_scan_->num_adjustments();
}

}  // namespace xprs
