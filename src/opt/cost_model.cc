#include "opt/cost_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

std::string PlanEstimate::ToString() const {
  return StrFormat("Est{rows=%.0f T=%.3fs D=%.0f w=%.0fB}", rows, seq_time,
                   ios, row_bytes);
}

CostModel::CostModel(const CostParams& params) : params_(params) {}

double CostModel::Selectivity(const Predicate& pred,
                              const Table& table) const {
  if (pred.IsTrue()) return 1.0;
  const TableStats& stats = table.stats();
  KeyRange range{INT32_MIN, INT32_MAX};
  // Key predicates are on the stats/index column (column 0 of the paper
  // schema).
  if (pred.ExtractKeyRange(0, &range) && stats.has_key_bounds) {
    // Equi-depth histogram when available, else uniform interpolation.
    return stats.KeyRangeFraction(range.lo, range.hi);
  }
  return params_.default_range_selectivity;
}

PlanEstimate CostModel::EstimateNode(const PlanNode& plan,
                                     const Fragment* frag) const {
  // Blocked input consumed as a materialized temp: cardinality of the
  // producing subtree, cpu-only read cost, no ios.
  if (frag != nullptr && frag->blocked_inputs.count(&plan)) {
    PlanEstimate sub = EstimateNode(plan, nullptr);
    PlanEstimate est;
    est.rows = sub.rows;
    est.seq_time = sub.rows * params_.temp_tuple_time;
    est.ios = 0.0;
    est.row_bytes = sub.row_bytes;
    return est;
  }

  switch (plan.kind) {
    case PlanKind::kSeqScan: {
      const TableStats& stats = plan.table->stats();
      PlanEstimate est;
      double pages = std::max<double>(stats.num_pages, 1.0);
      double tuples = static_cast<double>(stats.num_tuples);
      est.rows = tuples * Selectivity(plan.predicate, *plan.table);
      est.seq_time =
          pages * params_.page_io_time + tuples * params_.tuple_cpu_time;
      est.ios = pages;
      est.row_bytes =
          stats.tuples_per_page > 0 ? 8192.0 / stats.tuples_per_page : 64.0;
      return est;
    }
    case PlanKind::kIndexScan: {
      const TableStats& stats = plan.table->stats();
      PlanEstimate est;
      double tuples = static_cast<double>(stats.num_tuples);
      Predicate range_pred = Predicate::And(
          plan.predicate, Predicate::Between(0, plan.index_range.lo,
                                             plan.index_range.hi));
      double matches =
          std::max(1.0, tuples * Selectivity(range_pred, *plan.table));
      est.rows = matches;
      // One random page fetch per qualifying entry (unclustered index).
      est.seq_time =
          matches * (params_.rand_io_time + params_.tuple_cpu_time);
      est.ios = matches;
      est.row_bytes = stats.tuples_per_page > 0
                          ? 8192.0 / stats.tuples_per_page
                          : 64.0;
      return est;
    }
    case PlanKind::kSort: {
      PlanEstimate child = EstimateNode(*plan.left, frag);
      PlanEstimate est = child;
      double n = std::max(child.rows, 2.0);
      est.seq_time += n * std::log2(n) * params_.sort_compare_time;
      return est;
    }
    case PlanKind::kAggregate: {
      PlanEstimate child = EstimateNode(*plan.left, frag);
      PlanEstimate est;
      // Output cardinality: one row per group; estimate distinct groups as
      // sqrt of the input (no per-column distinct stats above base scans).
      est.rows = plan.group_col >= 0 ? std::max(1.0, std::sqrt(child.rows))
                                     : 1.0;
      est.seq_time = child.seq_time + child.rows * params_.hash_tuple_time;
      est.ios = child.ios;
      est.row_bytes = plan.group_col >= 0 ? 20.0 : 10.0;
      return est;
    }
    case PlanKind::kNestLoopJoin: {
      PlanEstimate outer = EstimateNode(*plan.left, frag);
      // The inner subtree is re-executed per outer tuple; it is never a
      // blocked input (nest loop edges pipeline), so estimate it plainly.
      PlanEstimate inner = EstimateNode(*plan.right, nullptr);
      PlanEstimate est;
      double denom = std::max({outer.rows, inner.rows, 1.0});
      est.rows = outer.rows * inner.rows / denom;
      est.seq_time = outer.seq_time + outer.rows * inner.seq_time +
                     est.rows * params_.tuple_cpu_time;
      est.ios = outer.ios + outer.rows * inner.ios;
      est.row_bytes = outer.row_bytes + inner.row_bytes;
      return est;
    }
    case PlanKind::kMergeJoin: {
      PlanEstimate outer = EstimateNode(*plan.left, frag);
      PlanEstimate inner = EstimateNode(*plan.right, frag);
      PlanEstimate est;
      double denom = std::max({outer.rows, inner.rows, 1.0});
      est.rows = outer.rows * inner.rows / denom;
      est.seq_time = outer.seq_time + inner.seq_time +
                     (outer.rows + inner.rows) * params_.tuple_cpu_time +
                     est.rows * params_.tuple_cpu_time;
      est.ios = outer.ios + inner.ios;
      est.row_bytes = outer.row_bytes + inner.row_bytes;
      return est;
    }
    case PlanKind::kHashJoin: {
      PlanEstimate outer = EstimateNode(*plan.left, frag);
      PlanEstimate inner = EstimateNode(*plan.right, frag);
      PlanEstimate est;
      double denom = std::max({outer.rows, inner.rows, 1.0});
      est.rows = outer.rows * inner.rows / denom;
      est.seq_time = outer.seq_time + inner.seq_time +
                     inner.rows * params_.hash_tuple_time +
                     outer.rows * params_.hash_tuple_time +
                     est.rows * params_.tuple_cpu_time;
      // The build side is a blocking edge: its rows are materialized
      // before the probe starts. A fragment estimate already charges that
      // (its blocked input costs temp_tuple_time per row, above); the
      // whole-plan estimate the enumerator ranks by charges it here, so
      // the smaller input is the cheaper build side. Fragment profiles do
      // not change.
      if (frag == nullptr) est.seq_time += inner.rows * params_.temp_tuple_time;
      est.ios = outer.ios + inner.ios;
      est.row_bytes = outer.row_bytes + inner.row_bytes;
      // §5 extension: build side larger than the memory budget spills —
      // grace hashing writes and re-reads both inputs once.
      if (params_.memory_pages_budget > 0.0) {
        double build_pages = inner.rows * inner.row_bytes / 8192.0;
        if (build_pages > params_.memory_pages_budget) {
          double outer_pages = outer.rows * outer.row_bytes / 8192.0;
          double extra = 2.0 * (build_pages + outer_pages);
          est.ios += extra;
          est.seq_time += extra * params_.page_io_time;
        }
      }
      return est;
    }
  }
  return PlanEstimate{};
}

PlanEstimate CostModel::Estimate(const PlanNode& plan) const {
  return EstimateNode(plan, nullptr);
}

PlanEstimate CostModel::EstimateFragment(const FragmentGraph& graph,
                                         const Fragment& frag) const {
  (void)graph;
  return EstimateNode(*frag.root, &frag);
}

namespace {

// Sums the working memory a fragment holds: hash tables of the hash joins
// whose probe runs in the fragment, plus the sort buffer when the fragment
// root is a Sort.
void AccumulateMemory(const CostModel& model, const PlanNode& plan,
                      const Fragment& frag, double* bytes) {
  if (frag.blocked_inputs.count(&plan) && &plan != frag.root) return;
  if (plan.kind == PlanKind::kHashJoin) {
    PlanEstimate build = model.Estimate(*plan.right);
    *bytes += build.rows * build.row_bytes;
  }
  if (plan.left) AccumulateMemory(model, *plan.left, frag, bytes);
  if (plan.right && plan.kind != PlanKind::kHashJoin)
    AccumulateMemory(model, *plan.right, frag, bytes);
  if (plan.right && plan.kind == PlanKind::kHashJoin) {
    // The build subtree belongs to another fragment; only recurse if it is
    // not a blocked input (it always is, by construction).
    if (!frag.blocked_inputs.count(plan.right.get()))
      AccumulateMemory(model, *plan.right, frag, bytes);
  }
}

}  // namespace

double CostModel::FragmentMemoryPages(const FragmentGraph& graph,
                                      const Fragment& frag) const {
  (void)graph;
  double bytes = 0.0;
  AccumulateMemory(*this, *frag.root, frag, &bytes);
  if (frag.root->kind == PlanKind::kSort) {
    PlanEstimate sorted = EstimateNode(*frag.root, &frag);
    bytes += sorted.rows * sorted.row_bytes;
  }
  return bytes / 8192.0;
}

namespace {

// Accumulates sequential vs random ios of the fragment-local leaves to
// pick the fragment's dominant access pattern.
void AccumulatePattern(const PlanNode& plan, const Fragment& frag,
                       const CostModel& model, double outer_multiplier,
                       double* seq_ios, double* rand_ios) {
  if (frag.blocked_inputs.count(&plan)) return;
  switch (plan.kind) {
    case PlanKind::kSeqScan:
      *seq_ios +=
          outer_multiplier * std::max<double>(plan.table->stats().num_pages, 1);
      return;
    case PlanKind::kIndexScan:
      *rand_ios += outer_multiplier * model.Estimate(plan).rows;
      return;
    case PlanKind::kNestLoopJoin: {
      AccumulatePattern(*plan.left, frag, model, outer_multiplier, seq_ios,
                        rand_ios);
      double outer_rows = model.Estimate(*plan.left).rows;
      // Inner rescans are effectively random page revisits.
      double inner_ios = model.Estimate(*plan.right).ios;
      *rand_ios += outer_multiplier * outer_rows * inner_ios;
      return;
    }
    default:
      if (plan.left)
        AccumulatePattern(*plan.left, frag, model, outer_multiplier, seq_ios,
                          rand_ios);
      if (plan.right)
        AccumulatePattern(*plan.right, frag, model, outer_multiplier, seq_ios,
                          rand_ios);
      return;
  }
}

}  // namespace

std::vector<TaskProfile> CostModel::FragmentProfiles(
    const FragmentGraph& graph, int64_t query_id, TaskId id_base) const {
  std::vector<TaskProfile> profiles;
  profiles.reserve(graph.fragments().size());
  for (const Fragment& frag : graph.fragments()) {
    PlanEstimate est = EstimateFragment(graph, frag);
    TaskProfile t;
    t.id = id_base + frag.id;
    t.name = StrFormat("q%lld/f%d(%s)", static_cast<long long>(query_id),
                       frag.id, PlanKindName(frag.root->kind));
    t.seq_time = std::max(est.seq_time, 1e-6);
    t.total_ios = est.ios;
    double seq_ios = 0.0, rand_ios = 0.0;
    AccumulatePattern(*frag.root, frag, *this, 1.0, &seq_ios, &rand_ios);
    t.pattern = rand_ios > seq_ios ? IoPattern::kRandom
                                   : IoPattern::kSequential;
    t.query_id = query_id;
    t.memory_pages = FragmentMemoryPages(graph, frag);
    for (int dep : frag.deps) t.deps.push_back(id_base + dep);
    profiles.push_back(std::move(t));
  }
  return profiles;
}

}  // namespace xprs
