#include "exec/fragment.h"

#include <algorithm>

#include "exec/batch_ops.h"
#include "exec/profile.h"
#include "exec/spill_ops.h"

#include "util/check.h"
#include "util/str.h"

namespace xprs {

int FragmentGraph::NewFragment(const PlanNode* root) {
  Fragment f;
  f.id = static_cast<int>(fragments_.size());
  f.root = root;
  fragments_.push_back(std::move(f));
  return fragments_.back().id;
}

FragmentGraph FragmentGraph::Decompose(const PlanNode& plan) {
  FragmentGraph g;
  g.root_fragment_ = g.NewFragment(&plan);
  g.Walk(&plan, g.root_fragment_);
  return g;
}

void FragmentGraph::Walk(const PlanNode* node, int frag) {
  switch (node->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan:
      return;

    case PlanKind::kSort:
    case PlanKind::kAggregate:
      if (node == fragments_[frag].root) {
        // This fragment *is* the blocking producer: the pipeline below
        // feeds the sort buffer / aggregation table, and the fragment pays
        // that work.
        Walk(node->left.get(), frag);
      } else {
        // Blocking edge: everything from this node down is a new fragment.
        int child = NewFragment(node);
        fragments_[frag].blocked_inputs[node] = child;
        fragments_[frag].deps.push_back(child);
        Walk(node, child);
      }
      return;

    case PlanKind::kNestLoopJoin:
    case PlanKind::kMergeJoin:
      // Both inputs pipeline (merge join inputs are Sort nodes, which cut
      // their own boundaries above).
      Walk(node->left.get(), frag);
      Walk(node->right.get(), frag);
      return;

    case PlanKind::kHashJoin: {
      // Probe side pipelines; the build side is a blocking edge.
      Walk(node->left.get(), frag);
      int child = NewFragment(node->right.get());
      fragments_[frag].blocked_inputs[node->right.get()] = child;
      fragments_[frag].deps.push_back(child);
      Walk(node->right.get(), child);
      return;
    }
  }
}

std::vector<int> FragmentGraph::TopologicalOrder() const {
  // Children are always created after their parent, so descending id order
  // is a valid schedule; Kahn's algorithm keeps this robust anyway.
  std::vector<int> in_deg(fragments_.size(), 0);
  std::vector<std::vector<int>> fwd(fragments_.size());
  for (const auto& f : fragments_) {
    for (int dep : f.deps) {
      fwd[dep].push_back(f.id);
      ++in_deg[f.id];
    }
  }
  std::vector<int> order;
  std::vector<int> queue;
  for (const auto& f : fragments_)
    if (in_deg[f.id] == 0) queue.push_back(f.id);
  while (!queue.empty()) {
    int id = queue.back();
    queue.pop_back();
    order.push_back(id);
    for (int next : fwd[id])
      if (--in_deg[next] == 0) queue.push_back(next);
  }
  XPRS_CHECK_EQ(order.size(), fragments_.size());
  return order;
}

namespace {

// Counts the plan nodes fragment `frag` owns: its pipeline from the root
// down, stopping at (not counting) blocked inputs. Nodes under a blocked
// input belong to the producing fragment.
size_t CountOwnedNodes(const Fragment& frag, const PlanNode* node) {
  if (node != frag.root && frag.blocked_inputs.count(node)) return 0;
  size_t n = 1;
  if (node->left) n += CountOwnedNodes(frag, node->left.get());
  if (node->right) n += CountOwnedNodes(frag, node->right.get());
  return n;
}

}  // namespace

Status ValidateFragmentGraph(const FragmentGraph& graph,
                             const PlanNode& plan) {
  const auto& fragments = graph.fragments();
  if (fragments.empty()) return Status::FailedPrecondition("no fragments");
  int root = graph.root_fragment();
  if (root < 0 || root >= static_cast<int>(fragments.size()))
    return Status::FailedPrecondition("root fragment id out of range");
  if (graph.fragment(root).root != &plan)
    return Status::FailedPrecondition(
        "root fragment is not rooted at the plan root");

  size_t owned = 0;
  for (const Fragment& frag : fragments) {
    if (frag.root == nullptr)
      return Status::FailedPrecondition(
          StrFormat("fragment %d has no root", frag.id));
    // Every blocked input maps to an in-range fragment rooted at exactly
    // that node and listed among deps.
    for (const auto& [node, child] : frag.blocked_inputs) {
      if (child < 0 || child >= static_cast<int>(fragments.size()))
        return Status::FailedPrecondition(
            StrFormat("fragment %d: blocked input points to fragment %d",
                      frag.id, child));
      if (graph.fragment(child).root != node)
        return Status::FailedPrecondition(
            StrFormat("fragment %d: child fragment %d rooted elsewhere",
                      frag.id, child));
      if (std::find(frag.deps.begin(), frag.deps.end(), child) ==
          frag.deps.end())
        return Status::FailedPrecondition(
            StrFormat("fragment %d: child %d missing from deps", frag.id,
                      child));
    }
    if (frag.deps.size() != frag.blocked_inputs.size())
      return Status::FailedPrecondition(
          StrFormat("fragment %d: %zu deps vs %zu blocked inputs", frag.id,
                    frag.deps.size(), frag.blocked_inputs.size()));
    owned += CountOwnedNodes(frag, frag.root);
  }
  // Fragment accounting: pipelines partition the plan tree.
  if (owned != PlanSize(plan))
    return Status::FailedPrecondition(
        StrFormat("fragments own %zu nodes, plan has %zu", owned,
                  PlanSize(plan)));

  // The topological order covers every fragment once, dependencies first.
  std::vector<int> order = graph.TopologicalOrder();
  if (order.size() != fragments.size())
    return Status::FailedPrecondition("topological order size mismatch");
  std::map<int, size_t> position;
  for (size_t i = 0; i < order.size(); ++i) {
    if (!position.emplace(order[i], i).second)
      return Status::FailedPrecondition(
          StrFormat("fragment %d appears twice in topological order",
                    order[i]));
  }
  for (const Fragment& frag : fragments) {
    auto self = position.find(frag.id);
    if (self == position.end())
      return Status::FailedPrecondition(
          StrFormat("fragment %d missing from topological order", frag.id));
    for (int dep : frag.deps) {
      auto it = position.find(dep);
      if (it == position.end() || it->second >= self->second)
        return Status::FailedPrecondition(
            StrFormat("fragment %d scheduled before its dep %d", frag.id,
                      dep));
    }
  }
  return Status::OK();
}

const PlanNode* DrivingLeaf(const Fragment& frag) {
  const PlanNode* node = frag.root;
  for (;;) {
    if (frag.blocked_inputs.count(node)) return node;
    switch (node->kind) {
      case PlanKind::kSeqScan:
      case PlanKind::kIndexScan:
        return node;
      default:
        node = node->left.get();
    }
  }
}

namespace {

// Builds the operators of one fragment's pipeline, recursively from any of
// its nodes. In vectorized mode every batch-capable subtree is built from
// batch operators, its sequential scans included; a blocked input's rows
// are the one tuple source bridged in.
class FragmentBuilder {
 public:
  FragmentBuilder(const Fragment& frag,
                  const std::map<int, const TempResult*>& inputs,
                  const ExecContext& ctx, const DrivingSlot* driving)
      : frag_(frag),
        inputs_(inputs),
        ctx_(ctx),
        driving_(driving),
        driving_leaf_(driving != nullptr ? DrivingLeaf(frag) : nullptr) {}

  StatusOr<std::unique_ptr<Operator>> Build(const PlanNode* node);

  // True when the subtree at `node` compiles to batch operators:
  // sequential scans, and aggregates and hash joins that cannot spill, over
  // leaves that are sequential scans or blocked inputs.
  bool Vectorizable(const PlanNode* node) const;

 private:
  bool Blocked(const PlanNode* node) const {
    return frag_.blocked_inputs.count(node) > 0;
  }
  // The page partition `node` reads its slot of, if it is the driving leaf.
  AdjustablePageScan* DrivingPages(const PlanNode* node) const {
    return node == driving_leaf_ ? driving_->pages : nullptr;
  }
  int slot() const { return driving_ != nullptr ? driving_->slot : 0; }
  StatusOr<const TempResult*> Input(const PlanNode* node) const;
  StatusOr<std::unique_ptr<Operator>> Leaf(const PlanNode* node);
  StatusOr<std::unique_ptr<BatchOperator>> BuildBatch(const PlanNode* node);

  const Fragment& frag_;
  const std::map<int, const TempResult*>& inputs_;
  const ExecContext& ctx_;
  const DrivingSlot* const driving_;
  const PlanNode* const driving_leaf_;  // null without `driving_`
};

// The materialized output feeding blocked input `node`.
StatusOr<const TempResult*> FragmentBuilder::Input(
    const PlanNode* node) const {
  const int producer = frag_.blocked_inputs.at(node);
  auto temp = inputs_.find(producer);
  if (temp == inputs_.end() || temp->second == nullptr)
    return Status::FailedPrecondition(
        StrFormat("fragment %d input (fragment %d) not materialized",
                  frag_.id, producer));
  return temp->second;
}

// A scan, or the source over a blocked input's materialized rows; the
// driving leaf reads only its slot's share. A temp source is not profiled:
// it re-emits another fragment's output, which that fragment counted.
StatusOr<std::unique_ptr<Operator>> FragmentBuilder::Leaf(
    const PlanNode* node) {
  if (Blocked(node)) {
    XPRS_ASSIGN_OR_RETURN(const TempResult* temp, Input(node));
    return MaybeCancelGuard(
        std::make_unique<TempSourceOp>(temp, DrivingPages(node), slot()),
        ctx_.cancel);
  }
  std::unique_ptr<Operator> op;
  if (node->kind == PlanKind::kSeqScan) {
    op = std::make_unique<SeqScanOp>(node->table, node->predicate, ctx_,
                                     DrivingPages(node), slot());
  } else {
    XPRS_CHECK(node->kind == PlanKind::kIndexScan);
    op = std::make_unique<IndexScanOp>(
        node->table, node->predicate, node->index_range, ctx_,
        node == driving_leaf_ ? driving_->ranges : nullptr, slot());
  }
  return MaybeCancelGuard(MaybeProfile(std::move(op), node, ctx_.profile),
                          ctx_.cancel);
}

bool FragmentBuilder::Vectorizable(const PlanNode* node) const {
  if (Blocked(node)) return true;
  // An index scan has no batch form, and its consumers stay on the tuple
  // path: bridging an index lookup's few rows into batch operators costs
  // more than those operators save.
  switch (node->kind) {
    case PlanKind::kSeqScan:
      return true;
    case PlanKind::kAggregate:
      return Vectorizable(node->left.get());
    case PlanKind::kHashJoin: {
      // Only the tuple HashJoinOp spills: spill-configured contexts stay on
      // the tuple path so memory bounds keep holding.
      if (ctx_.spill.temp_array != nullptr) return false;
      // Non-int4 keys fall back to the tuple path, which only type-checks
      // keys it actually extracts (all-NULL inputs pass).
      const Schema& ls = node->left->output_schema;
      const Schema& rs = node->right->output_schema;
      if (node->left_key >= ls.num_columns() ||
          ls.column(node->left_key).type != TypeId::kInt4 ||
          node->right_key >= rs.num_columns() ||
          rs.column(node->right_key).type != TypeId::kInt4)
        return false;
      return Vectorizable(node->left.get()) && Vectorizable(node->right.get());
    }
    default:
      return false;
  }
}

// The batch pipeline of a vectorizable subtree, each node bound to its
// stats when ctx.profile is set.
StatusOr<std::unique_ptr<BatchOperator>> FragmentBuilder::BuildBatch(
    const PlanNode* node) {
  if (Blocked(node)) {
    XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> leaf, Leaf(node));
    return std::unique_ptr<BatchOperator>(
        std::make_unique<BatchFromTupleOp>(std::move(leaf), ctx_.batch_rows));
  }
  OperatorStats* stats =
      ctx_.profile != nullptr ? ctx_.profile->StatsFor(node) : nullptr;
  switch (node->kind) {
    case PlanKind::kSeqScan: {
      auto scan = std::make_unique<BatchSeqScanOp>(node->table, ctx_,
                                                   DrivingPages(node), slot());
      scan->set_profile_stats(stats);
      if (node->predicate.IsTrue())
        return std::unique_ptr<BatchOperator>(std::move(scan));
      // The filter owns the node's opens / tuples_out / evals; the scan
      // underneath contributes only pages_read.
      scan->set_owns_node_stats(false);
      auto filter =
          std::make_unique<BatchFilterOp>(std::move(scan), node->predicate);
      filter->set_profile_stats(stats);
      return std::unique_ptr<BatchOperator>(std::move(filter));
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> child,
                            BuildBatch(node->left.get()));
      // The aggregate reads only its agg / group columns: prune the rest
      // out of the child pipeline (scans skip the decode, joins skip the
      // copy).
      std::vector<uint8_t> needed(child->schema().num_columns(), 0);
      needed[node->agg_col] = 1;
      if (node->group_col >= 0) needed[node->group_col] = 1;
      child->PruneOutputColumns(needed);
      auto op = std::make_unique<BatchAggregateOp>(
          std::move(child), node->output_schema, node->agg_func,
          node->agg_col, node->group_col, ctx_);
      op->set_profile_stats(stats);
      return std::unique_ptr<BatchOperator>(std::move(op));
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> outer,
                            BuildBatch(node->left.get()));
      const PlanNode* build_side = node->right.get();
      std::unique_ptr<BatchOperator> op;
      if (Blocked(build_side)) {
        // As on the tuple path: every prober shares the input's one index.
        XPRS_ASSIGN_OR_RETURN(const TempResult* temp, Input(build_side));
        op = std::make_unique<BatchHashJoinOp>(
            std::move(outer), temp, node->left_key, node->right_key, ctx_);
      } else {
        XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> inner,
                              BuildBatch(build_side));
        op = std::make_unique<BatchHashJoinOp>(
            std::move(outer), std::move(inner), node->left_key,
            node->right_key, ctx_);
      }
      op->set_profile_stats(stats);
      return op;
    }
    default:
      return Status::Internal("plan node is not vectorizable");
  }
}

StatusOr<std::unique_ptr<Operator>> FragmentBuilder::Build(
    const PlanNode* node) {
  if (Blocked(node)) return Leaf(node);
  // Vectorized mode: compile maximal batch-capable subtrees. Ancestors the
  // batch path cannot run (sort, merge join, ...) fall through to the tuple
  // operators below, and their child recursion lands back here. The
  // adapter is the subtree's outermost cancellation point; it is not
  // profiled (the batch operators own their nodes' stats).
  if (ctx_.vectorized && Vectorizable(node)) {
    XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> root,
                          BuildBatch(node));
    // A statement's plan root: only its projected columns are decoded and
    // copied, and the adapter materializes the rest as NULL.
    if (!node->projected_columns.empty())
      root->PruneOutputColumns(node->projected_columns);
    return std::unique_ptr<Operator>(
        std::make_unique<VectorizedAdapterOp>(std::move(root), ctx_.cancel));
  }

  std::unique_ptr<Operator> op;
  switch (node->kind) {
    case PlanKind::kSeqScan:
    case PlanKind::kIndexScan:
      return Leaf(node);
    case PlanKind::kSort: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                            Build(node->left.get()));
      op = std::make_unique<ExternalSortOp>(std::move(child), node->sort_key,
                                            ctx_.spill);
      break;
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                            Build(node->left.get()));
      op = std::make_unique<AggregateOp>(std::move(child),
                                         node->output_schema, node->agg_func,
                                         node->agg_col, node->group_col);
      break;
    }
    case PlanKind::kNestLoopJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer,
                            Build(node->left.get()));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(node->right.get()));
      op = std::make_unique<NestLoopJoinOp>(std::move(outer),
                                            std::move(inner), node->left_key,
                                            node->right_key);
      break;
    }
    case PlanKind::kMergeJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer,
                            Build(node->left.get()));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(node->right.get()));
      op = std::make_unique<MergeJoinOp>(std::move(outer), std::move(inner),
                                         node->left_key, node->right_key);
      break;
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer,
                            Build(node->left.get()));
      const PlanNode* build_side = node->right.get();
      if (Blocked(build_side)) {
        // Every prober of a materialized build input shares its one index.
        // Its rows already sit in shared memory: spilling a copy of them
        // would bound nothing.
        XPRS_ASSIGN_OR_RETURN(const TempResult* temp, Input(build_side));
        op = std::make_unique<HashJoinOp>(std::move(outer), temp,
                                          node->left_key, node->right_key);
        break;
      }
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            Build(build_side));
      op = std::make_unique<HashJoinOp>(std::move(outer), std::move(inner),
                                        node->left_key, node->right_key,
                                        ctx_.spill);
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan kind");
  return MaybeCancelGuard(MaybeProfile(std::move(op), node, ctx_.profile),
                          ctx_.cancel);
}

}  // namespace

StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const DrivingSlot* driving) {
  const Fragment& frag = graph.fragment(frag_id);
  return FragmentBuilder(frag, inputs, ctx, driving).Build(frag.root);
}

StatusOr<std::unique_ptr<Operator>> BuildOperatorTree(const PlanNode& plan,
                                                      const ExecContext& ctx) {
  Fragment whole;
  whole.root = &plan;
  const std::map<int, const TempResult*> no_inputs;
  return FragmentBuilder(whole, no_inputs, ctx, nullptr).Build(&plan);
}

bool VectorizableSubtree(const PlanNode& node, const ExecContext& ctx) {
  Fragment whole;
  whole.root = &node;
  const std::map<int, const TempResult*> no_inputs;
  return FragmentBuilder(whole, no_inputs, ctx, nullptr).Vectorizable(&node);
}

StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx) {
  XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root,
                        BuildFragmentOperators(graph, frag_id, inputs, ctx));
  TempResult result;
  result.schema = graph.fragment(frag_id).root->output_schema;
  XPRS_ASSIGN_OR_RETURN(result.tuples, Drain(root.get()));
  return result;
}

StatusOr<std::vector<Tuple>> ExecutePlanFragmented(const PlanNode& plan,
                                                   const ExecContext& ctx) {
  FragmentGraph graph = FragmentGraph::Decompose(plan);
  std::map<int, TempResult> results;
  for (int id : graph.TopologicalOrder()) {
    std::map<int, const TempResult*> inputs;
    for (int dep : graph.fragment(id).deps) inputs[dep] = &results.at(dep);
    XPRS_ASSIGN_OR_RETURN(TempResult r,
                          ExecuteFragment(graph, id, inputs, ctx));
    results[id] = std::move(r);
  }
  return std::move(results.at(graph.root_fragment()).tuples);
}

}  // namespace xprs
