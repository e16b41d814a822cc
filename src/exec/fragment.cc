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
// its nodes.
class FragmentBuilder {
 public:
  FragmentBuilder(const Fragment& frag,
                  const std::map<int, const TempResult*>& inputs,
                  const ExecContext& ctx, const DrivingSlot* driving)
      : frag_(frag),
        inputs_(inputs),
        ctx_(ctx),
        driving_(driving),
        driving_leaf_(driving != nullptr ? DrivingLeaf(frag) : nullptr) {
    // Vectorized subtrees take their foreign leaves as tuple sources
    // bridged into the batch pipeline.
    hooks_.is_leaf = [this](const PlanNode* n) { return ForeignLeaf(n); };
    hooks_.make = [this](const PlanNode* n)
        -> StatusOr<std::unique_ptr<BatchOperator>> {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> leaf, Leaf(n));
      return std::unique_ptr<BatchOperator>(
          std::make_unique<BatchFromTupleOp>(std::move(leaf),
                                             ctx_.batch_rows));
    };
  }
  // The hooks capture `this`.
  FragmentBuilder(const FragmentBuilder&) = delete;
  FragmentBuilder& operator=(const FragmentBuilder&) = delete;

  StatusOr<std::unique_ptr<Operator>> Build(const PlanNode* node);

 private:
  bool Blocked(const PlanNode* node) const {
    return frag_.blocked_inputs.count(node) > 0;
  }
  // Leaves whose source is more than the plan node: a blocked input, or
  // the driving leaf of a slave.
  bool ForeignLeaf(const PlanNode* node) const {
    return Blocked(node) || node == driving_leaf_;
  }
  StatusOr<const TempResult*> Input(const PlanNode* node) const;
  StatusOr<std::unique_ptr<Operator>> Leaf(const PlanNode* node);

  const Fragment& frag_;
  const std::map<int, const TempResult*>& inputs_;
  const ExecContext& ctx_;
  const DrivingSlot* const driving_;
  const PlanNode* const driving_leaf_;  // null without `driving_`
  BatchLeafHooks hooks_;
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
  const bool drives = node == driving_leaf_;
  AdjustablePageScan* pages = drives ? driving_->pages : nullptr;
  const int slot = drives ? driving_->slot : 0;
  if (Blocked(node)) {
    XPRS_ASSIGN_OR_RETURN(const TempResult* temp, Input(node));
    return MaybeCancelGuard(std::make_unique<TempSourceOp>(temp, pages, slot),
                            ctx_.cancel);
  }
  std::unique_ptr<Operator> op;
  if (node->kind == PlanKind::kSeqScan) {
    op = std::make_unique<SeqScanOp>(node->table, node->predicate, ctx_,
                                     pages, slot);
  } else {
    XPRS_CHECK(node->kind == PlanKind::kIndexScan);
    op = std::make_unique<IndexScanOp>(node->table, node->predicate,
                                       node->index_range, ctx_,
                                       drives ? driving_->ranges : nullptr,
                                       slot);
  }
  return MaybeCancelGuard(MaybeProfile(std::move(op), node, ctx_.profile),
                          ctx_.cancel);
}

StatusOr<std::unique_ptr<Operator>> FragmentBuilder::Build(
    const PlanNode* node) {
  if (ForeignLeaf(node)) return Leaf(node);
  // Vectorized mode: compile maximal batch-capable subtrees. Ancestors the
  // batch path cannot run (sort, merge join, ...) fall through to the tuple
  // operators below, and their child recursion lands back here.
  if (ctx_.vectorized && VectorizableSubtree(*node, ctx_, &hooks_))
    return BuildVectorizedTree(*node, ctx_, &hooks_);

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
