#include "exec/fragment.h"

#include <algorithm>

#include "exec/batch_ops.h"
#include "exec/profile.h"
#include "exec/spill_ops.h"

#include "util/check.h"
#include "util/str.h"

namespace xprs {

std::string Fragment::ToString() const {
  std::string deps_str = StrJoin(deps, ",");
  return StrFormat("Fragment{%d root=%s deps=[%s] inputs=%zu}", id,
                   PlanKindName(root->kind), deps_str.c_str(),
                   blocked_inputs.size());
}

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

std::string FragmentGraph::ToString() const {
  std::string out;
  for (const auto& f : fragments_) {
    out += f.ToString();
    out += '\n';
  }
  return out;
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

namespace {

// The materialized output feeding blocked input `node` of `frag`.
StatusOr<const TempResult*> BlockedInput(
    const Fragment& frag, const PlanNode* node,
    const std::map<int, const TempResult*>& inputs) {
  const int producer = frag.blocked_inputs.at(node);
  auto temp = inputs.find(producer);
  if (temp == inputs.end() || temp->second == nullptr)
    return Status::FailedPrecondition(
        StrFormat("fragment %d input (fragment %d) not materialized",
                  frag.id, producer));
  return temp->second;
}

StatusOr<std::unique_ptr<Operator>> BuildFrag(
    const FragmentGraph& graph, const Fragment& frag, const PlanNode* node,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    int num_partitions, int partition_index, bool partition_leftmost,
    const DrivingLeafFactory* factory) {
  // A blocked input is replaced by a source over the producing fragment's
  // materialized output (or by the driving factory if it is the driving
  // leaf). Neither is profiled: a temp source re-emits another fragment's
  // output (profiling it would double-count the producing node), and the
  // factory's driven ops are bound to stats by the parallel layer.
  auto blocked = frag.blocked_inputs.find(node);
  if (blocked != frag.blocked_inputs.end()) {
    if (partition_leftmost && factory != nullptr) {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> leaf, (*factory)(node));
      return MaybeCancelGuard(std::move(leaf), ctx.cancel);
    }
    XPRS_ASSIGN_OR_RETURN(const TempResult* temp,
                          BlockedInput(frag, node, inputs));
    return MaybeCancelGuard(std::make_unique<TempSourceOp>(temp), ctx.cancel);
  }
  if (partition_leftmost && factory != nullptr &&
      (node->kind == PlanKind::kSeqScan ||
       node->kind == PlanKind::kIndexScan)) {
    XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> leaf, (*factory)(node));
    return MaybeCancelGuard(std::move(leaf), ctx.cancel);
  }

  // Vectorized mode: compile maximal batch-capable subtrees, bridging
  // foreign leaves (blocked fragment inputs, the dynamically driven leaf)
  // into the batch pipeline through BatchFromTupleOp. Non-vectorizable
  // subtrees fall through to the tuple operators below.
  if (ctx.vectorized) {
    BatchLeafHooks hooks;
    hooks.is_leaf = [&frag, factory](const PlanNode* n, bool leftmost) {
      return frag.blocked_inputs.count(n) > 0 ||
             (leftmost && factory != nullptr &&
              (n->kind == PlanKind::kSeqScan ||
               n->kind == PlanKind::kIndexScan));
    };
    hooks.make = [&frag, &inputs, &ctx, factory](const PlanNode* n,
                                                 bool leftmost)
        -> StatusOr<std::unique_ptr<BatchOperator>> {
      // Mirrors the tuple-path leaf substitution above: the driving
      // factory serves the driving leaf, materialized producer output
      // serves every other blocked input. Neither is profiled.
      std::unique_ptr<Operator> leaf;
      if (frag.blocked_inputs.count(n) > 0 &&
          !(leftmost && factory != nullptr)) {
        XPRS_ASSIGN_OR_RETURN(const TempResult* temp,
                              BlockedInput(frag, n, inputs));
        leaf = std::make_unique<TempSourceOp>(temp);
      } else {
        XPRS_ASSIGN_OR_RETURN(leaf, (*factory)(n));
      }
      return std::unique_ptr<BatchOperator>(
          std::make_unique<BatchFromTupleOp>(
              MaybeCancelGuard(std::move(leaf), ctx.cancel),
              ctx.batch_rows));
    };
    if (VectorizableSubtree(*node, ctx, partition_leftmost, &hooks)) {
      return BuildVectorizedTree(*node, ctx, num_partitions, partition_index,
                                 partition_leftmost, &hooks);
    }
  }

  std::unique_ptr<Operator> op;
  switch (node->kind) {
    case PlanKind::kSeqScan: {
      int n = partition_leftmost ? num_partitions : 1;
      int i = partition_leftmost ? partition_index : 0;
      op = std::make_unique<SeqScanOp>(node->table, node->predicate, ctx, n,
                                       i);
      break;
    }
    case PlanKind::kIndexScan:
      op = std::make_unique<IndexScanOp>(node->table, node->predicate,
                                         node->index_range, ctx);
      break;
    case PlanKind::kSort: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> child,
          BuildFrag(graph, frag, node->left.get(), inputs, ctx,
                    num_partitions, partition_index, partition_leftmost,
                    factory));
      if (ctx.spill.temp_array != nullptr) {
        op = std::make_unique<ExternalSortOp>(std::move(child),
                                              node->sort_key, ctx.spill);
      } else {
        op = std::make_unique<SortOp>(std::move(child), node->sort_key);
      }
      break;
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> child,
          BuildFrag(graph, frag, node->left.get(), inputs, ctx,
                    num_partitions, partition_index, partition_leftmost,
                    factory));
      op = std::make_unique<AggregateOp>(std::move(child),
                                         node->output_schema, node->agg_func,
                                         node->agg_col, node->group_col);
      break;
    }
    case PlanKind::kNestLoopJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          BuildFrag(graph, frag, node->left.get(), inputs, ctx,
                    num_partitions, partition_index, partition_leftmost,
                    factory));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            BuildFrag(graph, frag, node->right.get(), inputs,
                                      ctx, 1, 0, false, nullptr));
      op = std::make_unique<NestLoopJoinOp>(std::move(outer),
                                            std::move(inner), node->left_key,
                                            node->right_key);
      break;
    }
    case PlanKind::kMergeJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          BuildFrag(graph, frag, node->left.get(), inputs, ctx,
                    num_partitions, partition_index, partition_leftmost,
                    factory));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                            BuildFrag(graph, frag, node->right.get(), inputs,
                                      ctx, 1, 0, false, nullptr));
      op = std::make_unique<MergeJoinOp>(std::move(outer), std::move(inner),
                                         node->left_key, node->right_key);
      break;
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(
          std::unique_ptr<Operator> outer,
          BuildFrag(graph, frag, node->left.get(), inputs, ctx,
                    num_partitions, partition_index, partition_leftmost,
                    factory));
      if (ctx.spill.temp_array != nullptr) {
        XPRS_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                              BuildFrag(graph, frag, node->right.get(),
                                        inputs, ctx, 1, 0, false, nullptr));
        op = std::make_unique<GraceHashJoinOp>(std::move(outer),
                                               std::move(inner),
                                               node->left_key,
                                               node->right_key, ctx.spill);
      } else {
        // The build side is always a blocked input (Decompose cuts there),
        // and every prober shares its materialized output's one index.
        XPRS_ASSIGN_OR_RETURN(const TempResult* build,
                              BlockedInput(frag, node->right.get(), inputs));
        op = std::make_unique<HashJoinOp>(std::move(outer), build,
                                          node->left_key, node->right_key);
      }
      break;
    }
  }
  if (op == nullptr) return Status::Internal("unknown plan kind");
  return MaybeCancelGuard(MaybeProfile(std::move(op), node, ctx.profile),
                          ctx.cancel);
}

}  // namespace

StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    int num_partitions, int partition_index) {
  const Fragment& frag = graph.fragment(frag_id);
  return BuildFrag(graph, frag, frag.root, inputs, ctx, num_partitions,
                   partition_index, /*partition_leftmost=*/true, nullptr);
}

StatusOr<std::unique_ptr<Operator>> BuildFragmentOperatorsWithDriver(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const DrivingLeafFactory& factory) {
  const Fragment& frag = graph.fragment(frag_id);
  return BuildFrag(graph, frag, frag.root, inputs, ctx, 1, 0,
                   /*partition_leftmost=*/true, &factory);
}

const PlanNode* DrivingLeaf(const FragmentGraph& graph, int frag_id) {
  const Fragment& frag = graph.fragment(frag_id);
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

StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    int num_partitions, int partition_index) {
  XPRS_ASSIGN_OR_RETURN(
      std::unique_ptr<Operator> root,
      BuildFragmentOperators(graph, frag_id, inputs, ctx, num_partitions,
                             partition_index));
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
