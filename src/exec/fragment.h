// Plan fragments: the units of parallel execution (§2.1).
//
// A sequential plan is decomposed at its *blocking edges* — edges where one
// operation must consume its input completely before producing anything:
// the input of a Sort and the build side of a HashJoin. The maximal
// pipelineable subgraphs between blocking edges are the plan fragments;
// inter-operation parallelism in XPRS is inter-fragment parallelism.
//
// Fragment outputs are materialized into shared memory (TempResult) and
// consumed by the parent fragment through a TempSourceOp, or, on a hash
// join's build edge, probed through the result's one shared index.

#ifndef XPRS_EXEC_FRAGMENT_H_
#define XPRS_EXEC_FRAGMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/plan.h"

namespace xprs {

/// One plan fragment.
struct Fragment {
  int id = -1;
  /// Root of the fragment's subtree within the original plan. For a
  /// sort-boundary fragment this *is* the Sort node (the producing
  /// fragment pays the sort work).
  const PlanNode* root = nullptr;
  /// Blocked inputs: plan node -> id of the fragment that produces it.
  std::map<const PlanNode*, int> blocked_inputs;
  /// Fragments that must finish before this one can run.
  std::vector<int> deps;

  std::string ToString() const;
};

/// The fragment DAG of one plan.
class FragmentGraph {
 public:
  /// Decomposes `plan` (which must outlive the graph).
  static FragmentGraph Decompose(const PlanNode& plan);

  const std::vector<Fragment>& fragments() const { return fragments_; }
  const Fragment& fragment(int id) const { return fragments_[id]; }

  /// Fragment producing the final query output.
  int root_fragment() const { return root_fragment_; }

  /// Ids in a valid execution order (dependencies first).
  std::vector<int> TopologicalOrder() const;

  std::string ToString() const;

 private:
  int NewFragment(const PlanNode* root);
  // Walks `node` within fragment `frag`, splitting at blocking edges.
  void Walk(const PlanNode* node, int frag);

  std::vector<Fragment> fragments_;
  int root_fragment_ = -1;
};

/// Structural invariants of a decomposition, asserted by the differential
/// harness: the root fragment's root is the plan root; every blocked input
/// maps to a fragment rooted at exactly that node and listed in deps; the
/// topological order is a dependency-respecting permutation of all
/// fragments; and the fragments' pipeline node sets partition the plan —
/// each plan node is owned by exactly one fragment (fragment accounting).
/// Returns FailedPrecondition describing the first violation.
Status ValidateFragmentGraph(const FragmentGraph& graph, const PlanNode& plan);

/// Executes one fragment with the given materialized inputs, optionally as
/// one worker of a static page partition (worker `partition_index` of
/// `num_partitions` over the fragment's driving scan).
StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    int num_partitions = 1, int partition_index = 0);

/// Builds the operator tree of one fragment (blocked inputs replaced by
/// TempSourceOp over `inputs`). Exposed for the parallel executor.
StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    int num_partitions = 1, int partition_index = 0);

/// Factory for the fragment's *driving* source — the left-most leaf of its
/// pipeline (a scan, or the TempSource of a blocked left-most input). The
/// parallel executor uses this to substitute dynamically partitioned
/// sources. Receives the leaf plan node, or nullptr when the driving leaf
/// is a blocked input (the factory then wraps that fragment's TempResult).
using DrivingLeafFactory =
    std::function<StatusOr<std::unique_ptr<Operator>>(const PlanNode* leaf)>;

/// BuildFragmentOperators variant replacing the driving leaf via `factory`;
/// all other leaves are built normally (inner scans run whole).
StatusOr<std::unique_ptr<Operator>> BuildFragmentOperatorsWithDriver(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const DrivingLeafFactory& factory);

/// The driving leaf of a fragment: its left-most plan node that is either
/// a scan or a blocked input. Returns the node (which may be a blocked
/// input node — check fragment.blocked_inputs).
const PlanNode* DrivingLeaf(const FragmentGraph& graph, int frag_id);

/// Executes a whole plan fragment-by-fragment in dependency order (each
/// fragment sequential). Must produce exactly what ExecutePlanSequential
/// produces — the integration tests assert this.
StatusOr<std::vector<Tuple>> ExecutePlanFragmented(const PlanNode& plan,
                                                   const ExecContext& ctx);

}  // namespace xprs

#endif  // XPRS_EXEC_FRAGMENT_H_
