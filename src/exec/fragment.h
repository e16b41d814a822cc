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
//
// One recursive builder turns plans into operator trees for every mode:
// the serial executor builds the whole plan as one fragment with no
// blocked inputs, the fragment executor builds one fragment, and each
// slave of a parallel fragment run builds the same fragment with its
// driving leaf bound to its slot of the shared partition. With
// ctx.vectorized the builder compiles every batch-capable subtree to batch
// operators (exec/batch_ops.h), a slave's driving sequential scan included;
// a blocked input's rows are the one tuple source bridged into a batch
// subtree, and index scans keep their consumers on the tuple path.

#ifndef XPRS_EXEC_FRAGMENT_H_
#define XPRS_EXEC_FRAGMENT_H_

#include <map>
#include <memory>
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

/// One slave's share of a parallel fragment: the partition its driving
/// leaf reads from — `pages` for a sequential scan or a materialized input,
/// `ranges` for an index scan — and the slave's slot in it.
struct DrivingSlot {
  AdjustablePageScan* pages = nullptr;
  AdjustableRangeScan* ranges = nullptr;
  int slot = 0;
};

/// Builds the operator tree of one fragment. Blocked inputs read the
/// producing fragments' materialized `inputs`; a hash join whose build side
/// is blocked probes that input's shared index. With `driving`, the
/// fragment's driving leaf reads only its slot's granules; every other
/// leaf reads its whole extent.
StatusOr<std::unique_ptr<Operator>> BuildFragmentOperators(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx,
    const DrivingSlot* driving = nullptr);

/// Builds a complete operator tree for a plan: the whole plan as one
/// fragment with no blocked inputs, so blocking operators (sort, hash-join
/// build, aggregate) run inline.
StatusOr<std::unique_ptr<Operator>> BuildOperatorTree(const PlanNode& plan,
                                                      const ExecContext& ctx);

/// True when ctx.vectorized builds the whole subtree at `node` of a plan
/// from batch operators: SeqScan / HashJoin / Aggregate nodes, where hash
/// joins stay on the tuple path (which spills) when spilling is configured
/// and when a join key is not int4. An index scan has no batch form.
bool VectorizableSubtree(const PlanNode& node, const ExecContext& ctx);

/// Executes one fragment serially with the given materialized inputs.
StatusOr<TempResult> ExecuteFragment(
    const FragmentGraph& graph, int frag_id,
    const std::map<int, const TempResult*>& inputs, const ExecContext& ctx);

/// The driving leaf of a fragment: its left-most plan node that is either
/// a scan or a blocked input (check fragment.blocked_inputs). Its pages,
/// key range or materialized rows are what a parallel run splits among
/// slaves.
const PlanNode* DrivingLeaf(const Fragment& frag);

/// Executes a whole plan fragment-by-fragment in dependency order (each
/// fragment sequential). Must produce exactly what ExecutePlanSequential
/// produces — the integration tests assert this.
StatusOr<std::vector<Tuple>> ExecutePlanFragmented(const PlanNode& plan,
                                                   const ExecContext& ctx);

}  // namespace xprs

#endif  // XPRS_EXEC_FRAGMENT_H_
