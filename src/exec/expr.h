// Selection predicates over tuples.
//
// The paper's workload queries are one-variable selections (§3); joins in
// §4 add equality conditions between columns. This small predicate AST
// covers column-vs-constant comparisons, BETWEEN, conjunction and
// disjunction — and exposes enough structure for the optimizer to extract
// index key ranges and selectivities.

#ifndef XPRS_EXEC_EXPR_H_
#define XPRS_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/btree.h"
#include "storage/tuple.h"
#include "util/status.h"

namespace xprs {

class ColumnBatch;

/// Comparison operators.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CmpOpName(CmpOp op);

/// A boolean predicate over a tuple.
class Predicate {
 public:
  /// Always-true predicate (empty qualification).
  Predicate();

  /// column <op> constant.
  static Predicate Compare(size_t column, CmpOp op, Value constant);

  /// lo <= column <= hi (int4 column).
  static Predicate Between(size_t column, int32_t lo, int32_t hi);

  /// Conjunction / disjunction.
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);

  /// Evaluates against a tuple. NULL comparisons are false (SQL-ish).
  bool Eval(const Tuple& tuple) const;

  /// Vectorized Eval: refines `batch`'s selection vector to the active
  /// rows satisfying the predicate, without materializing survivors. One
  /// column-wise pass per comparison node; same NULL semantics as Eval.
  void FilterBatch(ColumnBatch* batch) const;

  /// True when this predicate is the constant TRUE.
  bool IsTrue() const;

  /// If the predicate constrains int4 `column` to a contiguous key range
  /// (a single comparison or BETWEEN, possibly inside a conjunction),
  /// narrows *range and returns true. Used to drive index scans.
  bool ExtractKeyRange(size_t column, KeyRange* range) const;

  /// Rewrites column references for a tuple that has been prefixed by
  /// `offset` columns (join right sides).
  Predicate ShiftColumns(size_t offset) const;

  /// Marks every column this predicate reads in `mask` (one byte per
  /// column; references past mask->size() are ignored). Drives the batch
  /// builders' column pruning: a pruned scan must still decode the
  /// columns its filter evaluates.
  void CollectColumns(std::vector<uint8_t>* mask) const;

  std::string ToString() const;

 private:
  enum class Kind { kTrue, kCompare, kAnd, kOr };

  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node);

  // Evaluates `node` against one tuple. Recursing on the node, not on a
  // Predicate copy, keeps the per-tuple path off the shared_ptr refcount
  // that every slave evaluating the same predicate would contend on.
  static bool EvalNode(const Node& node, const Tuple& tuple);

  // Evaluates `node` over the rows listed in `in` (ascending physical
  // indices), appending survivors to *out in the same order.
  static void EvalBatchNode(const Node& node, const ColumnBatch& batch,
                            const std::vector<uint32_t>& in,
                            std::vector<uint32_t>* out);

  std::shared_ptr<const Node> node_;
};

}  // namespace xprs

#endif  // XPRS_EXEC_EXPR_H_
