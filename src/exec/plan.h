// Sequential query execution plans: binary trees of relational operations
// (§2.1: sequential scan, index scan, nestloop join, mergejoin, hashjoin —
// plus the sort mergejoin inputs need).

#ifndef XPRS_EXEC_PLAN_H_
#define XPRS_EXEC_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "storage/catalog.h"

namespace xprs {

/// Physical operator kinds.
enum class PlanKind {
  kSeqScan,
  kIndexScan,
  kNestLoopJoin,
  kMergeJoin,
  kHashJoin,
  kSort,
  kAggregate,
};

/// Aggregate functions.
enum class AggFunc { kCount, kSum, kMin, kMax };

const char* AggFuncName(AggFunc func);

const char* PlanKindName(PlanKind kind);

/// A node of a sequential plan tree.
struct PlanNode {
  PlanKind kind;
  Schema output_schema;

  // Scans.
  Table* table = nullptr;     ///< base relation (scans only)
  Predicate predicate;        ///< qualification (scans; extra join filter)
  KeyRange index_range;       ///< key interval (index scan)

  // Joins: equality on left column `left_key` = right column `right_key`
  // (right column index is relative to the right input's schema).
  size_t left_key = 0;
  size_t right_key = 0;

  // Sort: column to order by.
  size_t sort_key = 0;

  // Aggregate: function, aggregated column, and optional group-by column
  // (-1 = single global group).
  AggFunc agg_func = AggFunc::kCount;
  size_t agg_col = 0;
  int group_col = -1;

  // A row-returning statement's plan root: one byte per output column,
  // 0 = the statement never reads it (empty = it reads every column). A
  // batch subtree rooted here leaves the unread columns NULL.
  std::vector<uint8_t> projected_columns;

  std::unique_ptr<PlanNode> left;   ///< outer input / sort input
  std::unique_ptr<PlanNode> right;  ///< inner input (joins)

  /// Pretty tree rendering for logs and tests.
  std::string ToString(int indent = 0) const;

  /// Deep copy.
  std::unique_ptr<PlanNode> Clone() const;
};

/// Builders.
std::unique_ptr<PlanNode> MakeSeqScan(Table* table, Predicate predicate);
std::unique_ptr<PlanNode> MakeIndexScan(Table* table, Predicate predicate,
                                        KeyRange range);
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> input,
                                   size_t sort_key);
std::unique_ptr<PlanNode> MakeNestLoopJoin(std::unique_ptr<PlanNode> outer,
                                           std::unique_ptr<PlanNode> inner,
                                           size_t left_key, size_t right_key);
std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> outer,
                                        std::unique_ptr<PlanNode> inner,
                                        size_t left_key, size_t right_key);
std::unique_ptr<PlanNode> MakeHashJoin(std::unique_ptr<PlanNode> outer,
                                       std::unique_ptr<PlanNode> inner,
                                       size_t left_key, size_t right_key);

/// Aggregation over `input`: `func` applied to column `agg_col`, grouped
/// by `group_col` (-1 for one global group). Output schema: [group key,]
/// aggregate value (both int4).
std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> input,
                                        AggFunc func, size_t agg_col,
                                        int group_col = -1);

/// True if the plan is a left-deep tree (every right child is a scan).
bool IsLeftDeep(const PlanNode& plan);

/// Number of nodes.
size_t PlanSize(const PlanNode& plan);

}  // namespace xprs

#endif  // XPRS_EXEC_PLAN_H_
