#include "exec/plan.h"

#include "util/check.h"
#include "util/str.h"

namespace xprs {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kSeqScan:
      return "SeqScan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kNestLoopJoin:
      return "NestLoopJoin";
    case PlanKind::kMergeJoin:
      return "MergeJoin";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kAggregate:
      return "Aggregate";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(2 * indent, ' ');
  std::string out = pad + PlanKindName(kind);
  switch (kind) {
    case PlanKind::kSeqScan:
      out += StrFormat("(%s, %s)", table->name().c_str(),
                       predicate.ToString().c_str());
      break;
    case PlanKind::kIndexScan:
      out += StrFormat("(%s, %s, keys %s)", table->name().c_str(),
                       predicate.ToString().c_str(),
                       index_range.ToString().c_str());
      break;
    case PlanKind::kSort:
      out += StrFormat("(col%zu)", sort_key);
      break;
    case PlanKind::kAggregate:
      out += StrFormat("(%s(col%zu)%s)", AggFuncName(agg_func), agg_col,
                       group_col >= 0
                           ? StrFormat(" group by col%d", group_col).c_str()
                           : "");
      break;
    default:
      out += StrFormat("(l.col%zu = r.col%zu)", left_key, right_key);
      break;
  }
  out += "\n";
  if (left) out += left->ToString(indent + 1);
  if (right) out += right->ToString(indent + 1);
  return out;
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->output_schema = output_schema;
  copy->table = table;
  copy->predicate = predicate;
  copy->index_range = index_range;
  copy->left_key = left_key;
  copy->right_key = right_key;
  copy->sort_key = sort_key;
  copy->agg_func = agg_func;
  copy->agg_col = agg_col;
  copy->group_col = group_col;
  copy->projected_columns = projected_columns;
  if (left) copy->left = left->Clone();
  if (right) copy->right = right->Clone();
  return copy;
}

std::unique_ptr<PlanNode> MakeSeqScan(Table* table, Predicate predicate) {
  XPRS_CHECK(table != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSeqScan;
  node->table = table;
  node->predicate = std::move(predicate);
  node->output_schema = table->schema();
  return node;
}

std::unique_ptr<PlanNode> MakeIndexScan(Table* table, Predicate predicate,
                                        KeyRange range) {
  XPRS_CHECK(table != nullptr);
  XPRS_CHECK_MSG(table->index() != nullptr, "index scan without index");
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kIndexScan;
  node->table = table;
  node->predicate = std::move(predicate);
  node->index_range = range;
  node->output_schema = table->schema();
  return node;
}

std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> input,
                                   size_t sort_key) {
  XPRS_CHECK(input != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kSort;
  node->sort_key = sort_key;
  node->output_schema = input->output_schema;
  node->left = std::move(input);
  return node;
}

namespace {

std::unique_ptr<PlanNode> MakeJoin(PlanKind kind,
                                   std::unique_ptr<PlanNode> outer,
                                   std::unique_ptr<PlanNode> inner,
                                   size_t left_key, size_t right_key) {
  XPRS_CHECK(outer != nullptr);
  XPRS_CHECK(inner != nullptr);
  XPRS_CHECK_LT(left_key, outer->output_schema.num_columns());
  XPRS_CHECK_LT(right_key, inner->output_schema.num_columns());
  auto node = std::make_unique<PlanNode>();
  node->kind = kind;
  node->left_key = left_key;
  node->right_key = right_key;
  node->output_schema =
      Schema::Concat(outer->output_schema, inner->output_schema);
  node->left = std::move(outer);
  node->right = std::move(inner);
  return node;
}

}  // namespace

std::unique_ptr<PlanNode> MakeNestLoopJoin(std::unique_ptr<PlanNode> outer,
                                           std::unique_ptr<PlanNode> inner,
                                           size_t left_key,
                                           size_t right_key) {
  return MakeJoin(PlanKind::kNestLoopJoin, std::move(outer), std::move(inner),
                  left_key, right_key);
}

std::unique_ptr<PlanNode> MakeMergeJoin(std::unique_ptr<PlanNode> outer,
                                        std::unique_ptr<PlanNode> inner,
                                        size_t left_key, size_t right_key) {
  return MakeJoin(PlanKind::kMergeJoin, std::move(outer), std::move(inner),
                  left_key, right_key);
}

std::unique_ptr<PlanNode> MakeHashJoin(std::unique_ptr<PlanNode> outer,
                                       std::unique_ptr<PlanNode> inner,
                                       size_t left_key, size_t right_key) {
  return MakeJoin(PlanKind::kHashJoin, std::move(outer), std::move(inner),
                  left_key, right_key);
}

std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> input,
                                        AggFunc func, size_t agg_col,
                                        int group_col) {
  XPRS_CHECK(input != nullptr);
  XPRS_CHECK_LT(agg_col, input->output_schema.num_columns());
  if (group_col >= 0)
    XPRS_CHECK_LT(static_cast<size_t>(group_col),
                  input->output_schema.num_columns());
  auto node = std::make_unique<PlanNode>();
  node->kind = PlanKind::kAggregate;
  node->agg_func = func;
  node->agg_col = agg_col;
  node->group_col = group_col;
  std::vector<Column> cols;
  if (group_col >= 0)
    cols.push_back({"group", TypeId::kInt4});
  cols.push_back({AggFuncName(func), TypeId::kInt4});
  node->output_schema = Schema(std::move(cols));
  node->left = std::move(input);
  return node;
}

bool IsLeftDeep(const PlanNode& plan) {
  if (plan.right) {
    const PlanNode* r = plan.right.get();
    // Skip over a sort on the inner side (mergejoin inner of a base rel).
    while (r->kind == PlanKind::kSort) r = r->left.get();
    if (r->kind != PlanKind::kSeqScan && r->kind != PlanKind::kIndexScan)
      return false;
    if (!IsLeftDeep(*plan.right)) return false;
  }
  if (plan.left && !IsLeftDeep(*plan.left)) return false;
  return true;
}

size_t PlanSize(const PlanNode& plan) {
  size_t n = 1;
  if (plan.left) n += PlanSize(*plan.left);
  if (plan.right) n += PlanSize(*plan.right);
  return n;
}

}  // namespace xprs
