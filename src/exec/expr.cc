#include "exec/expr.h"

#include <algorithm>
#include <iterator>
#include <numeric>

#include "exec/batch.h"
#include "util/check.h"
#include "util/str.h"

namespace xprs {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

struct Predicate::Node {
  Kind kind = Kind::kTrue;
  // kCompare:
  size_t column = 0;
  CmpOp op = CmpOp::kEq;
  Value constant;
  // kAnd / kOr:
  std::shared_ptr<const Node> left, right;
};

Predicate::Predicate() : node_(std::make_shared<Node>()) {}

Predicate::Predicate(std::shared_ptr<const Node> node)
    : node_(std::move(node)) {}

Predicate Predicate::Compare(size_t column, CmpOp op, Value constant) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCompare;
  node->column = column;
  node->op = op;
  node->constant = std::move(constant);
  return Predicate(std::move(node));
}

Predicate Predicate::Between(size_t column, int32_t lo, int32_t hi) {
  return And(Compare(column, CmpOp::kGe, Value(lo)),
             Compare(column, CmpOp::kLe, Value(hi)));
}

Predicate Predicate::And(Predicate a, Predicate b) {
  if (a.IsTrue()) return b;
  if (b.IsTrue()) return a;
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(std::move(node));
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(std::move(node));
}

namespace {

bool EvalCompare(const Value& v, CmpOp op, const Value& constant) {
  if (IsNull(v) || IsNull(constant)) return false;
  int c = CompareValues(v, constant);
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

// Column-wise comparison: appends the rows of `in` whose (non-NULL) value
// in `column` compares true against `constant`. Mirrors EvalCompare,
// including the CompareValues type CHECK — which only fires for rows that
// actually hold a non-NULL value, so all-NULL columns pass as on the
// tuple path.
void EvalCompareColumn(const ColumnBatch& batch, size_t column, CmpOp op,
                       const Value& constant, const std::vector<uint32_t>& in,
                       std::vector<uint32_t>* out) {
  if (IsNull(constant)) return;  // NULL comparisons are always false
  XPRS_CHECK_LT(column, batch.num_columns());
  const ColumnBatch::Column& col = batch.column(column);
  if (const int32_t* c = std::get_if<int32_t>(&constant)) {
    const bool types_match =
        batch.schema().column(column).type == TypeId::kInt4;
    const int32_t k = *c;
    // One tight loop per operator: the branch on `op` stays out of the
    // per-row path.
    switch (op) {
      case CmpOp::kEq:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] == k) out->push_back(r);
          }
        break;
      case CmpOp::kNe:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] != k) out->push_back(r);
          }
        break;
      case CmpOp::kLt:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] < k) out->push_back(r);
          }
        break;
      case CmpOp::kLe:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] <= k) out->push_back(r);
          }
        break;
      case CmpOp::kGt:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] > k) out->push_back(r);
          }
        break;
      case CmpOp::kGe:
        for (uint32_t r : in)
          if (!col.nulls[r]) {
            XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
            if (col.ints[r] >= k) out->push_back(r);
          }
        break;
    }
    return;
  }
  const std::string& k = std::get<std::string>(constant);
  const bool types_match = batch.schema().column(column).type == TypeId::kText;
  for (uint32_t r : in) {
    if (col.nulls[r]) continue;
    XPRS_CHECK_MSG(types_match, "comparing values of unequal types");
    const int c = col.texts[r].compare(k);
    bool pass = false;
    switch (op) {
      case CmpOp::kEq:
        pass = c == 0;
        break;
      case CmpOp::kNe:
        pass = c != 0;
        break;
      case CmpOp::kLt:
        pass = c < 0;
        break;
      case CmpOp::kLe:
        pass = c <= 0;
        break;
      case CmpOp::kGt:
        pass = c > 0;
        break;
      case CmpOp::kGe:
        pass = c >= 0;
        break;
    }
    if (pass) out->push_back(r);
  }
}

}  // namespace

bool Predicate::Eval(const Tuple& tuple) const {
  return EvalNode(*node_, tuple);
}

bool Predicate::EvalNode(const Node& node, const Tuple& tuple) {
  switch (node.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare:
      XPRS_CHECK_LT(node.column, tuple.size());
      return EvalCompare(tuple.value(node.column), node.op, node.constant);
    case Kind::kAnd:
      return EvalNode(*node.left, tuple) && EvalNode(*node.right, tuple);
    case Kind::kOr:
      return EvalNode(*node.left, tuple) || EvalNode(*node.right, tuple);
  }
  return false;
}

void Predicate::EvalBatchNode(const Node& node, const ColumnBatch& batch,
                              const std::vector<uint32_t>& in,
                              std::vector<uint32_t>* out) {
  switch (node.kind) {
    case Kind::kTrue:
      *out = in;
      return;
    case Kind::kCompare:
      EvalCompareColumn(batch, node.column, node.op, node.constant, in, out);
      return;
    case Kind::kAnd: {
      // Sequential refinement: the right side only sees left survivors.
      std::vector<uint32_t> mid;
      EvalBatchNode(*node.left, batch, in, &mid);
      EvalBatchNode(*node.right, batch, mid, out);
      return;
    }
    case Kind::kOr: {
      // Both subsets of the ascending `in` stay sorted, so a merge dedups.
      std::vector<uint32_t> a, b;
      EvalBatchNode(*node.left, batch, in, &a);
      EvalBatchNode(*node.right, batch, in, &b);
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(*out));
      return;
    }
  }
}

void Predicate::FilterBatch(ColumnBatch* batch) const {
  if (node_->kind == Kind::kTrue) return;  // every active row survives
  std::vector<uint32_t> in;
  if (batch->has_selection()) {
    in = batch->selection();
  } else {
    in.resize(batch->size());
    std::iota(in.begin(), in.end(), 0u);
  }
  std::vector<uint32_t> out;
  out.reserve(in.size());
  EvalBatchNode(*node_, *batch, in, &out);
  batch->SetSelection(std::move(out));
}

bool Predicate::IsTrue() const { return node_->kind == Kind::kTrue; }

void Predicate::CollectColumns(std::vector<uint8_t>* mask) const {
  std::vector<const Node*> stack = {node_.get()};
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    switch (n->kind) {
      case Kind::kTrue:
        break;
      case Kind::kCompare:
        if (n->column < mask->size()) (*mask)[n->column] = 1;
        break;
      case Kind::kAnd:
      case Kind::kOr:
        stack.push_back(n->left.get());
        stack.push_back(n->right.get());
        break;
    }
  }
}

bool Predicate::ExtractKeyRange(size_t column, KeyRange* range) const {
  const Node* n = node_.get();
  switch (n->kind) {
    case Kind::kTrue:
    case Kind::kOr:
      return false;
    case Kind::kCompare: {
      if (n->column != column) return false;
      const int32_t* k = std::get_if<int32_t>(&n->constant);
      if (k == nullptr) return false;
      switch (n->op) {
        case CmpOp::kEq:
          range->lo = std::max(range->lo, *k);
          range->hi = std::min(range->hi, *k);
          return true;
        case CmpOp::kLt:
          range->hi = std::min(range->hi, *k - 1);
          return true;
        case CmpOp::kLe:
          range->hi = std::min(range->hi, *k);
          return true;
        case CmpOp::kGt:
          range->lo = std::max(range->lo, *k + 1);
          return true;
        case CmpOp::kGe:
          range->lo = std::max(range->lo, *k);
          return true;
        case CmpOp::kNe:
          return false;
      }
      return false;
    }
    case Kind::kAnd: {
      bool l = Predicate(n->left).ExtractKeyRange(column, range);
      bool r = Predicate(n->right).ExtractKeyRange(column, range);
      return l || r;
    }
  }
  return false;
}

Predicate Predicate::ShiftColumns(size_t offset) const {
  const Node* n = node_.get();
  switch (n->kind) {
    case Kind::kTrue:
      return Predicate();
    case Kind::kCompare:
      return Compare(n->column + offset, n->op, n->constant);
    case Kind::kAnd:
      return And(Predicate(n->left).ShiftColumns(offset),
                 Predicate(n->right).ShiftColumns(offset));
    case Kind::kOr:
      return Or(Predicate(n->left).ShiftColumns(offset),
                Predicate(n->right).ShiftColumns(offset));
  }
  return Predicate();
}

std::string Predicate::ToString() const {
  const Node* n = node_.get();
  switch (n->kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCompare:
      return StrFormat("col%zu %s %s", n->column, CmpOpName(n->op),
                       ValueToString(n->constant).c_str());
    case Kind::kAnd:
      return "(" + Predicate(n->left).ToString() + " AND " +
             Predicate(n->right).ToString() + ")";
    case Kind::kOr:
      return "(" + Predicate(n->left).ToString() + " OR " +
             Predicate(n->right).ToString() + ")";
  }
  return "?";
}

}  // namespace xprs
