#include "exec/batch_ops.h"

#include <algorithm>

#include "util/check.h"

namespace xprs {

namespace {

// Target rows per produced batch; never zero so fill loops terminate.
uint32_t BatchTarget(const ExecContext& ctx) {
  return static_cast<uint32_t>(std::max<size_t>(1, ctx.batch_rows));
}

}  // namespace

// ----------------------------------------------------------- BatchSeqScan

BatchSeqScanOp::BatchSeqScanOp(Table* table, ExecContext ctx)
    : table_(table), ctx_(ctx) {
  XPRS_CHECK(table != nullptr);
}

Status BatchSeqScanOp::Open() {
  next_page_ = 0;
  pages_read_ = 0;
  if (owns_node_stats_) ProfOpen();
  return Status::OK();
}

Status BatchSeqScanOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&table_->schema());
  const uint32_t target = BatchTarget(ctx_);
  while (out->size() < target && next_page_ < table_->file().num_pages()) {
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    // The pin (when pooled) lives exactly as long as this page's decode.
    PageHandle pin;
    XPRS_ASSIGN_OR_RETURN(
        const Page* page,
        ReadTablePage(ctx_, *table_, next_page_, &pin, &direct_page_));
    ++pages_read_;
    ProfPagesRead(1);
    const uint16_t n = page->num_tuples();
    for (uint16_t slot = 0; slot < n; ++slot) {
      const uint8_t* data;
      uint16_t size;
      XPRS_RETURN_IF_ERROR(page->GetTuple(slot, &data, &size));
      XPRS_RETURN_IF_ERROR(out->AppendSerializedTuple(
          data, size, decode_mask_.empty() ? nullptr : &decode_mask_));
    }
    ++next_page_;
  }
  if (out->size() == 0) {
    *eof = true;
    return Status::OK();
  }
  if (owns_node_stats_) ProfRowsOut(out->size());
  return Status::OK();
}

// ------------------------------------------------------------ BatchFilter

BatchFilterOp::BatchFilterOp(std::unique_ptr<BatchOperator> child,
                             Predicate predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  XPRS_CHECK(child_ != nullptr);
}

Status BatchFilterOp::Open() {
  ProfOpen();
  return child_->Open();
}

Status BatchFilterOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  for (;;) {
    bool child_eof = false;
    XPRS_RETURN_IF_ERROR(child_->NextBatch(out, &child_eof));
    if (child_eof) {
      *eof = true;
      return Status::OK();
    }
    const uint32_t evaluated = out->ActiveSize();
    if (prof_ == nullptr) {
      predicate_.FilterBatch(out);
    } else {
      const uint64_t t0 = ProfileNowNs();
      predicate_.FilterBatch(out);
      ProfEvalBatch(evaluated, ProfileNowNs() - t0);
    }
    if (out->ActiveSize() > 0) {
      ProfRowsOut(out->ActiveSize());
      return Status::OK();
    }
    // All rows filtered: keep pulling so consumers never see empty batches.
  }
}

void BatchFilterOp::PruneOutputColumns(const std::vector<uint8_t>& needed) {
  std::vector<uint8_t> merged = needed;
  predicate_.CollectColumns(&merged);
  child_->PruneOutputColumns(merged);
}

// ---------------------------------------------------------- BatchHashJoin

BatchHashJoinOp::BatchHashJoinOp(std::unique_ptr<BatchOperator> outer,
                                 std::unique_ptr<BatchOperator> inner,
                                 size_t left_key, size_t right_key,
                                 ExecContext ctx)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      left_key_(left_key),
      right_key_(right_key),
      ctx_(ctx),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())) {}

Status BatchHashJoinOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    table_.Clear();
    (void)inner_->Close();
    (void)outer_->Close();
  }
  return st;
}

Status BatchHashJoinOp::OpenImpl() {
  build_.Reset(&inner_->schema());
  probe_pos_ = 0;
  have_probe_ = false;
  outer_done_ = false;
  // Blocking build phase.
  XPRS_RETURN_IF_ERROR(inner_->Open());
  const bool key_is_int =
      inner_->schema().column(right_key_).type == TypeId::kInt4;
  std::vector<int32_t> keys;    // of each build row
  std::vector<uint32_t> rows;   // its position in build_
  for (;;) {
    bool eof = false;
    XPRS_RETURN_IF_ERROR(inner_->NextBatch(&scratch_, &eof));
    if (eof) break;
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    const uint32_t n = scratch_.ActiveSize();
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t r = scratch_.ActiveRow(k);
      if (scratch_.IsNullAt(right_key_, r)) continue;  // NULL keys never match
      XPRS_CHECK_MSG(key_is_int, "join key must be int4");
      keys.push_back(scratch_.IntAt(right_key_, r));
      rows.push_back(build_.size());
      build_.AppendRowFrom(scratch_, r);
    }
  }
  XPRS_RETURN_IF_ERROR(inner_->Close());
  table_.Build(keys, rows);
  ProfBuildRows(build_.size());
  ProfOpen();
  return outer_->Open();
}

Status BatchHashJoinOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&schema_);
  const uint32_t target = BatchTarget(ctx_);
  const bool key_is_int =
      outer_->schema().column(left_key_).type == TypeId::kInt4;
  for (;;) {
    if (have_probe_) {
      const uint32_t n = probe_.ActiveSize();
      while (probe_pos_ < n) {
        const uint32_t r = probe_.ActiveRow(probe_pos_++);
        if (probe_.IsNullAt(left_key_, r)) continue;  // NULL keys never match
        XPRS_CHECK_MSG(key_is_int, "join key must be int4");
        const int32_t key = probe_.IntAt(left_key_, r);
        const std::vector<uint8_t>* mask =
            emit_mask_.empty() ? nullptr : &emit_mask_;
        const auto [first, last] = table_.Bucket(key);
        for (uint32_t e = first; e < last; ++e) {
          if (table_.key(e) == key)
            out->AppendConcatRow(probe_, r, build_, table_.row(e), mask);
        }
        // A probe row is never split across output batches, so the batch
        // may overshoot the target by one row's match count.
        if (out->size() >= target) {
          ProfRowsOut(out->size());
          return Status::OK();
        }
      }
      have_probe_ = false;
    }
    if (outer_done_) break;
    bool probe_eof = false;
    XPRS_RETURN_IF_ERROR(outer_->NextBatch(&probe_, &probe_eof));
    if (probe_eof) {
      outer_done_ = true;
      break;
    }
    probe_pos_ = 0;
    have_probe_ = true;
  }
  if (out->size() == 0) {
    *eof = true;
    return Status::OK();
  }
  ProfRowsOut(out->size());
  return Status::OK();
}

Status BatchHashJoinOp::Close() {
  table_.Clear();
  return outer_->Close();
}

void BatchHashJoinOp::PruneOutputColumns(const std::vector<uint8_t>& needed) {
  emit_mask_ = needed;
  // Each side must still produce its join key even when the consumer
  // drops it from the output.
  const size_t split = outer_->schema().num_columns();
  std::vector<uint8_t> outer_needed(needed.begin(), needed.begin() + split);
  outer_needed[left_key_] = 1;
  outer_->PruneOutputColumns(outer_needed);
  std::vector<uint8_t> inner_needed(needed.begin() + split, needed.end());
  inner_needed[right_key_] = 1;
  inner_->PruneOutputColumns(inner_needed);
}

// --------------------------------------------------------- BatchAggregate

BatchAggregateOp::BatchAggregateOp(std::unique_ptr<BatchOperator> child,
                                   Schema output_schema, AggFunc func,
                                   size_t agg_col, int group_col,
                                   ExecContext ctx)
    : child_(std::move(child)),
      schema_(std::move(output_schema)),
      func_(func),
      agg_col_(agg_col),
      group_col_(group_col),
      ctx_(ctx) {
  XPRS_CHECK(child_ != nullptr);
}

Status BatchAggregateOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) (void)child_->Close();
  return st;
}

Status BatchAggregateOp::OpenImpl() {
  results_.Reset(&schema_);
  pos_ = 0;
  Aggregation agg(func_, group_col_ >= 0);
  const Schema& in = child_->schema();
  const bool agg_is_int = in.column(agg_col_).type == TypeId::kInt4;
  XPRS_RETURN_IF_ERROR(child_->Open());
  for (;;) {
    bool eof = false;
    XPRS_RETURN_IF_ERROR(child_->NextBatch(&scratch_, &eof));
    if (eof) break;
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    const uint32_t n = scratch_.ActiveSize();
    for (uint32_t k = 0; k < n; ++k) {
      const uint32_t r = scratch_.ActiveRow(k);
      if (scratch_.IsNullAt(agg_col_, r)) continue;  // SQL: skip NULL inputs
      if (!agg_is_int)
        return Status::InvalidArgument("aggregate column must be int4");
      int32_t key = 0;
      if (group_col_ >= 0) {
        const size_t g = static_cast<size_t>(group_col_);
        if (scratch_.IsNullAt(g, r)) continue;  // NULL group key: dropped
        XPRS_CHECK_MSG(in.column(g).type == TypeId::kInt4,
                       "join key must be int4");
        key = scratch_.IntAt(g, r);
      }
      agg.Add(key, scratch_.IntAt(agg_col_, r));
    }
  }
  XPRS_RETURN_IF_ERROR(child_->Close());
  for (const auto& [key, value] : agg.Results()) {
    const uint32_t row = results_.AddRow();
    size_t col = 0;
    if (group_col_ >= 0) results_.SetInt(col++, row, key);
    results_.SetInt(col, row, value);
  }
  ProfOpen();
  return Status::OK();
}

Status BatchAggregateOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&schema_);
  const uint32_t target = BatchTarget(ctx_);
  while (pos_ < results_.size() && out->size() < target)
    out->AppendRowFrom(results_, pos_++);
  if (out->size() == 0) {
    *eof = true;
    return Status::OK();
  }
  ProfRowsOut(out->size());
  return Status::OK();
}

Status BatchAggregateOp::Close() {
  results_.Reset(&schema_);
  pos_ = 0;
  return Status::OK();
}

// --------------------------------------------------------- BatchFromTuple

BatchFromTupleOp::BatchFromTupleOp(std::unique_ptr<Operator> child,
                                   size_t batch_rows)
    : child_(std::move(child)),
      batch_rows_(std::max<size_t>(1, batch_rows)) {
  XPRS_CHECK(child_ != nullptr);
}

Status BatchFromTupleOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&child_->schema());
  while (out->size() < batch_rows_) {
    Tuple tuple;
    bool child_eof = false;
    XPRS_RETURN_IF_ERROR(child_->Next(&tuple, &child_eof));
    if (child_eof) break;
    out->AppendTuple(tuple);
  }
  if (out->size() == 0) *eof = true;
  return Status::OK();
}

// ------------------------------------------------------ VectorizedAdapter

VectorizedAdapterOp::VectorizedAdapterOp(std::unique_ptr<BatchOperator> child,
                                         CancellationToken* cancel)
    : child_(std::move(child)), cancel_(cancel) {
  XPRS_CHECK(child_ != nullptr);
}

Status VectorizedAdapterOp::Open() {
  if (cancel_ != nullptr) XPRS_RETURN_IF_ERROR(cancel_->Check());
  pos_ = 0;
  have_batch_ = false;
  done_ = false;
  return child_->Open();
}

Status VectorizedAdapterOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (have_batch_ && pos_ < batch_.ActiveSize()) {
      *out = batch_.MaterializeRow(batch_.ActiveRow(pos_++));
      return Status::OK();
    }
    have_batch_ = false;
    if (done_) {
      *eof = true;
      return Status::OK();
    }
    // One poll per batch (vs per 64 tuples on the tuple path).
    if (cancel_ != nullptr) XPRS_RETURN_IF_ERROR(cancel_->Check());
    bool child_eof = false;
    XPRS_RETURN_IF_ERROR(child_->NextBatch(&batch_, &child_eof));
    if (child_eof) {
      done_ = true;
      *eof = true;
      return Status::OK();
    }
    pos_ = 0;
    have_batch_ = true;
  }
}

// --------------------------------------------------------------- builders

namespace {

bool HookLeaf(const PlanNode& node, const BatchLeafHooks* hooks) {
  return hooks != nullptr && hooks->is_leaf && hooks->is_leaf(&node);
}

}  // namespace

bool VectorizableSubtree(const PlanNode& node, const ExecContext& ctx,
                         const BatchLeafHooks* hooks) {
  if (HookLeaf(node, hooks)) return true;
  switch (node.kind) {
    case PlanKind::kSeqScan:
      return true;
    case PlanKind::kAggregate:
      return VectorizableSubtree(*node.left, ctx, hooks);
    case PlanKind::kHashJoin: {
      // Only the tuple HashJoinOp spills: spill-configured contexts stay on
      // the tuple path so memory bounds keep holding.
      if (ctx.spill.temp_array != nullptr) return false;
      // Non-int4 keys fall back to the tuple path, which only type-checks
      // keys it actually extracts (all-NULL inputs pass).
      const Schema& ls = node.left->output_schema;
      const Schema& rs = node.right->output_schema;
      if (node.left_key >= ls.num_columns() ||
          ls.column(node.left_key).type != TypeId::kInt4 ||
          node.right_key >= rs.num_columns() ||
          rs.column(node.right_key).type != TypeId::kInt4)
        return false;
      return VectorizableSubtree(*node.left, ctx, hooks) &&
             VectorizableSubtree(*node.right, ctx, hooks);
    }
    default:
      return false;
  }
}

StatusOr<std::unique_ptr<BatchOperator>> BuildBatchTree(
    const PlanNode& node, const ExecContext& ctx,
    const BatchLeafHooks* hooks) {
  if (HookLeaf(node, hooks)) return hooks->make(&node);
  OperatorStats* stats =
      ctx.profile != nullptr ? ctx.profile->StatsFor(&node) : nullptr;
  switch (node.kind) {
    case PlanKind::kSeqScan: {
      auto scan = std::make_unique<BatchSeqScanOp>(node.table, ctx);
      scan->set_profile_stats(stats);
      if (node.predicate.IsTrue())
        return std::unique_ptr<BatchOperator>(std::move(scan));
      // The filter owns the node's opens / tuples_out / evals; the scan
      // underneath contributes only pages_read.
      scan->set_owns_node_stats(false);
      auto filter =
          std::make_unique<BatchFilterOp>(std::move(scan), node.predicate);
      filter->set_profile_stats(stats);
      return std::unique_ptr<BatchOperator>(std::move(filter));
    }
    case PlanKind::kAggregate: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> child,
                            BuildBatchTree(*node.left, ctx, hooks));
      // The aggregate reads only its agg / group columns: prune the rest
      // out of the child pipeline (scans skip the decode, joins skip the
      // copy). The root of a pipeline is never pruned, so results at the
      // adapter boundary are unaffected.
      std::vector<uint8_t> needed(child->schema().num_columns(), 0);
      needed[node.agg_col] = 1;
      if (node.group_col >= 0) needed[node.group_col] = 1;
      child->PruneOutputColumns(needed);
      auto op = std::make_unique<BatchAggregateOp>(
          std::move(child), node.output_schema, node.agg_func, node.agg_col,
          node.group_col, ctx);
      op->set_profile_stats(stats);
      return std::unique_ptr<BatchOperator>(std::move(op));
    }
    case PlanKind::kHashJoin: {
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> outer,
                            BuildBatchTree(*node.left, ctx, hooks));
      XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> inner,
                            BuildBatchTree(*node.right, ctx, hooks));
      auto op = std::make_unique<BatchHashJoinOp>(std::move(outer),
                                                  std::move(inner),
                                                  node.left_key,
                                                  node.right_key, ctx);
      op->set_profile_stats(stats);
      return std::unique_ptr<BatchOperator>(std::move(op));
    }
    default:
      return Status::Internal("plan node is not vectorizable");
  }
}

StatusOr<std::unique_ptr<Operator>> BuildVectorizedTree(
    const PlanNode& node, const ExecContext& ctx,
    const BatchLeafHooks* hooks) {
  XPRS_ASSIGN_OR_RETURN(std::unique_ptr<BatchOperator> root,
                        BuildBatchTree(node, ctx, hooks));
  // The adapter is the subtree's outermost cancellation point; it is not
  // profiled (the batch operators own their nodes' stats).
  return std::unique_ptr<Operator>(
      std::make_unique<VectorizedAdapterOp>(std::move(root), ctx.cancel));
}

}  // namespace xprs
