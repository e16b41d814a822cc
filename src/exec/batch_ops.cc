#include "exec/batch_ops.h"

#include <algorithm>

#include "exec/page_partition.h"
#include "util/check.h"

namespace xprs {

namespace {

// Target rows per produced batch; never zero so fill loops terminate.
uint32_t BatchTarget(const ExecContext& ctx) {
  return static_cast<uint32_t>(std::max<size_t>(1, ctx.batch_rows));
}

}  // namespace

// ----------------------------------------------------------- BatchSeqScan

BatchSeqScanOp::BatchSeqScanOp(Table* table, ExecContext ctx,
                               AdjustablePageScan* pages, int slot)
    : table_(table), ctx_(ctx), pages_(pages), slot_(slot) {
  XPRS_CHECK(table != nullptr);
}

Status BatchSeqScanOp::Open() {
  next_page_ = 0;
  exhausted_ = false;
  pages_read_ = 0;
  if (owns_node_stats_) ProfOpen();
  return Status::OK();
}

std::optional<uint32_t> BatchSeqScanOp::TakePage() {
  std::optional<uint32_t> page;
  if (exhausted_) return page;
  if (pages_ != nullptr) {
    page = pages_->NextPage(slot_);
  } else if (next_page_ < table_->file().num_pages()) {
    page = next_page_++;
  }
  exhausted_ = !page.has_value();
  return page;
}

Status BatchSeqScanOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&table_->schema());
  const uint32_t target = BatchTarget(ctx_);
  while (out->size() < target) {
    const std::optional<uint32_t> page_index = TakePage();
    if (!page_index.has_value()) break;
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    // The pin (when pooled) lives exactly as long as this page's decode.
    PageHandle pin;
    XPRS_ASSIGN_OR_RETURN(
        const Page* page,
        ReadTablePage(ctx_, *table_, *page_index, &pin, &direct_page_));
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
      shared_build_(nullptr),
      left_key_(left_key),
      right_key_(right_key),
      ctx_(ctx),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())) {}

BatchHashJoinOp::BatchHashJoinOp(std::unique_ptr<BatchOperator> outer,
                                 const TempResult* build, size_t left_key,
                                 size_t right_key, ExecContext ctx)
    : outer_(std::move(outer)),
      shared_build_(build),
      left_key_(left_key),
      right_key_(right_key),
      ctx_(ctx),
      schema_(Schema::Concat(outer_->schema(), build->schema)) {}

Status BatchHashJoinOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    owned_table_.Clear();
    if (inner_ != nullptr) (void)inner_->Close();
    (void)outer_->Close();
  }
  return st;
}

Status BatchHashJoinOp::OpenImpl() {
  probe_pos_ = 0;
  have_probe_ = false;
  outer_done_ = false;
  if (shared_build_ != nullptr) {
    size_t inserted = 0;
    table_ = &shared_build_->JoinIndex(right_key_, &inserted);
    ProfBuildRows(inserted);
    ProfOpen();
    return outer_->Open();
  }
  // Blocking build phase.
  build_.Reset(&inner_->schema());
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
  owned_table_.Build(keys, rows);
  table_ = &owned_table_;
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
  const std::vector<uint8_t>* mask = emit_mask_.empty() ? nullptr : &emit_mask_;
  for (;;) {
    if (have_probe_) {
      const uint32_t n = probe_.ActiveSize();
      while (probe_pos_ < n) {
        const uint32_t r = probe_.ActiveRow(probe_pos_++);
        if (probe_.IsNullAt(left_key_, r)) continue;  // NULL keys never match
        XPRS_CHECK_MSG(key_is_int, "join key must be int4");
        const int32_t key = probe_.IntAt(left_key_, r);
        const auto [first, last] = table_->Bucket(key);
        for (uint32_t e = first; e < last; ++e) {
          if (table_->key(e) != key) continue;
          if (shared_build_ != nullptr) {
            out->AppendConcatRow(probe_, r,
                                 shared_build_->tuples[table_->row(e)], mask);
          } else {
            out->AppendConcatRow(probe_, r, build_, table_->row(e), mask);
          }
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
  owned_table_.Clear();
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
  if (inner_ == nullptr) return;  // a shared build input is already decoded
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

Status BatchFromTupleOp::Open() {
  child_done_ = false;
  return child_->Open();
}

Status BatchFromTupleOp::NextBatch(ColumnBatch* out, bool* eof) {
  *eof = false;
  out->Reset(&child_->schema());
  while (!child_done_ && out->size() < batch_rows_) {
    Tuple tuple;
    XPRS_RETURN_IF_ERROR(child_->Next(&tuple, &child_done_));
    if (!child_done_) out->AppendTuple(tuple);
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

}  // namespace xprs
