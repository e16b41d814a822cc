#include "exec/spill_ops.h"

#include <algorithm>

#include "util/check.h"

namespace xprs {

// ----------------------------------------------------------- ExternalSort

ExternalSortOp::ExternalSortOp(std::unique_ptr<Operator> child,
                               size_t sort_key, const SpillConfig& config)
    : child_(std::move(child)), sort_key_(sort_key), config_(config) {
  XPRS_CHECK(child_ != nullptr);
  XPRS_CHECK_GE(config.memory_tuples, 2u);
}

Status ExternalSortOp::SpillRun(std::vector<Tuple>* run) {
  std::stable_sort(run->begin(), run->end(),
                   [this](const Tuple& a, const Tuple& b) {
                     return CompareValues(a.value(sort_key_),
                                          b.value(sort_key_)) < 0;
                   });
  auto cursor = std::make_unique<RunCursor>();
  cursor->file = std::make_unique<HeapFile>(
      NextTempName("tmp_sort"), child_->schema(), config_.temp_array);
  for (const Tuple& t : *run) XPRS_RETURN_IF_ERROR(cursor->file->Append(t));
  XPRS_RETURN_IF_ERROR(cursor->file->Flush());
  ProfPagesWritten(cursor->file->num_pages());
  ProfSpill(static_cast<uint64_t>(cursor->file->num_pages()) * kPageSize,
            /*runs=*/1);
  runs_.push_back(std::move(cursor));
  ++runs_spilled_;
  run->clear();
  return Status::OK();
}

Status ExternalSortOp::AdvanceCursor(RunCursor* cursor) {
  cursor->has_current = false;
  if (cursor->done) return Status::OK();
  for (;;) {
    if (!cursor->loaded) {
      if (cursor->page >= cursor->file->num_pages()) {
        cursor->done = true;
        return Status::OK();
      }
      XPRS_RETURN_IF_ERROR(
          cursor->file->ReadPage(cursor->page, &cursor->buffer));
      ProfPagesRead(1);
      cursor->loaded = true;
      cursor->slot = 0;
    }
    if (cursor->slot >= cursor->buffer.num_tuples()) {
      ++cursor->page;
      cursor->loaded = false;
      continue;
    }
    const uint8_t* data;
    uint16_t size;
    XPRS_RETURN_IF_ERROR(
        cursor->buffer.GetTuple(cursor->slot, &data, &size));
    ++cursor->slot;
    XPRS_ASSIGN_OR_RETURN(cursor->current,
                          Tuple::Deserialize(child_->schema(), data, size));
    cursor->has_current = true;
    return Status::OK();
  }
}

Status ExternalSortOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    // Drain() does not Close() an operator whose Open failed: release the
    // temp runs and buffered rows here — and close the child so it drops
    // any pooled-page pins — so a sort cancelled (or faulted) mid-spill
    // leaves nothing behind.
    rows_.clear();
    runs_.clear();
    pos_ = 0;
    (void)child_->Close();
  }
  return st;
}

Status ExternalSortOp::OpenImpl() {
  rows_.clear();
  runs_.clear();
  runs_spilled_ = 0;
  pos_ = 0;
  in_memory_ = true;

  XPRS_RETURN_IF_ERROR(child_->Open());
  for (;;) {
    Tuple tuple;
    bool eof;
    XPRS_RETURN_IF_ERROR(child_->Next(&tuple, &eof));
    if (eof) break;
    rows_.push_back(std::move(tuple));
    if (config_.temp_array != nullptr &&
        rows_.size() >= config_.memory_tuples) {
      in_memory_ = false;
      XPRS_RETURN_IF_ERROR(SpillRun(&rows_));
    }
  }
  XPRS_RETURN_IF_ERROR(child_->Close());

  if (in_memory_) {
    std::stable_sort(rows_.begin(), rows_.end(),
                     [this](const Tuple& a, const Tuple& b) {
                       return CompareValues(a.value(sort_key_),
                                            b.value(sort_key_)) < 0;
                     });
    return Status::OK();
  }

  if (!rows_.empty()) XPRS_RETURN_IF_ERROR(SpillRun(&rows_));
  for (auto& cursor : runs_) XPRS_RETURN_IF_ERROR(AdvanceCursor(cursor.get()));
  return Status::OK();
}

Status ExternalSortOp::Next(Tuple* out, bool* eof) {
  if (in_memory_) {
    if (pos_ >= rows_.size()) {
      *eof = true;
      return Status::OK();
    }
    *eof = false;
    *out = rows_[pos_++];
    return Status::OK();
  }

  // K-way merge: linear scan over run heads (K is small).
  RunCursor* best = nullptr;
  for (auto& cursor : runs_) {
    if (!cursor->has_current) continue;
    if (best == nullptr ||
        CompareValues(cursor->current.value(sort_key_),
                      best->current.value(sort_key_)) < 0) {
      best = cursor.get();
    }
  }
  if (best == nullptr) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = std::move(best->current);
  return AdvanceCursor(best);
}

Status ExternalSortOp::Close() {
  rows_.clear();
  runs_.clear();
  return Status::OK();
}

}  // namespace xprs
