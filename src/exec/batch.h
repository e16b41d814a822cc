// ColumnBatch: the unit of vectorized execution.
//
// A batch holds ~1-4K rows in column-major form — one vector of int32
// payloads / std::string payloads / null bytes per schema column — plus an
// optional selection vector of active row indices. Filters refine the
// selection in place instead of materializing survivors, so a batch flows
// through a pipeline with a single decode at the scan and a single
// materialization at the consumer boundary (VectorizedAdapterOp).
//
// Batches are designed for reuse: Reset() rewinds the row count but keeps
// every vector's capacity (including per-row std::string capacity), so a
// steady-state pipeline allocates nothing per batch.

#ifndef XPRS_EXEC_BATCH_H_
#define XPRS_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/tuple.h"
#include "util/status.h"

namespace xprs {

class ColumnBatch {
 public:
  /// Default target rows per batch (ExecContext.batch_rows).
  static constexpr uint32_t kDefaultRows = 1024;

  /// One column's storage. Only the vector matching the schema type is
  /// populated; value slots of NULL rows are unspecified.
  struct Column {
    std::vector<int32_t> ints;
    std::vector<std::string> texts;
    std::vector<uint8_t> nulls;  ///< 1 = NULL
  };

  ColumnBatch() = default;

  /// Rebinds the batch to `schema` (which must outlive the batch) and
  /// clears rows + selection. Storage capacity is retained.
  void Reset(const Schema* schema);

  const Schema& schema() const { return *schema_; }
  size_t num_columns() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }

  /// Physical rows appended since the last Reset.
  uint32_t size() const { return num_rows_; }

  // --- selection vector ---
  /// Without a selection every physical row is active; with one, only the
  /// listed rows (ascending physical indices) are.
  bool has_selection() const { return has_sel_; }
  const std::vector<uint32_t>& selection() const { return sel_; }
  uint32_t ActiveSize() const {
    return has_sel_ ? static_cast<uint32_t>(sel_.size()) : num_rows_;
  }
  uint32_t ActiveRow(uint32_t k) const { return has_sel_ ? sel_[k] : k; }
  void SetSelection(std::vector<uint32_t> sel) {
    sel_ = std::move(sel);
    has_sel_ = true;
  }
  void ClearSelection() {
    sel_.clear();
    has_sel_ = false;
  }

  // --- row assembly ---
  /// Appends one physical row, initialized to all-NULL, and returns its
  /// index. Fill values with SetInt / SetText.
  uint32_t AddRow();
  void SetInt(size_t col, uint32_t row, int32_t value) {
    Column& c = columns_[col];
    if (c.ints.size() <= row) c.ints.resize(row + 1);
    c.ints[row] = value;
    c.nulls[row] = 0;
  }
  void SetText(size_t col, uint32_t row, const char* data, size_t len) {
    Column& c = columns_[col];
    if (c.texts.size() <= row) c.texts.resize(row + 1);
    c.texts[row].assign(data, len);
    c.nulls[row] = 0;
  }

  /// Decodes one serialized tuple (the heap-page wire format) straight
  /// into the columns — the scan path; no Tuple/Value is materialized.
  /// With `mask` (one byte per column, 0 = skip), masked-out columns are
  /// parsed past but not stored and stay NULL — late materialization for
  /// consumers that read a column subset.
  Status AppendSerializedTuple(const uint8_t* data, uint16_t size,
                               const std::vector<uint8_t>* mask = nullptr);

  /// Appends a materialized tuple (adapter boundaries, temp sources).
  void AppendTuple(const Tuple& tuple);

  /// Copies physical row `src_row` of `src` (same schema layout).
  void AppendRowFrom(const ColumnBatch& src, uint32_t src_row);

  /// Appends the concatenation of `left[left_row]` and `right[right_row]`
  /// (join output; this batch's schema is the concatenated schema). With
  /// `mask` (over the concatenated columns, 0 = skip), skipped columns
  /// stay NULL.
  void AppendConcatRow(const ColumnBatch& left, uint32_t left_row,
                       const ColumnBatch& right, uint32_t right_row,
                       const std::vector<uint8_t>* mask = nullptr);
  /// The same, with a materialized right row (a shared build input).
  void AppendConcatRow(const ColumnBatch& left, uint32_t left_row,
                       const Tuple& right,
                       const std::vector<uint8_t>* mask = nullptr);

  // --- row access ---
  bool IsNullAt(size_t col, uint32_t row) const {
    return columns_[col].nulls[row] != 0;
  }
  int32_t IntAt(size_t col, uint32_t row) const {
    return columns_[col].ints[row];
  }
  const std::string& TextAt(size_t col, uint32_t row) const {
    return columns_[col].texts[row];
  }

  /// Materializes one physical row as a Tuple (consumer boundary).
  Tuple MaterializeRow(uint32_t row) const;

 private:
  // Copies column `src_col` of src[src_row] into column `dst_col` of the
  // (already added) row `dst_row`.
  void CopyValue(size_t dst_col, uint32_t dst_row, const ColumnBatch& src,
                 size_t src_col, uint32_t src_row);
  // Stores `value` into column `col` of the (already added) row `row`.
  void SetValue(size_t col, uint32_t row, const Value& value);

  const Schema* schema_ = nullptr;
  std::vector<Column> columns_;
  uint32_t num_rows_ = 0;
  std::vector<uint32_t> sel_;
  bool has_sel_ = false;
};

}  // namespace xprs

#endif  // XPRS_EXEC_BATCH_H_
