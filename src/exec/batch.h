// ColumnBatch: the unit of vectorized execution.
//
// A batch holds ~1-4K rows in column-major form — one vector of int32
// payloads / std::string payloads / null bytes per schema column — plus an
// optional selection vector of active row indices. Filters refine the
// selection in place instead of materializing survivors, so a batch flows
// through a pipeline with a single decode at the scan and a single
// materialization at the consumer boundary (VectorizedAdapterOp).
//
// Rows are built a column at a time: AddRows(n) appends n all-NULL rows,
// then the scan decodes each tuple into its own row and every other
// producer (a join's matches, a build drain, aggregate results) copies
// the listed source rows one column at a time with Gather.
//
// Batches are designed for reuse: Reset() rewinds the row count but keeps
// every vector's capacity (including per-row std::string capacity), so a
// steady-state pipeline allocates nothing per batch.

#ifndef XPRS_EXEC_BATCH_H_
#define XPRS_EXEC_BATCH_H_

#include <cstdint>
#include <span>
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
  /// populated. `ints` holds a slot for every row; `texts` holds strings
  /// only up to the last row given a value, and is read only where the
  /// null byte is 0. The value slots of NULL rows are unspecified.
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
  /// Appends `n` physical rows, initialized to all-NULL, and returns the
  /// index of the first. Fill values with SetInt / SetText, DecodeRow or
  /// Gather.
  uint32_t AddRows(uint32_t n);
  void SetInt(size_t col, uint32_t row, int32_t value) {
    Column& c = columns_[col];
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
  /// into the (already added, all-NULL) row `row` — the scan path; no
  /// Tuple/Value is materialized. With `mask` (one byte per column, 0 =
  /// skip), masked-out columns are parsed past but not stored and stay
  /// NULL — late materialization for consumers that read a column subset.
  Status DecodeRow(uint32_t row, const uint8_t* data, uint16_t size,
                   const std::vector<uint8_t>* mask = nullptr);

  /// Appends a materialized tuple (adapter boundaries, temp sources).
  void AppendTuple(const Tuple& tuple);

  /// Copies rows into the (already added, all-NULL) rows [first, first +
  /// rows.size()), a column at a time: column c of source row rows[i]
  /// lands in column `offset + c` of row first + i. With `mask` (over this
  /// batch's columns, 0 = skip), skipped columns are never touched and
  /// stay NULL. Source columns have the types of this batch's columns
  /// from `offset` on. The source is a batch (physical row indices) or a
  /// materialized input's tuples (a shared build input).
  void Gather(uint32_t first, const ColumnBatch& src,
              std::span<const uint32_t> rows, size_t offset = 0,
              const std::vector<uint8_t>* mask = nullptr);
  void Gather(uint32_t first, const std::vector<Tuple>& src,
              std::span<const uint32_t> rows, size_t offset = 0,
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
