#include "exec/batch.h"

#include "util/check.h"

namespace xprs {

void ColumnBatch::Reset(const Schema* schema) {
  XPRS_CHECK(schema != nullptr);
  if (schema_ != schema) {
    schema_ = schema;
    columns_.resize(schema->num_columns());
  }
  num_rows_ = 0;
  sel_.clear();
  has_sel_ = false;
}

uint32_t ColumnBatch::AddRow() {
  const uint32_t row = num_rows_++;
  for (Column& c : columns_) {
    if (c.nulls.size() <= row) c.nulls.resize(row + 1);
    c.nulls[row] = 1;
  }
  return row;
}

Status ColumnBatch::AppendSerializedTuple(const uint8_t* data, uint16_t size,
                                          const std::vector<uint8_t>* mask) {
  const uint32_t row = AddRow();
  uint32_t pos = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (pos >= size) return Status::Internal("truncated tuple (null byte)");
    const bool null = data[pos++] != 0;
    if (null) continue;  // AddRow initialized the row to all-NULL
    // Masked-out columns are parsed past (the wire format is sequential)
    // but never stored; bounds checks stay identical either way.
    const bool wanted = mask == nullptr || (*mask)[c] != 0;
    switch (schema_->column(c).type) {
      case TypeId::kInt4: {
        if (pos + 4 > size) return Status::Internal("truncated tuple (int4)");
        if (wanted) {
          const uint32_t raw = static_cast<uint32_t>(data[pos]) |
                               static_cast<uint32_t>(data[pos + 1]) << 8 |
                               static_cast<uint32_t>(data[pos + 2]) << 16 |
                               static_cast<uint32_t>(data[pos + 3]) << 24;
          SetInt(c, row, static_cast<int32_t>(raw));
        }
        pos += 4;
        break;
      }
      case TypeId::kText: {
        if (pos + 4 > size)
          return Status::Internal("truncated tuple (text length)");
        const uint32_t len = static_cast<uint32_t>(data[pos]) |
                             static_cast<uint32_t>(data[pos + 1]) << 8 |
                             static_cast<uint32_t>(data[pos + 2]) << 16 |
                             static_cast<uint32_t>(data[pos + 3]) << 24;
        pos += 4;
        if (pos + len > size) return Status::Internal("truncated tuple (text)");
        if (wanted)
          SetText(c, row, reinterpret_cast<const char*>(data + pos), len);
        pos += len;
        break;
      }
    }
  }
  return Status::OK();
}

void ColumnBatch::SetValue(size_t col, uint32_t row, const Value& value) {
  if (IsNull(value)) return;  // the row starts all-NULL
  if (const int32_t* iv = std::get_if<int32_t>(&value)) {
    SetInt(col, row, *iv);
  } else {
    const std::string& sv = std::get<std::string>(value);
    SetText(col, row, sv.data(), sv.size());
  }
}

void ColumnBatch::AppendTuple(const Tuple& tuple) {
  XPRS_CHECK_EQ(tuple.size(), columns_.size());
  const uint32_t row = AddRow();
  for (size_t c = 0; c < columns_.size(); ++c) SetValue(c, row, tuple.value(c));
}

void ColumnBatch::CopyValue(size_t dst_col, uint32_t dst_row,
                            const ColumnBatch& src, size_t src_col,
                            uint32_t src_row) {
  const Column& from = src.columns_[src_col];
  if (from.nulls[src_row]) return;  // destination row starts all-NULL
  if (src.schema_->column(src_col).type == TypeId::kInt4) {
    SetInt(dst_col, dst_row, from.ints[src_row]);
  } else {
    const std::string& s = from.texts[src_row];
    SetText(dst_col, dst_row, s.data(), s.size());
  }
}

void ColumnBatch::AppendRowFrom(const ColumnBatch& src, uint32_t src_row) {
  XPRS_CHECK_EQ(columns_.size(), src.columns_.size());
  const uint32_t row = AddRow();
  for (size_t c = 0; c < columns_.size(); ++c)
    CopyValue(c, row, src, c, src_row);
}

void ColumnBatch::AppendConcatRow(const ColumnBatch& left, uint32_t left_row,
                                  const ColumnBatch& right, uint32_t right_row,
                                  const std::vector<uint8_t>* mask) {
  const size_t split = left.columns_.size();
  XPRS_CHECK_EQ(columns_.size(), split + right.columns_.size());
  const uint32_t row = AddRow();
  for (size_t c = 0; c < split; ++c) {
    if (mask == nullptr || (*mask)[c] != 0) CopyValue(c, row, left, c, left_row);
  }
  for (size_t c = 0; c < right.columns_.size(); ++c) {
    if (mask == nullptr || (*mask)[split + c] != 0)
      CopyValue(split + c, row, right, c, right_row);
  }
}

void ColumnBatch::AppendConcatRow(const ColumnBatch& left, uint32_t left_row,
                                  const Tuple& right,
                                  const std::vector<uint8_t>* mask) {
  const size_t split = left.columns_.size();
  XPRS_CHECK_EQ(columns_.size(), split + right.size());
  const uint32_t row = AddRow();
  for (size_t c = 0; c < split; ++c) {
    if (mask == nullptr || (*mask)[c] != 0) CopyValue(c, row, left, c, left_row);
  }
  for (size_t c = 0; c < right.size(); ++c) {
    if (mask == nullptr || (*mask)[split + c] != 0)
      SetValue(split + c, row, right.value(c));
  }
}

Tuple ColumnBatch::MaterializeRow(uint32_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Column& col = columns_[c];
    if (col.nulls[row]) {
      values.emplace_back(std::monostate{});
    } else if (schema_->column(c).type == TypeId::kInt4) {
      values.emplace_back(col.ints[row]);
    } else {
      values.emplace_back(col.texts[row]);
    }
  }
  return Tuple(std::move(values));
}

}  // namespace xprs
