#include "exec/batch.h"

#include <algorithm>

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

uint32_t ColumnBatch::AddRows(uint32_t n) {
  const uint32_t first = num_rows_;
  num_rows_ += n;
  // Vectors only grow, so a reused batch keeps its per-row std::string
  // capacity. An int4 column gets a value slot for every row, NULL or
  // not, so a gather copies any source row without testing its null
  // byte; text slots are made only where a value is set (SetText), since
  // every reader tests the null byte before it reads a string.
  for (size_t c = 0; c < columns_.size(); ++c) {
    Column& col = columns_[c];
    if (col.nulls.size() < num_rows_) col.nulls.resize(num_rows_);
    std::fill_n(col.nulls.begin() + first, n, uint8_t{1});
    if (schema_->column(c).type == TypeId::kInt4 &&
        col.ints.size() < num_rows_)
      col.ints.resize(num_rows_);
  }
  return first;
}

Status ColumnBatch::DecodeRow(uint32_t row, const uint8_t* data,
                              uint16_t size,
                              const std::vector<uint8_t>* mask) {
  uint32_t pos = 0;
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (pos >= size) return Status::Internal("truncated tuple (null byte)");
    const bool null = data[pos++] != 0;
    if (null) continue;  // AddRows initialized the row to all-NULL
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
  const uint32_t row = AddRows(1);
  for (size_t c = 0; c < columns_.size(); ++c) SetValue(c, row, tuple.value(c));
}

void ColumnBatch::Gather(uint32_t first, const ColumnBatch& src,
                         std::span<const uint32_t> rows, size_t offset,
                         const std::vector<uint8_t>* mask) {
  XPRS_CHECK_LE(offset + src.columns_.size(), columns_.size());
  XPRS_CHECK_LE(first + rows.size(), num_rows_);
  const size_t n = rows.size();
  for (size_t s = 0; s < src.columns_.size(); ++s) {
    const size_t d = offset + s;
    if (mask != nullptr && (*mask)[d] == 0) continue;
    const Column& from = src.columns_[s];
    if (schema_->column(d).type == TypeId::kInt4) {
      uint8_t* nulls = columns_[d].nulls.data() + first;
      int32_t* ints = columns_[d].ints.data() + first;
      for (size_t i = 0; i < n; ++i) {
        nulls[i] = from.nulls[rows[i]];
        ints[i] = from.ints[rows[i]];
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (from.nulls[rows[i]] != 0) continue;  // the row starts all-NULL
        const std::string& text = from.texts[rows[i]];
        SetText(d, first + static_cast<uint32_t>(i), text.data(),
                text.size());
      }
    }
  }
}

void ColumnBatch::Gather(uint32_t first, const std::vector<Tuple>& src,
                         std::span<const uint32_t> rows, size_t offset,
                         const std::vector<uint8_t>* mask) {
  XPRS_CHECK_LE(offset, columns_.size());
  XPRS_CHECK_LE(first + rows.size(), num_rows_);
  const size_t n = rows.size();
  const size_t width = columns_.size() - offset;
  if (n > 0) XPRS_CHECK_EQ(src[rows[0]].size(), width);
  for (size_t s = 0; s < width; ++s) {
    const size_t d = offset + s;
    if (mask != nullptr && (*mask)[d] == 0) continue;
    for (size_t i = 0; i < n; ++i)
      SetValue(d, first + static_cast<uint32_t>(i), src[rows[i]].value(s));
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
