#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <tuple>

#include "exec/page_partition.h"
#include "exec/range_partition.h"
#include "util/check.h"
#include "util/str.h"

namespace xprs {

namespace {

// Extracts an int32 join key; NULL keys never match.
bool GetKey(const Tuple& tuple, size_t column, int32_t* key) {
  const Value& v = tuple.value(column);
  if (IsNull(v)) return false;
  const int32_t* k = std::get_if<int32_t>(&v);
  XPRS_CHECK_MSG(k != nullptr, "join key must be int4");
  *key = *k;
  return true;
}

}  // namespace

// ---------------------------------------------------------------- SeqScan

SeqScanOp::SeqScanOp(Table* table, Predicate predicate, ExecContext ctx,
                     AdjustablePageScan* pages, int slot)
    : table_(table),
      predicate_(std::move(predicate)),
      ctx_(ctx),
      pages_(pages),
      slot_(slot) {
  XPRS_CHECK(table != nullptr);
}

Status SeqScanOp::Open() {
  next_page_ = 0;
  next_slot_ = 0;
  page_loaded_ = false;
  pages_read_ = 0;
  current_ = nullptr;
  pooled_page_.Release();
  return Status::OK();
}

std::optional<uint32_t> SeqScanOp::TakePage() {
  if (pages_ != nullptr) return pages_->NextPage(slot_);
  if (next_page_ >= table_->file().num_pages()) return std::nullopt;
  return next_page_++;
}

Status SeqScanOp::LoadPage(uint32_t page_index) {
  if (ctx_.cancel != nullptr) {
    Status live = ctx_.cancel->Check();
    if (!live.ok()) {
      pooled_page_.Release();
      return live;
    }
  }
  XPRS_ASSIGN_OR_RETURN(current_, ReadTablePage(ctx_, *table_, page_index,
                                                &pooled_page_, &direct_page_));
  ++pages_read_;
  ProfPagesRead(1);
  page_loaded_ = true;
  next_slot_ = 0;
  return Status::OK();
}

Status SeqScanOp::Close() {
  pooled_page_ = PageHandle();
  current_ = nullptr;
  page_loaded_ = false;
  return Status::OK();
}

Status SeqScanOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (!page_loaded_) {
      std::optional<uint32_t> page = TakePage();
      if (!page.has_value()) {
        *eof = true;
        return Status::OK();
      }
      XPRS_RETURN_IF_ERROR(LoadPage(*page));
    }
    while (next_slot_ < current_->num_tuples()) {
      const uint8_t* data;
      uint16_t size;
      XPRS_RETURN_IF_ERROR(current_->GetTuple(next_slot_, &data, &size));
      ++next_slot_;
      XPRS_ASSIGN_OR_RETURN(Tuple tuple,
                            Tuple::Deserialize(table_->schema(), data, size));
      if (ProfEval(predicate_, tuple)) {
        *out = std::move(tuple);
        return Status::OK();
      }
    }
    page_loaded_ = false;
    pooled_page_.Release();
  }
}

// -------------------------------------------------------------- IndexScan

IndexScanOp::IndexScanOp(Table* table, Predicate predicate, KeyRange range,
                         ExecContext ctx, AdjustableRangeScan* ranges,
                         int slot)
    : table_(table),
      predicate_(std::move(predicate)),
      range_(range),
      ctx_(ctx),
      ranges_(ranges),
      slot_(slot) {
  XPRS_CHECK(table != nullptr);
  XPRS_CHECK_MSG(table->index() != nullptr, "index scan without index");
}

Status IndexScanOp::Open() {
  // No cleanup needed on failure: the iterator is the only resource and it
  // is only installed on success; page pins are scoped to each Next call.
  it_.reset();
  tuples_fetched_ = 0;
  if (ranges_ != nullptr) return Status::OK();  // chunks open in Next
  XPRS_ASSIGN_OR_RETURN(it_,
                        table_->index()->ScanChecked(range_.lo, range_.hi));
  return Status::OK();
}

Status IndexScanOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (!it_.has_value() || !it_->Valid()) {
      // The range (or this slot's chunk) is done: take the slot's next
      // chunk, if partitioned.
      std::optional<KeyRange> chunk;
      if (ranges_ != nullptr) chunk = ranges_->NextChunk(slot_);
      if (!chunk.has_value()) {
        *eof = true;
        return Status::OK();
      }
      XPRS_ASSIGN_OR_RETURN(it_,
                            table_->index()->ScanChecked(chunk->lo, chunk->hi));
      continue;
    }
    // Every iteration costs a random page read, so a per-tuple poll of the
    // token is in the noise here.
    if (ctx_.cancel != nullptr) XPRS_RETURN_IF_ERROR(ctx_.cancel->Check());
    TupleId tid = it_->tid();
    it_->Next();
    PageHandle pin;  // held for this tuple's decode only
    XPRS_ASSIGN_OR_RETURN(
        const Page* page,
        ReadTablePage(ctx_, *table_, tid.page, &pin, &direct_page_));
    const uint8_t* data;
    uint16_t size;
    XPRS_RETURN_IF_ERROR(page->GetTuple(tid.slot, &data, &size));
    XPRS_ASSIGN_OR_RETURN(Tuple tuple,
                          Tuple::Deserialize(table_->schema(), data, size));
    ++tuples_fetched_;
    ProfPagesRead(1);  // one random page per fetched tuple (§3)
    if (ProfEval(predicate_, tuple)) {
      *out = std::move(tuple);
      return Status::OK();
    }
  }
}

// ----------------------------------------------------------------- Filter

FilterOp::FilterOp(std::unique_ptr<Operator> child, Predicate predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {
  XPRS_CHECK(child_ != nullptr);
}

Status FilterOp::Open() { return child_->Open(); }

Status FilterOp::Next(Tuple* out, bool* eof) {
  for (;;) {
    XPRS_RETURN_IF_ERROR(child_->Next(out, eof));
    if (*eof || ProfEval(predicate_, *out)) return Status::OK();
  }
}

Status FilterOp::Close() { return child_->Close(); }

// ----------------------------------------------------------- NestLoopJoin

NestLoopJoinOp::NestLoopJoinOp(std::unique_ptr<Operator> outer,
                               std::unique_ptr<Operator> inner,
                               size_t left_key, size_t right_key)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      left_key_(left_key),
      right_key_(right_key),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())) {}

Status NestLoopJoinOp::Open() {
  XPRS_RETURN_IF_ERROR(outer_->Open());
  have_outer_ = false;
  inner_open_ = false;
  return Status::OK();
}

Status NestLoopJoinOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (!have_outer_) {
      bool outer_eof;
      XPRS_RETURN_IF_ERROR(outer_->Next(&outer_tuple_, &outer_eof));
      if (outer_eof) {
        *eof = true;
        return Status::OK();
      }
      have_outer_ = true;
      if (inner_open_) XPRS_RETURN_IF_ERROR(inner_->Close());
      XPRS_RETURN_IF_ERROR(inner_->Open());
      inner_open_ = true;
    }
    int32_t lk;
    if (!GetKey(outer_tuple_, left_key_, &lk)) {
      have_outer_ = false;  // NULL key joins nothing
      continue;
    }
    for (;;) {
      Tuple inner_tuple;
      bool inner_eof;
      XPRS_RETURN_IF_ERROR(inner_->Next(&inner_tuple, &inner_eof));
      if (inner_eof) {
        have_outer_ = false;
        break;
      }
      int32_t rk;
      if (GetKey(inner_tuple, right_key_, &rk) && rk == lk) {
        *out = Tuple::Concat(outer_tuple_, inner_tuple);
        return Status::OK();
      }
    }
  }
}

Status NestLoopJoinOp::Close() {
  XPRS_RETURN_IF_ERROR(outer_->Close());
  if (inner_open_) {
    inner_open_ = false;
    return inner_->Close();
  }
  return Status::OK();
}

// ---------------------------------------------------------- JoinHashTable

uint32_t JoinHashTable::BucketOf(int32_t key) const {
  // Fibonacci hashing: the top bits_ bits of a multiplicative hash.
  const uint32_t h = static_cast<uint32_t>(key) * 2654435769u;
  return bits_ == 0 ? 0 : h >> (32 - bits_);
}

void JoinHashTable::Build(const std::vector<int32_t>& keys,
                          const std::vector<uint32_t>& rows) {
  XPRS_CHECK_EQ(keys.size(), rows.size());
  XPRS_CHECK_LT(keys.size(), size_t{UINT32_MAX});
  // One bucket per entry, rounded up to a power of two; a counting sort
  // groups the entries by bucket and keeps their order within each.
  bits_ = 0;
  while ((size_t{1} << bits_) < keys.size()) ++bits_;
  const size_t num_buckets = size_t{1} << bits_;
  bucket_start_.assign(num_buckets + 1, 0);
  for (int32_t k : keys) ++bucket_start_[BucketOf(k) + 1];
  for (size_t b = 0; b < num_buckets; ++b)
    bucket_start_[b + 1] += bucket_start_[b];
  std::vector<uint32_t> fill(bucket_start_.begin(), bucket_start_.end() - 1);
  keys_.resize(keys.size());
  rows_.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t entry = fill[BucketOf(keys[i])]++;
    keys_[entry] = keys[i];
    rows_[entry] = rows[i];
  }
}

void JoinHashTable::Build(const std::vector<Tuple>& rows, size_t key) {
  XPRS_CHECK_LT(rows.size(), size_t{UINT32_MAX});
  std::vector<int32_t> keys;
  std::vector<uint32_t> positions;
  keys.reserve(rows.size());
  positions.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    int32_t k;
    if (!GetKey(rows[i], key, &k)) continue;
    keys.push_back(k);
    positions.push_back(static_cast<uint32_t>(i));
  }
  Build(keys, positions);
}

void JoinHashTable::Clear() {
  bits_ = 0;
  bucket_start_.clear();
  keys_.clear();
  rows_.clear();
}

std::pair<uint32_t, uint32_t> JoinHashTable::Bucket(int32_t key) const {
  if (keys_.empty()) return {0, 0};
  const uint32_t b = BucketOf(key);
  return {bucket_start_[b], bucket_start_[b + 1]};
}

// --------------------------------------------------------------- HashJoin

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> outer,
                       std::unique_ptr<Operator> inner, size_t left_key,
                       size_t right_key, const SpillConfig& spill)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      build_(nullptr),
      left_key_(left_key),
      right_key_(right_key),
      spill_(spill),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())),
      probe_(outer_.get()) {}

HashJoinOp::HashJoinOp(std::unique_ptr<Operator> outer,
                       const TempResult* build, size_t left_key,
                       size_t right_key)
    : outer_(std::move(outer)),
      build_(build),
      left_key_(left_key),
      right_key_(right_key),
      schema_(Schema::Concat(outer_->schema(), build->schema)),
      probe_(outer_.get()) {}

Status HashJoinOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    // A failed build must not leak the open inputs (or their pinned
    // buffer frames) nor the partition files: Drain and the blocking
    // consumers above skip Close after a failed Open. Closes are tolerant
    // of never-opened children.
    owned_rows_.clear();
    owned_table_.Clear();
    partition_probe_.tuples.clear();
    build_parts_.clear();
    probe_parts_.clear();
    if (inner_ != nullptr) (void)inner_->Close();
    (void)outer_->Close();
  }
  return st;
}

Status HashJoinOp::OpenImpl() {
  entry_ = entry_end_ = 0;
  spilled_ = false;
  peak_held_rows_ = 0;
  probe_ = outer_.get();
  if (build_ != nullptr) {
    size_t inserted = 0;
    table_ = &build_->JoinIndex(right_key_, &inserted);
    rows_ = &build_->tuples;
    ProfBuildRows(inserted);
    return outer_->Open();
  }
  // Blocking build phase; past the memory budget the join spills.
  owned_rows_.clear();
  XPRS_RETURN_IF_ERROR(inner_->Open());
  for (;;) {
    Tuple tuple;
    bool eof;
    XPRS_RETURN_IF_ERROR(inner_->Next(&tuple, &eof));
    if (eof) break;
    if (IsNull(tuple.value(right_key_))) continue;  // joins nothing
    if (spill_.temp_array != nullptr &&
        owned_rows_.size() == spill_.memory_tuples)
      return Spill(tuple);
    owned_rows_.push_back(std::move(tuple));
  }
  XPRS_RETURN_IF_ERROR(inner_->Close());
  IndexOwnedRows();
  return outer_->Open();
}

void HashJoinOp::IndexOwnedRows() {
  owned_table_.Build(owned_rows_, right_key_);
  ProfBuildRows(owned_table_.size());
  peak_held_rows_ = std::max(peak_held_rows_, owned_rows_.size());
  table_ = &owned_table_;
  rows_ = &owned_rows_;
}

// Grace hash join: partitions the held build rows, the row that would
// outgrow the budget, the rest of the build input and the whole probe
// input. Each partition is then joined chunk by chunk (NextChunk), staged
// when the probe input runs dry, so Next starts on an empty probe source.
Status HashJoinOp::Spill(const Tuple& pending) {
  spilled_ = true;
  peak_held_rows_ = std::max(peak_held_rows_, owned_rows_.size());
  XPRS_RETURN_IF_ERROR(Partition(owned_rows_, &pending, inner_.get(),
                                 right_key_, &build_parts_));
  owned_rows_.clear();
  XPRS_RETURN_IF_ERROR(outer_->Open());
  XPRS_RETURN_IF_ERROR(
      Partition({}, nullptr, outer_.get(), left_key_, &probe_parts_));
  partition_ = 0;
  build_cursor_.page = 0;
  build_cursor_.slot = 0;
  partition_probe_.schema = outer_->schema();
  partition_probe_.tuples.clear();
  probe_ = &partition_source_;
  return partition_source_.Open();
}

// Routes `held`, `pending` (if set), then the rest of the open `input`
// (closed afterwards), to kSpillPartitions new temp files by a hash of
// column `key`.
Status HashJoinOp::Partition(const std::vector<Tuple>& held,
                             const Tuple* pending, Operator* input,
                             size_t key, Partitions* parts) {
  parts->clear();
  for (int i = 0; i < kSpillPartitions; ++i) {
    parts->push_back(std::make_unique<HeapFile>(
        NextTempName("tmp_grace"), input->schema(), spill_.temp_array));
  }
  auto route = [&](const Tuple& tuple) -> Status {
    int32_t k;
    if (!GetKey(tuple, key, &k)) return Status::OK();  // joins nothing
    // Cheap integer hash spreading adjacent keys across partitions.
    const uint32_t h = static_cast<uint32_t>(k) * 2654435761u;
    return (*parts)[h % kSpillPartitions]->Append(tuple);
  };
  for (const Tuple& tuple : held) XPRS_RETURN_IF_ERROR(route(tuple));
  if (pending != nullptr) XPRS_RETURN_IF_ERROR(route(*pending));
  for (;;) {
    Tuple tuple;
    bool eof;
    XPRS_RETURN_IF_ERROR(input->Next(&tuple, &eof));
    if (eof) break;
    XPRS_RETURN_IF_ERROR(route(tuple));
  }
  XPRS_RETURN_IF_ERROR(input->Close());
  uint64_t pages = 0;
  for (auto& file : *parts) {
    XPRS_RETURN_IF_ERROR(file->Flush());
    pages += file->num_pages();
  }
  ProfPagesWritten(pages);
  ProfSpill(pages * kPageSize, /*runs=*/parts->size());
  return Status::OK();
}

// Replaces *rows with the rows of `file` from *at on, until it holds
// `limit` rows or the file ends, and advances *at past them.
Status HashJoinOp::ReadRows(const HeapFile& file, size_t limit,
                            FileCursor* at, std::vector<Tuple>* rows) {
  rows->clear();
  while (rows->size() < limit && at->page < file.num_pages()) {
    if (at->slot == 0) {
      XPRS_RETURN_IF_ERROR(file.ReadPage(at->page, &at->buffer));
      ProfPagesRead(1);
    }
    if (at->slot < at->buffer.num_tuples()) {
      const uint8_t* data;
      uint16_t size;
      XPRS_RETURN_IF_ERROR(at->buffer.GetTuple(at->slot++, &data, &size));
      XPRS_ASSIGN_OR_RETURN(Tuple tuple,
                            Tuple::Deserialize(file.schema(), data, size));
      rows->push_back(std::move(tuple));
    }
    if (at->slot >= at->buffer.num_tuples()) {
      ++at->page;
      at->slot = 0;
    }
  }
  return Status::OK();
}

// Stages the spilled join's next build chunk: the next at most
// spill.memory_tuples build rows of partition partition_, or else the
// first chunk of the next partition that has build rows. Each build row is
// in exactly one chunk, and the partition's probe rows (read once per
// partition) are replayed against every chunk, so each match is emitted
// once. False when every partition is joined.
StatusOr<bool> HashJoinOp::NextChunk() {
  const size_t limit = std::max<size_t>(1, spill_.memory_tuples);
  for (;;) {
    const bool first_chunk =
        build_cursor_.page == 0 && build_cursor_.slot == 0;
    XPRS_RETURN_IF_ERROR(ReadRows(*build_parts_[partition_], limit,
                                  &build_cursor_, &owned_rows_));
    if (!owned_rows_.empty()) {
      if (first_chunk) {
        FileCursor from_start;
        XPRS_RETURN_IF_ERROR(ReadRows(*probe_parts_[partition_], SIZE_MAX,
                                      &from_start, &partition_probe_.tuples));
      }
      IndexOwnedRows();
      XPRS_RETURN_IF_ERROR(partition_source_.Open());
      return true;
    }
    if (partition_ + 1 == kSpillPartitions) return false;
    ++partition_;
    build_cursor_.page = 0;
    build_cursor_.slot = 0;
  }
}

Status HashJoinOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    while (entry_ < entry_end_) {
      const uint32_t entry = entry_++;
      if (table_->key(entry) == probe_key_) {
        *out = Tuple::Concat(outer_tuple_, (*rows_)[table_->row(entry)]);
        return Status::OK();
      }
    }
    bool outer_eof;
    XPRS_RETURN_IF_ERROR(probe_->Next(&outer_tuple_, &outer_eof));
    if (outer_eof) {
      if (spilled_) {
        XPRS_ASSIGN_OR_RETURN(bool staged, NextChunk());
        if (staged) continue;
      }
      *eof = true;
      return Status::OK();
    }
    if (!GetKey(outer_tuple_, left_key_, &probe_key_)) continue;
    std::tie(entry_, entry_end_) = table_->Bucket(probe_key_);
  }
}

Status HashJoinOp::Close() {
  owned_rows_.clear();
  owned_table_.Clear();
  partition_probe_.tuples.clear();
  build_parts_.clear();
  probe_parts_.clear();
  entry_ = entry_end_ = 0;
  // A spilled join closed its inputs when it partitioned them.
  return probe_->Close();
}

// -------------------------------------------------------------- MergeJoin

MergeJoinOp::MergeJoinOp(std::unique_ptr<Operator> outer,
                         std::unique_ptr<Operator> inner, size_t left_key,
                         size_t right_key)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      left_key_(left_key),
      right_key_(right_key),
      schema_(Schema::Concat(outer_->schema(), inner_->schema())) {}

Status MergeJoinOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    // The outer (often a sorted, blocking subtree) must not stay open when
    // the inner's Open fails.
    (void)outer_->Close();
    (void)inner_->Close();
  }
  return st;
}

Status MergeJoinOp::OpenImpl() {
  XPRS_RETURN_IF_ERROR(outer_->Open());
  XPRS_RETURN_IF_ERROR(inner_->Open());
  outer_eof_ = have_outer_ = false;
  inner_eof_ = have_inner_pending_ = false;
  have_group_ = false;
  group_.clear();
  group_pos_ = 0;
  return Status::OK();
}

Status MergeJoinOp::AdvanceOuter() {
  bool eof;
  XPRS_RETURN_IF_ERROR(outer_->Next(&outer_tuple_, &eof));
  outer_eof_ = eof;
  have_outer_ = !eof;
  return Status::OK();
}

// Buffers every inner tuple whose key equals `key`, consuming smaller keys.
Status MergeJoinOp::LoadInnerGroup(int32_t key) {
  group_.clear();
  group_pos_ = 0;
  have_group_ = true;
  group_key_ = key;
  for (;;) {
    if (!have_inner_pending_) {
      if (inner_eof_) return Status::OK();
      bool eof;
      XPRS_RETURN_IF_ERROR(inner_->Next(&inner_pending_, &eof));
      if (eof) {
        inner_eof_ = true;
        return Status::OK();
      }
      have_inner_pending_ = true;
    }
    int32_t ik;
    if (!GetKey(inner_pending_, right_key_, &ik)) {
      have_inner_pending_ = false;  // NULL keys join nothing
      continue;
    }
    if (ik < key) {
      have_inner_pending_ = false;
      continue;
    }
    if (ik > key) return Status::OK();  // keep pending for a later group
    group_.push_back(inner_pending_);
    have_inner_pending_ = false;
  }
}

Status MergeJoinOp::Next(Tuple* out, bool* eof) {
  *eof = false;
  for (;;) {
    if (have_outer_ && have_group_ && group_pos_ < group_.size()) {
      *out = Tuple::Concat(outer_tuple_, group_[group_pos_]);
      ++group_pos_;
      return Status::OK();
    }
    // Need a new outer tuple (and possibly a new inner group).
    int32_t prev_key = group_key_;
    bool had_group = have_group_;
    XPRS_RETURN_IF_ERROR(AdvanceOuter());
    if (!have_outer_) {
      *eof = true;
      return Status::OK();
    }
    int32_t ok;
    if (!GetKey(outer_tuple_, left_key_, &ok)) continue;
    if (had_group && ok == prev_key) {
      group_pos_ = 0;  // duplicate outer key: rescan the buffered group
      continue;
    }
    XPRS_CHECK_MSG(!had_group || ok >= prev_key,
                   "merge join input not sorted");
    XPRS_RETURN_IF_ERROR(LoadInnerGroup(ok));
    group_pos_ = 0;
  }
}

Status MergeJoinOp::Close() {
  XPRS_RETURN_IF_ERROR(outer_->Close());
  return inner_->Close();
}

// -------------------------------------------------------------- Aggregate

int32_t Aggregation::Final(const Acc& acc) const {
  switch (func_) {
    case AggFunc::kCount:
      return static_cast<int32_t>(acc.count);
    case AggFunc::kSum:
      return static_cast<int32_t>(acc.sum);
    case AggFunc::kMin:
      return acc.min;
    case AggFunc::kMax:
      return acc.max;
  }
  return 0;
}

std::vector<std::pair<int32_t, int32_t>> Aggregation::Results() const {
  std::vector<std::pair<int32_t, int32_t>> out;
  if (!grouped_) {
    if (global_.any || func_ == AggFunc::kCount)
      out.emplace_back(0, Final(global_));
    return out;
  }
  out.reserve(groups_.size());
  for (const auto& [key, acc] : groups_) out.emplace_back(key, Final(acc));
  std::sort(out.begin(), out.end());  // deterministic order: by group key
  return out;
}

AggregateOp::AggregateOp(std::unique_ptr<Operator> child, Schema output_schema,
                         AggFunc func, size_t agg_col, int group_col)
    : child_(std::move(child)),
      schema_(std::move(output_schema)),
      func_(func),
      agg_col_(agg_col),
      group_col_(group_col) {
  XPRS_CHECK(child_ != nullptr);
}

Status AggregateOp::Open() {
  Status st = OpenImpl();
  if (!st.ok()) {
    results_.clear();
    (void)child_->Close();  // a failed drain must not leak the open child
  }
  return st;
}

Status AggregateOp::OpenImpl() {
  results_.clear();
  pos_ = 0;
  Aggregation agg(func_, group_col_ >= 0);
  XPRS_RETURN_IF_ERROR(child_->Open());
  for (;;) {
    Tuple tuple;
    bool eof;
    XPRS_RETURN_IF_ERROR(child_->Next(&tuple, &eof));
    if (eof) break;
    const Value& v = tuple.value(agg_col_);
    if (IsNull(v)) continue;
    const int32_t* value = std::get_if<int32_t>(&v);
    if (value == nullptr)
      return Status::InvalidArgument("aggregate column must be int4");
    int32_t key = 0;
    if (group_col_ >= 0 &&
        !GetKey(tuple, static_cast<size_t>(group_col_), &key))
      continue;
    agg.Add(key, *value);
  }
  XPRS_RETURN_IF_ERROR(child_->Close());
  for (const auto& [key, value] : agg.Results()) {
    results_.push_back(group_col_ >= 0 ? Tuple({Value(key), Value(value)})
                                       : Tuple({Value(value)}));
  }
  return Status::OK();
}

Status AggregateOp::Next(Tuple* out, bool* eof) {
  if (pos_ >= results_.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = results_[pos_++];
  return Status::OK();
}

Status AggregateOp::Close() {
  results_.clear();
  return Status::OK();
}

// ------------------------------------------------------------- TempResult

const JoinHashTable& TempResult::JoinIndex(size_t key,
                                           size_t* inserted) const {
  *inserted = 0;
  std::call_once(index_->built, [&] {
    index_->table.Build(tuples, key);
    *inserted = index_->table.size();
  });
  return index_->table;
}

// ------------------------------------------------------------- TempSource

uint32_t TempSourceOp::NumBatches(size_t num_tuples) {
  return static_cast<uint32_t>((num_tuples + kBatchTuples - 1) / kBatchTuples);
}

TempSourceOp::TempSourceOp(const TempResult* temp, AdjustablePageScan* batches,
                           int slot)
    : temp_(temp), batches_(batches), slot_(slot) {
  XPRS_CHECK(temp != nullptr);
}

Status TempSourceOp::Open() {
  pos_ = 0;
  end_ = batches_ != nullptr ? 0 : temp_->tuples.size();
  return Status::OK();
}

Status TempSourceOp::Next(Tuple* out, bool* eof) {
  while (pos_ >= end_) {
    std::optional<uint32_t> batch;
    if (batches_ != nullptr) batch = batches_->NextPage(slot_);
    if (!batch.has_value()) {
      *eof = true;
      return Status::OK();
    }
    pos_ = static_cast<size_t>(*batch) * kBatchTuples;
    end_ = std::min(pos_ + kBatchTuples, temp_->tuples.size());
  }
  *eof = false;
  *out = temp_->tuples[pos_++];
  return Status::OK();
}

// ------------------------------------------------------------ CancelGuard

CancelGuardOp::CancelGuardOp(std::unique_ptr<Operator> child,
                             CancellationToken* token)
    : child_(std::move(child)), token_(token) {
  XPRS_CHECK(child_ != nullptr);
  XPRS_CHECK(token != nullptr);
}

Status CancelGuardOp::Open() {
  XPRS_RETURN_IF_ERROR(token_->Check());
  calls_ = 0;
  return child_->Open();
}

Status CancelGuardOp::Next(Tuple* out, bool* eof) {
  if (token_->cancelled()) return token_->Check();
  if ((++calls_ & (kDeadlineStride - 1)) == 0)
    XPRS_RETURN_IF_ERROR(token_->Check());
  return child_->Next(out, eof);
}

std::unique_ptr<Operator> MaybeCancelGuard(std::unique_ptr<Operator> op,
                                           CancellationToken* token) {
  if (token == nullptr) return op;
  return std::make_unique<CancelGuardOp>(std::move(op), token);
}

// ------------------------------------------------------------ page reads

StatusOr<const Page*> ReadTablePage(const ExecContext& ctx,
                                    const Table& table, uint32_t page,
                                    PageHandle* pin, Page* direct) {
  if (ctx.pool == nullptr) {
    XPRS_RETURN_IF_ERROR(table.file().ReadPage(page, direct));
    return direct;
  }
  XPRS_ASSIGN_OR_RETURN(BlockId block, table.file().BlockOf(page));
  XPRS_ASSIGN_OR_RETURN(*pin, FetchWithBackpressure(ctx, block));
  return &pin->page();
}

std::string NextTempName(const char* prefix) {
  static std::atomic<int64_t> counter{0};
  return StrFormat("%s_%lld", prefix,
                   static_cast<long long>(
                       counter.fetch_add(1, std::memory_order_relaxed)));
}

// ---------------------------------------------------- FetchWithBackpressure

StatusOr<PageHandle> FetchWithBackpressure(const ExecContext& ctx,
                                           BlockId block) {
  XPRS_CHECK(ctx.pool != nullptr);
  int failures = 0;
  for (;;) {
    auto handle = ctx.pool->Fetch(block);
    if (handle.ok() ||
        handle.status().code() != StatusCode::kResourceExhausted) {
      return handle;
    }
    if (ctx.fetch_retry == nullptr ||
        failures + 1 >= ctx.fetch_retry->max_attempts) {
      EmitResilienceEvent(ctx.obs, "backpressure.exhausted", -1.0,
                          static_cast<int64_t>(block));
      return handle;
    }
    ++failures;
    EmitResilienceEvent(ctx.obs, "backpressure.retry", -1.0,
                        static_cast<int64_t>(block),
                        {{"failures", failures}});
    XPRS_RETURN_IF_ERROR(BackoffSleep(*ctx.fetch_retry, failures, ctx.cancel));
  }
}

// ------------------------------------------------------------------ Drain

StatusOr<std::vector<Tuple>> Drain(Operator* op) {
  XPRS_CHECK(op != nullptr);
  // A failed Open cleans up after itself (operators close their children on
  // every failure exit), so Close is owed only once Open has succeeded.
  XPRS_RETURN_IF_ERROR(op->Open());
  std::vector<Tuple> rows;
  for (;;) {
    Tuple tuple;
    bool eof;
    Status st = op->Next(&tuple, &eof);
    if (!st.ok()) {
      (void)op->Close();  // release scan pins held mid-page
      return st;
    }
    if (eof) break;
    rows.push_back(std::move(tuple));
  }
  XPRS_RETURN_IF_ERROR(op->Close());
  return rows;
}

}  // namespace xprs
