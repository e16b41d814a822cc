// Volcano-style operators.
//
// Every operator implements Open / Next / Close. Scans pay disk time
// through the storage layer (optionally via a shared buffer pool), which is
// what gives each plan fragment its i/o rate C_i. Each access path has one
// scan class: alone it reads its whole extent; given a shared adjustable
// partition (exec/page_partition.h, exec/range_partition.h) it is one slave
// of a parallel scan and reads only the granules handed to its slot (§2.4).
// Every hash join indexes its build side in one JoinHashTable, and the one
// tuple hash join is also the spilling (grace) join of the §5 memory
// extension; the one Aggregation accumulator serves both aggregate
// operators.

#ifndef XPRS_EXEC_OPERATORS_H_
#define XPRS_EXEC_OPERATORS_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/profile.h"
#include "resilience/retry.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace xprs {

class AdjustablePageScan;
class AdjustableRangeScan;

/// Spill configuration for memory-bounded operators (external sort, hash
/// join).
struct SpillConfig {
  /// Disk array temporary files are written to. nullptr = never spill
  /// (sorts and hash joins stay in memory).
  DiskArray* temp_array = nullptr;
  /// Maximum tuples held in memory per operator before spilling.
  size_t memory_tuples = 4096;
};

/// Shared execution state.
struct ExecContext {
  /// When set, page reads go through this pool; otherwise directly to the
  /// disk array.
  BufferPool* pool = nullptr;
  /// When spill.temp_array is set, Sort and HashJoin operators spill past
  /// spill.memory_tuples (§5 extension).
  SpillConfig spill;
  /// When set, the plan builders bind every operator to the matching
  /// OperatorStats and insert the timing decorator — the EXPLAIN ANALYZE
  /// path. Null (the default) keeps execution instrumentation-free.
  QueryProfile* profile = nullptr;
  /// Cooperative cancellation / per-query deadline. Nullable. Scans poll
  /// it at page boundaries; the plan builders additionally insert a
  /// CancelGuardOp over every operator so blocking drains (sort, hash
  /// build, aggregate) also terminate promptly.
  CancellationToken* cancel = nullptr;
  /// When set, ResourceExhausted from BufferPool::Fetch (admission control
  /// under memory pressure) is retried with backoff before surfacing; see
  /// FetchWithBackpressure. Null = a single attempt, pre-existing behavior.
  const RetryPolicy* fetch_retry = nullptr;
  /// Trace/metrics target for resilience events raised on the execution
  /// path (backpressure retries, degradations). Optional.
  Observability obs;
  /// When true, the plan builder compiles vectorizable subtrees (SeqScan /
  /// HashJoin / Aggregate; see exec/batch_ops.h) to batch-at-a-time
  /// operators bridged through a VectorizedAdapterOp, in every mode: the
  /// master hands it to every slave, whose driving scan then reads its slot
  /// into batches. Plans (or subtrees) the batch path cannot run fall back
  /// to the tuple operators. The serving engine sets it for every
  /// statement; off, it is the tuple engine the oracle trusts.
  bool vectorized = false;
  /// Target rows per ColumnBatch on the vectorized path.
  size_t batch_rows = 1024;
};

/// Base iterator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares for iteration. May perform blocking work (sort, hash build).
  virtual Status Open() = 0;

  /// Produces the next tuple into *out; sets *eof instead when exhausted.
  virtual Status Next(Tuple* out, bool* eof) = 0;

  /// Releases resources; the operator may be re-Opened afterwards.
  virtual Status Close() { return Status::OK(); }

  /// Output schema.
  virtual const Schema& schema() const = 0;

  /// Binds the operator's internal hooks (pages read, spill bytes,
  /// predicate-eval time) to shared stats. Null detaches.
  void set_profile_stats(OperatorStats* stats) { prof_ = stats; }
  OperatorStats* profile_stats() const { return prof_; }

 protected:
  // Hot-path hooks: exactly one pointer test each when profiling is off.
  void ProfPagesRead(uint64_t n) {
    if (prof_) prof_->pages_read.fetch_add(n, std::memory_order_relaxed);
  }
  void ProfPagesWritten(uint64_t n) {
    if (prof_) prof_->pages_written.fetch_add(n, std::memory_order_relaxed);
  }
  void ProfSpill(uint64_t bytes, uint64_t runs) {
    if (prof_) {
      prof_->spill_bytes.fetch_add(bytes, std::memory_order_relaxed);
      prof_->spill_runs.fetch_add(runs, std::memory_order_relaxed);
    }
  }
  void ProfBuildRows(uint64_t n) {
    if (prof_) prof_->build_rows.fetch_add(n, std::memory_order_relaxed);
  }
  /// Evaluates `pred` against `t`, timing the evaluation when profiling.
  bool ProfEval(const Predicate& pred, const Tuple& t) {
    if (prof_ == nullptr) return pred.Eval(t);
    const uint64_t t0 = ProfileNowNs();
    const bool pass = pred.Eval(t);
    prof_->eval_ns.fetch_add(ProfileNowNs() - t0, std::memory_order_relaxed);
    prof_->evals.fetch_add(1, std::memory_order_relaxed);
    return pass;
  }

  OperatorStats* prof_ = nullptr;
};

/// Sequential scan over a heap file. Without `pages` it reads every page
/// in order; with it, it reads the pages the partition hands `slot`, which
/// the master may re-cut mid-scan (§2.4 page partitioning).
class SeqScanOp : public Operator {
 public:
  SeqScanOp(Table* table, Predicate predicate, ExecContext ctx,
            AdjustablePageScan* pages = nullptr, int slot = 0);

  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  /// Releases the pooled page pin (idempotent); blocking consumers call
  /// this on their own error paths so a cancelled drain leaves no pins.
  Status Close() override;
  const Schema& schema() const override { return table_->schema(); }

  /// Pages this scan actually read (after Open).
  uint64_t pages_read() const { return pages_read_; }

 private:
  // The next page to read, or nothing when this scan's share is done.
  std::optional<uint32_t> TakePage();
  Status LoadPage(uint32_t page_index);

  Table* const table_;
  const Predicate predicate_;
  const ExecContext ctx_;
  AdjustablePageScan* const pages_;
  const int slot_;

  uint32_t next_page_ = 0;
  uint16_t next_slot_ = 0;
  bool page_loaded_ = false;
  Page direct_page_;          // used when no buffer pool
  PageHandle pooled_page_;    // used with a buffer pool
  const Page* current_ = nullptr;
  uint64_t pages_read_ = 0;
};

/// Unclustered index scan: walks index entries with key in `range`, fetches
/// each qualifying tuple by TupleId (one random page read per tuple — the
/// §3 "most IO-bound" access pattern), applies the residual predicate.
/// With `ranges` it walks instead the key chunks that range partition hands
/// `slot` (§2.4 range partitioning); `range` is then the partition's.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(Table* table, Predicate predicate, KeyRange range,
              ExecContext ctx, AdjustableRangeScan* ranges = nullptr,
              int slot = 0);

  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return table_->schema(); }

  uint64_t tuples_fetched() const { return tuples_fetched_; }

 private:
  Table* const table_;
  const Predicate predicate_;
  const KeyRange range_;
  const ExecContext ctx_;
  AdjustableRangeScan* const ranges_;
  const int slot_;
  std::optional<BTreeIndex::Iterator> it_;
  Page direct_page_;  // used when no buffer pool
  uint64_t tuples_fetched_ = 0;
};

/// Filter.
class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, Predicate predicate);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<Operator> child_;
  const Predicate predicate_;
};

/// Nested-loop equality join; re-opens the inner input per outer tuple.
class NestLoopJoinOp : public Operator {
 public:
  NestLoopJoinOp(std::unique_ptr<Operator> outer,
                 std::unique_ptr<Operator> inner, size_t left_key,
                 size_t right_key);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  const size_t left_key_, right_key_;
  Schema schema_;
  Tuple outer_tuple_;
  bool have_outer_ = false;
  bool inner_open_ = false;
};

/// A hash join's build side: the join keys and the positions of their rows
/// in flat arrays grouped by hash bucket (a key/value column layout), over
/// rows the table does not hold. Read-only once built, so any number of
/// probers can share one. Every hash join builds one: the tuple join (each
/// spilled partition too), the batch join and a materialized fragment input.
class JoinHashTable {
 public:
  /// Indexes the entries (keys[i], rows[i]) in order, replacing any
  /// previous contents.
  void Build(const std::vector<int32_t>& keys,
             const std::vector<uint32_t>& rows);
  /// Indexes the rows of `rows` whose column `key` is not NULL, in row
  /// order.
  void Build(const std::vector<Tuple>& rows, size_t key);
  void Clear();

  /// Indexed rows.
  size_t size() const { return keys_.size(); }

  /// The entries [first, second) of `key`'s bucket: entry e matches when
  /// key(e) == key.
  std::pair<uint32_t, uint32_t> Bucket(int32_t key) const;
  int32_t key(uint32_t entry) const { return keys_[entry]; }
  /// Position of the entry's row in the indexed rows.
  uint32_t row(uint32_t entry) const { return rows_[entry]; }

 private:
  uint32_t BucketOf(int32_t key) const;

  int bits_ = 0;                        // log2 of the bucket count
  std::vector<uint32_t> bucket_start_;  // bucket b: [start[b], start[b+1])
  std::vector<int32_t> keys_;
  std::vector<uint32_t> rows_;
};

/// A materialized intermediate result living in shared memory.
struct TempResult {
  Schema schema;
  std::vector<Tuple> tuples;

  /// `tuples` indexed on column `key` for the hash join that builds on
  /// this result. The first call builds the index and sets *inserted to
  /// the rows it indexed; every later call, from any thread, waits for
  /// that build and gets the same table with *inserted = 0. So the slaves
  /// of the consuming fragment, its retries and its serial fallback all
  /// probe one table, built once.
  const JoinHashTable& JoinIndex(size_t key, size_t* inserted) const;

 private:
  struct Index {
    std::once_flag built;
    JoinHashTable table;
  };
  std::unique_ptr<Index> index_ = std::make_unique<Index>();
};

/// Source over a materialized intermediate (fragment input). Without
/// `batches` it emits every row; with it, it emits the kBatchTuples-row
/// batches the partition hands `slot`, as if they were pages.
class TempSourceOp : public Operator {
 public:
  static constexpr size_t kBatchTuples = 64;

  /// Number of batches a TempResult of `num_tuples` rows spans.
  static uint32_t NumBatches(size_t num_tuples);

  explicit TempSourceOp(const TempResult* temp,
                        AdjustablePageScan* batches = nullptr, int slot = 0);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  const Schema& schema() const override { return temp_->schema; }

 private:
  const TempResult* const temp_;
  AdjustablePageScan* const batches_;
  const int slot_;
  size_t pos_ = 0;
  size_t end_ = 0;  // end of the current batch (of all rows, unpartitioned)
};

/// Hash join: a blocking build of the inner (right) input into a
/// JoinHashTable, then a pipelined probe by the outer side. The serial form
/// drains the inner operator on Open and owns the rows. Given a temp array
/// it is also the grace hash join of the §5 memory extension: once the
/// build rows it holds (NULL keys join nothing and are dropped first)
/// would outgrow spill.memory_tuples, it hash-partitions those rows, the
/// rest of the build input and the whole probe input into kSpillPartitions
/// temporary heap files per side, then joins each partition in build chunks
/// of at most spill.memory_tuples rows: it indexes a chunk with the same
/// table, replays the partition's probe file against it in pieces of at
/// most spill.memory_tuples rows with the same probe loop, and repeats
/// until the partition's build rows are used up. So the budget bounds the
/// build rows and the probe rows held whatever the key skew (a partition
/// of one key cannot be split by hashing). The fragment form probes a
/// materialized fragment input through the index that input shares with
/// every other prober (TempResult::JoinIndex); it never spills, as those
/// rows already sit in shared memory.
class HashJoinOp : public Operator {
 public:
  /// Temporary files per side of a spilled join.
  static constexpr int kSpillPartitions = 8;

  HashJoinOp(std::unique_ptr<Operator> outer, std::unique_ptr<Operator> inner,
             size_t left_key, size_t right_key,
             const SpillConfig& spill = SpillConfig());
  HashJoinOp(std::unique_ptr<Operator> outer, const TempResult* build,
             size_t left_key, size_t right_key);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

  /// True when the last Open spilled (the build side outgrew the budget).
  bool spilled() const { return spilled_; }

  /// Partition files currently held open (0 after Close or a failed Open).
  size_t open_partitions() const {
    return build_parts_.size() + probe_parts_.size();
  }

  /// Most build rows the join held in memory at once since the last Open
  /// (0 for the fragment form, which borrows its rows). A join that may
  /// spill holds at most spill.memory_tuples.
  size_t peak_held_rows() const { return peak_held_rows_; }

  /// Most spilled probe rows the join held in memory at once since the
  /// last Open (0 unless it spilled); at most spill.memory_tuples.
  size_t peak_held_probe_rows() const { return peak_held_probe_rows_; }

 private:
  using Partitions = std::vector<std::unique_ptr<HeapFile>>;
  // A read position in a partition file, with the page it is in.
  struct FileCursor {
    uint32_t page = 0;
    uint16_t slot = 0;
    Page buffer;  // page `page`, once slot > 0
  };

  Status OpenImpl();
  void IndexOwnedRows();
  Status Spill(const Tuple& pending);
  Status Partition(const std::vector<Tuple>& held, const Tuple* pending,
                   Operator* input, size_t key, Partitions* parts);
  Status ReadRows(const HeapFile& file, size_t limit, FileCursor* at,
                  std::vector<Tuple>* rows);
  StatusOr<bool> NextPiece();

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;  // serial form only
  const TempResult* const build_;    // fragment form only
  const size_t left_key_, right_key_;
  const SpillConfig spill_;
  Schema schema_;
  std::vector<Tuple> owned_rows_;    // serial form: the build rows
  JoinHashTable owned_table_;        // serial form: their index
  const std::vector<Tuple>* rows_ = nullptr;
  const JoinHashTable* table_ = nullptr;
  Operator* probe_;  // outer_, or the spilled partition's probe rows
  Tuple outer_tuple_;
  int32_t probe_key_ = 0;
  uint32_t entry_ = 0, entry_end_ = 0;  // unvisited part of the bucket

  size_t peak_held_rows_ = 0;
  size_t peak_held_probe_rows_ = 0;

  // Spilled: owned_rows_ and owned_table_ hold a chunk of partition
  // partition_'s build rows, read up to build_cursor_, and
  // partition_probe_ a piece of its probe rows, read up to probe_cursor_.
  bool spilled_ = false;
  Partitions build_parts_;
  Partitions probe_parts_;
  int partition_ = 0;
  FileCursor build_cursor_;
  FileCursor probe_cursor_;
  TempResult partition_probe_;
  TempSourceOp partition_source_{&partition_probe_};
};

/// Merge join over two inputs sorted on their keys; buffers one inner key
/// group to handle duplicate outer keys.
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(std::unique_ptr<Operator> outer, std::unique_ptr<Operator> inner,
              size_t left_key, size_t right_key);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  Status OpenImpl();
  Status AdvanceOuter();
  Status LoadInnerGroup(int32_t key);

  std::unique_ptr<Operator> outer_;
  std::unique_ptr<Operator> inner_;
  const size_t left_key_, right_key_;
  Schema schema_;

  Tuple outer_tuple_;
  bool outer_eof_ = false;
  bool have_outer_ = false;

  Tuple inner_pending_;      // next inner tuple past the buffered group
  bool have_inner_pending_ = false;
  bool inner_eof_ = false;

  std::vector<Tuple> group_;  // buffered inner tuples with group_key_
  bool have_group_ = false;
  int32_t group_key_ = 0;
  size_t group_pos_ = 0;
};

/// An aggregate's accumulator, fed by AggregateOp and BatchAggregateOp:
/// a running count, sum, min and max per group (or for the one global
/// group). The operators skip NULL inputs and check types themselves.
class Aggregation {
 public:
  Aggregation(AggFunc func, bool grouped) : func_(func), grouped_(grouped) {}

  /// Folds `value` into group `key` (ignored when not grouped).
  void Add(int32_t key, int32_t value) {
    Acc& acc = grouped_ ? groups_[key] : global_;
    ++acc.count;
    acc.sum += value;
    if (!acc.any || value < acc.min) acc.min = value;
    if (!acc.any || value > acc.max) acc.max = value;
    acc.any = true;
  }

  /// (group key, aggregate value) per group in key order. Not grouped: one
  /// pair with key 0, or none when no value was added and the function is
  /// not count.
  std::vector<std::pair<int32_t, int32_t>> Results() const;

 private:
  struct Acc {
    int64_t count = 0;
    int64_t sum = 0;
    int32_t min = 0;
    int32_t max = 0;
    bool any = false;
  };
  int32_t Final(const Acc& acc) const;

  const AggFunc func_;
  const bool grouped_;
  std::unordered_map<int32_t, Acc> groups_;
  Acc global_;
};

/// Hash aggregation: drains its input on Open (a blocking edge), emits
/// one row per group — [group key,] aggregate value. NULL inputs are
/// skipped (SQL semantics); count counts non-null values of the column.
class AggregateOp : public Operator {
 public:
  AggregateOp(std::unique_ptr<Operator> child, Schema output_schema,
              AggFunc func, size_t agg_col, int group_col);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  Status OpenImpl();

  std::unique_ptr<Operator> child_;
  const Schema schema_;
  const AggFunc func_;
  const size_t agg_col_;
  const int group_col_;
  std::vector<Tuple> results_;
  size_t pos_ = 0;
};

/// Cancellation decorator inserted by the plan builders when ctx.cancel is
/// set. Open() checks the token before any work (a 0 ms deadline fails at
/// the root without touching storage); Next() tests the cancelled flag on
/// every call and the armed deadline every kDeadlineStride calls, keeping
/// clock reads off the per-tuple path. Because blocking operators (sort,
/// hash build, aggregate) drain their children inside Open(), a guard on
/// the child bounds how long the drain can outlive a cancellation.
class CancelGuardOp : public Operator {
 public:
  CancelGuardOp(std::unique_ptr<Operator> child, CancellationToken* token);
  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  static constexpr uint32_t kDeadlineStride = 64;

  std::unique_ptr<Operator> child_;
  CancellationToken* const token_;
  uint32_t calls_ = 0;
};

/// Wraps `op` in a CancelGuardOp when `token` is non-null.
std::unique_ptr<Operator> MaybeCancelGuard(std::unique_ptr<Operator> op,
                                           CancellationToken* token);

/// Reads page `page` of `table`: through ctx.pool with backpressure, into
/// *pin, or without a pool straight from the disk array into *direct.
/// Returns the page read, valid while *pin (or *direct) is.
StatusOr<const Page*> ReadTablePage(const ExecContext& ctx,
                                    const Table& table, uint32_t page,
                                    PageHandle* pin, Page* direct);

/// A fresh name for a temporary (spill) heap file: `prefix` plus a
/// process-wide sequence number.
std::string NextTempName(const char* prefix);

/// Fetches `block` through ctx.pool (which must be set), absorbing
/// transient backpressure: ResourceExhausted — the pool's admission
/// control under memory-pages pressure — is retried per ctx.fetch_retry
/// with exponential backoff, polling ctx.cancel between attempts, and
/// emits resilience.backpressure.* events through ctx.obs. Every other
/// error, and exhaustion of the retry budget, surfaces unchanged.
StatusOr<PageHandle> FetchWithBackpressure(const ExecContext& ctx,
                                           BlockId block);

/// Drains an operator into a vector (Open/Next/Close).
StatusOr<std::vector<Tuple>> Drain(Operator* op);

}  // namespace xprs

#endif  // XPRS_EXEC_OPERATORS_H_
