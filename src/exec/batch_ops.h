// Batch-at-a-time (vectorized) operators and their plan builder.
//
// The BatchOperator protocol mirrors Volcano's Open/Next/Close with
// NextBatch(ColumnBatch*, bool* eof) in the middle: a returned batch has
// at least one active row (operators skip all-filtered batches
// internally), and *eof marks exhaustion. Compared to the tuple path this
// moves three per-tuple costs to per-batch granularity: profiler stats
// updates (one fetch_add per batch), cancellation/deadline polls (one
// token check per batch or page), and predicate evaluation (one
// column-wise pass per batch via Predicate::FilterBatch).
//
// Vectorizable plan shapes are SeqScan (+ its predicate as a BatchFilterOp
// over the decoded columns), HashJoin when nothing may spill, and
// Aggregate. Everything else — Sort, MergeJoin, NestLoopJoin, IndexScan,
// and hash joins that may spill — stays tuple-at-a-time. The one fragment
// builder (exec/fragment.h) compiles each maximal batch-capable subtree and
// bridges it into tuple consumers (fragments, the parallel master, Drain)
// through a VectorizedAdapterOp. A parallel slave's driving sequential scan
// is a BatchSeqScanOp on its slot of the shared page partition, and a batch
// hash join over a materialized build input probes that input's one shared
// index. BatchFromTupleOp bridges in the one source with no batch form that
// a batch subtree reads: a materialized input's rows (a slave may read its
// slot of them).

#ifndef XPRS_EXEC_BATCH_OPS_H_
#define XPRS_EXEC_BATCH_OPS_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/batch.h"
#include "exec/operators.h"

namespace xprs {

/// Base batch iterator.
class BatchOperator {
 public:
  virtual ~BatchOperator() = default;

  /// Prepares for iteration. May perform blocking work (hash build,
  /// aggregation). Implementations release every resource they acquired —
  /// including their children's — before returning a non-OK status, so a
  /// failed Open never needs a matching Close.
  virtual Status Open() = 0;

  /// Produces the next batch into *out (>= 1 active row) or sets *eof.
  virtual Status NextBatch(ColumnBatch* out, bool* eof) = 0;

  /// Releases resources; the operator may be re-Opened afterwards.
  virtual Status Close() { return Status::OK(); }

  /// Output schema.
  virtual const Schema& schema() const = 0;

  /// Binds the operator to its plan node's shared stats. Null detaches.
  void set_profile_stats(OperatorStats* stats) { prof_ = stats; }
  OperatorStats* profile_stats() const { return prof_; }

  /// Late materialization: the consumer reads only the columns where
  /// `needed[c] != 0` (one byte per output column). Operators that honor
  /// this stop decoding/copying the other columns — which stay NULL in
  /// emitted batches — and propagate their own column demands (join keys,
  /// filter predicates) to their children. Must be called before Open;
  /// the default ignores the hint. Never called on a pipeline root: the
  /// adapter materializes every column.
  virtual void PruneOutputColumns(const std::vector<uint8_t>& /*needed*/) {}

 protected:
  // Hot-path hooks: one pointer test when profiling is off, and at most
  // one update per batch when it is on.
  void ProfOpen() {
    if (prof_) prof_->opens.fetch_add(1, std::memory_order_relaxed);
  }
  void ProfRowsOut(uint64_t n) {
    if (prof_) prof_->tuples_out.fetch_add(n, std::memory_order_relaxed);
  }
  void ProfPagesRead(uint64_t n) {
    if (prof_) prof_->pages_read.fetch_add(n, std::memory_order_relaxed);
  }
  void ProfBuildRows(uint64_t n) {
    if (prof_) prof_->build_rows.fetch_add(n, std::memory_order_relaxed);
  }
  void ProfEvalBatch(uint64_t evals, uint64_t ns) {
    if (prof_) {
      prof_->evals.fetch_add(evals, std::memory_order_relaxed);
      prof_->eval_ns.fetch_add(ns, std::memory_order_relaxed);
    }
  }

  OperatorStats* prof_ = nullptr;
};

/// Batched sequential scan over a heap file: decodes whole pages straight
/// into columns (no per-tuple Tuple/Value materialization) until the batch
/// reaches ctx.batch_rows, and polls ctx.cancel once per page. Without
/// `pages` it reads every page in order; with it, it reads the pages the
/// partition hands `slot`, one at a time, as SeqScanOp does (§2.4). A page
/// is pinned only while it is decoded: never across NextPage, so an
/// adjustment's rendezvous never waits on a pin, and never across NextBatch
/// calls.
class BatchSeqScanOp : public BatchOperator {
 public:
  BatchSeqScanOp(Table* table, ExecContext ctx,
                 AdjustablePageScan* pages = nullptr, int slot = 0);

  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eof) override;
  const Schema& schema() const override { return table_->schema(); }

  /// When a BatchFilterOp above this scan owns the plan node's stats
  /// (opens / tuples_out), the scan contributes only pages_read.
  void set_owns_node_stats(bool owns) { owns_node_stats_ = owns; }

  /// Masked-out columns are parsed past but not decoded (no int store,
  /// no string copy).
  void PruneOutputColumns(const std::vector<uint8_t>& needed) override {
    decode_mask_ = needed;
  }

  uint64_t pages_read() const { return pages_read_; }

 private:
  // The next page to read, or nothing once this scan's share is done.
  // After the partition says a slot is done it is never asked again: an
  // adjustment may hand the slot to a new slave.
  std::optional<uint32_t> TakePage();

  Table* const table_;
  const ExecContext ctx_;
  AdjustablePageScan* const pages_;
  const int slot_;

  uint32_t next_page_ = 0;
  bool exhausted_ = false;
  uint64_t pages_read_ = 0;
  Page direct_page_;  // used when no buffer pool
  bool owns_node_stats_ = true;
  std::vector<uint8_t> decode_mask_;  ///< empty = decode everything
};

/// Batched filter: refines the child batch's selection vector in place
/// (no materialization), skipping all-filtered batches internally.
class BatchFilterOp : public BatchOperator {
 public:
  BatchFilterOp(std::unique_ptr<BatchOperator> child, Predicate predicate);

  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eof) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

  /// Forwards the consumer's demand plus the predicate's own columns.
  void PruneOutputColumns(const std::vector<uint8_t>& needed) override;

 private:
  std::unique_ptr<BatchOperator> child_;
  const Predicate predicate_;
};

/// Batched hash join: drains the inner (build) input batch-at-a-time into
/// a column store indexed by a JoinHashTable on Open, then streams probe
/// batches from the outer input, emitting concatenated match rows. The
/// fragment form probes a materialized build input through the index it
/// shares with every other prober (TempResult::JoinIndex) and emits its
/// rows straight from the shared tuples. NULL keys never match. Both join
/// key columns must be int4.
class BatchHashJoinOp : public BatchOperator {
 public:
  BatchHashJoinOp(std::unique_ptr<BatchOperator> outer,
                  std::unique_ptr<BatchOperator> inner, size_t left_key,
                  size_t right_key, ExecContext ctx);
  BatchHashJoinOp(std::unique_ptr<BatchOperator> outer,
                  const TempResult* build, size_t left_key, size_t right_key,
                  ExecContext ctx);

  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

  /// Emits only the needed columns of each match row; children are asked
  /// for the needed slice plus their join key.
  void PruneOutputColumns(const std::vector<uint8_t>& needed) override;

 private:
  Status OpenImpl();

  std::unique_ptr<BatchOperator> outer_;
  std::unique_ptr<BatchOperator> inner_;  ///< inline build only
  const TempResult* const shared_build_;  ///< fragment form only
  const size_t left_key_, right_key_;
  const ExecContext ctx_;
  Schema schema_;

  ColumnBatch build_;          ///< inline build: the build side's columns
  JoinHashTable owned_table_;  ///< inline build: its rows by key
  const JoinHashTable* table_ = nullptr;  ///< owned_table_ or shared index
  ColumnBatch scratch_;  ///< build-drain scratch batch
  ColumnBatch probe_;
  uint32_t probe_pos_ = 0;
  bool have_probe_ = false;
  bool outer_done_ = false;
  std::vector<uint8_t> emit_mask_;  ///< empty = emit every column
};

/// Batched hash aggregation: drains its child on Open (one Aggregation
/// update per active row, read directly from the columns), emits one row
/// per group in key order. Mirrors AggregateOp's NULL semantics exactly.
class BatchAggregateOp : public BatchOperator {
 public:
  BatchAggregateOp(std::unique_ptr<BatchOperator> child, Schema output_schema,
                   AggFunc func, size_t agg_col, int group_col,
                   ExecContext ctx);

  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return schema_; }

 private:
  Status OpenImpl();

  std::unique_ptr<BatchOperator> child_;
  const Schema schema_;
  const AggFunc func_;
  const size_t agg_col_;
  const int group_col_;
  const ExecContext ctx_;

  ColumnBatch scratch_;
  ColumnBatch results_;
  uint32_t pos_ = 0;
};

/// Bridges a tuple operator into a batch subtree (a materialized fragment
/// input): pulls up to `batch_rows` tuples per NextBatch. Once the child
/// reports end of input it is not asked again: a source reading a slave's
/// slot would ask the shared partition again, and an adjustment may have
/// handed that slot to a new slave. Not profiled — a temp source re-emits
/// rows its producing fragment counted.
class BatchFromTupleOp : public BatchOperator {
 public:
  BatchFromTupleOp(std::unique_ptr<Operator> child, size_t batch_rows);

  Status Open() override;
  Status NextBatch(ColumnBatch* out, bool* eof) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<Operator> child_;
  const size_t batch_rows_;
  bool child_done_ = false;
};

/// Bridges a batch subtree into the tuple protocol: Next() walks the
/// current batch's active rows, pulling (and polling `cancel` on) one
/// batch at a time. Deliberately not wrapped in ProfiledOp or
/// CancelGuardOp by the builders — the batch operators own their node's
/// stats and the adapter polls per batch, not per 64 tuples.
class VectorizedAdapterOp : public Operator {
 public:
  VectorizedAdapterOp(std::unique_ptr<BatchOperator> child,
                      CancellationToken* cancel);

  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override { return child_->Close(); }
  const Schema& schema() const override { return child_->schema(); }

 private:
  std::unique_ptr<BatchOperator> child_;
  CancellationToken* const cancel_;
  ColumnBatch batch_;
  uint32_t pos_ = 0;
  bool have_batch_ = false;
  bool done_ = false;
};

}  // namespace xprs

#endif  // XPRS_EXEC_BATCH_OPS_H_
