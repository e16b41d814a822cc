// External merge sort, the spilling sort.
//
// The §5 memory extension prices spills into the cost model; this
// operator and the hash join (HashJoinOp, exec/operators.h, which spills as
// a grace hash join) make that runtime behaviour real. Both bound their
// working memory to a tuple budget and overflow to temporary heap files on
// the (timed) disk array, so a spilling plan actually pays the extra io
// the optimizer charged it for.

#ifndef XPRS_EXEC_SPILL_OPS_H_
#define XPRS_EXEC_SPILL_OPS_H_

#include <memory>
#include <vector>

#include "exec/operators.h"
#include "storage/heap_file.h"

namespace xprs {

/// External merge sort: builds sorted runs of at most
/// `config.memory_tuples` tuples, spills each run to a temporary heap
/// file, then streams a k-way merge of the runs. With no temp array (or
/// when the input fits) it is an in-memory stable sort; the plan builder
/// uses it for every Sort node.
class ExternalSortOp : public Operator {
 public:
  ExternalSortOp(std::unique_ptr<Operator> child, size_t sort_key,
                 const SpillConfig& config);

  Status Open() override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  const Schema& schema() const override { return child_->schema(); }

  /// Number of runs spilled to disk during the last Open (0 = stayed in
  /// memory). Survives Close().
  size_t runs_spilled() const { return runs_spilled_; }

  /// Temp run files currently held open (0 after Close or a failed Open —
  /// a cancelled mid-spill sort must not leak its runs).
  size_t open_runs() const { return runs_.size(); }

 private:
  Status OpenImpl();

  struct RunCursor {
    std::unique_ptr<HeapFile> file;
    uint32_t page = 0;
    uint16_t slot = 0;
    Page buffer;
    bool loaded = false;
    bool done = false;
    Tuple current;
    bool has_current = false;
  };

  Status SpillRun(std::vector<Tuple>* run);
  Status AdvanceCursor(RunCursor* cursor);

  std::unique_ptr<Operator> child_;
  const size_t sort_key_;
  const SpillConfig config_;

  // In-memory path.
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
  bool in_memory_ = true;

  // Spilled path.
  std::vector<std::unique_ptr<RunCursor>> runs_;
  size_t runs_spilled_ = 0;
};

}  // namespace xprs

#endif  // XPRS_EXEC_SPILL_OPS_H_
