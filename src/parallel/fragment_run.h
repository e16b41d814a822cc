// ParallelFragmentRun: executes one plan fragment with a crew of slave
// backends (threads) whose degree of parallelism can be adjusted while the
// fragment runs — the run-time half of the XPRS parallel executor.
//
// The driving source of the fragment's pipeline determines the partition
// mechanism (§2.4):
//   - sequential scan          -> page partitioning  (AdjustablePageScan)
//   - unclustered index scan   -> range partitioning (AdjustableRangeScan)
//   - materialized input       -> page partitioning over tuple batches
//
// Every slave builds its own copy of the pipeline with the ordinary plan
// builder (BuildFragmentOperators), its driving leaf bound to the slave's
// slot of the shared partition; every other operator is the serial one.
// The copies share the partition state, the buffer pool, the disk array
// and the hash tables of the fragment's hash joins (shared memory): each
// build input is indexed once, by the first slave to open its join, and
// every slave probes that one table read-only (TempResult::JoinIndex).
// Worker outputs are concatenated; fragments rooted at a Sort re-sort the
// concatenation so the fragment's contract (sorted output) holds.

#ifndef XPRS_PARALLEL_FRAGMENT_RUN_H_
#define XPRS_PARALLEL_FRAGMENT_RUN_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/fragment.h"
#include "exec/page_partition.h"
#include "exec/range_partition.h"

namespace xprs {

/// One in-flight parallel fragment execution.
class ParallelFragmentRun {
 public:
  struct Options {
    int initial_parallelism = 1;
    /// Largest parallelism an adjustment may set (the master passes its
    /// grant).
    int max_slots = 16;
    ExecContext ctx;
  };

  ParallelFragmentRun(const FragmentGraph* graph, int frag_id,
                      std::map<int, const TempResult*> inputs,
                      const Options& options);
  ~ParallelFragmentRun();

  ParallelFragmentRun(const ParallelFragmentRun&) = delete;
  ParallelFragmentRun& operator=(const ParallelFragmentRun&) = delete;

  /// Spawns a slave for each initial slot that has work. Call once.
  Status Start();

  /// Master side: dynamically adjusts the degree of parallelism (§2.4).
  /// Ignored after the fragment finished.
  void Adjust(int new_parallelism);

  /// Called (from a slave thread) when the last slave finishes. Set before
  /// Start().
  void set_on_finish(std::function<void()> cb) { on_finish_ = std::move(cb); }

  /// Blocks until all slaves are done, then returns the merged result.
  StatusOr<TempResult> Wait();

  /// Fraction of driving granules handed out, in [0, 1].
  double Progress() const;

  /// True once every slave has finished.
  bool finished() const;

  /// Current degree of parallelism.
  int parallelism() const;

  int num_adjustments() const;

 private:
  void SlaveMain(int slot);
  void SpawnLocked(int slot);

  const FragmentGraph* const graph_;
  const int frag_id_;
  const std::map<int, const TempResult*> inputs_;
  const Options options_;

  // Exactly one of these is used, per the driving leaf kind.
  std::unique_ptr<AdjustablePageScan> page_scan_;
  std::unique_ptr<AdjustableRangeScan> range_scan_;
  bool driving_is_temp_ = false;
  uint32_t total_granules_ = 0;

  // Wall-clock bounds (ProfileNowNs) for the profile's FragmentStats:
  // Start() to last-slave-finished.
  uint64_t start_ns_ = 0;
  uint64_t finish_ns_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  std::vector<Tuple> output_;
  Status first_error_;
  int running_slaves_ = 0;
  int current_parallelism_ = 0;
  bool started_ = false;
  bool finished_ = false;
  std::function<void()> on_finish_;
};

}  // namespace xprs

#endif  // XPRS_PARALLEL_FRAGMENT_RUN_H_
