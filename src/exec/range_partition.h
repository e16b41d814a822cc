// Dynamically adjustable range-partitioned index scan (paper §2.4,
// Figure 6).
//
// Range partitioning assigns each slave an interval of key values, chosen
// balanced using the key-distribution information in the index. To adjust
// from n to n' slaves:
//
//   1. master signals all participating slaves;
//   2. each slave reports the intervals of values that remain for it to
//      scan ([c, h] if it is examining value c of an assigned [l, h]);
//   3. master repartitions the reported intervals into n' balanced sets
//      (a slave may receive several intervals) and publishes them;
//   4. slaves proceed on their new interval sets; removed slaves report
//      back as available, added slaves start on their assigned intervals.
//
// Slaves consume their intervals in small key chunks so that the
// "remaining interval" report is exact at every rendezvous. The class
// guarantees every index entry in the scanned domain is handed out exactly
// once across any sequence of adjustments.

#ifndef XPRS_EXEC_RANGE_PARTITION_H_
#define XPRS_EXEC_RANGE_PARTITION_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/btree.h"

namespace xprs {

/// Result of a range adjustment.
struct RangeAdjustResult {
  std::vector<int> slots_to_start;
};

/// Shared state of one adjustable range-partitioned scan.
class AdjustableRangeScan {
 public:
  /// Scans index entries with keys in `domain`, starting with
  /// `initial_parallelism` slaves; `chunk_entries` is the work granule (a
  /// slave takes about this many entries per chunk). A slot the balanced
  /// split gives no entries starts inactive (one key cannot be split, so
  /// an equality lookup's entries all go to slot 0).
  AdjustableRangeScan(const BTreeIndex* index, KeyRange domain,
                      int initial_parallelism, int max_slots,
                      size_t chunk_entries = 256);

  /// Slave side: takes the next key sub-interval this slot must scan.
  /// Blocks during an adjustment rendezvous; returns nothing when the slot
  /// is out of work.
  std::optional<KeyRange> NextChunk(int slot);

  /// Master side: repartitions the remaining intervals across
  /// `new_parallelism` slaves (Figure 6). Returns slots to start.
  RangeAdjustResult Adjust(int new_parallelism);

  /// Slave side: marks the slot inactive (slave aborting on error).
  void Retire(int slot);

  /// True while `slot` has (or needs) a running slave: it has intervals
  /// left.
  bool active(int slot) const;

  bool Done() const;
  int parallelism() const;
  int num_adjustments() const;

  std::string ToString() const;

 private:
  struct Slot {
    bool active = false;
    bool parked = false;
    std::deque<KeyRange> intervals;
  };

  // Splits roughly `chunk_entries_` off the front of *interval; returns
  // the chunk and shrinks *interval (or consumes it fully, setting *empty).
  KeyRange TakeChunkLocked(KeyRange* interval, bool* consumed) const;

  const BTreeIndex* const index_;
  const size_t chunk_entries_;
  const int max_slots_;

  mutable std::mutex mutex_;
  std::condition_variable slave_cv_;
  std::condition_variable master_cv_;
  std::vector<Slot> slots_;
  int parallelism_;
  bool adjusting_ = false;
  int num_adjustments_ = 0;
};

}  // namespace xprs

#endif  // XPRS_EXEC_RANGE_PARTITION_H_
