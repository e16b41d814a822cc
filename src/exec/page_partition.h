// Dynamically adjustable page-partitioned scan (paper §2.4, Figure 5).
//
// Page partitioning assigns slave i of n the disk pages {p | p mod n == i}.
// To adjust a running scan from parallelism n to n', the master and slaves
// run the Figure 5 protocol over shared memory:
//
//   1. master signals all participating slaves;
//   2. each slave reports curpage, the page it is currently scanning, and
//      pauses at its next page boundary;
//   3. master computes maxpage = max_i curpage_i and publishes
//      (maxpage, n');
//   4. every slave finishes its *old-stride* pages up to maxpage, then
//      switches to the new stride n' for pages beyond maxpage; slaves with
//      slot >= n' drain their owed pages and report back as available;
//      newly added slaves start after maxpage with the new stride.
//
// The signal/reply exchange is realized with a mutex + condition variables
// — exactly the low-latency shared-memory communication the paper's
// mechanism depends on. The class guarantees every page in [0, num_pages)
// is handed out exactly once across any sequence of adjustments.

#ifndef XPRS_EXEC_PAGE_PARTITION_H_
#define XPRS_EXEC_PAGE_PARTITION_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/status.h"

namespace xprs {

/// Result of an adjustment: which slave slots must be (re)started by the
/// caller (they have no running thread).
struct PageAdjustResult {
  std::vector<int> slots_to_start;
  uint32_t maxpage = 0;  ///< rendezvous boundary that was used
};

/// Shared scan state mediating between one master and its slaves.
class AdjustablePageScan {
 public:
  /// A scan over pages [0, num_pages) starting at `initial_parallelism`.
  /// `max_slots` bounds the largest parallelism ever adjustable to.
  AdjustablePageScan(uint32_t num_pages, int initial_parallelism,
                     int max_slots);

  /// Slave side: takes the next page this slot must scan. Blocks while an
  /// adjustment rendezvous is in progress. Returns nothing when the slot
  /// has no more work (the slave thread should exit).
  std::optional<uint32_t> NextPage(int slot);

  /// Master side: adjusts the degree of parallelism. Blocks until every
  /// active slave has reached its page boundary (the rendezvous), then
  /// republishes assignments. Returns the slots the caller must start.
  PageAdjustResult Adjust(int new_parallelism);

  /// Slave side: marks the slot inactive without draining it (used when a
  /// slave aborts on error, so a pending rendezvous cannot wait on it).
  void Retire(int slot);

  /// True when every page has been handed out and all slots drained.
  bool Done() const;

  /// Pages handed out so far.
  uint32_t pages_taken() const;

  /// Current degree of parallelism.
  int parallelism() const;

  /// Number of adjustments performed.
  int num_adjustments() const;

  std::string ToString() const;

 private:
  struct Slot {
    bool active = false;        // has (or needs) a running slave thread
    bool parked = false;        // waiting at the rendezvous barrier
    std::deque<uint32_t> owed;  // old-stride pages <= boundary, still owed
    uint32_t cursor = 0;        // next new-stride page (> boundary)
    int64_t last_taken = -1;    // highest page taken (for maxpage)
  };

  // First page >= from with page % stride == slot.
  static uint32_t AlignUp(uint32_t from, int stride, int slot);

  const uint32_t num_pages_;
  const int max_slots_;

  mutable std::mutex mutex_;
  std::condition_variable slave_cv_;   // wakes slaves after adjustment
  std::condition_variable master_cv_;  // wakes master as slaves park
  std::vector<Slot> slots_;
  int stride_;
  bool adjusting_ = false;
  uint32_t pages_taken_ = 0;
  int num_adjustments_ = 0;
};

}  // namespace xprs

#endif  // XPRS_EXEC_PAGE_PARTITION_H_
