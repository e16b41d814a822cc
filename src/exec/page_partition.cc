#include "exec/page_partition.h"

#include <algorithm>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

AdjustablePageScan::AdjustablePageScan(uint32_t num_pages,
                                       int initial_parallelism, int max_slots)
    : num_pages_(num_pages), max_slots_(max_slots), stride_(initial_parallelism) {
  XPRS_CHECK_GE(initial_parallelism, 1);
  XPRS_CHECK_GE(max_slots, initial_parallelism);
  slots_.resize(max_slots);
  for (int i = 0; i < initial_parallelism; ++i) {
    slots_[i].cursor = AlignUp(0, stride_, i);
    slots_[i].active = slots_[i].cursor < num_pages_;
  }
}

uint32_t AdjustablePageScan::AlignUp(uint32_t from, int stride, int slot) {
  uint32_t s = static_cast<uint32_t>(stride);
  uint32_t r = static_cast<uint32_t>(slot);
  uint32_t base = from - (from % s);
  uint32_t aligned = base + r;
  if (aligned < from) aligned += s;
  return aligned;
}

std::optional<uint32_t> AdjustablePageScan::NextPage(int slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  XPRS_CHECK_GE(slot, 0);
  XPRS_CHECK_LT(slot, max_slots_);
  Slot& me = slots_[slot];

  for (;;) {
    if (adjusting_) {
      // Rendezvous: report in (curpage is last_taken) and pause until the
      // master republishes the assignment.
      me.parked = true;
      master_cv_.notify_all();
      slave_cv_.wait(lock, [this] { return !adjusting_; });
      me.parked = false;
      continue;  // re-evaluate under the new assignment
    }

    if (!me.active) return std::nullopt;

    if (!me.owed.empty()) {
      uint32_t p = me.owed.front();
      me.owed.pop_front();
      me.last_taken = std::max(me.last_taken, static_cast<int64_t>(p));
      ++pages_taken_;
      return p;
    }

    if (me.cursor < num_pages_) {
      uint32_t p = me.cursor;
      me.cursor += static_cast<uint32_t>(stride_);
      me.last_taken = std::max(me.last_taken, static_cast<int64_t>(p));
      ++pages_taken_;
      return p;
    }

    // Nothing left for this slot.
    me.active = false;
    master_cv_.notify_all();  // an adjuster may be waiting on us
    return std::nullopt;
  }
}

PageAdjustResult AdjustablePageScan::Adjust(int new_parallelism) {
  std::unique_lock<std::mutex> lock(mutex_);
  XPRS_CHECK_GE(new_parallelism, 1);
  XPRS_CHECK_LE(new_parallelism, max_slots_);

  // Signal: stop handing out pages and wait for every active slave to park
  // at its page boundary (or finish).
  adjusting_ = true;
  master_cv_.wait(lock, [this] {
    for (const Slot& s : slots_)
      if (s.active && !s.parked) return false;
    return true;
  });
  ++num_adjustments_;

  // maxpage = max over the pages the slaves reported scanning.
  int64_t maxpage = -1;
  for (const Slot& s : slots_)
    maxpage = std::max(maxpage, s.last_taken);

  // Every slave keeps its *current-assignment* pages up to maxpage: the
  // not-yet-taken stride pages <= maxpage move to its owed queue (existing
  // owed pages are below an older boundary and stay).
  for (Slot& s : slots_) {
    if (!s.active) continue;
    while (s.cursor < num_pages_ &&
           static_cast<int64_t>(s.cursor) <= maxpage) {
      s.owed.push_back(s.cursor);
      s.cursor += static_cast<uint32_t>(stride_);
    }
  }

  // Republish: slots < n' continue (or start) with the new stride beyond
  // maxpage; slots >= n' only drain their owed pages.
  PageAdjustResult result;
  result.maxpage = static_cast<uint32_t>(std::max<int64_t>(maxpage, 0));
  stride_ = new_parallelism;
  uint32_t first_new =
      static_cast<uint32_t>(std::min<int64_t>(maxpage + 1, num_pages_));
  for (int i = 0; i < max_slots_; ++i) {
    Slot& s = slots_[i];
    if (i < new_parallelism) {
      uint32_t cursor = AlignUp(first_new, stride_, i);
      bool was_active = s.active;
      s.cursor = cursor;
      bool has_work = !s.owed.empty() || s.cursor < num_pages_;
      s.active = has_work;
      if (!was_active && has_work) result.slots_to_start.push_back(i);
    } else {
      // Shrunk away: finish owed pages, then retire.
      s.cursor = num_pages_;
      s.active = s.active && !s.owed.empty();
    }
  }

  adjusting_ = false;
  slave_cv_.notify_all();
  return result;
}

void AdjustablePageScan::Retire(int slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[slot].active = false;
  slots_[slot].owed.clear();
  master_cv_.notify_all();
}

bool AdjustablePageScan::active(int slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_[slot].active;
}

bool AdjustablePageScan::Done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.active) return false;
  return true;
}

uint32_t AdjustablePageScan::pages_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_taken_;
}

int AdjustablePageScan::parallelism() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stride_;
}

int AdjustablePageScan::num_adjustments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_adjustments_;
}

std::string AdjustablePageScan::ToString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  for (const Slot& s : slots_) active += s.active;
  return StrFormat(
      "AdjustablePageScan{pages=%u taken=%u stride=%d active=%d adj=%d}",
      num_pages_, pages_taken_, stride_, active, num_adjustments_);
}

}  // namespace xprs
