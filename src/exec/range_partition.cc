#include "exec/range_partition.h"

#include <algorithm>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

namespace {

// Splits `total_intervals` into up to n balanced groups by entry count.
std::vector<std::deque<KeyRange>> Repartition(
    const BTreeIndex* index, std::deque<KeyRange> intervals, int n) {
  std::vector<std::deque<KeyRange>> groups(n);
  size_t total = 0;
  std::deque<std::pair<KeyRange, size_t>> counted;
  for (const KeyRange& r : intervals) {
    size_t c = index->CountRange(r.lo, r.hi);
    if (c == 0) continue;
    counted.push_back({r, c});
    total += c;
  }
  if (total == 0) return groups;
  const size_t target = (total + n - 1) / n;

  int g = 0;
  size_t filled = 0;
  while (!counted.empty()) {
    auto [r, c] = counted.front();
    counted.pop_front();
    if (g >= n - 1 || filled + c <= target) {
      groups[std::min(g, n - 1)].push_back(r);
      filled += c;
      if (filled >= target && g < n - 1) {
        ++g;
        filled = 0;
      }
      continue;
    }
    // Interval overflows this group: split it at the group's remaining
    // quota and push the tail back.
    size_t want = target - filled;
    std::optional<int32_t> split = index->SplitKeyAt(r, want);
    if (!split.has_value()) {
      // Cannot split (duplicates); put it whole in the emptier side.
      groups[g].push_back(r);
      ++g;
      filled = 0;
      continue;
    }
    groups[g].push_back({r.lo, *split});
    ++g;
    filled = 0;
    counted.push_front({{*split + 1, r.hi},
                        c - index->CountRange(r.lo, *split)});
  }
  return groups;
}

}  // namespace

AdjustableRangeScan::AdjustableRangeScan(const BTreeIndex* index,
                                         KeyRange domain,
                                         int initial_parallelism,
                                         int max_slots, size_t chunk_entries)
    : index_(index),
      chunk_entries_(chunk_entries),
      max_slots_(max_slots),
      parallelism_(initial_parallelism) {
  XPRS_CHECK(index != nullptr);
  XPRS_CHECK_GE(initial_parallelism, 1);
  XPRS_CHECK_GE(max_slots, initial_parallelism);
  XPRS_CHECK_GE(chunk_entries, 1u);
  slots_.resize(max_slots);

  // Balanced initial partition from the index's key distribution (§2.4).
  std::deque<KeyRange> whole{domain};
  auto groups = Repartition(index_, std::move(whole), initial_parallelism);
  for (int i = 0; i < initial_parallelism; ++i) {
    slots_[i].intervals = std::move(groups[i]);
    slots_[i].active = true;
  }
}

KeyRange AdjustableRangeScan::TakeChunkLocked(KeyRange* interval,
                                              bool* consumed) const {
  std::optional<int32_t> split = index_->SplitKeyAt(*interval, chunk_entries_);
  if (!split.has_value()) {
    *consumed = true;
    return *interval;
  }
  KeyRange chunk{interval->lo, *split};
  interval->lo = *split + 1;
  *consumed = false;
  return chunk;
}

std::optional<KeyRange> AdjustableRangeScan::NextChunk(int slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  XPRS_CHECK_GE(slot, 0);
  XPRS_CHECK_LT(slot, max_slots_);
  Slot& me = slots_[slot];

  for (;;) {
    if (adjusting_) {
      me.parked = true;
      master_cv_.notify_all();
      slave_cv_.wait(lock, [this] { return !adjusting_; });
      me.parked = false;
      continue;
    }

    if (!me.active) return std::nullopt;

    while (!me.intervals.empty()) {
      KeyRange& front = me.intervals.front();
      bool consumed = false;
      KeyRange chunk = TakeChunkLocked(&front, &consumed);
      if (consumed) me.intervals.pop_front();
      if (index_->CountRange(chunk.lo, chunk.hi) > 0) return chunk;
      // Empty chunk (no entries in that key span): keep going.
    }

    me.active = false;
    master_cv_.notify_all();
    return std::nullopt;
  }
}

RangeAdjustResult AdjustableRangeScan::Adjust(int new_parallelism) {
  std::unique_lock<std::mutex> lock(mutex_);
  XPRS_CHECK_GE(new_parallelism, 1);
  XPRS_CHECK_LE(new_parallelism, max_slots_);

  adjusting_ = true;
  master_cv_.wait(lock, [this] {
    for (const Slot& s : slots_)
      if (s.active && !s.parked) return false;
    return true;
  });
  ++num_adjustments_;

  // Collect every remaining interval (the slaves' "[c, h]" reports).
  std::deque<KeyRange> remaining;
  for (Slot& s : slots_) {
    for (const KeyRange& r : s.intervals) remaining.push_back(r);
    s.intervals.clear();
  }

  auto groups = Repartition(index_, std::move(remaining), new_parallelism);

  RangeAdjustResult result;
  for (int i = 0; i < max_slots_; ++i) {
    Slot& s = slots_[i];
    bool was_active = s.active;
    if (i < new_parallelism) {
      s.intervals = std::move(groups[i]);
      s.active = !s.intervals.empty();
      if (!was_active && s.active) result.slots_to_start.push_back(i);
    } else {
      s.active = false;
    }
  }
  parallelism_ = new_parallelism;

  adjusting_ = false;
  slave_cv_.notify_all();
  return result;
}

void AdjustableRangeScan::Retire(int slot) {
  std::lock_guard<std::mutex> lock(mutex_);
  slots_[slot].active = false;
  slots_[slot].intervals.clear();
  master_cv_.notify_all();
}

bool AdjustableRangeScan::Done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Slot& s : slots_)
    if (s.active) return false;
  return true;
}

int AdjustableRangeScan::parallelism() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return parallelism_;
}

int AdjustableRangeScan::num_adjustments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_adjustments_;
}

std::string AdjustableRangeScan::ToString() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int active = 0;
  size_t intervals = 0;
  for (const Slot& s : slots_) {
    active += s.active;
    intervals += s.intervals.size();
  }
  return StrFormat(
      "AdjustableRangeScan{active=%d intervals=%zu n=%d adj=%d}", active,
      intervals, parallelism_, num_adjustments_);
}

}  // namespace xprs
