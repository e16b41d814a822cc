#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/str.h"

namespace xprs {

PageHandle::PageHandle(BufferPool* pool, size_t frame, const Page* page)
    : pool_(pool), frame_(frame), page_(page) {}

PageHandle::PageHandle(PageHandle&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_), page_(other.page_) {
  other.pool_ = nullptr;
  other.page_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
  }
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    page_ = nullptr;
  }
}

BufferPool::BufferPool(DiskArray* array, size_t num_frames)
    : array_(array),
      frames_(num_frames),
      shards_(
          std::bit_floor(std::max<size_t>(num_frames / kFramesPerShard, 1))),
      shard_mask_(static_cast<BlockId>(shards_.size() - 1)) {
  XPRS_CHECK(array != nullptr);
  XPRS_CHECK_GE(num_frames, 1u);
  // Contiguous slices; the last shard also takes the remainder.
  const size_t per_shard = num_frames / shards_.size();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.begin = shard.clock_hand = s * per_shard;
    shard.end = s + 1 == shards_.size() ? num_frames : shard.begin + per_shard;
    shard.table.reserve(shard.end - shard.begin);
    for (size_t f = shard.begin; f < shard.end; ++f)
      frames_[f].shard = static_cast<uint32_t>(s);
  }
}

void BufferPool::Unpin(size_t frame) {
  Frame& f = frames_[frame];
  Shard& shard = shards_[f.shard];
  std::lock_guard<std::mutex> lock(shard.mutex);
  XPRS_CHECK_GT(f.pins, 0);
  if (--f.pins == 0) shard.AddPinned(-1);
}

StatusOr<size_t> BufferPool::FindOrClaimLocked(
    Shard& shard, BlockId block, bool* needs_load,
    std::unique_lock<std::mutex>* lock) {
  for (;;) {
    auto it = shard.table.find(block);
    if (it != shard.table.end()) {
      Frame& f = frames_[it->second];
      if (f.loading) {
        // Another thread is reading this block; wait for it.
        shard.load_cv.wait(*lock);
        continue;  // re-lookup: the load may have failed and been evicted
      }
      if (f.pins++ == 0) shard.AddPinned(1);
      f.ref_bit = true;
      ++shard.stats.hits;
      if (shard.hits_counter != nullptr) shard.hits_counter->Increment();
      *needs_load = false;
      return it->second;
    }

    // Miss under admission control: refuse to grow the pinned set past the
    // soft limit. The caller sees a retryable ResourceExhausted and backs
    // off (FetchWithBackpressure) or degrades to the spill path.
    const size_t limit = soft_pin_limit_.load(std::memory_order_relaxed);
    if (limit > 0 && PinnedFrames() >= limit) {
      if (shard.backpressure_counter != nullptr)
        shard.backpressure_counter->Increment();
      return Status::ResourceExhausted(
          "buffer pool pin limit reached (backpressure)");
    }

    // Miss: claim a victim frame with the clock sweep (two passes: the
    // first clears reference bits, the second takes the first unpinned
    // frame).
    const size_t size = shard.end - shard.begin;
    size_t victim = shard.end;
    for (size_t scanned = 0; scanned < 2 * size; ++scanned) {
      const size_t idx = shard.clock_hand;
      Frame& f = frames_[idx];
      shard.clock_hand = idx + 1 == shard.end ? shard.begin : idx + 1;
      if (f.pins > 0 || f.loading) continue;
      if (f.occupied && f.ref_bit) {
        f.ref_bit = false;
        continue;
      }
      victim = idx;
      break;
    }
    if (victim == shard.end) {
      return Status::ResourceExhausted("all buffer frames pinned");
    }

    Frame& f = frames_[victim];
    if (f.occupied) shard.table.erase(f.block);
    f.block = block;
    f.occupied = true;
    f.loading = true;
    f.ref_bit = true;
    f.pins = 1;
    shard.AddPinned(1);
    shard.table[block] = victim;
    ++shard.stats.misses;
    if (shard.misses_counter != nullptr) shard.misses_counter->Increment();
    *needs_load = true;
    return victim;
  }
}

StatusOr<PageHandle> BufferPool::Fetch(BlockId block) {
  if (FaultInjector* inj = injector_.load(std::memory_order_acquire)) {
    XPRS_RETURN_IF_ERROR(inj->BeforeFetch(block));
  }
  Shard& shard = shards_[block & shard_mask_];
  bool needs_load = false;
  size_t frame;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    auto claimed = FindOrClaimLocked(shard, block, &needs_load, &lock);
    if (!claimed.ok()) return claimed.status();
    frame = claimed.value();
  }

  if (needs_load) {
    // Disk read happens outside the shard's lock so misses on different
    // disks proceed in parallel.
    Status st = array_->ReadBlock(block, &frames_[frame].page);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      Frame& f = frames_[frame];
      f.loading = false;
      if (!st.ok()) {
        // Roll the claim back so waiters retry and the frame is reusable.
        shard.table.erase(block);
        f.occupied = false;
        f.pins = 0;
        shard.AddPinned(-1);
      }
    }
    shard.load_cv.notify_all();
    if (!st.ok()) return st;
  }
  return PageHandle(this, frame, &frames_[frame].page);
}

void BufferPool::AttachMetrics(MetricsRegistry* metrics) {
  Counter* hits = nullptr;
  Counter* misses = nullptr;
  Counter* backpressure = nullptr;
  if (metrics != nullptr) {
    hits = metrics->counter("bufferpool.hits");
    misses = metrics->counter("bufferpool.misses");
    backpressure = metrics->counter("bufferpool.backpressure");
  }
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.hits_counter = hits;
    shard.misses_counter = misses;
    shard.backpressure_counter = backpressure;
  }
  metrics_.store(metrics, std::memory_order_release);
}

void BufferPool::PublishMetrics() const {
  MetricsRegistry* metrics = metrics_.load(std::memory_order_acquire);
  if (metrics == nullptr) return;
  metrics->gauge("bufferpool.hit_rate")->Set(stats().hit_rate());
  metrics->gauge("bufferpool.frames")
      ->Set(static_cast<double>(frames_.size()));
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats total;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total.hits += shard.stats.hits;
    total.misses += shard.stats.misses;
  }
  return total;
}

void BufferPool::SetFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
}

void BufferPool::SetSoftPinLimit(size_t max_pinned_frames) {
  soft_pin_limit_.store(max_pinned_frames, std::memory_order_relaxed);
}

size_t BufferPool::PinnedFrames() const {
  size_t pinned = 0;
  for (const Shard& shard : shards_)
    pinned += shard.pinned.load(std::memory_order_relaxed);
  return pinned;
}

std::string BufferPool::ToString() const {
  BufferPoolStats s = stats();
  return StrFormat(
      "BufferPool{%zu frames in %zu shards, hits=%llu misses=%llu (%.1f%%)}",
      frames_.size(), shards_.size(), static_cast<unsigned long long>(s.hits),
      static_cast<unsigned long long>(s.misses), s.hit_rate() * 100.0);
}

}  // namespace xprs
