// Shared buffer pool with clock (second-chance) replacement, in shards.
//
// All backends of the real-thread executor share one pool, as in XPRS's
// shared-memory design. Frames are pinned while in use; a miss performs the
// disk read outside the pool's locks so concurrent misses on different
// disks overlap — this is what lets an IO-bound and a CPU-bound fragment
// genuinely share the machine.
//
// The pool is split into shards. Each shard is a whole clock pool over its
// own contiguous slice of the frames, with its own mutex, clock hand, block
// table, load wait, hit/miss counts and pinned-frame count. Block b belongs
// to shard b % K, so a striped scan's consecutive blocks land on
// consecutive shards as they land on consecutive disks, and the §2.4 slaves
// of a scan (slave i of n takes every n-th page) mostly lock different
// shards. K follows from the frame count alone: the largest power of two
// (so b % K is a mask) that leaves every shard kFramesPerShard frames. A
// pool under 2 * kFramesPerShard frames is one shard, a plain clock pool.
//
// A sharded pool differs from one clock pool over the same frames in two
// ways:
//  - Exhaustion is per shard: a miss fails with "all buffer frames pinned"
//    when every frame of *its* shard is pinned, even if another shard has
//    free frames. With at least kFramesPerShard frames per shard no plan
//    comes close: a scan holds at most one pin at a time.
//  - The soft pin limit compares the sum of the shard counts, read without
//    the other shards' locks, so concurrent misses in different shards can
//    each pass the check: the limit can be overshot by the number of
//    misses in flight at once. Single-threaded it is exact.

#ifndef XPRS_STORAGE_BUFFER_POOL_H_
#define XPRS_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/obs.h"
#include "storage/disk_array.h"
#include "storage/page.h"
#include "util/status.h"

namespace xprs {

class BufferPool;

/// RAII pin on a buffered page. Unpins on destruction.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(BufferPool* pool, size_t frame, const Page* page);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  PageHandle(const PageHandle&) = delete;
  PageHandle& operator=(const PageHandle&) = delete;
  ~PageHandle();

  bool valid() const { return pool_ != nullptr; }
  const Page& page() const { return *page_; }

  /// Explicit early release.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  const Page* page_ = nullptr;
};

/// Buffer pool statistics.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  double hit_rate() const {
    uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) / total : 0.0;
  }
};

/// Fixed-size page cache over a DiskArray. Thread-safe.
class BufferPool {
 public:
  /// Frames per shard. 64 frames keep a shard far from exhaustion (each
  /// scan pins one page at a time) while a 256-frame pool still splits
  /// four ways, one shard per slave of a grant-4 scan.
  static constexpr size_t kFramesPerShard = 64;

  BufferPool(DiskArray* array, size_t num_frames);

  size_t num_frames() const { return frames_.size(); }

  /// Number of shards (1 for a pool under 2 * kFramesPerShard frames).
  size_t num_shards() const { return shards_.size(); }

  /// Returns a pinned handle on the block, reading it from disk on a miss.
  /// Fails with ResourceExhausted when every frame of the block's shard is
  /// pinned.
  StatusOr<PageHandle> Fetch(BlockId block);

  /// Publishes live hit/miss counters into `metrics` (bufferpool.hits /
  /// bufferpool.misses, summed over the shards). Call before handing the
  /// pool to workers.
  void AttachMetrics(MetricsRegistry* metrics);

  /// Writes the current hit rate and frame count gauges into the attached
  /// registry (bufferpool.hit_rate, bufferpool.frames). No-op if detached.
  void PublishMetrics() const;

  /// Hits and misses summed over the shards.
  BufferPoolStats stats() const;

  /// Installs a fault-injection hook consulted at the top of every Fetch
  /// (nullptr detaches). Thread-safe with concurrent fetches.
  void SetFaultInjector(FaultInjector* injector);

  /// Admission control under memory-pages pressure: when `max_pinned_frames`
  /// is > 0, a miss that finds at least that many frames already pinned
  /// (PinnedFrames) is refused with a retryable ResourceExhausted instead
  /// of claiming a frame. Hits on resident pages are never refused — the
  /// requester already holds the memory, and refusing re-pins would
  /// livelock scans that bounce on the page they just released. 0 (default)
  /// disables the limit. Thread-safe; see the file comment for how
  /// concurrent misses can overshoot it.
  void SetSoftPinLimit(size_t max_pinned_frames);

  /// Number of frames currently pinned (pins > 0): the sum of the shards'
  /// counts, read without locking. The differential harness asserts this
  /// returns to zero after every run — a leaked pin means some error path
  /// skipped an unpin.
  size_t PinnedFrames() const;

  std::string ToString() const;

 private:
  friend class PageHandle;

  struct Frame {
    Page page;
    BlockId block = 0;
    uint32_t shard = 0;  // the shard whose slice holds this frame
    bool occupied = false;
    bool loading = false;   // a thread is reading it from disk
    bool ref_bit = false;   // clock second chance
    int pins = 0;
  };

  // One lock domain: frames [begin, end) and everything that finds or
  // counts them. Aligned so two shards never share a cache line; the
  // fields every fetch writes come first, beside the mutex.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    // Frames of the shard with pins > 0, read by PinnedFrames without the
    // mutex. Only a holder of the mutex writes it, so AddPinned needs no
    // atomic read-modify-write.
    std::atomic<size_t> pinned{0};
    void AddPinned(int delta) {
      pinned.store(pinned.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
    }
    BufferPoolStats stats;
    size_t clock_hand = 0;  // in [begin, end)
    size_t begin = 0, end = 0;
    std::unordered_map<BlockId, size_t> table;  // block -> frame
    std::condition_variable load_cv;  // signaled when a load completes
    Counter* hits_counter = nullptr;          // bufferpool.hits
    Counter* misses_counter = nullptr;        // bufferpool.misses
    Counter* backpressure_counter = nullptr;  // bufferpool.backpressure
  };

  void Unpin(size_t frame);

  // Finds the frame of `shard` holding `block` or claims a victim for it.
  // Returns the frame index and whether a disk load is needed; called
  // under shard.mutex.
  StatusOr<size_t> FindOrClaimLocked(Shard& shard, BlockId block,
                                     bool* needs_load,
                                     std::unique_lock<std::mutex>* lock);

  DiskArray* const array_;
  std::vector<Frame> frames_;
  std::vector<Shard> shards_;
  const BlockId shard_mask_;  // shards_.size() - 1
  std::atomic<size_t> soft_pin_limit_{0};  // 0 = no admission control
  std::atomic<MetricsRegistry*> metrics_{nullptr};
  std::atomic<FaultInjector*> injector_{nullptr};
};

}  // namespace xprs

#endif  // XPRS_STORAGE_BUFFER_POOL_H_
