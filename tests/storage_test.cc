// Tests for the storage substrate: pages, tuples, the striped disk array,
// heap files and the buffer pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/tuple.h"
#include "util/rng.h"
#include "util/str.h"

namespace xprs {
namespace {

TEST(PageTest, EmptyPageHasNoTuples) {
  Page p;
  EXPECT_EQ(p.num_tuples(), 0);
  EXPECT_GT(p.FreeSpace(), 8000u);
}

TEST(PageTest, AddAndGetRoundTrip) {
  Page p;
  const uint8_t data[] = {1, 2, 3, 4, 5};
  auto slot = p.AddTuple(data, sizeof(data));
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot.value(), 0);
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(p.GetTuple(0, &out, &size).ok());
  ASSERT_EQ(size, sizeof(data));
  EXPECT_EQ(0, memcmp(out, data, size));
}

TEST(PageTest, FillsUntilExhausted) {
  Page p;
  uint8_t data[100] = {};
  int added = 0;
  for (;;) {
    auto slot = p.AddTuple(data, sizeof(data));
    if (!slot.ok()) {
      EXPECT_EQ(slot.status().code(), StatusCode::kResourceExhausted);
      break;
    }
    ++added;
  }
  // 8192 bytes / (100 payload + 4 slot) ~ 78 tuples.
  EXPECT_GT(added, 70);
  EXPECT_LT(added, 82);
  EXPECT_EQ(p.num_tuples(), added);
}

TEST(PageTest, SingleGiantTupleFits) {
  Page p;
  std::vector<uint8_t> data(MaxTuplePayload(), 0xAB);
  ASSERT_TRUE(p.AddTuple(data.data(), static_cast<uint16_t>(data.size())).ok());
  EXPECT_EQ(p.FreeSpace(), 0u);
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(p.GetTuple(0, &out, &size).ok());
  EXPECT_EQ(size, data.size());
}

TEST(PageTest, InvalidSlotRejected) {
  Page p;
  const uint8_t* out;
  uint16_t size;
  EXPECT_EQ(p.GetTuple(0, &out, &size).code(), StatusCode::kOutOfRange);
}

TEST(PageTest, InitResets) {
  Page p;
  const uint8_t data[] = {9};
  ASSERT_TRUE(p.AddTuple(data, 1).ok());
  p.Init();
  EXPECT_EQ(p.num_tuples(), 0);
}

TEST(TupleTest, SerializeDeserializeRoundTrip) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{42}), Value(std::string("hello"))});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto back = Tuple::Deserialize(schema, bytes.data(),
                                 static_cast<uint16_t>(bytes.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), t);
}

TEST(TupleTest, NullsSurviveRoundTrip) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{7}), Value(std::monostate{})});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto back = Tuple::Deserialize(schema, bytes.data(),
                                 static_cast<uint16_t>(bytes.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(IsNull(back.value().value(1)));
}

TEST(TupleTest, TypeMismatchRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(std::string("not an int")), Value(std::string("x"))});
  std::vector<uint8_t> bytes;
  EXPECT_EQ(t.Serialize(schema, &bytes).code(), StatusCode::kInvalidArgument);
}

TEST(TupleTest, ArityMismatchRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{1})});
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(t.Serialize(schema, &bytes).ok());
}

TEST(TupleTest, TruncatedDataRejected) {
  Schema schema = Schema::PaperSchema();
  Tuple t({Value(int32_t{42}), Value(std::string("hello"))});
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(t.Serialize(schema, &bytes).ok());
  auto bad = Tuple::Deserialize(schema, bytes.data(),
                                static_cast<uint16_t>(bytes.size() - 3));
  EXPECT_FALSE(bad.ok());
}

TEST(TupleTest, CompareValuesOrdersNullFirst) {
  EXPECT_LT(CompareValues(Value(std::monostate{}), Value(int32_t{1})), 0);
  EXPECT_GT(CompareValues(Value(int32_t{1}), Value(std::monostate{})), 0);
  EXPECT_EQ(CompareValues(Value(int32_t{5}), Value(int32_t{5})), 0);
  EXPECT_LT(CompareValues(Value(std::string("a")), Value(std::string("b"))),
            0);
}

TEST(TupleTest, ConcatJoinsValuesAndSchemas) {
  Tuple l({Value(int32_t{1})});
  Tuple r({Value(std::string("x")), Value(int32_t{2})});
  Tuple joined = Tuple::Concat(l, r);
  EXPECT_EQ(joined.size(), 3u);
  Schema s = Schema::Concat(Schema({{"a", TypeId::kInt4}}),
                            Schema({{"b", TypeId::kText},
                                    {"c", TypeId::kInt4}}));
  EXPECT_EQ(s.num_columns(), 3u);
  EXPECT_EQ(s.column(2).name, "c");
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = Schema::PaperSchema();
  ASSERT_TRUE(s.ColumnIndex("b").ok());
  EXPECT_EQ(s.ColumnIndex("b").value(), 1u);
  EXPECT_EQ(s.ColumnIndex("zz").status().code(), StatusCode::kNotFound);
}

TEST(DiskArrayTest, RoundRobinStriping) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 8; ++i) {
    BlockId b = array.AllocateBlock();
    EXPECT_EQ(b, static_cast<BlockId>(i));
    EXPECT_EQ(array.DiskOf(b), i % 4);
  }
  EXPECT_EQ(array.num_blocks(), 8u);
}

TEST(DiskArrayTest, ReadWriteRoundTrip) {
  DiskArray array(2, DiskMode::kInstant);
  BlockId b = array.AllocateBlock();
  Page p;
  const uint8_t data[] = {0xDE, 0xAD};
  ASSERT_TRUE(p.AddTuple(data, 2).ok());
  ASSERT_TRUE(array.WriteBlock(b, p).ok());
  Page q;
  ASSERT_TRUE(array.ReadBlock(b, &q).ok());
  const uint8_t* out;
  uint16_t size;
  ASSERT_TRUE(q.GetTuple(0, &out, &size).ok());
  EXPECT_EQ(size, 2);
  EXPECT_EQ(out[0], 0xDE);
}

TEST(DiskArrayTest, OutOfRangeRejected) {
  DiskArray array(2, DiskMode::kInstant);
  Page p;
  EXPECT_EQ(array.ReadBlock(5, &p).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(array.WriteBlock(5, p).code(), StatusCode::kOutOfRange);
}

TEST(DiskArrayTest, SequentialScanCountsSequential) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 64; ++i) array.AllocateBlock();
  Page p;
  for (BlockId b = 0; b < 64; ++b) ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  DiskStats total = array.total_stats();
  EXPECT_EQ(total.reads, 64u);
  // A striped scan advances each disk's local index by one per round: all
  // sequential.
  EXPECT_EQ(total.seq_reads, 64u);
  EXPECT_EQ(total.rand_reads, 0u);
}

TEST(DiskArrayTest, RandomAccessCountsRandom) {
  DiskArray array(4, DiskMode::kInstant);
  for (int i = 0; i < 256; ++i) array.AllocateBlock();
  Rng rng(3);
  Page p;
  for (int i = 0; i < 100; ++i) {
    BlockId b = static_cast<BlockId>(rng.NextUint64(256));
    ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  }
  DiskStats total = array.total_stats();
  EXPECT_EQ(total.reads, 100u);
  EXPECT_GT(total.rand_reads, 50u);  // overwhelmingly random
}

TEST(DiskArrayTest, BusyTimeTracksServiceModel) {
  DiskTimings t;
  DiskArray array(1, DiskMode::kInstant, t);
  for (int i = 0; i < 10; ++i) array.AllocateBlock();
  Page p;
  for (BlockId b = 0; b < 10; ++b) ASSERT_TRUE(array.ReadBlock(b, &p).ok());
  // 10 sequential reads at 1/97 s each.
  EXPECT_NEAR(array.total_stats().busy_seconds, 10.0 / 97.0, 1e-9);
}

TEST(DiskArrayTest, ResetStatsClears) {
  DiskArray array(2, DiskMode::kInstant);
  array.AllocateBlock();
  Page p;
  ASSERT_TRUE(array.ReadBlock(0, &p).ok());
  array.ResetStats();
  EXPECT_EQ(array.total_stats().reads, 0u);
}

HeapFile MakeLoadedFile(DiskArray* array, int num_tuples, int text_width) {
  HeapFile file("r", Schema::PaperSchema(), array);
  for (int i = 0; i < num_tuples; ++i) {
    Tuple t({Value(int32_t{i}), Value(std::string(text_width, 'x'))});
    EXPECT_TRUE(file.Append(t).ok());
  }
  EXPECT_TRUE(file.Flush().ok());
  return file;
}

TEST(HeapFileTest, AppendAndScanBack) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 500, 20);
  EXPECT_EQ(file.num_tuples(), 500u);
  EXPECT_GT(file.num_pages(), 0u);

  int count = 0;
  Page page;
  for (uint32_t p = 0; p < file.num_pages(); ++p) {
    ASSERT_TRUE(file.ReadPage(p, &page).ok());
    for (uint16_t s = 0; s < page.num_tuples(); ++s) {
      const uint8_t* data;
      uint16_t size;
      ASSERT_TRUE(page.GetTuple(s, &data, &size).ok());
      auto t = Tuple::Deserialize(file.schema(), data, size);
      ASSERT_TRUE(t.ok());
      EXPECT_EQ(std::get<int32_t>(t.value().value(0)), count);
      ++count;
    }
  }
  EXPECT_EQ(count, 500);
}

TEST(HeapFileTest, TupleSizeControlsPagesPerTuple) {
  DiskArray array(4, DiskMode::kInstant);
  // r_max style: one fat tuple per page.
  HeapFile rmax = MakeLoadedFile(&array, 50, 7000);
  EXPECT_EQ(rmax.num_pages(), 50u);
  // r_min style: b is tiny -> hundreds of tuples per page.
  HeapFile rmin = MakeLoadedFile(&array, 1000, 0);
  EXPECT_LT(rmin.num_pages(), 5u);
  EXPECT_GT(rmin.TuplesPerPage(), 200.0);
}

TEST(HeapFileTest, ReadTupleByTid) {
  DiskArray array(4, DiskMode::kInstant);
  HeapFile file = MakeLoadedFile(&array, 100, 100);
  auto t = file.ReadTuple(TupleId{0, 3});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(std::get<int32_t>(t->value(0)), 3);
}

TEST(HeapFileTest, OversizedTupleRejected) {
  DiskArray array(1, DiskMode::kInstant);
  HeapFile file("r", Schema::PaperSchema(), &array);
  Tuple t({Value(int32_t{1}), Value(std::string(9000, 'x'))});
  EXPECT_EQ(file.Append(t).code(), StatusCode::kInvalidArgument);
}

TEST(HeapFileTest, UnflushedTailIsNotReadable) {
  DiskArray array(1, DiskMode::kInstant);
  HeapFile file("r", Schema::PaperSchema(), &array);
  ASSERT_TRUE(file.Append(Tuple({Value(int32_t{1}), Value(std::string())}))
                  .ok());
  Page p;
  EXPECT_EQ(file.ReadPage(0, &p).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(file.Flush().ok());
  EXPECT_TRUE(file.ReadPage(0, &p).ok());
}

TEST(BufferPoolTest, HitAfterMiss) {
  DiskArray array(2, DiskMode::kInstant);
  BlockId b = array.AllocateBlock();
  BufferPool pool(&array, 4);
  {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsUnpinnedFrames) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 10; ++i) blocks.push_back(array.AllocateBlock());
  BufferPool pool(&array, 2);
  for (BlockId b : blocks) {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok());
  }
  EXPECT_EQ(pool.stats().misses, 10u);  // pool smaller than working set
}

TEST(BufferPoolTest, AllPinnedIsResourceExhausted) {
  DiskArray array(1, DiskMode::kInstant);
  BlockId a = array.AllocateBlock();
  BlockId b = array.AllocateBlock();
  BlockId c = array.AllocateBlock();
  BufferPool pool(&array, 2);
  auto h1 = pool.Fetch(a);
  auto h2 = pool.Fetch(b);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  auto h3 = pool.Fetch(c);
  EXPECT_EQ(h3.status().code(), StatusCode::kResourceExhausted);
  h1->Release();
  auto h4 = pool.Fetch(c);
  EXPECT_TRUE(h4.ok());
}

TEST(BufferPoolTest, PageContentCorrectAcrossEviction) {
  DiskArray array(1, DiskMode::kInstant);
  std::vector<BlockId> blocks;
  for (int i = 0; i < 6; ++i) {
    BlockId b = array.AllocateBlock();
    Page p;
    uint8_t byte = static_cast<uint8_t>(i);
    EXPECT_TRUE(p.AddTuple(&byte, 1).ok());
    EXPECT_TRUE(array.WriteBlock(b, p).ok());
    blocks.push_back(b);
  }
  BufferPool pool(&array, 2);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 6; ++i) {
      auto h = pool.Fetch(blocks[i]);
      ASSERT_TRUE(h.ok());
      const uint8_t* data;
      uint16_t size;
      ASSERT_TRUE(h->page().GetTuple(0, &data, &size).ok());
      EXPECT_EQ(data[0], static_cast<uint8_t>(i));
    }
  }
}

// Allocates `n` blocks, each holding one tuple: its own block id.
void FillBlocks(DiskArray* array, int n) {
  for (int i = 0; i < n; ++i) {
    const BlockId b = array->AllocateBlock();
    Page p;
    ASSERT_TRUE(
        p.AddTuple(reinterpret_cast<const uint8_t*>(&b), sizeof(b)).ok());
    ASSERT_TRUE(array->WriteBlock(b, p).ok());
  }
}

// True when `page` is the image FillBlocks wrote for `block`.
bool HoldsBlock(const Page& page, BlockId block) {
  const uint8_t* data;
  uint16_t size;
  if (!page.GetTuple(0, &data, &size).ok() || size != sizeof(BlockId))
    return false;
  BlockId stored;
  std::memcpy(&stored, data, sizeof(stored));
  return stored == block;
}

TEST(BufferPoolTest, ConcurrentFetchesAreConsistent) {
  // One shard (64 blocks over 16 frames) and four shards (1,024 blocks over
  // 256 frames): in both the blocks outnumber the frames four to one, so
  // the shards evict all the time.
  const std::pair<int, size_t> kInputs[] = {{64, 16}, {1024, 256}};
  for (const auto& [blocks, frames] : kInputs) {
    SCOPED_TRACE(StrFormat("%d blocks, %zu frames", blocks, frames));
    DiskArray array(4, DiskMode::kInstant);
    FillBlocks(&array, blocks);
    BufferPool pool(&array, frames);
    EXPECT_EQ(pool.num_shards(),
              std::max<size_t>(1, frames / BufferPool::kFramesPerShard));
    std::vector<std::thread> threads;
    std::atomic<int> errors{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(100 + t);
        for (int i = 0; i < 2000; ++i) {
          BlockId b = static_cast<BlockId>(rng.NextUint64(blocks));
          auto h = pool.Fetch(b);
          if (!h.ok() || !HoldsBlock(h->page(), b)) ++errors;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(errors.load(), 0);
    EXPECT_EQ(pool.stats().hits + pool.stats().misses, 8000u);
    EXPECT_EQ(pool.PinnedFrames(), 0u);
  }
}

// Fails the first disk read once every fetcher has arrived, so the other
// fetchers are waiting on that in-flight load when it fails.
class FailFirstLoadInjector : public FaultInjector {
 public:
  explicit FailFirstLoadInjector(int fetchers) : fetchers_(fetchers) {}

  Status BeforeFetch(BlockId) override {
    ++fetches_;
    return Status::OK();
  }
  Status BeforeRead(BlockId block) override {
    if (failed_.exchange(true)) return Status::OK();
    while (fetches_.load() < fetchers_) std::this_thread::yield();
    // Give the last fetchers time to reach the load wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return Status::IoError(StrFormat("injected: first load of block %u",
                                     block));
  }
  Status BeforeWrite(BlockId, size_t*) override { return Status::OK(); }

 private:
  const int fetchers_;
  std::atomic<int> fetches_{0};
  std::atomic<bool> failed_{false};
};

TEST(BufferPoolTest, WaitersOnAFailedLoadRetry) {
  DiskArray array(4, DiskMode::kInstant);
  FillBlocks(&array, 8);
  BufferPool pool(&array, 2 * BufferPool::kFramesPerShard);
  ASSERT_EQ(pool.num_shards(), 2u);
  constexpr int kFetchers = 4;
  FailFirstLoadInjector injector(kFetchers);
  pool.SetFaultInjector(&injector);
  array.SetFaultInjector(&injector);

  const BlockId block = 5;  // shard 1
  std::atomic<int> loaded{0}, failed{0}, wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kFetchers; ++t) {
    threads.emplace_back([&] {
      auto h = pool.Fetch(block);
      if (!h.ok()) {
        failed += h.status().code() == StatusCode::kIoError ? 1 : 100;
        return;
      }
      ++loaded;
      if (!HoldsBlock(h->page(), block)) ++wrong;
    });
  }
  for (auto& th : threads) th.join();
  pool.SetFaultInjector(nullptr);
  array.SetFaultInjector(nullptr);

  // The loader sees the failure; every waiter retries and gets the page.
  EXPECT_EQ(failed.load(), 1);
  EXPECT_EQ(loaded.load(), kFetchers - 1);
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  // The failed claim and the retry's claim are the two misses.
  EXPECT_EQ(pool.stats().misses, 2u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses,
            static_cast<uint64_t>(kFetchers));
}

TEST(BufferPoolTest, SoftPinLimitIsExactAcrossShards) {
  DiskArray array(4, DiskMode::kInstant);
  FillBlocks(&array, 16);
  BufferPool pool(&array, 4 * BufferPool::kFramesPerShard);
  ASSERT_EQ(pool.num_shards(), 4u);
  pool.SetSoftPinLimit(5);

  // Blocks 0..4 span all four shards (block b is in shard b % 4).
  std::vector<PageHandle> held;
  for (BlockId b = 0; b < 5; ++b) {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok()) << "block " << b;
    held.push_back(std::move(h).value());
  }
  EXPECT_EQ(pool.PinnedFrames(), 5u);
  // A sixth miss, in any shard, is refused; a hit never is.
  for (BlockId b = 5; b < 9; ++b)
    EXPECT_EQ(pool.Fetch(b).status().code(), StatusCode::kResourceExhausted)
        << "block " << b;
  auto hit = pool.Fetch(2);
  ASSERT_TRUE(hit.ok());
  hit->Release();
  EXPECT_EQ(pool.PinnedFrames(), 5u);

  held[1].Release();  // shard 1 drops its pin; shard 3's miss may proceed
  auto after = pool.Fetch(7);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(HoldsBlock(after->page(), 7));
  EXPECT_EQ(pool.PinnedFrames(), 5u);
  EXPECT_EQ(pool.Fetch(8).status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, ExhaustionIsPerShard) {
  constexpr BlockId kShardFrames = BufferPool::kFramesPerShard;
  DiskArray array(4, DiskMode::kInstant);
  FillBlocks(&array, 2 * kShardFrames + 2);
  BufferPool pool(&array, 2 * kShardFrames);
  ASSERT_EQ(pool.num_shards(), 2u);

  // Pin every frame of shard 0 with its even blocks.
  std::vector<PageHandle> held;
  for (BlockId b = 0; b < 2 * kShardFrames; b += 2) {
    auto h = pool.Fetch(b);
    ASSERT_TRUE(h.ok()) << "block " << b;
    held.push_back(std::move(h).value());
  }
  EXPECT_EQ(pool.PinnedFrames(), kShardFrames);
  EXPECT_EQ(pool.Fetch(2 * kShardFrames).status().code(),
            StatusCode::kResourceExhausted);
  // Shard 1 still loads.
  auto other = pool.Fetch(2 * kShardFrames + 1);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(HoldsBlock(other->page(), 2 * kShardFrames + 1));

  held.clear();
  other->Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  auto now = pool.Fetch(2 * kShardFrames);
  ASSERT_TRUE(now.ok());
  EXPECT_TRUE(HoldsBlock(now->page(), 2 * kShardFrames));
}

TEST(DiskArrayTest, ReadsRaceAllocationSafely) {
  // Reads of allocated blocks run while another thread keeps allocating:
  // an allocated block never moves, and a read finds it without the
  // allocator's lock.
  DiskArray array(4, DiskMode::kInstant);
  FillBlocks(&array, 64);
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(200 + t);
      Page page;
      while (!done.load()) {
        const BlockId b = static_cast<BlockId>(rng.NextUint64(64));
        if (!array.ReadBlock(b, &page).ok() || !HoldsBlock(page, b))
          ++errors;
        const BlockId last = array.num_blocks() - 1;
        if (!array.ReadBlock(last, &page).ok()) ++errors;
      }
    });
  }
  for (int i = 0; i < 5000; ++i) array.AllocateBlock();
  done = true;
  for (auto& th : readers) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(array.num_blocks(), 5064u);
}

TEST(CatalogTest, CreateAndLookup) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  auto t = catalog.CreateTable("r1", Schema::PaperSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.GetTable("r1").ok());
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.CreateTable("r1", Schema::PaperSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(CatalogTest, StatsComputedFromData) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(table->file()
                    .Append(Tuple({Value(int32_t{i * 3}),
                                   Value(std::string(10, 'b'))}))
                    .ok());
  }
  ASSERT_TRUE(table->file().Flush().ok());
  ASSERT_TRUE(table->ComputeStats().ok());
  EXPECT_EQ(table->stats().num_tuples, 100u);
  EXPECT_TRUE(table->stats().has_key_bounds);
  EXPECT_EQ(table->stats().min_key, 0);
  EXPECT_EQ(table->stats().max_key, 297);
  EXPECT_GT(table->stats().tuples_per_page, 1.0);
}

TEST(CatalogTest, BuildIndexOnKeyColumn) {
  DiskArray array(4, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(table->file()
                    .Append(Tuple({Value(int32_t{i % 50}),
                                   Value(std::string(5, 'b'))}))
                    .ok());
  }
  ASSERT_TRUE(table->file().Flush().ok());
  ASSERT_TRUE(table->BuildIndex(0).ok());
  ASSERT_NE(table->index(), nullptr);
  EXPECT_EQ(table->index()->size(), 200u);
  EXPECT_EQ(table->index()->Lookup(7).size(), 4u);  // 200/50 duplicates
  EXPECT_EQ(table->index_column(), 0);
}

TEST(CatalogTest, IndexOnTextColumnRejected) {
  DiskArray array(1, DiskMode::kInstant);
  Catalog catalog(&array);
  Table* table = catalog.CreateTable("r1", Schema::PaperSchema()).value();
  EXPECT_EQ(table->BuildIndex(1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xprs
