// Unit and property tests for src/storage: the simulated block device's
// random/sequential accounting, the LRU buffer pool, extent IO, and the
// sharded storage topology with routed page addresses.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/checksum.h"
#include "storage/buffer_pool.h"
#include "storage/build_pool.h"
#include "storage/io_stats.h"
#include "storage/storage_topology.h"

namespace streach {
namespace {

// ---------------------------------------------------------------- IoStats

TEST(IoStatsTest, NormalizedCostUses20To1) {
  IoStats s;
  s.random_reads = 3;
  s.sequential_reads = 40;
  EXPECT_DOUBLE_EQ(s.NormalizedReadCost(), 3 + 40 / 20.0);
  s.random_writes = 1;
  s.sequential_writes = 20;
  EXPECT_DOUBLE_EQ(s.NormalizedCost(), 3 + 2.0 + 1 + 1.0);
}

TEST(IoStatsTest, Difference) {
  IoStats a, b;
  a.random_reads = 10;
  a.sequential_reads = 5;
  b.random_reads = 4;
  b.sequential_reads = 2;
  const IoStats d = a - b;
  EXPECT_EQ(d.random_reads, 6u);
  EXPECT_EQ(d.sequential_reads, 3u);
}

// ------------------------------------------------------------ BlockDevice

TEST(BlockDeviceTest, AllocateAndRoundTrip) {
  BlockDevice dev(128);
  const PageId p = dev.AllocatePage();
  EXPECT_EQ(p, 0u);
  ASSERT_TRUE(dev.WritePage(p, "hello").ok());
  auto r = dev.ReadPage(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->substr(0, 5), "hello");
  EXPECT_EQ(r->size(), 128u);  // Zero padded.
}

TEST(BlockDeviceTest, OutOfRangeAccess) {
  BlockDevice dev(128);
  EXPECT_TRUE(dev.ReadPage(0).status().IsOutOfRange());
  EXPECT_TRUE(dev.WritePage(7, "x").IsOutOfRange());
}

TEST(BlockDeviceTest, OversizedWriteRejected) {
  BlockDevice dev(4);
  const PageId p = dev.AllocatePage();
  EXPECT_TRUE(dev.WritePage(p, "too long").IsInvalidArgument());
}

TEST(BlockDeviceTest, SequentialReadsDetected) {
  BlockDevice dev(64);
  dev.AllocatePages(10);
  dev.ResetStats();
  for (PageId p = 0; p < 10; ++p) ASSERT_TRUE(dev.ReadPage(p).ok());
  // First access is a seek, the following 9 are sequential.
  EXPECT_EQ(dev.stats().random_reads, 1u);
  EXPECT_EQ(dev.stats().sequential_reads, 9u);
}

TEST(BlockDeviceTest, BackwardAndSkippingReadsAreRandom) {
  BlockDevice dev(64);
  dev.AllocatePages(10);
  dev.ResetStats();
  ASSERT_TRUE(dev.ReadPage(5).ok());
  ASSERT_TRUE(dev.ReadPage(4).ok());  // Backward: random.
  ASSERT_TRUE(dev.ReadPage(6).ok());  // Skip: random.
  ASSERT_TRUE(dev.ReadPage(7).ok());  // Sequential.
  ASSERT_TRUE(dev.ReadPage(7).ok());  // Same page again: random (seek).
  EXPECT_EQ(dev.stats().random_reads, 4u);
  EXPECT_EQ(dev.stats().sequential_reads, 1u);
}

TEST(BlockDeviceTest, WritesTrackedSeparately) {
  BlockDevice dev(64);
  dev.AllocatePages(3);
  dev.ResetStats();
  ASSERT_TRUE(dev.WritePage(0, "a").ok());
  ASSERT_TRUE(dev.WritePage(1, "b").ok());
  ASSERT_TRUE(dev.WritePage(2, "c").ok());
  EXPECT_EQ(dev.stats().random_writes, 1u);
  EXPECT_EQ(dev.stats().sequential_writes, 2u);
  EXPECT_EQ(dev.stats().total_reads(), 0u);
}

TEST(BlockDeviceTest, ReadAfterAdjacentWriteIsSequential) {
  BlockDevice dev(64);
  dev.AllocatePages(3);
  dev.ResetStats();
  ASSERT_TRUE(dev.WritePage(0, "a").ok());
  ASSERT_TRUE(dev.ReadPage(1).ok());  // Head is just past page 0.
  EXPECT_EQ(dev.stats().sequential_reads, 1u);
}

// ------------------------------------------------------------- BufferPool

TEST(BufferPoolTest, HitAvoidsDeviceRead) {
  BlockDevice dev(64);
  dev.AllocatePages(4);
  BufferPool pool(&dev, 4);
  ASSERT_TRUE(pool.Fetch(2).ok());
  const uint64_t reads_before = pool.io_stats().total_reads();
  ASSERT_TRUE(pool.Fetch(2).ok());
  EXPECT_EQ(pool.io_stats().total_reads(), reads_before);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BlockDevice dev(64);
  dev.AllocatePages(4);
  BufferPool pool(&dev, 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  ASSERT_TRUE(pool.Fetch(1).ok());
  ASSERT_TRUE(pool.Fetch(0).ok());  // Touch 0 -> 1 becomes LRU.
  ASSERT_TRUE(pool.Fetch(2).ok());  // Evicts 1.
  EXPECT_EQ(pool.resident(), 2u);
  const uint64_t misses_before = pool.misses();
  ASSERT_TRUE(pool.Fetch(0).ok());  // Still resident.
  EXPECT_EQ(pool.misses(), misses_before);
  ASSERT_TRUE(pool.Fetch(1).ok());  // Was evicted -> miss.
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

TEST(BufferPoolTest, ClearDropsEverything) {
  BlockDevice dev(64);
  dev.AllocatePages(2);
  BufferPool pool(&dev, 2);
  ASSERT_TRUE(pool.Fetch(0).ok());
  pool.Clear();
  EXPECT_EQ(pool.resident(), 0u);
  const uint64_t misses_before = pool.misses();
  ASSERT_TRUE(pool.Fetch(0).ok());
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

TEST(BufferPoolTest, ReturnsPageContents) {
  BlockDevice dev(8);
  const PageId p = dev.AllocatePage();
  ASSERT_TRUE(dev.WritePage(p, "abcd").ok());
  BufferPool pool(&dev, 1);
  auto data = pool.Fetch(p);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->view().substr(0, 4), "abcd");
}

TEST(BufferPoolTest, FetchedViewSurvivesEvictionOfItsPage) {
  // Regression: a traversal step may hold the view of one page while a
  // later fetch in the same step evicts it (capacity 1 forces this on
  // every second fetch). The first view must remain readable.
  BlockDevice dev(8);
  const PageId a = dev.AllocatePage();
  const PageId b = dev.AllocatePage();
  ASSERT_TRUE(dev.WritePage(a, "aaaa").ok());
  ASSERT_TRUE(dev.WritePage(b, "bbbb").ok());
  BufferPool pool(&dev, 1);
  auto first = pool.Fetch(a);
  ASSERT_TRUE(first.ok());
  auto second = pool.Fetch(b);  // Evicts page `a` from the pool.
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(pool.resident(), 1u);
  EXPECT_EQ(first->view().substr(0, 4), "aaaa");  // Still valid.
  EXPECT_EQ(second->view().substr(0, 4), "bbbb");
  // And the pool serves fresh fetches of the evicted page correctly.
  auto again = pool.Fetch(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->view().substr(0, 4), "aaaa");
}

TEST(BufferPoolTest, ConcurrentPoolsOverOneDeviceAgree) {
  // The engine's concurrency model: one immutable device, one pool (and
  // one IO cursor) per thread. Each pool's accounting is private.
  BlockDevice dev(16);
  dev.AllocatePages(8);
  for (PageId p = 0; p < 8; ++p) {
    ASSERT_TRUE(dev.WritePage(p, std::string(4, static_cast<char>('a' + p))).ok());
  }
  BufferPool pool_a(&dev, 2);
  BufferPool pool_b(&dev, 2);
  ASSERT_TRUE(pool_a.Fetch(0).ok());
  ASSERT_TRUE(pool_b.Fetch(0).ok());
  ASSERT_TRUE(pool_b.Fetch(1).ok());
  EXPECT_EQ(pool_a.misses(), 1u);
  EXPECT_EQ(pool_b.misses(), 2u);
  EXPECT_EQ(pool_a.io_stats().total_reads(), 1u);
  EXPECT_EQ(pool_b.io_stats().total_reads(), 2u);
  // pool_b's second read followed its first: sequential on its own cursor.
  EXPECT_EQ(pool_b.io_stats().sequential_reads, 1u);
}

// ------------------------------------------------------------ ExtentWriter

TEST(ExtentWriterTest, PacksBlobsAcrossPages) {
  BlockDevice dev(16);
  ExtentWriter writer(&dev);
  auto e1 = writer.Append("0123456789");  // 10 bytes.
  auto e2 = writer.Append("abcdefghij");  // Crosses into page 1.
  ASSERT_TRUE(e1.ok() && e2.ok());
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(e1->first_page, 0u);
  EXPECT_EQ(e1->offset_in_page, 0u);
  EXPECT_EQ(e2->first_page, 0u);
  // e1 stores 10 payload bytes + the 4-byte checksum footer.
  EXPECT_EQ(e2->offset_in_page, 10u + kBlobChecksumBytes);
  EXPECT_EQ(e2->PageSpan(16), 2u);

  BufferPool pool(&dev, 4);
  EXPECT_EQ(*ReadExtent(&pool, *e1, 16), "0123456789");
  EXPECT_EQ(*ReadExtent(&pool, *e2, 16), "abcdefghij");
}

TEST(ExtentWriterTest, AlignToPageStartsFreshPage) {
  BlockDevice dev(16);
  ExtentWriter writer(&dev);
  ASSERT_TRUE(writer.Append("xxx").ok());
  ASSERT_TRUE(writer.AlignToPage().ok());
  auto e = writer.Append("yyy");
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(e->first_page, 1u);
  EXPECT_EQ(e->offset_in_page, 0u);
}

TEST(ExtentWriterTest, LargeBlobSpansManyPages) {
  BlockDevice dev(32);
  ExtentWriter writer(&dev);
  const std::string blob(300, 'z');
  auto e = writer.Append(blob);
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(writer.Flush().ok());
  EXPECT_EQ(e->PageSpan(32), (300 + 31) / 32u);
  BufferPool pool(&dev, 16);
  EXPECT_EQ(*ReadExtent(&pool, *e, 32), blob);
}

TEST(ExtentWriterTest, SequentialReadOfConsecutiveBlobs) {
  // The disk-placement property both indexes rely on: blobs appended in
  // order occupy consecutive pages, so scanning them in order is
  // (almost entirely) sequential IO.
  BlockDevice dev(64);
  ExtentWriter writer(&dev);
  std::vector<Extent> extents;
  for (int i = 0; i < 50; ++i) {
    auto e = writer.Append(std::string(40, static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(e.ok());
    extents.push_back(*e);
  }
  ASSERT_TRUE(writer.Flush().ok());
  BufferPool pool(&dev, 64);
  for (const Extent& e : extents) {
    ASSERT_TRUE(ReadExtent(&pool, e, 64).ok());
  }
  // One seek at the start; everything else sequential or buffered.
  EXPECT_EQ(pool.io_stats().random_reads, 1u);
  EXPECT_GT(pool.io_stats().sequential_reads, 0u);
}

TEST(ExtentWriterTest, RandomBlobsRoundTripProperty) {
  Rng rng(31);
  BlockDevice dev(128);
  ExtentWriter writer(&dev);
  std::vector<std::string> blobs;
  std::vector<Extent> extents;
  for (int i = 0; i < 200; ++i) {
    std::string blob;
    const size_t len = rng.Uniform(500);
    blob.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      blob.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto e = writer.Append(blob);
    ASSERT_TRUE(e.ok());
    blobs.push_back(std::move(blob));
    extents.push_back(*e);
  }
  ASSERT_TRUE(writer.Flush().ok());
  BufferPool pool(&dev, 8);
  // Read back in random order.
  for (int i = 0; i < 400; ++i) {
    const size_t k = rng.Uniform(extents.size());
    auto data = ReadExtent(&pool, extents[k], 128);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, blobs[k]);
  }
}

TEST(ReadExtentTest, InvalidExtentRejected) {
  BlockDevice dev(64);
  BufferPool pool(&dev, 2);
  EXPECT_TRUE(ReadExtent(&pool, Extent{}, 64).status().IsInvalidArgument());
}

// -------------------------------------------------------- PageAddress

TEST(PageAddressTest, RoundTripsShardAndLocalPage) {
  const PageId addr = MakePageAddress(7, 12345);
  EXPECT_EQ(ShardOfPage(addr), 7u);
  EXPECT_EQ(LocalPageOf(addr), 12345u);
}

TEST(PageAddressTest, Shard0IsBitCompatibleWithPlainPageIds) {
  // The 1-shard bit-compatibility guarantee rests on this identity.
  for (PageId p : {PageId{0}, PageId{1}, PageId{999}, PageId{1} << 40}) {
    EXPECT_EQ(MakePageAddress(0, p), p);
    EXPECT_EQ(ShardOfPage(p), 0u);
    EXPECT_EQ(LocalPageOf(p), p);
  }
}

TEST(PageAddressTest, ConsecutiveLocalPagesAreConsecutiveAddresses) {
  // ReadExtent's `++page` arithmetic relies on this within one shard.
  const PageId addr = MakePageAddress(3, 41);
  EXPECT_EQ(addr + 1, MakePageAddress(3, 42));
}

// ---------------------------------------------------- StorageTopology

TEST(StorageTopologyTest, OwnsIndependentShards) {
  StorageTopology topo(StorageTopologyOptions{4, 64});
  EXPECT_EQ(topo.num_shards(), 4);
  EXPECT_EQ(topo.page_size(), 64u);
  topo.shard(0)->AllocatePages(3);
  topo.shard(2)->AllocatePages(5);
  EXPECT_EQ(topo.num_pages(), 8u);
  EXPECT_EQ(topo.size_bytes(), 8 * 64u);
  EXPECT_EQ(topo.shard(1)->num_pages(), 0u);
}

TEST(StorageTopologyTest, PlacementIsDeterministic) {
  StorageTopology topo(StorageTopologyOptions{4, 64});
  for (uint64_t k = 0; k < 16; ++k) {
    EXPECT_EQ(topo.ShardForPartition(k), k % 4);
  }
  // Object routing: any deterministic spread; single shard maps to 0.
  StorageTopology single(StorageTopologyOptions{1, 64});
  for (ObjectId o = 0; o < 16; ++o) {
    EXPECT_EQ(single.ShardForObject(o), 0u);
    EXPECT_LT(topo.ShardForObject(o), 4u);
    EXPECT_EQ(topo.ShardForObject(o), topo.ShardForObject(o));
  }
}

TEST(ShardedExtentWriterTest, RoutedBlobsRoundTripThroughTopologyPool) {
  StorageTopology topo(StorageTopologyOptions{3, 32});
  ShardedExtentWriter writer(&topo);
  std::vector<Extent> extents;
  std::vector<std::string> blobs;
  for (int i = 0; i < 30; ++i) {
    std::string blob(20 + i, static_cast<char>('a' + i % 26));
    auto e = writer.Append(static_cast<uint32_t>(i % 3), blob);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(ShardOfPage(e->first_page), static_cast<uint32_t>(i % 3));
    extents.push_back(*e);
    blobs.push_back(std::move(blob));
  }
  ASSERT_TRUE(writer.Flush().ok());
  BufferPool pool(&topo, 16);
  EXPECT_EQ(pool.num_shards(), 3);
  for (size_t i = 0; i < extents.size(); ++i) {
    auto data = ReadExtent(&pool, extents[i], 32);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, blobs[i]);
  }
}

TEST(ShardedExtentWriterTest, InterleavedAppendsStaySequentialPerShard) {
  // The point of per-shard devices: blobs routed round-robin are packed
  // back-to-back on their own shard, so an in-order scan of one shard's
  // blobs is sequential on that shard's head even though the append
  // order interleaved shards.
  StorageTopology topo(StorageTopologyOptions{2, 64});
  ShardedExtentWriter writer(&topo);
  std::vector<Extent> shard0_extents;
  for (int i = 0; i < 40; ++i) {
    auto e = writer.Append(static_cast<uint32_t>(i % 2), std::string(40, 'x'));
    ASSERT_TRUE(e.ok());
    if (i % 2 == 0) shard0_extents.push_back(*e);
  }
  ASSERT_TRUE(writer.Flush().ok());
  BufferPool pool(&topo, 64);
  for (const Extent& e : shard0_extents) {
    ASSERT_TRUE(ReadExtent(&pool, e, 64).ok());
  }
  // One seek at the start of the shard; the rest sequential or buffered.
  EXPECT_EQ(pool.shard_io_stats(0).random_reads, 1u);
  EXPECT_GT(pool.shard_io_stats(0).sequential_reads, 0u);
  EXPECT_EQ(pool.shard_io_stats(1).total_reads(), 0u);
}

TEST(BufferPoolTopologyTest, AggregatesAndRoutesPerShardCursors) {
  StorageTopology topo(StorageTopologyOptions{2, 16});
  topo.shard(0)->AllocatePages(4);
  topo.shard(1)->AllocatePages(4);
  ASSERT_TRUE(topo.shard(0)->WritePage(0, "s0p0").ok());
  ASSERT_TRUE(topo.shard(1)->WritePage(0, "s1p0").ok());
  BufferPool pool(&topo, 8);
  auto a = pool.Fetch(MakePageAddress(0, 0));
  auto b = pool.Fetch(MakePageAddress(1, 0));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->view().substr(0, 4), "s0p0");
  EXPECT_EQ(b->view().substr(0, 4), "s1p0");
  // Each access was the first on its own shard head: both random.
  EXPECT_EQ(pool.shard_io_stats(0).random_reads, 1u);
  EXPECT_EQ(pool.shard_io_stats(1).random_reads, 1u);
  EXPECT_EQ(pool.io_stats().total_reads(), 2u);
  const std::vector<IoStats> per_shard = pool.PerShardIoStats();
  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0].total_reads() + per_shard[1].total_reads(),
            pool.io_stats().total_reads());
  // A fetch routed to a shard beyond the topology is rejected.
  EXPECT_TRUE(pool.Fetch(MakePageAddress(5, 0)).status().IsOutOfRange());
  // Local page range errors surface from the owning shard's device.
  EXPECT_TRUE(pool.Fetch(MakePageAddress(1, 99)).status().IsOutOfRange());
}

TEST(BufferPoolTopologyTest, BareDevicePoolRejectsRoutedAddresses) {
  // A pool over a bare device must not silently strip shard bits and
  // alias a routed address onto a low local page.
  BlockDevice dev(16);
  dev.AllocatePages(2);
  ASSERT_TRUE(dev.WritePage(0, "page").ok());
  BufferPool pool(&dev, 2);
  EXPECT_TRUE(pool.Fetch(MakePageAddress(1, 0)).status().IsOutOfRange());
  ASSERT_TRUE(pool.Fetch(0).ok());  // Plain ids still served.
}

// ---------------------------------------------------- Async batch path

TEST(SubmitBatchTest, Depth1ServicesInRequestOrder) {
  // queue_depth == 1 must degenerate to the synchronous path: same
  // service order, same random/sequential accounting.
  BlockDevice dev(64);
  dev.AllocatePages(10);
  const std::vector<AsyncReadRequest> requests{{5, 0}, {3, 1}, {4, 2}};
  ReadCursor batched;
  std::vector<AsyncReadCompletion> completions;
  ASSERT_TRUE(dev.SubmitBatch(requests, 1, &batched, &completions).ok());
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].page, 5u);
  EXPECT_EQ(completions[1].page, 3u);
  EXPECT_EQ(completions[2].page, 4u);
  ReadCursor sync;
  for (PageId p : {PageId{5}, PageId{3}, PageId{4}}) {
    ASSERT_TRUE(dev.ReadPage(p, &sync).ok());
  }
  EXPECT_EQ(batched.stats.random_reads, sync.stats.random_reads);
  EXPECT_EQ(batched.stats.sequential_reads, sync.stats.sequential_reads);
  EXPECT_EQ(batched.stats.mean_inflight(), 1.0);
  for (const AsyncReadCompletion& c : completions) {
    EXPECT_EQ(c.inflight, 1u);
  }
}

TEST(SubmitBatchTest, DeepQueueReordersSeekAware) {
  // With the whole batch in flight the device services the shortest seek
  // first: [5, 3, 4] after reading page 2 becomes 3, 4, 5 — all
  // sequential. Depth 1 pays two seeks for the same batch.
  BlockDevice dev(64);
  dev.AllocatePages(10);
  ReadCursor cursor;
  ASSERT_TRUE(dev.ReadPage(2, &cursor).ok());
  cursor.stats.Reset();  // Keep the head position, drop the counters.
  const std::vector<AsyncReadRequest> requests{{5, 0}, {3, 1}, {4, 2}};
  std::vector<AsyncReadCompletion> completions;
  ASSERT_TRUE(dev.SubmitBatch(requests, 3, &cursor, &completions).ok());
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0].page, 3u);
  EXPECT_EQ(completions[1].page, 4u);
  EXPECT_EQ(completions[2].page, 5u);
  // Tags still identify the original requests.
  EXPECT_EQ(completions[0].tag, 1u);
  EXPECT_EQ(completions[2].tag, 0u);
  EXPECT_EQ(cursor.stats.sequential_reads, 3u);
  EXPECT_EQ(cursor.stats.random_reads, 0u);
  // Occupancy: 3 in flight, then 2, then 1.
  EXPECT_EQ(cursor.stats.inflight_accum, 6u);
  EXPECT_EQ(cursor.stats.batched_reads, 3u);
  EXPECT_DOUBLE_EQ(cursor.stats.mean_inflight(), 2.0);
}

TEST(SubmitBatchTest, ValidatesBeforeAccounting) {
  BlockDevice dev(64);
  dev.AllocatePages(2);
  ReadCursor cursor;
  std::vector<AsyncReadCompletion> completions;
  const std::vector<AsyncReadRequest> requests{{0, 0}, {99, 1}};
  EXPECT_TRUE(
      dev.SubmitBatch(requests, 4, &cursor, &completions).IsOutOfRange());
  EXPECT_EQ(cursor.stats.total_reads(), 0u);
  EXPECT_TRUE(completions.empty());
}

TEST(TopologySubmitBatchTest, RoutesPerShardQueues) {
  StorageTopology topo(StorageTopologyOptions{2, 16});
  topo.shard(0)->AllocatePages(4);
  topo.shard(1)->AllocatePages(4);
  ASSERT_TRUE(topo.shard(0)->WritePage(1, "s0p1").ok());
  ASSERT_TRUE(topo.shard(1)->WritePage(2, "s1p2").ok());
  std::vector<ReadCursor> cursors(2);
  std::vector<AsyncReadCompletion> completions;
  const std::vector<AsyncReadRequest> requests{
      {MakePageAddress(1, 2), 0}, {MakePageAddress(0, 1), 1}};
  ASSERT_TRUE(topo.SubmitBatch(requests, 4, &cursors, &completions).ok());
  ASSERT_EQ(completions.size(), 2u);
  // Completions carry routed addresses; each shard accounted one read.
  EXPECT_EQ(cursors[0].stats.total_reads(), 1u);
  EXPECT_EQ(cursors[1].stats.total_reads(), 1u);
  for (const AsyncReadCompletion& c : completions) {
    if (c.tag == 0) {
      EXPECT_EQ(c.page, MakePageAddress(1, 2));
      EXPECT_EQ(c.data.substr(0, 4), "s1p2");
    } else {
      EXPECT_EQ(c.page, MakePageAddress(0, 1));
      EXPECT_EQ(c.data.substr(0, 4), "s0p1");
    }
  }
  // Unknown shard / unallocated page fail before any accounting.
  cursors[0].Reset();
  cursors[1].Reset();
  completions.clear();
  EXPECT_TRUE(topo.SubmitBatch({{MakePageAddress(5, 0), 0}}, 1, &cursors,
                               &completions)
                  .IsOutOfRange());
  EXPECT_TRUE(topo.SubmitBatch({{MakePageAddress(1, 99), 0}}, 1, &cursors,
                               &completions)
                  .IsOutOfRange());
  EXPECT_EQ(cursors[0].stats.total_reads() + cursors[1].stats.total_reads(),
            0u);
}

TEST(FetchBatchTest, ReturnsPagesInRequestOrderWithDuplicates) {
  BlockDevice dev(16);
  dev.AllocatePages(4);
  for (PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(dev.WritePage(p, std::string(4, static_cast<char>('a' + p)))
                    .ok());
  }
  for (int depth : {1, 8}) {
    BufferPool pool(&dev, 4);
    pool.set_io_queue_depth(depth);
    auto refs = pool.FetchBatch({2, 0, 2, 3, 0});
    ASSERT_TRUE(refs.ok()) << "depth=" << depth;
    ASSERT_EQ(refs->size(), 5u);
    EXPECT_EQ((*refs)[0].view().substr(0, 4), "cccc");
    EXPECT_EQ((*refs)[1].view().substr(0, 4), "aaaa");
    EXPECT_EQ((*refs)[2].view().substr(0, 4), "cccc");
    EXPECT_EQ((*refs)[3].view().substr(0, 4), "dddd");
    EXPECT_EQ((*refs)[4].view().substr(0, 4), "aaaa");
    // Duplicates cost one device read plus pool hits, like a Fetch loop.
    EXPECT_EQ(pool.misses(), 3u) << "depth=" << depth;
    EXPECT_EQ(pool.hits(), 2u) << "depth=" << depth;
    EXPECT_EQ(pool.io_stats().total_reads(), 3u) << "depth=" << depth;
  }
}

TEST(FetchBatchTest, Depth1MatchesFetchLoopAccountingExactly) {
  BlockDevice dev(16);
  dev.AllocatePages(8);
  const std::vector<PageId> ids{6, 1, 2, 3, 6, 0};
  BufferPool loop_pool(&dev, 4);
  for (PageId id : ids) ASSERT_TRUE(loop_pool.Fetch(id).ok());
  BufferPool batch_pool(&dev, 4);
  ASSERT_TRUE(batch_pool.FetchBatch(ids).ok());
  EXPECT_EQ(batch_pool.hits(), loop_pool.hits());
  EXPECT_EQ(batch_pool.misses(), loop_pool.misses());
  EXPECT_EQ(batch_pool.io_stats().random_reads,
            loop_pool.io_stats().random_reads);
  EXPECT_EQ(batch_pool.io_stats().sequential_reads,
            loop_pool.io_stats().sequential_reads);
}

TEST(FetchBatchTest, HitsAreServedBeforeMissesEvictAtEveryDepth) {
  // One read path at every depth: the batch serves page 1 from the pool
  // (lifting it off the LRU tail) before the miss on page 0 evicts, so
  // the victim is page 2 and the batch costs a single device read.
  BlockDevice dev(16);
  dev.AllocatePages(4);
  for (int depth : {1, 8}) {
    BufferPool pool(&dev, 2);
    pool.set_io_queue_depth(depth);
    ASSERT_TRUE(pool.Fetch(1).ok());
    ASSERT_TRUE(pool.Fetch(2).ok());  // Full, page 1 at the LRU tail.
    pool.ResetCounters();
    ASSERT_TRUE(pool.FetchBatch({0, 1}).ok());
    EXPECT_EQ(pool.hits(), 1u) << "depth=" << depth;
    EXPECT_EQ(pool.misses(), 1u) << "depth=" << depth;
    EXPECT_EQ(pool.io_stats().total_reads(), 1u) << "depth=" << depth;
    ASSERT_TRUE(pool.Fetch(0).ok());  // Both batch pages stay resident.
    ASSERT_TRUE(pool.Fetch(1).ok());
    EXPECT_EQ(pool.misses(), 1u) << "depth=" << depth;
    ASSERT_TRUE(pool.Fetch(2).ok());  // The victim.
    EXPECT_EQ(pool.misses(), 2u) << "depth=" << depth;
  }
}

TEST(FetchBatchTest, CrossShardBatchOverlapsPerShardQueues) {
  StorageTopology topo(StorageTopologyOptions{2, 16});
  topo.shard(0)->AllocatePages(4);
  topo.shard(1)->AllocatePages(4);
  BufferPool pool(&topo, 16);
  pool.set_io_queue_depth(4);
  std::vector<PageId> ids;
  for (PageId p = 0; p < 4; ++p) {
    ids.push_back(MakePageAddress(0, p));
    ids.push_back(MakePageAddress(1, p));
  }
  auto refs = pool.FetchBatch(ids);
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(pool.misses(), 8u);
  // Each shard serviced its own 4-page queue: with the whole sub-batch
  // in flight the mean occupancy exceeds 1 on both shards.
  for (int shard : {0, 1}) {
    EXPECT_EQ(pool.shard_io_stats(shard).batched_reads, 4u);
    EXPECT_GT(pool.shard_io_stats(shard).mean_inflight(), 1.0);
  }
  // Batch totals equal the per-shard sums (the accounting invariant the
  // engine's per-shard breakdown relies on).
  EXPECT_EQ(pool.io_stats().total_reads(), 8u);
  EXPECT_EQ(pool.io_stats().batched_reads, 8u);
}

TEST(FetchBatchTest, EvictionStaysDeterministicUnderReordering) {
  // Pages enter the LRU in request order whatever the service order, so
  // a tiny pool ends resident with the last-requested pages.
  BlockDevice dev(16);
  dev.AllocatePages(8);
  BufferPool pool(&dev, 2);
  pool.set_io_queue_depth(8);
  auto refs = pool.FetchBatch({7, 0, 3, 5});
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ(pool.resident(), 2u);
  const uint64_t misses_before = pool.misses();
  ASSERT_TRUE(pool.Fetch(3).ok());  // Still resident.
  ASSERT_TRUE(pool.Fetch(5).ok());  // Still resident.
  EXPECT_EQ(pool.misses(), misses_before);
  ASSERT_TRUE(pool.Fetch(7).ok());  // Evicted -> miss.
  EXPECT_EQ(pool.misses(), misses_before + 1);
}

TEST(ReadExtentsBatchedTest, MatchesReadExtentAtAnyDepth) {
  Rng rng(47);
  StorageTopology topo(StorageTopologyOptions{3, 64});
  ShardedExtentWriter writer(&topo);
  std::vector<std::string> blobs;
  std::vector<Extent> extents;
  for (int i = 0; i < 60; ++i) {
    std::string blob;
    const size_t len = rng.Uniform(300);
    blob.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      blob.push_back(static_cast<char>(rng.Uniform(256)));
    }
    auto e = writer.Append(static_cast<uint32_t>(i % 3), blob);
    ASSERT_TRUE(e.ok());
    blobs.push_back(std::move(blob));
    extents.push_back(*e);
  }
  ASSERT_TRUE(writer.Flush().ok());
  for (int depth : {1, 2, 8}) {
    BufferPool pool(&topo, 32);
    pool.set_io_queue_depth(depth);
    auto result = ReadExtentsBatched(&pool, extents, 64);
    ASSERT_TRUE(result.ok()) << "depth=" << depth;
    ASSERT_EQ(result->size(), blobs.size());
    for (size_t i = 0; i < blobs.size(); ++i) {
      EXPECT_EQ((*result)[i], blobs[i]) << "depth=" << depth << " i=" << i;
    }
  }
}

TEST(StorageTopologyTest, MaxAddressableShardCountConstructs) {
  // Shard ids 0..kMaxShards-1 all fit in the address bits, so a topology
  // of exactly kMaxShards shards is valid.
  StorageTopology topo(
      StorageTopologyOptions{static_cast<int>(kMaxShards), 16});
  EXPECT_EQ(topo.num_shards(), static_cast<int>(kMaxShards));
  topo.shard(static_cast<int>(kMaxShards) - 1)->AllocatePage();
  BufferPool pool(&topo, 2);
  EXPECT_TRUE(pool.Fetch(MakePageAddress(kMaxShards - 1, 0)).ok());
}

// ----------------------------------------------- Async write batch path

TEST(SubmitWriteBatchTest, Depth1MatchesWritePageLoopExactly) {
  // write_queue_depth == 1 must degenerate to the synchronous path:
  // strict FIFO service, same random/sequential classification as the
  // equivalent WritePage loop, same page bytes.
  BlockDevice batched_dev(64);
  BlockDevice sync_dev(64);
  batched_dev.AllocatePages(10);
  sync_dev.AllocatePages(10);
  const std::vector<AsyncWriteRequest> requests{
      {5, "five"}, {3, "three"}, {4, "four"}};
  ASSERT_TRUE(batched_dev.SubmitWriteBatch(requests, 1).ok());
  for (const AsyncWriteRequest& r : requests) {
    ASSERT_TRUE(sync_dev.WritePage(r.page, r.data).ok());
  }
  EXPECT_EQ(batched_dev.stats().random_writes, sync_dev.stats().random_writes);
  EXPECT_EQ(batched_dev.stats().sequential_writes,
            sync_dev.stats().sequential_writes);
  EXPECT_EQ(batched_dev.stats().batched_writes, 3u);
  EXPECT_DOUBLE_EQ(batched_dev.stats().mean_write_inflight(), 1.0);
  ReadCursor a, b;
  for (PageId p = 0; p < 10; ++p) {
    EXPECT_EQ(*batched_dev.ReadPage(p, &a), *sync_dev.ReadPage(p, &b))
        << "page " << p;
  }
}

TEST(SubmitWriteBatchTest, DeepQueueReordersSeekAware) {
  // With the whole batch in flight the device services the shortest seek
  // first: writes [5, 3, 4] after a write to page 2 become 3, 4, 5 — all
  // sequential — and the occupancy counters see the full queue.
  BlockDevice dev(64);
  dev.AllocatePages(10);
  ASSERT_TRUE(dev.WritePage(2, "head").ok());
  dev.mutable_stats()->Reset();  // Keep the head position, drop counters.
  const std::vector<AsyncWriteRequest> requests{
      {5, "five"}, {3, "three"}, {4, "four"}};
  ASSERT_TRUE(dev.SubmitWriteBatch(requests, 3).ok());
  EXPECT_EQ(dev.stats().sequential_writes, 3u);
  EXPECT_EQ(dev.stats().random_writes, 0u);
  // Occupancy: 3 in flight, then 2, then 1.
  EXPECT_EQ(dev.stats().batched_writes, 3u);
  EXPECT_EQ(dev.stats().write_inflight_accum, 6u);
  EXPECT_DOUBLE_EQ(dev.stats().mean_write_inflight(), 2.0);
  ReadCursor cursor;
  EXPECT_EQ(dev.ReadPage(3, &cursor)->substr(0, 5), "three");
  EXPECT_EQ(dev.ReadPage(4, &cursor)->substr(0, 4), "four");
  EXPECT_EQ(dev.ReadPage(5, &cursor)->substr(0, 4), "five");
}

TEST(SubmitWriteBatchTest, ValidatesBeforeAccountingOrWriting) {
  BlockDevice dev(8);
  dev.AllocatePages(2);
  ASSERT_TRUE(dev.WritePage(0, "keep").ok());
  dev.mutable_stats()->Reset();
  // Unallocated target: nothing written, nothing accounted.
  EXPECT_TRUE(dev.SubmitWriteBatch({{0, "clobber"}, {99, "x"}}, 4)
                  .IsOutOfRange());
  EXPECT_EQ(dev.stats().total_writes(), 0u);
  // Oversized payload: same.
  EXPECT_FALSE(dev.SubmitWriteBatch({{0, "far too long for 8B"}}, 4).ok());
  EXPECT_EQ(dev.stats().total_writes(), 0u);
  ReadCursor cursor;
  EXPECT_EQ(dev.ReadPage(0, &cursor)->substr(0, 4), "keep");
}

TEST(TopologySubmitWriteBatchTest, RoutesPerShardWriteQueues) {
  StorageTopology topo(StorageTopologyOptions{2, 16});
  topo.shard(0)->AllocatePages(4);
  topo.shard(1)->AllocatePages(4);
  std::vector<AsyncWriteRequest> requests;
  requests.push_back({MakePageAddress(1, 2), "s1p2"});
  requests.push_back({MakePageAddress(0, 1), "s0p1"});
  requests.push_back({MakePageAddress(1, 3), "s1p3"});
  ASSERT_TRUE(topo.SubmitWriteBatch(std::move(requests), 4).ok());
  EXPECT_EQ(topo.shard(0)->stats().total_writes(), 1u);
  EXPECT_EQ(topo.shard(1)->stats().total_writes(), 2u);
  EXPECT_EQ(topo.shard(0)->stats().batched_writes, 1u);
  ReadCursor c0, c1;
  EXPECT_EQ(topo.shard(0)->ReadPage(1, &c0)->substr(0, 4), "s0p1");
  EXPECT_EQ(topo.shard(1)->ReadPage(2, &c1)->substr(0, 4), "s1p2");
  EXPECT_EQ(topo.shard(1)->ReadPage(3, &c1)->substr(0, 4), "s1p3");
  // A routed batch with a bad address writes nothing anywhere.
  std::vector<AsyncWriteRequest> bad;
  bad.push_back({MakePageAddress(0, 0), "ok"});
  bad.push_back({MakePageAddress(7, 0), "no such shard"});
  EXPECT_TRUE(topo.SubmitWriteBatch(std::move(bad), 2).IsOutOfRange());
  EXPECT_EQ(topo.shard(0)->stats().total_writes(), 1u);
}

TEST(ExtentWriterWriteBatchingTest, DeepQueueImageMatchesSynchronous) {
  // The same append sequence at write_queue_depth 1 and 8 must produce
  // bit-identical devices; only the accounting path differs (the deep
  // writer batches every page, the depth-1 writer batches none). Enough
  // blobs to overflow the writer's page buffer several times.
  BlockDevice sync_dev(64);
  BlockDevice deep_dev(64);
  ExtentWriter sync_writer(&sync_dev, 0, 1);
  ExtentWriter deep_writer(&deep_dev, 0, 8);
  Rng rng(4242);
  for (int i = 0; i < 400; ++i) {
    std::string blob;
    const size_t len = 1 + rng.Uniform(150);
    for (size_t j = 0; j < len; ++j) {
      blob.push_back(static_cast<char>('a' + (i + static_cast<int>(j)) % 26));
    }
    auto a = sync_writer.Append(blob);
    auto b = deep_writer.Append(blob);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->first_page, b->first_page);
    EXPECT_EQ(a->offset_in_page, b->offset_in_page);
    if (i % 37 == 0) {
      ASSERT_TRUE(sync_writer.AlignToPage().ok());
      ASSERT_TRUE(deep_writer.AlignToPage().ok());
    }
  }
  ASSERT_TRUE(sync_writer.Flush().ok());
  ASSERT_TRUE(deep_writer.Flush().ok());
  ASSERT_EQ(sync_dev.num_pages(), deep_dev.num_pages());
  ReadCursor a, b;
  for (PageId p = 0; p < sync_dev.num_pages(); ++p) {
    EXPECT_EQ(*sync_dev.ReadPage(p, &a), *deep_dev.ReadPage(p, &b))
        << "page " << p;
  }
  EXPECT_EQ(sync_dev.stats().batched_writes, 0u);
  EXPECT_EQ(deep_dev.stats().batched_writes, deep_dev.stats().total_writes());
  EXPECT_EQ(sync_dev.stats().total_writes(), deep_dev.stats().total_writes());
  EXPECT_GT(deep_dev.stats().mean_write_inflight(), 1.0);
}

// ------------------------------------------------------ BuildWorkerPool

TEST(BuildWorkerPoolTest, InlineModeRunsTasksAtSubmitInOrder) {
  BuildWorkerPool pool(4, 1);
  EXPECT_EQ(pool.num_workers(), 1);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    pool.Submit(static_cast<uint32_t>(i % 4), [&order, i]() {
      order.push_back(i);
      return Status::OK();
    });
    // Inline mode runs before Submit returns.
    EXPECT_EQ(order.size(), static_cast<size_t>(i + 1));
  }
  EXPECT_TRUE(pool.Finish().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(BuildWorkerPoolTest, ThreadedModePreservesPerShardFifo) {
  constexpr int kShards = 4;
  constexpr int kTasksPerShard = 50;
  BuildWorkerPool pool(kShards, 0);  // One worker per shard.
  EXPECT_EQ(pool.num_workers(), kShards);
  std::vector<std::vector<int>> per_shard(kShards);
  for (int i = 0; i < kTasksPerShard; ++i) {
    for (int s = 0; s < kShards; ++s) {
      pool.Submit(static_cast<uint32_t>(s), [&per_shard, s, i]() {
        per_shard[static_cast<size_t>(s)].push_back(i);
        return Status::OK();
      });
    }
  }
  ASSERT_TRUE(pool.Barrier().ok());
  // Barrier drains; the pool stays usable for a second phase.
  for (int s = 0; s < kShards; ++s) {
    pool.Submit(static_cast<uint32_t>(s), [&per_shard, s, kTasksPerShard]() {
      per_shard[static_cast<size_t>(s)].push_back(kTasksPerShard);
      return Status::OK();
    });
  }
  ASSERT_TRUE(pool.Finish().ok());
  for (int s = 0; s < kShards; ++s) {
    ASSERT_EQ(per_shard[s].size(), static_cast<size_t>(kTasksPerShard + 1));
    for (int i = 0; i <= kTasksPerShard; ++i) {
      EXPECT_EQ(per_shard[s][static_cast<size_t>(i)], i)
          << "shard " << s << " ran out of order";
    }
  }
}

TEST(BuildWorkerPoolTest, ErrorStopsInlinePoolAndIsReturned) {
  BuildWorkerPool pool(2, 1);
  int ran = 0;
  pool.Submit(0, [&ran]() {
    ++ran;
    return Status::OK();
  });
  pool.Submit(1, []() { return Status::Corruption("unit 1 broke"); });
  pool.Submit(0, [&ran]() {
    ++ran;
    return Status::OK();
  });
  Status status = pool.Finish();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(ran, 1) << "tasks after a failure must be skipped";
}

TEST(BuildWorkerPoolTest, ThreadedErrorSurfacesThroughBarrier) {
  BuildWorkerPool pool(4, 4);
  for (int i = 0; i < 16; ++i) {
    pool.Submit(static_cast<uint32_t>(i % 4), [i]() {
      if (i == 5) return Status::Corruption("task 5 broke");
      return Status::OK();
    });
  }
  EXPECT_TRUE(pool.Finish().IsCorruption());
}

}  // namespace
}  // namespace streach
