#ifndef STREACH_STORAGE_BUFFER_POOL_H_
#define STREACH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include <vector>

#include "common/result.h"
#include "storage/block_device.h"
#include "storage/page_codec.h"
#include "storage/storage_topology.h"

namespace streach {

/// \brief Stable handle to a fetched page.
///
/// A `PageRef` shares ownership of the page bytes with the pool, so the
/// view stays valid even if a later fetch within the same traversal step
/// evicts the page from the pool (the pool merely drops its own
/// reference). Default-constructed refs are invalid.
class PageRef {
 public:
  PageRef() = default;
  explicit PageRef(std::shared_ptr<const std::string> bytes)
      : bytes_(std::move(bytes)) {}

  bool valid() const { return bytes_ != nullptr; }
  std::string_view view() const {
    return bytes_ ? std::string_view(*bytes_) : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT
  const char* data() const { return bytes_ ? bytes_->data() : nullptr; }
  size_t size() const { return bytes_ ? bytes_->size() : 0; }
  char operator[](size_t i) const { return view()[i]; }

 private:
  std::shared_ptr<const std::string> bytes_;
};

/// \brief LRU page cache in front of a `BlockDevice`.
///
/// Both index query processors buffer pages during traversal — ReachGrid
/// buffers the cells retrieved within a temporal bucket ("the retrieved
/// cells are buffered to prevent unnecessary future retrievals", §4.2) and
/// ReachGraph buffers partitions ("a partition is retrieved and buffered...
/// older partitions in memory can be discarded", §5.2). A hit costs no
/// device IO; a miss reads through and may evict the least recently used
/// page.
///
/// Each pool models its own set of disk heads — one `ReadCursor` per
/// shard of the underlying topology (a single cursor over a bare device).
/// Device accesses are classified per shard and counted against those
/// private cursors, so independent pools (one per query thread) never
/// contend on shared counters, accesses to different shards never disturb
/// each other's sequentiality, and the device read path stays `const`. A
/// `BufferPool` itself is NOT thread-safe — use one instance per thread.
///
/// Pools are a read-path structure only: index builds write *beneath*
/// the pool (extent writers drive `WritePage`/`SubmitWriteBatch` on the
/// devices directly), and no pool may fetch pages while a build mutates
/// the underlying devices — sessions are only minted over finished,
/// immutable indexes, so the regime holds by construction.
class BufferPool {
 public:
  /// Pool over a single bare device (shard-0 addresses only).
  /// `capacity_pages` bounds resident pages; must be positive.
  BufferPool(const BlockDevice* device, size_t capacity_pages);

  /// Pool over a sharded topology: fetches route by the page address's
  /// shard bits. `capacity_pages` bounds resident pages across all shards.
  BufferPool(const StorageTopology* topology, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Batched fetch, the pool's only read path: `result[i]` is a stable
  /// handle to page `ids[i]`, valid even after the page is evicted. The
  /// fetch runs in passes. First every cached page is served from the
  /// pool (a hit refreshes its LRU position). Then the misses are
  /// deduplicated (a repeated miss counts one device read plus pool
  /// hits) and submitted to the per-shard device queues in one batch at
  /// `io_queue_depth()`, so up to `depth × num_shards` reads overlap.
  /// Last, the fresh pages enter the LRU in request order whatever the
  /// device's service order, keeping eviction deterministic. At depth 1
  /// each shard's queue services its misses one at a time in request
  /// order.
  Result<std::vector<PageRef>> FetchBatch(const std::vector<PageId>& ids);

  /// A batch of one: `FetchBatch({id})[0]`.
  Result<PageRef> Fetch(PageId id);

  /// Submission-queue depth used for each shard's device queue; must be
  /// positive. 1 (the default) keeps one read outstanding per shard —
  /// the paper's cost model.
  void set_io_queue_depth(int depth);
  int io_queue_depth() const { return io_queue_depth_; }

  /// Bounded retry budget for transient (`Unavailable`) read failures:
  /// a miss that fails transiently is reissued in the next submission
  /// round, up to `retries` times — each attempt accounted like any other
  /// access, plus the `read_retries`/`transient_faults` counters — before
  /// the failure is surfaced to the caller. Non-transient errors
  /// (`IOError`, `Corruption`) are never retried: the media will not get
  /// better.
  /// 0 (the default) surfaces the first failure — the historical
  /// behavior, and fault-free runs never enter the loop.
  void set_max_read_retries(int retries);
  int max_read_retries() const { return max_read_retries_; }

  /// \name Page codec & decoded-record cache
  ///
  /// A pool serving an index built with a non-raw `PageCodec` must decode
  /// every stored extent back into its raw record bytes
  /// (`ReadExtent`/`ReadExtentsBatched` route through the codec set
  /// here). Decoding costs CPU per fetch, so the pool keeps a small
  /// bounded LRU of decoded records keyed by extent: a hot record is
  /// decoded once and then served without page IO or codec work until
  /// evicted. The cache is byte-budgeted (default: the same budget as the
  /// page cache, `capacity() * page_size`), sits beside the page LRU, and
  /// is dropped by `Clear()` so cold-cache measurement protocols stay
  /// honest. Under the raw codec the record paths never consult it, which
  /// keeps raw IO accounting bit-identical to the historical pool.
  /// @{

  /// Sets the codec extents read through this pool were stored with.
  /// Must match the codec the index was built with; `GetPageCodec(kRaw)`
  /// is the default. Never null.
  void set_page_codec(const PageCodec* codec);
  const PageCodec* page_codec() const { return codec_; }

  /// Byte budget of the decoded-record cache (0 disables caching;
  /// records larger than the budget are served but not retained).
  void set_decoded_cache_capacity(size_t bytes);
  size_t decoded_cache_capacity() const { return decoded_capacity_; }
  /// Bytes of decoded records currently retained.
  size_t decoded_cache_bytes() const { return decoded_bytes_; }

  /// Cached decoded record for `extent`, or nullptr (records a decoded
  /// hit/miss and refreshes the LRU position on a hit).
  std::shared_ptr<const std::string> LookupDecodedRecord(const Extent& extent);

  /// Retains a freshly decoded record (evicting LRU records over budget).
  void InsertDecodedRecord(const Extent& extent,
                           std::shared_ptr<const std::string> record);

  /// Accounts one extent decode (stored -> raw bytes) against `shard`'s
  /// cursor stats — the source of the per-shard compression ratios
  /// reported by `WorkloadSummary`.
  void AccountDecode(uint32_t shard, uint64_t encoded_bytes,
                     uint64_t decoded_bytes);

  /// Record fetches served from the decoded cache / decoded fresh.
  uint64_t decoded_hits() const { return decoded_hits_; }
  uint64_t decoded_misses() const { return decoded_misses_; }
  /// @}

  /// Drops all cached pages (e.g. between benchmark queries to make every
  /// query cold). Outstanding `PageRef`s stay valid.
  void Clear();

  /// Maximum resident pages (fixed at construction, always positive).
  size_t capacity() const { return capacity_; }
  /// Pages currently cached; never exceeds capacity().
  size_t resident() const { return entries_.size(); }
  /// Fetches served without device IO since the last ResetCounters().
  uint64_t hits() const { return hits_; }
  /// Fetches that read through to a device. Every requested page is
  /// exactly one hit or one miss (a repeated miss within one batch counts
  /// as a hit after its first occurrence), so hits + misses = total
  /// requested pages.
  uint64_t misses() const { return misses_; }
  /// Zeroes hit/miss counters (page and decoded-record) and every shard
  /// cursor (stats + head position); cached pages and decoded records
  /// stay resident. Used between measured runs.
  void ResetCounters() {
    hits_ = misses_ = 0;
    decoded_hits_ = decoded_misses_ = 0;
    for (ReadCursor& cursor : cursors_) cursor.Reset();
  }

  /// Device accesses performed through this pool, summed across shards
  /// (the per-query IO metric sources: random/sequential reads and their
  /// normalized cost).
  IoStats io_stats() const {
    IoStats total;
    for (const ReadCursor& cursor : cursors_) total += cursor.stats;
    return total;
  }

  /// Shards behind this pool (1 over a bare device).
  int num_shards() const { return static_cast<int>(cursors_.size()); }

  /// Device accesses performed through this pool against one shard.
  const IoStats& shard_io_stats(int shard) const {
    return cursors_[static_cast<size_t>(shard)].stats;
  }

  /// Per-shard accesses for all shards (index = shard id).
  std::vector<IoStats> PerShardIoStats() const {
    std::vector<IoStats> stats;
    stats.reserve(cursors_.size());
    for (const ReadCursor& cursor : cursors_) stats.push_back(cursor.stats);
    return stats;
  }

  /// The bare device behind this pool, or nullptr in topology mode.
  const BlockDevice* device() const { return device_; }
  /// The topology behind this pool, or nullptr in bare-device mode.
  const StorageTopology* topology() const { return topology_; }

 private:
  struct Entry {
    std::shared_ptr<const std::string> bytes;
    std::list<PageId>::iterator lru_it;
  };

  /// Decoded-record cache key: a record is uniquely addressed by where
  /// its stored bytes start (extents never overlap).
  struct DecodedKey {
    PageId first_page = kInvalidPage;
    uint64_t offset_in_page = 0;
    bool operator==(const DecodedKey& o) const {
      return first_page == o.first_page && offset_in_page == o.offset_in_page;
    }
  };
  struct DecodedKeyHash {
    size_t operator()(const DecodedKey& k) const {
      return static_cast<size_t>(
          (k.first_page * 0x9E3779B97F4A7C15ull) ^ k.offset_in_page);
    }
  };
  struct DecodedEntry {
    std::shared_ptr<const std::string> record;
    std::list<DecodedKey>::iterator lru_it;
  };

  /// Body of Fetch and FetchBatch: fetches `ids[0..count)` into
  /// `refs[i]`.
  Status FetchInto(const PageId* ids, size_t count, PageRef* refs);

  /// Evicts decoded records LRU-first until at most `budget` bytes stay.
  void EvictDecodedDownTo(size_t budget);

  const BlockDevice* device_;          // Bare-device mode; else nullptr.
  const StorageTopology* topology_;    // Topology mode; else nullptr.
  size_t capacity_;
  int io_queue_depth_ = 1;
  int max_read_retries_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<ReadCursor> cursors_;  // One per shard.
  // Front of the list = most recently used.
  std::list<PageId> lru_;
  std::unordered_map<PageId, Entry> entries_;

  // Codec + decoded-record cache (see the block comment above).
  const PageCodec* codec_;
  size_t decoded_capacity_;
  size_t decoded_bytes_ = 0;
  uint64_t decoded_hits_ = 0;
  uint64_t decoded_misses_ = 0;
  std::list<DecodedKey> decoded_lru_;  // Front = most recently used.
  std::unordered_map<DecodedKey, DecodedEntry, DecodedKeyHash> decoded_;
};

}  // namespace streach

#endif  // STREACH_STORAGE_BUFFER_POOL_H_
