#ifndef STREACH_STORAGE_BLOCK_FILE_H_
#define STREACH_STORAGE_BLOCK_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/block_device.h"
#include "storage/buffer_pool.h"
#include "storage/page_codec.h"
#include "storage/storage_topology.h"

namespace streach {

/// \brief Sequential writer that packs blobs onto consecutive pages.
///
/// Both indexes lay out their structures by appending blobs in a carefully
/// chosen order (cells of bucket i before bucket j>i for ReachGrid;
/// partitions in creation order for ReachGraph). The writer packs blobs
/// back-to-back across page boundaries so consecutive blobs land on
/// consecutive pages — the property that turns traversal IO sequential.
///
/// Write batching: at `write_queue_depth == 1` (the default) every
/// finished page goes straight through the synchronous
/// `BlockDevice::WritePage` — the historical build sequence page for
/// page. At depth N > 1 finished pages are buffered (up to
/// `kWriteBufferPages`) and submitted through
/// `BlockDevice::SubmitWriteBatch`, so the device keeps up to N writes in
/// flight. Page contents are identical either way — only the IO cost
/// profile (and the `batched_writes` accounting) differs.
///
/// Codec: every appended blob passes through the writer's `PageCodec`
/// before placement. The raw codec (default) appends the bytes verbatim —
/// bit-identical to the historical images — while a non-raw codec stores
/// the encoded form (`Extent::length` is the stored size) and accounts
/// `encoded_bytes`/`decoded_bytes` against the device-global stats, the
/// source of a build's compression ratio.
///
/// Integrity: every non-empty blob is placed with a 4-byte FNV-1a footer
/// over its stored bytes (see checksum.h), counted by `Extent::length`
/// and `bytes_written()` but NOT by the codec byte accounting, which
/// stays payload-only so compression ratios are footer-independent.
/// Extent reads verify and strip the footer; torn or bit-flipped records
/// surface as `Corruption` under every codec, including raw.
class ExtentWriter {
 public:
  /// Pages buffered before a batch is submitted at depth > 1. Large
  /// enough that a full write queue amortizes across many services.
  static constexpr size_t kWriteBufferPages = 64;

  /// Writes onto `device`; extents are addressed as shard `shard_id`
  /// pages (shard 0 — the default — yields plain local page ids).
  /// `codec == nullptr` means the raw codec.
  explicit ExtentWriter(BlockDevice* device, uint32_t shard_id = 0,
                        int write_queue_depth = 1,
                        const PageCodec* codec = nullptr);

  /// Appends `blob` after the previous one; returns where it landed.
  /// Without a shape the whole blob is one opaque-bytes run (a non-raw
  /// codec still wraps it so readers can decode uniformly).
  Result<Extent> Append(std::string_view blob);

  /// Appends `blob`, whose run structure is `shape` — the declaration a
  /// non-raw codec compresses by. `shape` must cover `blob` exactly.
  Result<Extent> Append(std::string_view blob, const RecordShape& shape);

  /// Pads to the next page boundary so the following blob starts a fresh
  /// page (used to align independent sections).
  Status AlignToPage();

  /// Flushes the partially filled trailing page and drains any buffered
  /// write batch. Must be called once after the last Append; further
  /// Appends are allowed and continue on a new page.
  Status Flush();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  /// Packs already-encoded bytes after the previous blob (the historical
  /// Append body; both public overloads funnel through it).
  Result<Extent> AppendStored(std::string_view stored);

  Status FlushCurrentPage();
  /// Submits the buffered pages as one write batch (no-op when empty).
  Status FlushPendingWrites();

  BlockDevice* device_;
  uint32_t shard_id_;
  int write_queue_depth_;
  const PageCodec* codec_;
  std::string current_;    // Buffered bytes of the page being filled.
  PageId current_page_ = kInvalidPage;  // Local page on `device_`.
  uint64_t bytes_written_ = 0;
  // Finished pages awaiting batch submission (depth > 1 only).
  std::vector<AsyncWriteRequest> pending_writes_;
};

/// \brief One `ExtentWriter` per shard of a topology.
///
/// Index builders place each structure by routing its placement unit to a
/// shard (`StorageTopology::ShardForPartition` / `ShardForObject`) and
/// appending its blobs to that shard's writer; blobs appended to the same
/// shard pack back-to-back exactly like on a single device, so the
/// within-shard sequential-placement guarantees are preserved no matter
/// how the units interleave across shards. All extents come back with
/// routed page addresses.
///
/// Thread safety: appends to *different* shards may run concurrently (one
/// build worker per shard — each per-shard writer buffers and flushes
/// against its own device only); appends to the same shard must be
/// serialized by the caller, which is exactly what `BuildWorkerPool`'s
/// shard-pinned FIFO ordering provides. `AlignAllToPage`/`Flush` touch
/// every shard and must run with no appends in flight (after a pool
/// barrier).
class ShardedExtentWriter {
 public:
  /// `write_queue_depth` as in `BuildOptions`: 1 = synchronous WritePage
  /// per finished page, N > 1 = per-shard batches with N in flight.
  /// `codec == nullptr` means the raw codec; all shards share it.
  explicit ShardedExtentWriter(StorageTopology* topology,
                               int write_queue_depth = 1,
                               const PageCodec* codec = nullptr);

  /// Appends `blob` to `shard`'s device after that shard's previous blob.
  Result<Extent> Append(uint32_t shard, std::string_view blob);

  /// Appends `blob` with its declared run structure (see `ExtentWriter`).
  Result<Extent> Append(uint32_t shard, std::string_view blob,
                        const RecordShape& shape);

  /// Pads `shard` to its next page boundary.
  Status AlignToPage(uint32_t shard);

  /// Pads every shard to its next page boundary (section breaks).
  Status AlignAllToPage();

  /// Flushes the trailing partial page of every shard.
  Status Flush();

  uint64_t bytes_written() const;

 private:
  std::vector<ExtentWriter> writers_;
};

/// \brief Reads a record back from an `Extent` through a buffer pool:
/// fetches the spanned pages one `BufferPool::Fetch` at a time, in
/// ascending order, concatenates them and, under a non-raw pool codec,
/// decodes the stored bytes back into the raw record (consulting the
/// pool's decoded-record cache first — a hit costs neither page IO nor
/// codec work). Returns the raw record bytes in every case.
Result<std::string> ReadExtent(BufferPool* pool, const Extent& extent,
                               size_t page_size);

/// \brief Reads several blobs through one batched fetch.
///
/// Collects every page the extents span — extents in input order, pages
/// ascending within each — and issues a single `BufferPool::FetchBatch`,
/// so the per-shard submission queues see the whole traversal step's
/// demand at once instead of one page at a time. `result[i]` is the raw
/// record of `extents[i]` (decoded like `ReadExtent`; under a non-raw
/// codec, records the decoded cache serves are excluded from the page
/// batch entirely). At a queue depth of 1 each shard's queue services
/// the pages in that order.
Result<std::vector<std::string>> ReadExtentsBatched(
    BufferPool* pool, const std::vector<Extent>& extents, size_t page_size);

}  // namespace streach

#endif  // STREACH_STORAGE_BLOCK_FILE_H_
