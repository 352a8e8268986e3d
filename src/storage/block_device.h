#ifndef STREACH_STORAGE_BLOCK_DEVICE_H_
#define STREACH_STORAGE_BLOCK_DEVICE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/io_stats.h"

namespace streach {

class FaultInjector;

/// Identifier of a fixed-size page on a block device.
using PageId = uint64_t;

inline constexpr PageId kInvalidPage = static_cast<PageId>(-1);

/// \name Routed page addresses
///
/// A `StorageTopology` splits an index's storage across several per-shard
/// `BlockDevice`s. A routed page address packs the owning shard into the
/// top bits of a `PageId` and the page's position on that shard's device
/// (its *local* page) into the low bits, so `Extent`s, buffer-pool keys
/// and the `++page` arithmetic of multi-page blobs keep working unchanged
/// — consecutive local pages of one shard are consecutive addresses, and
/// a blob never crosses shards. Shard 0 addresses are bit-identical to
/// plain local page ids, which is what makes a 1-shard topology
/// bit-compatible with the historical single-device layout.
/// @{
inline constexpr int kShardAddressBits = 10;
inline constexpr int kLocalPageBits = 64 - kShardAddressBits;
inline constexpr uint32_t kMaxShards = 1u << kShardAddressBits;
inline constexpr PageId kLocalPageMask =
    (static_cast<PageId>(1) << kLocalPageBits) - 1;

constexpr PageId MakePageAddress(uint32_t shard, PageId local_page) {
  return (static_cast<PageId>(shard) << kLocalPageBits) |
         (local_page & kLocalPageMask);
}

constexpr uint32_t ShardOfPage(PageId address) {
  return static_cast<uint32_t>(address >> kLocalPageBits);
}

constexpr PageId LocalPageOf(PageId address) {
  return address & kLocalPageMask;
}
/// @}

/// Location of a serialized blob on the device: a byte range inside a run
/// of consecutive pages. `length` counts *stored* bytes — under a non-raw
/// page codec that is the encoded size, not the raw record size, and for
/// non-empty blobs it includes the 4-byte checksum footer the extent
/// writer appends (see checksum.h); extent reads verify and strip the
/// footer before handing bytes to the codec.
struct Extent {
  PageId first_page = kInvalidPage;
  uint64_t offset_in_page = 0;  ///< Byte offset within first_page.
  uint64_t length = 0;          ///< Stored blob length in bytes.

  bool valid() const { return first_page != kInvalidPage; }

  /// Number of pages the blob spans given a page size.
  uint64_t PageSpan(size_t page_size) const {
    if (length == 0) return 0;
    return (offset_in_page + length + page_size - 1) / page_size;
  }
};

/// \brief Per-reader access state for the concurrent read path.
///
/// Sequential-vs-random classification needs the position of the previous
/// access ("where the disk head is"). For concurrent readers each reader
/// models its own head: a `ReadCursor` carries that position plus the
/// reader's private `IoStats`, so `BlockDevice::ReadPage(id, cursor)` can
/// stay `const` and data-race-free across threads.
struct ReadCursor {
  IoStats stats;
  PageId last_access = kInvalidPage;

  void Reset() {
    stats.Reset();
    last_access = kInvalidPage;
  }
};

/// \name Batched async read path
///
/// The synchronous `ReadPage` services one request at a time, so a
/// traversal that needs k pages pays k head movements in request order —
/// the simulated queue never sees depth. `SubmitBatch` models an
/// io_uring-style submission queue instead: the caller submits a batch of
/// page reads, up to `queue_depth` of them are outstanding at once, and
/// the device services whichever outstanding request is cheapest for the
/// head (a sequential continuation wins outright, otherwise the shortest
/// seek, FIFO on ties — deterministic). Completions are delivered in
/// service order and carry the caller's tag, so the caller can reassemble
/// results in request order. With `queue_depth == 1` exactly one request
/// is outstanding and the device degenerates to the synchronous path:
/// same service order, same accounting. Buffer pools read only through
/// `SubmitBatch`; `ReadPage` is the reference it is specified against.
/// @{

/// One entry of an async read batch: a page plus a caller-chosen tag that
/// survives completion reordering.
struct AsyncReadRequest {
  PageId page = kInvalidPage;
  uint64_t tag = 0;
};

/// A serviced async read. `data` points into the device page (valid until
/// the next allocation); `inflight` is the submission-queue occupancy at
/// the moment this request was serviced, including itself — the overlap
/// signal aggregated into `IoStats::mean_inflight()`. `status` is the
/// per-request outcome: a failed request (injected fault, checksum
/// mismatch) completes with its error and empty `data` while the rest of
/// the batch still services — mirroring per-CQE results in io_uring —
/// so the caller can retry exactly the failed pages.
struct AsyncReadCompletion {
  uint64_t tag = 0;
  PageId page = kInvalidPage;
  std::string_view data;
  uint32_t inflight = 0;
  Status status;
};
/// @}

/// \name Batched async write path
///
/// The write-side mirror of `SubmitBatch`, feeding index construction:
/// an extent writer buffers finished pages and submits them as one batch,
/// the device keeps up to `write_queue_depth` of them outstanding, and
/// services whichever outstanding write is cheapest for the head — the
/// same policy, accounting (sequential/random classification plus
/// `IoStats::batched_writes` / `write_inflight_accum` occupancy), and
/// depth-1 degeneration as the read queue. Because the §4.1/§5.1.3
/// placement keeps a build's pages consecutive per shard, a full write
/// queue services near-sequentially at any depth; the occupancy counters
/// certify the overlap a build achieved.
/// @{

/// One entry of an async write batch: the target page plus the bytes to
/// store there (owned, so a writer can buffer batches across appends).
/// At most page_size() bytes; shorter payloads are zero-padded exactly
/// like `WritePage`.
struct AsyncWriteRequest {
  PageId page = kInvalidPage;
  std::string data;
};
/// @}

/// \brief Simulated paged disk.
///
/// stReach targets *disk-resident* contact datasets; since the evaluation
/// metric of the paper is the number of (normalized) random page accesses,
/// we simulate the disk as an array of fixed-size pages with precise access
/// accounting instead of using a physical device. Semantics:
///
///  * `AllocatePage` appends a zeroed page and returns its id (page ids are
///    physical positions, so consecutively allocated pages are
///    consecutive on "disk" — this is what the index disk-placement
///    strategies of §4.1/§5.1.3 exploit).
///  * An access to page `p` is *sequential* if the immediately preceding
///    access touched page `p-1`, otherwise it is *random* (seek).
///
/// The device itself has no cache; deduplication of repeated reads is the
/// job of the `BufferPool`.
///
/// Integrity: every page has an out-of-band checksum sidecar entry
/// (refreshed on allocation and on every write) that each read path
/// verifies after accounting the access, so damaged media surfaces as
/// `Corruption` with the page and shard named — never as silently wrong
/// bytes. An attached `FaultInjector` is consulted at the same point and
/// can fail individual read attempts (`Unavailable` / `IOError`) before
/// the bytes are even looked at; failed attempts still account their
/// head movement, exactly like a real seek that returns garbage.
///
/// Thread safety: the cursor-based `ReadPage(id, cursor)` overload is safe
/// for any number of concurrent readers (with distinct cursors) as long as
/// no thread concurrently allocates or writes pages. The mutating members
/// (`AllocatePage`, `WritePage`, `SubmitWriteBatch`, the accounting
/// `ReadPage(id)`) require exclusive access to this device — during a
/// parallel index build each shard's device is driven by exactly one
/// build worker, which is that regime; indexes are immutable afterwards.
class BlockDevice {
 public:
  static constexpr size_t kDefaultPageSize = 4096;  // 4 KB, Table 3.

  explicit BlockDevice(size_t page_size = kDefaultPageSize);

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Fixed size of every page in bytes (immutable after construction).
  size_t page_size() const { return page_size_; }
  /// Pages allocated so far; valid ids are [0, num_pages()).
  PageId num_pages() const { return pages_.size(); }
  /// Total allocated bytes (num_pages() * page_size()).
  uint64_t size_bytes() const { return num_pages() * page_size_; }

  /// Appends a zeroed page; returns its id. Allocation itself performs no
  /// head movement and no IO accounting — only reads/writes do.
  PageId AllocatePage();

  /// Appends `n` zeroed pages; returns the id of the first.
  PageId AllocatePages(size_t n);

  /// Overwrites a page synchronously, accounting one write (sequential iff
  /// it targets the page after the previous access) against the
  /// device-global stats. `data` must be at most page_size() bytes;
  /// shorter payloads are zero-padded. Exclusive access required.
  Status WritePage(PageId id, std::string_view data);

  /// Batched async write path (see the AsyncWriteRequest block comment):
  /// services `requests` through a simulated submission queue holding up
  /// to `queue_depth` outstanding writes, storing each payload
  /// zero-padded and accounting every access (plus write-queue occupancy
  /// stats) against the device-global stats. Requests are validated
  /// before any is serviced, so a failed call writes nothing and performs
  /// no accounting. With `queue_depth == 1` writes are serviced strictly
  /// FIFO — the synchronous `WritePage` sequence page for page, plus the
  /// `batched_writes` occupancy counters. Requests targeting the same
  /// page in one batch may be serviced in either order; the extent
  /// writers never do that. Exclusive access required.
  Status SubmitWriteBatch(const std::vector<AsyncWriteRequest>& requests,
                          int queue_depth);

  /// Reads a page; the returned view is valid until the next allocation.
  /// Accounts the access against the device-global stats — single-threaded
  /// callers only.
  Result<std::string_view> ReadPage(PageId id);

  /// Concurrent-reader read path: accounts the access against `cursor`
  /// instead of the device-global stats. Safe to call from many threads
  /// with distinct cursors while no writes/allocations are in flight.
  Result<std::string_view> ReadPage(PageId id, ReadCursor* cursor) const;

  /// Batched async read path (see the AsyncReadRequest block comment):
  /// services `requests` through a simulated submission queue holding up
  /// to `queue_depth` outstanding requests, appending completions to
  /// `*completions` in service order and accounting every access (plus
  /// queue-occupancy stats) against `cursor`. Requests are validated
  /// before any is serviced, so a failed call performs no accounting.
  /// Thread safety matches `ReadPage(id, cursor)`.
  Status SubmitBatch(const std::vector<AsyncReadRequest>& requests,
                     int queue_depth, ReadCursor* cursor,
                     std::vector<AsyncReadCompletion>* completions) const;

  /// Attaches (or with nullptr detaches) a fault injector consulted on
  /// every read attempt; `shard_label` names this device in injected
  /// error messages and in the injector's per-shard fault schedule. The
  /// members are mutable and the method const because indexes expose
  /// their topology by const reference only — attachment is a test-time
  /// observer concern, not a logical mutation of the stored bytes. Only
  /// attach/detach while no reads are in flight.
  void set_fault_injector(const FaultInjector* injector,
                          uint32_t shard_label) const {
    fault_injector_ = injector;
    shard_label_ = shard_label;
  }
  const FaultInjector* fault_injector() const { return fault_injector_; }

  /// Flips bit `bit_index` of page `id`'s stored bytes — simulated media
  /// damage for fault tests. With `refresh_checksum` the page's sidecar
  /// entry is recomputed over the damaged bytes, so only the per-blob
  /// footer can catch the corruption; without it the sidecar goes stale
  /// and the next read of the page fails the page-level verify. Const
  /// (with one documented const_cast inside) for the same reason as
  /// `set_fault_injector`: tests hold topologies by const reference.
  /// No accounting, no head movement. Call only while no reads are in
  /// flight.
  Status CorruptPageForTesting(PageId id, uint64_t bit_index,
                               bool refresh_checksum) const;

  /// Device-global access counters: every `WritePage` /
  /// `SubmitWriteBatch` / accounting `ReadPage(id)` lands here; the
  /// cursor-based read paths account against their caller's cursor
  /// instead. This split is what lets builds (exclusive) and concurrent
  /// queries (shared) meter IO without contending on one counter.
  const IoStats& stats() const { return stats_; }
  /// Mutable access to the device-global stats (tests and benchmarks
  /// zero individual counters through this); does not touch the head.
  IoStats* mutable_stats() { return &stats_; }
  /// Zeroes the device-global stats and forgets the head position (the
  /// next access classifies as random). Builders call this once
  /// construction ends so query-time accounting starts clean.
  void ResetStats() {
    stats_.Reset();
    last_access_ = kInvalidPage;
  }

 private:
  void RecordAccess(PageId id, bool is_write);

  /// Shared random/sequential classification against an arbitrary head
  /// position; updates `*last` to `id`.
  static void ClassifyAccess(PageId id, bool is_write, IoStats* stats,
                             PageId* last);

  /// Outcome of a read attempt of an (already bounds-checked, already
  /// accounted) page: consults the attached fault injector, then
  /// verifies the page's checksum sidecar entry. OK means the bytes are
  /// safe to hand out.
  Status CheckRead(PageId id) const;

  size_t page_size_;
  std::vector<std::string> pages_;
  /// Checksum sidecar: page_sums_[id] is the CRC-32C of pages_[id],
  /// maintained out of band (a real deployment would keep these in
  /// battery-backed controller memory or a separate checksum file).
  std::vector<uint32_t> page_sums_;
  uint32_t zero_page_sum_;  ///< Checksum of an all-zero page, precomputed.
  IoStats stats_;
  PageId last_access_ = kInvalidPage;
  mutable const FaultInjector* fault_injector_ = nullptr;
  mutable uint32_t shard_label_ = 0;
};

}  // namespace streach

#endif  // STREACH_STORAGE_BLOCK_DEVICE_H_
