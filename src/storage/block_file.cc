#include "storage/block_file.h"

#include "common/check.h"
#include "storage/checksum.h"

namespace streach {

ExtentWriter::ExtentWriter(BlockDevice* device, uint32_t shard_id,
                           int write_queue_depth, const PageCodec* codec)
    : device_(device), shard_id_(shard_id),
      write_queue_depth_(write_queue_depth),
      codec_(codec != nullptr ? codec : GetPageCodec(PageCodecKind::kRaw)) {
  STREACH_CHECK(device != nullptr);
  STREACH_CHECK_LT(shard_id, kMaxShards);
  STREACH_CHECK_GE(write_queue_depth, 1);
}

Result<Extent> ExtentWriter::Append(std::string_view blob) {
  if (codec_->kind() == PageCodecKind::kRaw || blob.empty()) {
    // The raw fast path: no transcode, no shape bookkeeping — and the
    // historical bit-identical image. Empty blobs store nothing under any
    // codec (a zero-length extent reads back as an empty record).
    device_->mutable_stats()->encoded_bytes += blob.size();
    device_->mutable_stats()->decoded_bytes += blob.size();
    return AppendStored(blob);
  }
  RecordShape shape;
  shape.Bytes(blob.size());
  return Append(blob, shape);
}

Result<Extent> ExtentWriter::Append(std::string_view blob,
                                    const RecordShape& shape) {
  if (codec_->kind() == PageCodecKind::kRaw || blob.empty()) {
    if (shape.total_bytes() != blob.size()) {
      return Status::InvalidArgument("record shape does not cover blob");
    }
    device_->mutable_stats()->encoded_bytes += blob.size();
    device_->mutable_stats()->decoded_bytes += blob.size();
    return AppendStored(blob);
  }
  auto stored = codec_->Encode(blob, shape);
  if (!stored.ok()) return stored.status();
  device_->mutable_stats()->encoded_bytes += stored->size();
  device_->mutable_stats()->decoded_bytes += blob.size();
  return AppendStored(*stored);
}

Result<Extent> ExtentWriter::AppendStored(std::string_view blob) {
  if (current_page_ == kInvalidPage) {
    current_page_ = device_->AllocatePage();
    current_.clear();
  }
  Extent extent;
  extent.first_page = MakePageAddress(shard_id_, current_page_);
  extent.offset_in_page = current_.size();
  // Non-empty blobs carry a checksum footer over their stored bytes;
  // `length` counts it (extent reads verify and strip it).
  extent.length =
      blob.empty() ? 0 : blob.size() + kBlobChecksumBytes;

  const size_t page_size = device_->page_size();
  auto pack = [&](std::string_view bytes) -> Status {
    size_t consumed = 0;
    while (consumed < bytes.size()) {
      const size_t room = page_size - current_.size();
      const size_t take = std::min(room, bytes.size() - consumed);
      current_.append(bytes.data() + consumed, take);
      consumed += take;
      if (current_.size() == page_size) {
        STREACH_RETURN_NOT_OK(FlushCurrentPage());
        current_page_ = device_->AllocatePage();
        current_.clear();
      }
    }
    return Status::OK();
  };
  STREACH_RETURN_NOT_OK(pack(blob));
  if (!blob.empty()) {
    std::string footer;
    AppendChecksumFooter(Fnv1a32(blob), &footer);
    STREACH_RETURN_NOT_OK(pack(footer));
  }
  bytes_written_ += extent.length;
  return extent;
}

Status ExtentWriter::AlignToPage() {
  if (current_page_ == kInvalidPage || current_.empty()) return Status::OK();
  STREACH_RETURN_NOT_OK(FlushCurrentPage());
  current_page_ = device_->AllocatePage();
  current_.clear();
  return Status::OK();
}

Status ExtentWriter::Flush() {
  if (current_page_ != kInvalidPage) {
    STREACH_RETURN_NOT_OK(FlushCurrentPage());
    current_page_ = kInvalidPage;
    current_.clear();
  }
  return FlushPendingWrites();
}

Status ExtentWriter::FlushCurrentPage() {
  // Depth 1: the historical synchronous path, one WritePage per finished
  // page in placement order. Deeper queues buffer the finished page (its
  // bytes move into the batch) and submit once the buffer fills.
  if (write_queue_depth_ == 1) {
    return device_->WritePage(current_page_, current_);
  }
  pending_writes_.push_back(
      AsyncWriteRequest{current_page_, std::move(current_)});
  current_.clear();
  if (pending_writes_.size() >= kWriteBufferPages) {
    return FlushPendingWrites();
  }
  return Status::OK();
}

Status ExtentWriter::FlushPendingWrites() {
  if (pending_writes_.empty()) return Status::OK();
  Status status = device_->SubmitWriteBatch(pending_writes_,
                                            write_queue_depth_);
  pending_writes_.clear();
  return status;
}

ShardedExtentWriter::ShardedExtentWriter(StorageTopology* topology,
                                         int write_queue_depth,
                                         const PageCodec* codec) {
  STREACH_CHECK(topology != nullptr);
  writers_.reserve(static_cast<size_t>(topology->num_shards()));
  for (int s = 0; s < topology->num_shards(); ++s) {
    writers_.emplace_back(topology->shard(s), static_cast<uint32_t>(s),
                          write_queue_depth, codec);
  }
}

Result<Extent> ShardedExtentWriter::Append(uint32_t shard,
                                           std::string_view blob) {
  STREACH_CHECK_LT(shard, writers_.size());
  return writers_[shard].Append(blob);
}

Result<Extent> ShardedExtentWriter::Append(uint32_t shard,
                                           std::string_view blob,
                                           const RecordShape& shape) {
  STREACH_CHECK_LT(shard, writers_.size());
  return writers_[shard].Append(blob, shape);
}

Status ShardedExtentWriter::AlignToPage(uint32_t shard) {
  STREACH_CHECK_LT(shard, writers_.size());
  return writers_[shard].AlignToPage();
}

Status ShardedExtentWriter::AlignAllToPage() {
  for (ExtentWriter& writer : writers_) {
    STREACH_RETURN_NOT_OK(writer.AlignToPage());
  }
  return Status::OK();
}

Status ShardedExtentWriter::Flush() {
  for (ExtentWriter& writer : writers_) {
    STREACH_RETURN_NOT_OK(writer.Flush());
  }
  return Status::OK();
}

uint64_t ShardedExtentWriter::bytes_written() const {
  uint64_t total = 0;
  for (const ExtentWriter& writer : writers_) total += writer.bytes_written();
  return total;
}

namespace {

/// Stitches one extent's bytes out of its spanned pages: `next_page` is
/// called once per page, in ascending page order, and must yield that
/// page's contents. The single place that knows how a blob maps onto
/// page-sized pieces — ReadExtent and ReadExtentsBatched both assemble
/// through it, which also makes it the single place the per-blob
/// checksum footer is verified and stripped: callers always receive the
/// stored payload alone, with damage surfaced as `Corruption` naming the
/// extent's first page and shard.
template <typename NextPage>
Result<std::string> StitchExtent(const Extent& extent, size_t page_size,
                                 NextPage&& next_page) {
  if (!extent.valid()) {
    return Status::InvalidArgument("reading invalid extent");
  }
  std::string out;
  out.reserve(extent.length);
  uint64_t remaining = extent.length;
  uint64_t offset = extent.offset_in_page;
  while (remaining > 0) {
    auto page = next_page();
    if (!page.ok()) return page.status();
    const uint64_t take = std::min<uint64_t>(remaining, page_size - offset);
    out.append(page->data() + offset, take);
    remaining -= take;
    offset = 0;
  }
  if (extent.length > 0) {
    const auto where = [&] {
      return "extent at page " + std::to_string(LocalPageOf(extent.first_page)) +
             " (shard " + std::to_string(ShardOfPage(extent.first_page)) + ")";
    };
    if (out.size() < kBlobChecksumBytes) {
      return Status::Corruption("stored blob shorter than checksum footer in " +
                                where());
    }
    const std::string_view stored(out);
    const uint32_t expect =
        DecodeChecksumFooter(stored.substr(out.size() - kBlobChecksumBytes));
    if (Fnv1a32(stored.substr(0, out.size() - kBlobChecksumBytes)) != expect) {
      return Status::Corruption("blob checksum mismatch in " + where());
    }
    out.resize(out.size() - kBlobChecksumBytes);
  }
  return out;
}

/// The shared non-raw miss path: decodes freshly stitched stored bytes,
/// accounts the transcode against the extent's shard, and retains the
/// record in the pool's decoded cache.
Result<std::string> DecodeAndCache(BufferPool* pool, const Extent& extent,
                                   const std::string& stored) {
  auto raw = pool->page_codec()->Decode(stored);
  if (!raw.ok()) return raw.status();
  pool->AccountDecode(ShardOfPage(extent.first_page), stored.size(),
                      raw->size());
  auto shared = std::make_shared<const std::string>(std::move(*raw));
  pool->InsertDecodedRecord(extent, shared);
  return *shared;
}

}  // namespace

Result<std::string> ReadExtent(BufferPool* pool, const Extent& extent,
                               size_t page_size) {
  // One Fetch per page, ascending. Submitted as one deep batch, a
  // multi-page extent behind the disk head would be serviced backwards by
  // the shortest-seek policy.
  PageId page = extent.first_page;
  auto next_page = [&]() { return pool->Fetch(page++); };
  if (pool->page_codec()->kind() == PageCodecKind::kRaw) {
    // Stored bytes ARE the record, page for page.
    return StitchExtent(extent, page_size, next_page);
  }
  if (!extent.valid()) {
    return Status::InvalidArgument("reading invalid extent");
  }
  if (extent.length == 0) return std::string();
  if (auto cached = pool->LookupDecodedRecord(extent)) return *cached;
  auto stored = StitchExtent(extent, page_size, next_page);
  if (!stored.ok()) return stored.status();
  return DecodeAndCache(pool, extent, *stored);
}

Result<std::vector<std::string>> ReadExtentsBatched(
    BufferPool* pool, const std::vector<Extent>& extents, size_t page_size) {
  const bool raw = pool->page_codec()->kind() == PageCodecKind::kRaw;
  std::vector<std::string> blobs(extents.size());
  // Which extents still need device pages: all of them under the raw
  // codec; under a non-raw codec only the records the decoded cache
  // cannot serve (cache hits cost no IO at all).
  std::vector<size_t> pending;
  pending.reserve(extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    const Extent& extent = extents[i];
    if (!extent.valid()) {
      return Status::InvalidArgument("reading invalid extent");
    }
    if (raw) {
      pending.push_back(i);
      continue;
    }
    if (extent.length == 0) continue;
    if (auto cached = pool->LookupDecodedRecord(extent)) {
      blobs[i] = *cached;
      continue;
    }
    pending.push_back(i);
  }
  std::vector<PageId> ids;
  for (size_t i : pending) {
    const uint64_t span = extents[i].PageSpan(page_size);
    for (uint64_t k = 0; k < span; ++k) {
      ids.push_back(extents[i].first_page + k);
    }
  }
  auto refs = pool->FetchBatch(ids);
  if (!refs.ok()) return refs.status();
  size_t next = 0;
  for (size_t i : pending) {
    auto stored = StitchExtent(extents[i], page_size, [&]() {
      return Result<PageRef>((*refs)[next++]);
    });
    if (!stored.ok()) return stored.status();
    if (raw) {
      blobs[i] = std::move(*stored);
      continue;
    }
    auto record = DecodeAndCache(pool, extents[i], *stored);
    if (!record.ok()) return record.status();
    blobs[i] = std::move(*record);
  }
  return blobs;
}

}  // namespace streach
