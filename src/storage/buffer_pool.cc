#include "storage/buffer_pool.h"

#include "common/check.h"

namespace streach {

BufferPool::BufferPool(const BlockDevice* device, size_t capacity_pages)
    : device_(device), topology_(nullptr), capacity_(capacity_pages),
      cursors_(1),
      codec_(GetPageCodec(PageCodecKind::kRaw)),
      decoded_capacity_(capacity_pages * device->page_size()) {
  STREACH_CHECK(device != nullptr);
  STREACH_CHECK_GT(capacity_pages, 0u);
}

BufferPool::BufferPool(const StorageTopology* topology, size_t capacity_pages)
    : device_(nullptr), topology_(topology), capacity_(capacity_pages),
      codec_(GetPageCodec(PageCodecKind::kRaw)),
      decoded_capacity_(capacity_pages * topology->page_size()) {
  STREACH_CHECK(topology != nullptr);
  STREACH_CHECK_GT(capacity_pages, 0u);
  cursors_.resize(static_cast<size_t>(topology->num_shards()));
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  PageRef ref;
  STREACH_RETURN_NOT_OK(FetchInto(&id, 1, &ref));
  return ref;
}

Result<std::vector<PageRef>> BufferPool::FetchBatch(
    const std::vector<PageId>& ids) {
  std::vector<PageRef> refs(ids.size());
  STREACH_RETURN_NOT_OK(FetchInto(ids.data(), ids.size(), refs.data()));
  return refs;
}

Status BufferPool::FetchInto(const PageId* ids, size_t count,
                             PageRef* refs) {
  // Pass 1 — serve hits and dedup the misses. A repeated missing id
  // counts one miss plus hits: one device read serves every occurrence.
  std::vector<PageId> missing;  // Unique, first-occurrence order.
  std::unordered_map<PageId, std::vector<size_t>> waiters;
  for (size_t i = 0; i < count; ++i) {
    const PageId id = ids[i];
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      ++hits_;
      lru_.erase(it->second.lru_it);
      lru_.push_front(id);
      it->second.lru_it = lru_.begin();
      refs[i] = PageRef(it->second.bytes);
      continue;
    }
    auto [wit, inserted] = waiters.try_emplace(id);
    if (inserted) {
      ++misses_;
      missing.push_back(id);
    } else {
      ++hits_;
    }
    wit->second.push_back(i);
  }
  if (missing.empty()) return Status::OK();

  // Pass 2 — one submission batch; the topology splits it into per-shard
  // queues serviced at io_queue_depth_.
  std::vector<AsyncReadRequest> requests;
  requests.reserve(missing.size());
  for (size_t k = 0; k < missing.size(); ++k) {
    // A bare-device pool only serves shard-0 addresses; stripping the
    // shard bits there would silently alias a routed address to a low
    // local page.
    const uint32_t shard = ShardOfPage(missing[k]);
    if (shard >= cursors_.size()) {
      return Status::OutOfRange("page address routes to unknown shard " +
                                std::to_string(shard));
    }
    requests.push_back(AsyncReadRequest{missing[k], k});
  }
  // Each round submits the still-outstanding pages as one batch; pages
  // that complete with a transient `Unavailable` are reissued in the
  // next round (every attempt accounted like any other access) until the
  // per-page budget `max_read_retries_` is spent. Any other failure is
  // final for the whole fetch.
  std::vector<std::shared_ptr<const std::string>> bytes(missing.size());
  for (int round = 0;; ++round) {
    std::vector<AsyncReadCompletion> completions;
    if (topology_ != nullptr) {
      STREACH_RETURN_NOT_OK(topology_->SubmitBatch(requests, io_queue_depth_,
                                                   &cursors_, &completions));
    } else {
      STREACH_RETURN_NOT_OK(device_->SubmitBatch(requests, io_queue_depth_,
                                                 &cursors_[0], &completions));
    }
    std::vector<AsyncReadRequest> retry;
    Status first_error;
    for (const AsyncReadCompletion& completion : completions) {
      if (completion.status.ok()) {
        bytes[completion.tag] =
            std::make_shared<const std::string>(completion.data);
        continue;
      }
      const uint32_t shard =
          topology_ != nullptr ? ShardOfPage(completion.page) : 0;
      if (completion.status.IsUnavailable()) {
        ++cursors_[shard].stats.transient_faults;
        if (round < max_read_retries_) {
          ++cursors_[shard].stats.read_retries;
          retry.push_back(AsyncReadRequest{completion.page, completion.tag});
          continue;
        }
      }
      if (first_error.ok()) first_error = completion.status;
    }
    if (!first_error.ok()) return first_error;
    if (retry.empty()) break;
    requests = std::move(retry);
  }

  // Pass 3 — install in request order (eviction stays deterministic no
  // matter how the device reordered service) and resolve every waiter.
  // Evicting the LRU page only drops the pool's reference: callers still
  // holding a PageRef to it keep the bytes alive.
  for (size_t k = 0; k < missing.size(); ++k) {
    STREACH_CHECK(bytes[k] != nullptr);
    for (size_t slot : waiters[missing[k]]) refs[slot] = PageRef(bytes[k]);
    if (entries_.size() >= capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(missing[k]);
    const bool inserted =
        entries_.emplace(missing[k], Entry{std::move(bytes[k]), lru_.begin()})
            .second;
    STREACH_CHECK(inserted);
  }
  return Status::OK();
}

void BufferPool::set_io_queue_depth(int depth) {
  STREACH_CHECK_GT(depth, 0);
  io_queue_depth_ = depth;
}

void BufferPool::set_max_read_retries(int retries) {
  STREACH_CHECK_GE(retries, 0);
  max_read_retries_ = retries;
}

void BufferPool::set_page_codec(const PageCodec* codec) {
  STREACH_CHECK(codec != nullptr);
  codec_ = codec;
}

void BufferPool::set_decoded_cache_capacity(size_t bytes) {
  decoded_capacity_ = bytes;
  EvictDecodedDownTo(decoded_capacity_);
}

void BufferPool::EvictDecodedDownTo(size_t budget) {
  while (decoded_bytes_ > budget && !decoded_lru_.empty()) {
    const DecodedKey victim = decoded_lru_.back();
    decoded_lru_.pop_back();
    auto it = decoded_.find(victim);
    decoded_bytes_ -= it->second.record->size();
    decoded_.erase(it);
  }
}

std::shared_ptr<const std::string> BufferPool::LookupDecodedRecord(
    const Extent& extent) {
  auto it = decoded_.find(DecodedKey{extent.first_page, extent.offset_in_page});
  if (it == decoded_.end()) {
    ++decoded_misses_;
    return nullptr;
  }
  ++decoded_hits_;
  decoded_lru_.erase(it->second.lru_it);
  decoded_lru_.push_front(it->first);
  it->second.lru_it = decoded_lru_.begin();
  return it->second.record;
}

void BufferPool::InsertDecodedRecord(
    const Extent& extent, std::shared_ptr<const std::string> record) {
  STREACH_CHECK(record != nullptr);
  if (record->size() > decoded_capacity_) return;  // Never fits; serve only.
  const DecodedKey key{extent.first_page, extent.offset_in_page};
  // A batch holding the same extent twice decodes it twice; keep the
  // first copy.
  if (decoded_.count(key) != 0) return;
  EvictDecodedDownTo(decoded_capacity_ - record->size());
  decoded_bytes_ += record->size();
  decoded_lru_.push_front(key);
  decoded_.emplace(key, DecodedEntry{std::move(record), decoded_lru_.begin()});
}

void BufferPool::AccountDecode(uint32_t shard, uint64_t encoded_bytes,
                               uint64_t decoded_bytes) {
  STREACH_CHECK_LT(shard, cursors_.size());
  cursors_[shard].stats.encoded_bytes += encoded_bytes;
  cursors_[shard].stats.decoded_bytes += decoded_bytes;
}

void BufferPool::Clear() {
  lru_.clear();
  entries_.clear();
  decoded_lru_.clear();
  decoded_.clear();
  decoded_bytes_ = 0;
}

}  // namespace streach
