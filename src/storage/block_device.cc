#include "storage/block_device.h"

#include <cstddef>

#include "storage/checksum.h"
#include "storage/fault_injector.h"

namespace streach {

namespace {

/// Seek-aware service selection shared by the read and write submission
/// queues. `inflight` holds indices into the request batch, oldest first;
/// `page_of` maps such an index to its target page. The head sits just
/// past `last`, so the request for `last + 1` continues sequentially and
/// wins outright; failing that the shortest seek wins, FIFO on equal
/// distance. An idle head (no access yet) has no position — the oldest
/// submitted request goes first. Deterministic.
template <typename PageOf>
size_t PickServiceSlot(const std::vector<size_t>& inflight, PageId last,
                       PageOf page_of) {
  size_t best = 0;
  if (last == kInvalidPage) return best;
  const PageId want = last + 1;
  auto seek_of = [&](size_t slot) {
    const PageId page = page_of(inflight[slot]);
    return page >= want ? page - want : want - page;
  };
  uint64_t best_seek = seek_of(0);
  for (size_t slot = 1; slot < inflight.size() && best_seek > 0; ++slot) {
    const uint64_t seek = seek_of(slot);
    if (seek < best_seek) {
      best_seek = seek;
      best = slot;
    }
  }
  return best;
}

}  // namespace

BlockDevice::BlockDevice(size_t page_size)
    : page_size_(page_size),
      zero_page_sum_(Crc32c(std::string(page_size, '\0'))) {}

PageId BlockDevice::AllocatePage() {
  pages_.emplace_back(page_size_, '\0');
  page_sums_.push_back(zero_page_sum_);
  return pages_.size() - 1;
}

PageId BlockDevice::AllocatePages(size_t n) {
  const PageId first = pages_.size();
  for (size_t i = 0; i < n; ++i) pages_.emplace_back(page_size_, '\0');
  page_sums_.resize(page_sums_.size() + n, zero_page_sum_);
  return first;
}

Status BlockDevice::WritePage(PageId id, std::string_view data) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("write to unallocated page " +
                              std::to_string(id));
  }
  if (data.size() > page_size_) {
    return Status::InvalidArgument("page payload exceeds page size");
  }
  RecordAccess(id, /*is_write=*/true);
  std::string& page = pages_[id];
  page.assign(data.data(), data.size());
  page.resize(page_size_, '\0');
  page_sums_[id] = Crc32c(page);
  return Status::OK();
}

Result<std::string_view> BlockDevice::ReadPage(PageId id) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(id));
  }
  RecordAccess(id, /*is_write=*/false);
  STREACH_RETURN_NOT_OK(CheckRead(id));
  return std::string_view(pages_[id]);
}

Result<std::string_view> BlockDevice::ReadPage(PageId id,
                                               ReadCursor* cursor) const {
  if (id >= pages_.size()) {
    return Status::OutOfRange("read of unallocated page " +
                              std::to_string(id));
  }
  ClassifyAccess(id, /*is_write=*/false, &cursor->stats, &cursor->last_access);
  STREACH_RETURN_NOT_OK(CheckRead(id));
  return std::string_view(pages_[id]);
}

Status BlockDevice::SubmitBatch(
    const std::vector<AsyncReadRequest>& requests, int queue_depth,
    ReadCursor* cursor, std::vector<AsyncReadCompletion>* completions) const {
  if (queue_depth < 1) {
    return Status::InvalidArgument("queue_depth must be >= 1");
  }
  for (const AsyncReadRequest& request : requests) {
    if (request.page >= pages_.size()) {
      return Status::OutOfRange("batched read of unallocated page " +
                                std::to_string(request.page));
    }
  }
  completions->reserve(completions->size() + requests.size());
  const auto depth = static_cast<size_t>(queue_depth);
  std::vector<size_t> inflight;  // Indices into `requests`, oldest first.
  inflight.reserve(depth);
  size_t next_submit = 0;
  while (next_submit < requests.size() || !inflight.empty()) {
    while (inflight.size() < depth && next_submit < requests.size()) {
      inflight.push_back(next_submit++);
    }
    const size_t best =
        PickServiceSlot(inflight, cursor->last_access,
                        [&](size_t i) { return requests[i].page; });
    const AsyncReadRequest& serviced = requests[inflight[best]];
    AsyncReadCompletion completion;
    completion.tag = serviced.tag;
    completion.page = serviced.page;
    completion.inflight = static_cast<uint32_t>(inflight.size());
    ClassifyAccess(serviced.page, /*is_write=*/false, &cursor->stats,
                   &cursor->last_access);
    ++cursor->stats.batched_reads;
    cursor->stats.inflight_accum += inflight.size();
    completion.status = CheckRead(serviced.page);
    if (completion.status.ok()) {
      completion.data = std::string_view(pages_[serviced.page]);
    }
    completions->push_back(completion);
    inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(best));
  }
  return Status::OK();
}

Status BlockDevice::SubmitWriteBatch(
    const std::vector<AsyncWriteRequest>& requests, int queue_depth) {
  if (queue_depth < 1) {
    return Status::InvalidArgument("queue_depth must be >= 1");
  }
  for (const AsyncWriteRequest& request : requests) {
    if (request.page >= pages_.size()) {
      return Status::OutOfRange("batched write to unallocated page " +
                                std::to_string(request.page));
    }
    if (request.data.size() > page_size_) {
      return Status::InvalidArgument("page payload exceeds page size");
    }
  }
  const auto depth = static_cast<size_t>(queue_depth);
  std::vector<size_t> inflight;  // Indices into `requests`, oldest first.
  inflight.reserve(depth);
  size_t next_submit = 0;
  while (next_submit < requests.size() || !inflight.empty()) {
    while (inflight.size() < depth && next_submit < requests.size()) {
      inflight.push_back(next_submit++);
    }
    const size_t best = PickServiceSlot(
        inflight, last_access_, [&](size_t i) { return requests[i].page; });
    const AsyncWriteRequest& serviced = requests[inflight[best]];
    RecordAccess(serviced.page, /*is_write=*/true);
    ++stats_.batched_writes;
    stats_.write_inflight_accum += inflight.size();
    std::string& page = pages_[serviced.page];
    page.assign(serviced.data.data(), serviced.data.size());
    page.resize(page_size_, '\0');
    page_sums_[serviced.page] = Crc32c(page);
    inflight.erase(inflight.begin() + static_cast<ptrdiff_t>(best));
  }
  return Status::OK();
}

Status BlockDevice::CheckRead(PageId id) const {
  if (fault_injector_ != nullptr) {
    STREACH_RETURN_NOT_OK(fault_injector_->OnRead(shard_label_, id));
  }
  if (Crc32c(pages_[id]) != page_sums_[id]) {
    return Status::Corruption("page checksum mismatch reading page " +
                              std::to_string(id) + " (shard " +
                              std::to_string(shard_label_) + ")");
  }
  return Status::OK();
}

Status BlockDevice::CorruptPageForTesting(PageId id, uint64_t bit_index,
                                          bool refresh_checksum) const {
  if (id >= pages_.size()) {
    return Status::OutOfRange("corrupt of unallocated page " +
                              std::to_string(id));
  }
  if (bit_index >= page_size_ * 8) {
    return Status::InvalidArgument("bit index beyond page size");
  }
  // The one sanctioned const_cast: tests reach devices through the
  // indexes' const topology accessors, and simulated media damage — like
  // injector attachment — is an observer-side effect, not part of the
  // logical storage contract.
  auto* self = const_cast<BlockDevice*>(this);
  self->pages_[id][bit_index / 8] ^=
      static_cast<char>(1u << (bit_index % 8));
  if (refresh_checksum) {
    self->page_sums_[id] = Crc32c(self->pages_[id]);
  }
  return Status::OK();
}

void BlockDevice::RecordAccess(PageId id, bool is_write) {
  ClassifyAccess(id, is_write, &stats_, &last_access_);
}

void BlockDevice::ClassifyAccess(PageId id, bool is_write, IoStats* stats,
                                 PageId* last) {
  const bool sequential = *last != kInvalidPage && id == *last + 1;
  if (is_write) {
    if (sequential) {
      ++stats->sequential_writes;
    } else {
      ++stats->random_writes;
    }
  } else {
    if (sequential) {
      ++stats->sequential_reads;
    } else {
      ++stats->random_reads;
    }
  }
  *last = id;
}

}  // namespace streach
