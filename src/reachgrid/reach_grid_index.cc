#include "reachgrid/reach_grid_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/encoding.h"
#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "network/hop_profile.h"
#include "network/union_find.h"
#include "spatial/rect.h"
#include "storage/build_pool.h"

namespace streach {

namespace {

/// \name On-disk locator-entry format (§4.2's external hash)
///
/// One 4-byte little-endian cell id per object, packed back-to-back in
/// the bucket's locator table; an entry may straddle a page edge. Both
/// lookup paths (single and batched) share these helpers so the format
/// lives in exactly one place.
/// @{
uint64_t LocatorEntryOffset(const Extent& extent, ObjectId object) {
  return extent.offset_in_page + static_cast<uint64_t>(object) * 4;
}

PageId LocatorBytePage(const Extent& extent, uint64_t byte_offset,
                       size_t page_size) {
  return extent.first_page + byte_offset / page_size;
}

CellId DecodeLocatorEntry(const char raw[4]) {
  CellId cell = 0;
  for (int i = 3; i >= 0; --i) {
    cell = (cell << 8) | static_cast<uint8_t>(raw[i]);
  }
  return cell;
}
/// @}

/// Key of `p`'s cell in the transient dT-sided grid a contact round
/// hashes its seeds into, so each candidate is tested only against the
/// seeds of its own and the eight neighboring cells.
int64_t SeedCellKey(const Point& p, double dt) {
  const auto cx = static_cast<int64_t>(std::floor(p.x / dt));
  const auto cy = static_cast<int64_t>(std::floor(p.y / dt));
  // Shift in the unsigned domain: left-shifting a negative cx is UB.
  return static_cast<int64_t>((static_cast<uint64_t>(cx) << 32) ^
                              (static_cast<uint64_t>(cy) & 0xFFFFFFFFu));
}

}  // namespace

Result<std::unique_ptr<ReachGridIndex>> ReachGridIndex::Build(
    const TrajectoryStore& store, const ReachGridOptions& options) {
  if (store.num_objects() == 0) {
    return Status::InvalidArgument("empty trajectory store");
  }
  if (options.temporal_resolution < 1) {
    return Status::InvalidArgument("temporal_resolution must be >= 1");
  }
  if (options.spatial_cell_size <= 0) {
    return Status::InvalidArgument("spatial_cell_size must be positive");
  }
  STREACH_RETURN_NOT_OK(ValidateBuildOptions(options.build));
  Rect extent = store.ComputeExtent();
  if (extent.Width() <= 0 || extent.Height() <= 0) {
    extent = extent.Padded(1.0);
  }
  Stopwatch watch;
  std::unique_ptr<ReachGridIndex> index(new ReachGridIndex(
      options, extent, store.span(), store.num_objects()));
  STREACH_RETURN_NOT_OK(index->WriteIndex(store));
  index->build_stats_.build_seconds = watch.ElapsedSeconds();
  index->build_stats_.index_pages = index->topology_.num_pages();
  index->build_stats_.index_bytes = index->topology_.size_bytes();
  // Keep the build-phase write profile before wiping the devices for
  // query-time accounting.
  index->build_io_ = index->topology_.PerShardDeviceStats();
  index->topology_.ResetStats();
  return index;
}

TimeInterval ReachGridIndex::BucketInterval(int bucket) const {
  const Timestamp start =
      span_.start + static_cast<Timestamp>(bucket) * options_.temporal_resolution;
  const Timestamp end = std::min<Timestamp>(
      start + options_.temporal_resolution - 1, span_.end);
  return TimeInterval(start, end);
}

Status ReachGridIndex::WriteIndex(const TrajectoryStore& store) {
  const int num_buckets = BucketOf(span_.end) + 1;
  bucket_cells_.resize(static_cast<size_t>(num_buckets));
  build_stats_.num_buckets = static_cast<uint64_t>(num_buckets);

  ShardedExtentWriter writer(&topology_, options_.build.write_queue_depth,
                             GetPageCodec(options_.build.page_codec));
  BuildWorkerPool pool(topology_.num_shards(), options_.build.build_workers);

  // Cells of bucket i are written before cells of bucket j > i; within a
  // bucket, cells in row-major CellId order; blobs packed back-to-back so
  // a bucket's cells occupy consecutive pages (§4.1). With S > 1 shards a
  // bucket is routed whole (cells + locator) to shard `bucket mod S`, so
  // the consecutive-placement guarantee holds within every shard and a
  // bucket-ordered sweep stays sequential per shard head. Each bucket is
  // one build task pinned to its shard: buckets of one shard serialize in
  // temporal order on one worker (the append order — and therefore the
  // on-disk image — never depends on the worker count), buckets of
  // different shards build concurrently. Tasks write only their own
  // bucket's pre-sized slots.
  std::vector<uint64_t> cells_per_bucket(static_cast<size_t>(num_buckets), 0);
  for (int bucket = 0; bucket < num_buckets; ++bucket) {
    const uint32_t shard =
        topology_.ShardForPartition(static_cast<uint64_t>(bucket));
    pool.Submit(shard, [this, &store, &writer, &cells_per_bucket, bucket,
                        shard]() -> Status {
      const TimeInterval bw = BucketInterval(bucket);
      // cell -> objects whose segment has a sample in the cell.
      std::unordered_map<CellId, std::vector<ObjectId>> cell_objects;
      std::vector<CellId> scratch_cells;
      for (ObjectId o = 0; o < store.num_objects(); ++o) {
        const Trajectory& tr = store.Get(o);
        scratch_cells.clear();
        for (Timestamp t = bw.start; t <= bw.end; ++t) {
          scratch_cells.push_back(grid_.CellOf(tr.At(t)));
        }
        std::sort(scratch_cells.begin(), scratch_cells.end());
        scratch_cells.erase(
            std::unique(scratch_cells.begin(), scratch_cells.end()),
            scratch_cells.end());
        for (CellId c : scratch_cells) cell_objects[c].push_back(o);
      }
      // Deterministic order: ascending cell id.
      std::vector<CellId> cells;
      cells.reserve(cell_objects.size());
      for (const auto& [c, objs] : cell_objects) cells.push_back(c);
      std::sort(cells.begin(), cells.end());
      Encoder enc;
      RecordShape shape;
      for (CellId c : cells) {
        const auto& objs = cell_objects[c];
        enc.Clear();
        shape.Clear();
        enc.PutVarint(objs.size());
        shape.Bytes(enc.size());
        for (ObjectId o : objs) {
          enc.PutU32(o);
          shape.Bytes(4);
          const Trajectory& tr = store.Get(o);
          // Positions time-ordered (§4.1's within-cell placement rule).
          // The interleaved x,y samples are one double run with stride 2:
          // each coordinate is predicted from its own dimension.
          for (Timestamp t = bw.start; t <= bw.end; ++t) {
            const Point& p = tr.At(t);
            enc.PutDouble(p.x);
            enc.PutDouble(p.y);
          }
          shape.DoubleDelta(2 * static_cast<uint64_t>(bw.length()),
                            /*stride=*/2);
        }
        auto extent = writer.Append(shard, enc.buffer(), shape);
        if (!extent.ok()) return extent.status();
        bucket_cells_[static_cast<size_t>(bucket)].emplace(c, *extent);
        ++cells_per_bucket[static_cast<size_t>(bucket)];
      }
      return Status::OK();
    });
  }
  // Section break: every cell of every shard must be placed before any
  // locator, so the cross-shard align waits for the pool to drain.
  STREACH_RETURN_NOT_OK(pool.Barrier());
  for (uint64_t cells : cells_per_bucket) {
    build_stats_.num_nonempty_cells += cells;
  }
  STREACH_RETURN_NOT_OK(writer.AlignAllToPage());

  // Locator tables (the external object->cell hash of §4.2), one per
  // bucket, after the cell area — on the same shard as the bucket's cells.
  // Raw codec: one back-to-back byte array per bucket, probed in place by
  // byte offset (the historical image, bit for bit). Non-raw codecs:
  // fixed-span blocks of kLocatorBlockEntries entries, so a probe decodes
  // exactly one block (constant IO) instead of the whole table.
  locator_extents_.resize(static_cast<size_t>(num_buckets));
  locator_blocks_.resize(static_cast<size_t>(num_buckets));
  const bool raw_locator = options_.build.page_codec == PageCodecKind::kRaw;
  for (int bucket = 0; bucket < num_buckets; ++bucket) {
    const uint32_t shard =
        topology_.ShardForPartition(static_cast<uint64_t>(bucket));
    pool.Submit(shard, [this, &store, &writer, bucket, shard,
                        raw_locator]() -> Status {
      const TimeInterval bw = BucketInterval(bucket);
      Encoder enc;
      if (raw_locator) {
        for (ObjectId o = 0; o < store.num_objects(); ++o) {
          enc.PutU32(grid_.CellOf(store.Get(o).At(bw.start)));
        }
        RecordShape shape;
        shape.U32Delta(store.num_objects());
        auto extent = writer.Append(shard, enc.buffer(), shape);
        if (!extent.ok()) return extent.status();
        locator_extents_[static_cast<size_t>(bucket)] = *extent;
        return Status::OK();
      }
      std::vector<Extent> blocks;
      const size_t num = store.num_objects();
      blocks.reserve((num + kLocatorBlockEntries - 1) / kLocatorBlockEntries);
      for (size_t base = 0; base < num; base += kLocatorBlockEntries) {
        const size_t block_end = std::min(num, base + kLocatorBlockEntries);
        enc.Clear();
        for (size_t o = base; o < block_end; ++o) {
          enc.PutU32(grid_.CellOf(
              store.Get(static_cast<ObjectId>(o)).At(bw.start)));
        }
        RecordShape shape;
        shape.U32Delta(block_end - base);
        auto extent = writer.Append(shard, enc.buffer(), shape);
        if (!extent.ok()) return extent.status();
        blocks.push_back(*extent);
      }
      locator_blocks_[static_cast<size_t>(bucket)] = std::move(blocks);
      return Status::OK();
    });
  }
  STREACH_RETURN_NOT_OK(pool.Finish());
  return writer.Flush();
}

Result<std::vector<CellId>> ReachGridIndex::LookupCells(
    int bucket, const std::vector<ObjectId>& objects, BufferPool* pool) const {
  std::vector<CellId> cells;
  cells.reserve(objects.size());
  if (bucket < 0 || bucket >= num_buckets()) {
    return Status::OutOfRange("locator lookup out of range");
  }
  if (pool->page_codec()->kind() != PageCodecKind::kRaw) {
    // Compressed locator: gather the distinct blocks the batch probes and
    // read them through one batched call, so the per-shard queues see the
    // whole locator demand of this expansion step at once.
    const auto& blocks = locator_blocks_[static_cast<size_t>(bucket)];
    std::vector<size_t> needed;
    needed.reserve(objects.size());
    for (ObjectId object : objects) {
      if (object >= num_objects_) {
        return Status::OutOfRange("locator lookup out of range");
      }
      needed.push_back(static_cast<size_t>(object) / kLocatorBlockEntries);
    }
    std::vector<size_t> unique_blocks = needed;
    std::sort(unique_blocks.begin(), unique_blocks.end());
    unique_blocks.erase(
        std::unique(unique_blocks.begin(), unique_blocks.end()),
        unique_blocks.end());
    std::vector<Extent> extents;
    extents.reserve(unique_blocks.size());
    for (size_t block : unique_blocks) {
      if (block >= blocks.size()) {
        return Status::Corruption("locator table shorter than object id");
      }
      extents.push_back(blocks[block]);
    }
    auto blobs = ReadExtentsBatched(pool, extents, options_.page_size);
    if (!blobs.ok()) return blobs.status();
    for (size_t k = 0; k < objects.size(); ++k) {
      const size_t idx = static_cast<size_t>(
          std::lower_bound(unique_blocks.begin(), unique_blocks.end(),
                           needed[k]) -
          unique_blocks.begin());
      const std::string& blob = (*blobs)[idx];
      const size_t slot =
          (static_cast<size_t>(objects[k]) % kLocatorBlockEntries) * 4;
      if (blob.size() < slot + 4) {
        return Status::Corruption("locator block shorter than object slot");
      }
      cells.push_back(DecodeLocatorEntry(blob.data() + slot));
    }
    return cells;
  }
  const Extent& extent = locator_extents_[static_cast<size_t>(bucket)];
  // One batched fetch for every byte's page (4 per object, mostly the
  // same page — FetchBatch dedups repeats into pool hits).
  std::vector<PageId> ids;
  ids.reserve(objects.size() * 4);
  for (ObjectId object : objects) {
    if (object >= num_objects_) {
      return Status::OutOfRange("locator lookup out of range");
    }
    const uint64_t byte_offset = LocatorEntryOffset(extent, object);
    for (int i = 0; i < 4; ++i) {
      ids.push_back(LocatorBytePage(
          extent, byte_offset + static_cast<uint64_t>(i),
          options_.page_size));
    }
  }
  auto refs = pool->FetchBatch(ids);
  if (!refs.ok()) return refs.status();
  for (size_t k = 0; k < objects.size(); ++k) {
    const uint64_t byte_offset = LocatorEntryOffset(extent, objects[k]);
    char raw[4];
    for (int i = 0; i < 4; ++i) {
      const uint64_t off = byte_offset + static_cast<uint64_t>(i);
      raw[i] =
          (*refs)[k * 4 + static_cast<size_t>(i)][off % options_.page_size];
    }
    cells.push_back(DecodeLocatorEntry(raw));
  }
  return cells;
}

Status ReachGridIndex::FetchCells(std::vector<CellId> cells,
                                  BucketContext* ctx) const {
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  const auto& directory = bucket_cells_[static_cast<size_t>(ctx->bucket)];
  std::vector<Extent> extents;
  for (CellId cell : cells) {
    if (!ctx->fetched_cells.try_emplace(cell, true).second) continue;
    auto it = directory.find(cell);
    if (it != directory.end()) extents.push_back(it->second);  // Non-empty.
  }
  // Each worker reads its chunk of the batch through the pool (thread-safe
  // whenever a frontier is attached) and decodes it — the CPU cost that
  // dominates compressed sweeps. Objects merge on the caller afterwards;
  // an object stored in several cells carries identical positions in
  // each (every cell holds its whole bucket segment), so keep-first
  // merging is order-insensitive.
  const int workers =
      ctx->frontier != nullptr ? ctx->frontier->num_threads() : 1;
  std::vector<std::unordered_map<ObjectId, BucketPositions>> parsed(
      static_cast<size_t>(workers));
  std::vector<Status> worker_status(static_cast<size_t>(workers));
  auto process_chunk = [&](int worker, size_t begin, size_t end) {
    auto& status = worker_status[static_cast<size_t>(worker)];
    if (!status.ok()) return;
    std::vector<Extent> chunk(extents.begin() + static_cast<ptrdiff_t>(begin),
                              extents.begin() + static_cast<ptrdiff_t>(end));
    auto blobs = ReadExtentsBatched(ctx->pool, chunk, options_.page_size);
    if (!blobs.ok()) {
      status = blobs.status();
      return;
    }
    for (const std::string& blob : *blobs) {
      status = DecodeCellRecord(blob, *ctx,
                                &parsed[static_cast<size_t>(worker)]);
      if (!status.ok()) return;
    }
  };
  // Below the threshold the worker wakeup costs more than the fetch; a
  // small step stays on the caller (identical result either way).
  if (workers > 1 && extents.size() >= kParallelFetchMinExtents) {
    ctx->frontier->ParallelFor(extents.size(), process_chunk);
  } else if (!extents.empty()) {
    process_chunk(0, 0, extents.size());
  }
  for (const Status& status : worker_status) {
    STREACH_RETURN_NOT_OK(status);
  }
  for (auto& worker_out : parsed) ctx->objects.merge(worker_out);
  ctx->scope->AddItemsVisited(cells.size());
  return Status::OK();
}

Status ReachGridIndex::DecodeCellRecord(
    const std::string& blob, const BucketContext& ctx,
    std::unordered_map<ObjectId, BucketPositions>* out) const {
  Decoder dec(blob);
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  const auto ticks = static_cast<size_t>(ctx.interval.length());
  for (uint64_t i = 0; i < *count; ++i) {
    auto object = dec.GetU32();
    if (!object.ok()) return object.status();
    const bool known =
        ctx.objects.count(*object) != 0 || out->count(*object) != 0;
    BucketPositions positions;
    if (!known) positions.reserve(ticks);
    for (size_t j = 0; j < ticks; ++j) {
      auto x = dec.GetDouble();
      auto y = dec.GetDouble();
      if (!x.ok() || !y.ok()) return Status::Corruption("cell positions");
      if (!known) positions.emplace_back(*x, *y);
    }
    if (!known) out->emplace(*object, std::move(positions));
  }
  return Status::OK();
}

Status ReachGridIndex::AdmitSeeds(const std::vector<ObjectId>& batch,
                                  Timestamp from, BucketContext* ctx) const {
  std::vector<ObjectId> unknown;
  for (ObjectId s : batch) {
    if (ctx->objects.count(s) == 0) unknown.push_back(s);
  }
  auto located = LookupCells(ctx->bucket, unknown, ctx->pool);
  if (!located.ok()) return located.status();
  STREACH_RETURN_NOT_OK(FetchCells(std::move(*located), ctx));
  std::vector<CellId> wanted;
  for (ObjectId s : batch) {
    if (ctx->objects.count(s) == 0) {
      return Status::Corruption("seed missing from its located cell");
    }
    Rect mbr;
    for (Timestamp t = from; t <= ctx->window.end; ++t) {
      mbr.ExpandToInclude(ctx->PositionOf(s, t));
    }
    const auto candidates =
        grid_.CellsIntersecting(mbr.Padded(options_.contact_range));
    wanted.insert(wanted.end(), candidates.begin(), candidates.end());
  }
  return FetchCells(std::move(wanted), ctx);
}

Result<ReachAnswer> ReachGridIndex::Query(const ReachQuery& query,
                                          BufferPool* pool,
                                          QueryStats* stats) const {
  if (query.source == query.destination) {
    QueryScope scope(pool, stats);  // Records a query that read nothing.
    return SelfQueryAnswer(query.interval.Intersect(span_));
  }
  auto sets = MultiSweep({query.source}, query.interval, query.destination,
                         pool, stats, /*frontier=*/nullptr);
  if (!sets.ok()) return sets.status();
  return AnswerFromSet((*sets)[0], query.destination);
}

Result<std::vector<std::vector<Timestamp>>> ReachGridIndex::ReachableSets(
    const std::vector<ObjectId>& sources, TimeInterval interval,
    BufferPool* pool, QueryStats* stats, FrontierPool* frontier) const {
  return MultiSweep(sources, interval, kInvalidObject, pool, stats, frontier);
}

Result<std::vector<std::vector<Timestamp>>> ReachGridIndex::MultiSweep(
    const std::vector<ObjectId>& sources, TimeInterval interval,
    ObjectId destination, BufferPool* pool, QueryStats* stats,
    FrontierPool* frontier) const {
  const int workers = frontier != nullptr ? frontier->num_threads() : 1;
  if (workers > 1) pool->set_thread_safe(true);
  QueryScope scope(pool, stats);
  const size_t num_sources = sources.size();
  std::vector<std::vector<Timestamp>> sets(
      num_sources, std::vector<Timestamp>(num_objects_, kInvalidTime));

  const TimeInterval w = interval.Intersect(span_);
  SourceBitSlab bits(num_objects_, num_sources);
  const size_t words = bits.words_per_item();
  bool any_seed = false;
  if (!w.empty()) {
    for (size_t si = 0; si < num_sources; ++si) {
      if (sources[si] >= num_objects_) continue;  // Its set stays empty.
      sets[si][sources[si]] = w.start;
      bits.set(sources[si], si);
      any_seed = true;
    }
  }
  if (!any_seed) {
    scope.Finish();
    return sets;
  }

  const double dt = options_.contact_range;
  const double dt_sq = dt * dt;

  // Round-scoped scratch, allocated once for the whole sweep: the claim
  // bitmap, the per-object discovery masks (written only by the claiming
  // worker), and the per-worker discovery queues.
  AtomicBitmap discovered(num_objects_);
  std::vector<uint64_t> staging(num_objects_ * words, 0);
  LocalQueues<ObjectId> queues(workers);
  // Small rounds stay on the caller: below the threshold the worker
  // wakeup costs more than the scan (the result is identical either way,
  // so this is purely a 1-core/tiny-round overhead guard).
  auto parallel_for =
      [&](size_t n, const std::function<void(int, size_t, size_t)>& body) {
        if (frontier != nullptr && n >= kParallelScanMinObjects) {
          frontier->ParallelFor(n, body);
        } else if (n > 0) {
          body(0, 0, n);
        }
      };

  const int first_bucket = BucketOf(w.start);
  const int last_bucket = BucketOf(w.end);
  for (int bucket = first_bucket; bucket <= last_bucket; ++bucket) {
    BucketContext ctx(bucket, BucketInterval(bucket), w, pool, frontier,
                      &scope);
    const TimeInterval bw = ctx.window;
    {
      // Every object any source has reached so far enters the bucket as a
      // seed, ascending ids (deterministic locator/fetch order). Locator
      // IO is paid once per unknown object — not once per (source,
      // object) — which is where the batch dedup comes from.
      std::vector<ObjectId> batch;
      for (size_t o = 0; o < num_objects_; ++o) {
        if (bits.any(o)) batch.push_back(static_cast<ObjectId>(o));
      }
      STREACH_RETURN_NOT_OK(AdmitSeeds(batch, bw.start, &ctx));
    }

    // Sorted snapshot of the fetched objects, rebuilt when admissions grow
    // the map (values are pointer-stable across rehash).
    std::vector<std::pair<ObjectId, const BucketPositions*>> object_list;
    auto refresh_object_list = [&]() {
      if (object_list.size() == ctx.objects.size()) return;
      object_list.clear();
      object_list.reserve(ctx.objects.size());
      for (const auto& [o, positions] : ctx.objects) {
        object_list.emplace_back(o, &positions);
      }
      std::sort(object_list.begin(), object_list.end());
    };

    // Time sweep with within-tick chaining: a new seed can immediately
    // infect further objects at the same tick (instantaneous transfer
    // across a snapshot component, Property 5.1). A seed's hash entry
    // carries its reach-bits row: a contact transfers exactly the sources
    // that have reached the seed by this round.
    struct SeedRef {
      Point pos;
      const uint64_t* row;
    };
    std::unordered_map<int64_t, std::vector<SeedRef>> seed_hash;
    for (Timestamp t = bw.start; t <= bw.end; ++t) {
      bool changed = true;
      while (changed) {
        changed = false;
        refresh_object_list();
        // Build the round's seed hash sequentially; the parallel phase
        // below only reads it (and the bit rows it points into).
        seed_hash.clear();
        for (const auto& [o, positions] : object_list) {
          if (!bits.any(o)) continue;
          const Point& ps =
              (*positions)[static_cast<size_t>(t - ctx.interval.start)];
          seed_hash[SeedCellKey(ps, dt)].push_back(SeedRef{ps, bits.row(o)});
        }
        // Parallel candidate scan: each object gathers the bits of every
        // seed within dT; the claim bitmap hands the discovery to exactly
        // one worker, which parks the new bits in the object's staging
        // row and queues the object locally.
        parallel_for(
            object_list.size(), [&](int worker, size_t begin, size_t end) {
              std::vector<uint64_t> acquired(words);
              for (size_t idx = begin; idx < end; ++idx) {
                const ObjectId o = object_list[idx].first;
                if (bits.saturated(o)) continue;  // Nothing left to learn.
                const Point& po = (*object_list[idx].second)[
                    static_cast<size_t>(t - ctx.interval.start)];
                std::fill(acquired.begin(), acquired.end(), 0);
                bool near_seed = false;
                for (int dx = -1; dx <= 1; ++dx) {
                  for (int dy = -1; dy <= 1; ++dy) {
                    auto it = seed_hash.find(SeedCellKey(
                        Point(po.x + dx * dt, po.y + dy * dt), dt));
                    if (it == seed_hash.end()) continue;
                    for (const SeedRef& seed : it->second) {
                      if (Point::DistanceSquared(po, seed.pos) < dt_sq) {
                        for (size_t w2 = 0; w2 < words; ++w2) {
                          acquired[w2] |= seed.row[w2];
                        }
                        near_seed = true;
                      }
                    }
                  }
                }
                if (!near_seed) continue;
                const uint64_t* mine = bits.row(o);
                bool fresh = false;
                for (size_t w2 = 0; w2 < words; ++w2) {
                  acquired[w2] &= ~mine[w2];
                  fresh = fresh || acquired[w2] != 0;
                }
                if (!fresh) continue;
                if (discovered.TestAndSet(o)) {
                  std::copy(acquired.begin(), acquired.end(),
                            staging.begin() + static_cast<size_t>(o) * words);
                  queues.Push(worker, o);
                }
              }
            });
        // Sorted merge on the caller: identical round outcomes at every
        // worker count; new bits spread in the next round of the same
        // tick.
        std::vector<ObjectId> found = queues.Drain();
        if (found.empty()) continue;
        std::sort(found.begin(), found.end());
        std::vector<ObjectId> admissions;
        for (ObjectId o : found) {
          uint64_t* mask = staging.data() + static_cast<size_t>(o) * words;
          const bool first_reach = !bits.any(o);
          bits.ForEachSet(mask, [&](size_t si) { sets[si][o] = t; });
          bits.Merge(o, mask);
          std::fill(mask, mask + words, 0);
          if (first_reach) admissions.push_back(o);
        }
        discovered.Reset();
        // Algorithm 1's early exit: the round that reaches the destination
        // ends the sweep before its discoveries are admitted.
        if (std::binary_search(found.begin(), found.end(), destination)) {
          scope.Finish();
          return sets;
        }
        if (!admissions.empty()) {
          STREACH_RETURN_NOT_OK(AdmitSeeds(admissions, t, &ctx));
        }
        changed = true;
      }
    }
  }
  scope.Finish();
  return sets;
}

Result<std::vector<ReachProfileEntry>> ReachGridIndex::ConstrainedProfile(
    ObjectId source, TimeInterval interval, const HopConstraints& hops,
    BufferPool* pool, QueryStats* stats) const {
  QueryScope scope(pool, stats);
  const TimeInterval w = interval.Intersect(span_);
  // Wave membership stamps survive across levels so each tick's reset is
  // O(wave), not O(objects).
  std::vector<uint32_t> wave_stamp(num_objects_, 0);
  uint32_t stamp_clock = 0;
  auto profile = DriveHopLevels(
      num_objects_, source, w, hops,
      [&](const std::vector<Timestamp>& prev,
          std::vector<Timestamp>* next) -> Status {
        return LevelSweep(prev, w, hops.per_hop_ticks, next, &wave_stamp,
                          &stamp_clock, pool, &scope);
      });
  if (!profile.ok()) return profile.status();
  scope.Finish();
  return std::move(*profile);
}

Status ReachGridIndex::LevelSweep(const std::vector<Timestamp>& prev,
                                  TimeInterval w, Timestamp per_hop_ticks,
                                  std::vector<Timestamp>* next,
                                  std::vector<uint32_t>* wave_stamp,
                                  uint32_t* stamp_clock, BufferPool* pool,
                                  QueryScope* scope) const {
  // This level's carriers, ascending ids (deterministic locator order).
  std::vector<ObjectId> carriers;
  for (size_t o = 0; o < num_objects_; ++o) {
    if (prev[o] != kInvalidTime) carriers.push_back(static_cast<ObjectId>(o));
  }
  if (carriers.empty()) return Status::OK();

  const double dt = options_.contact_range;
  const double dt_sq = dt * dt;

  const int first_bucket = BucketOf(w.start);
  const int last_bucket = BucketOf(w.end);
  for (int bucket = first_bucket; bucket <= last_bucket; ++bucket) {
    BucketContext ctx(bucket, BucketInterval(bucket), w, pool,
                      /*frontier=*/nullptr, scope);
    const TimeInterval bw = ctx.window;

    // Carriers whose transmission window touches this bucket enter like
    // Algorithm 1 seeds.
    std::vector<ObjectId> active;
    for (ObjectId m : carriers) {
      if (prev[m] > bw.end) continue;
      if (per_hop_ticks >= 0 &&
          static_cast<int64_t>(prev[m]) + per_hop_ticks <
              static_cast<int64_t>(bw.start)) {
        continue;  // Freshness expired before the bucket starts.
      }
      active.push_back(m);
    }
    if (active.empty()) continue;
    STREACH_RETURN_NOT_OK(AdmitSeeds(active, bw.start, &ctx));

    // Objects whose candidate cells are already fetched from their join
    // tick onward (re-joining a later wave needs no further admission).
    std::unordered_set<ObjectId> admitted(active.begin(), active.end());

    struct WaveRef {
      size_t idx;  // Position in `wave`.
      Point pos;
    };
    std::unordered_map<int64_t, std::vector<WaveRef>> wave_hash;
    std::vector<ObjectId> wave;
    std::vector<ObjectId> joiners;
    for (Timestamp t = bw.start; t <= bw.end; ++t) {
      const uint32_t tick_stamp = ++(*stamp_clock);
      wave.clear();
      wave_hash.clear();
      auto enlist = [&](ObjectId o) {
        const Point& p = ctx.PositionOf(o, t);
        (*wave_stamp)[o] = tick_stamp;
        wave_hash[SeedCellKey(p, dt)].push_back(WaveRef{wave.size(), p});
        wave.push_back(o);
      };
      // The wave starts from the carriers eligible to transmit at t; the
      // prefix [0, num_eligible) of `wave` is exactly that set.
      for (ObjectId m : active) {
        if (HopEligible(prev[m], t, per_hop_ticks)) enlist(m);
      }
      const size_t num_eligible = wave.size();
      if (num_eligible == 0) continue;

      // Contact-closure rounds: any fetched object within dT of the wave
      // conducts it (eligibility gates transmission, not membership), and
      // joins exactly like a new seed so its neighborhood becomes visible
      // to the next round.
      bool changed = true;
      while (changed) {
        changed = false;
        joiners.clear();
        for (const auto& [o, positions] : ctx.objects) {
          if ((*wave_stamp)[o] == tick_stamp) continue;
          const Point& po =
              positions[static_cast<size_t>(t - ctx.interval.start)];
          bool near = false;
          for (int dx = -1; dx <= 1 && !near; ++dx) {
            for (int dy = -1; dy <= 1 && !near; ++dy) {
              auto it = wave_hash.find(
                  SeedCellKey(Point(po.x + dx * dt, po.y + dy * dt), dt));
              if (it == wave_hash.end()) continue;
              for (const WaveRef& ref : it->second) {
                if (Point::DistanceSquared(po, ref.pos) < dt_sq) {
                  near = true;
                  break;
                }
              }
            }
          }
          if (near) joiners.push_back(o);
        }
        if (joiners.empty()) continue;
        std::sort(joiners.begin(), joiners.end());  // Deterministic fetches.
        std::vector<ObjectId> fresh;
        for (ObjectId o : joiners) {
          enlist(o);
          if (admitted.insert(o).second) fresh.push_back(o);
        }
        if (!fresh.empty()) {
          STREACH_RETURN_NOT_OK(AdmitSeeds(fresh, t, &ctx));
        }
        changed = true;
      }

      // Exact snapshot components over the wave (the closure contains
      // every component holding an eligible carrier in full, so in-wave
      // unions reconstruct them exactly), then the labeling rule: a
      // member takes the tick only from an eligible carrier that is not
      // itself.
      UnionFind uf(wave.size());
      for (size_t i = 0; i < wave.size(); ++i) {
        const Point& pi = ctx.PositionOf(wave[i], t);
        for (int dx = -1; dx <= 1; ++dx) {
          for (int dy = -1; dy <= 1; ++dy) {
            auto it = wave_hash.find(
                SeedCellKey(Point(pi.x + dx * dt, pi.y + dy * dt), dt));
            if (it == wave_hash.end()) continue;
            for (const WaveRef& ref : it->second) {
              if (ref.idx != i && Point::DistanceSquared(pi, ref.pos) < dt_sq) {
                uf.Union(static_cast<uint32_t>(i),
                         static_cast<uint32_t>(ref.idx));
              }
            }
          }
        }
      }
      // Per component: eligible-carrier count (saturated at 2) and, when
      // exactly one, which.
      std::unordered_map<uint32_t, std::pair<int, ObjectId>> comp;
      for (size_t i = 0; i < num_eligible; ++i) {
        auto [it, inserted] = comp.emplace(uf.Find(static_cast<uint32_t>(i)),
                                           std::make_pair(1, wave[i]));
        if (!inserted && it->second.second != wave[i]) it->second.first = 2;
      }
      for (size_t i = 0; i < wave.size(); ++i) {
        const ObjectId o = wave[i];
        if ((*next)[o] != kInvalidTime) continue;  // Ticks ascend: min wins.
        auto it = comp.find(uf.Find(static_cast<uint32_t>(i)));
        if (it == comp.end()) continue;
        if (it->second.first >= 2 || it->second.second != o) (*next)[o] = t;
      }
    }
  }
  return Status::OK();
}

}  // namespace streach
