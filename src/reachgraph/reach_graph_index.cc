#include "reachgraph/reach_graph_index.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <unordered_set>

#include "common/encoding.h"
#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "network/hop_profile.h"
#include "storage/build_pool.h"

namespace streach {

namespace {

/// Serializes one vertex into a partition blob, declaring its run
/// structure as it goes: the sorted member/out/in id arrays are the
/// codec-compressible runs, the mixed-width sections stay opaque bytes.
void EncodeVertex(VertexId id, const DnVertex& v, Encoder* enc,
                  RecordShape* shape) {
  size_t mark = enc->size();
  enc->PutU32(id);
  enc->PutI32(v.span.start);
  enc->PutI32(v.span.end);
  enc->PutVarint(v.members.size());
  shape->Bytes(enc->size() - mark);
  for (ObjectId o : v.members) enc->PutU32(o);
  shape->U32Delta(v.members.size());
  mark = enc->size();
  enc->PutVarint(v.out.size());
  shape->Bytes(enc->size() - mark);
  for (VertexId w : v.out) enc->PutU32(w);
  shape->U32Delta(v.out.size());
  mark = enc->size();
  enc->PutVarint(v.in.size());
  shape->Bytes(enc->size() - mark);
  for (VertexId w : v.in) enc->PutU32(w);
  shape->U32Delta(v.in.size());
  mark = enc->size();
  enc->PutVarint(v.long_out.size());
  for (const LongEdge& e : v.long_out) {
    enc->PutI32(e.anchor);
    enc->PutVarint(static_cast<uint64_t>(e.length));
    enc->PutU32(e.target);
  }
  shape->Bytes(enc->size() - mark);
}

/// Reads a varint count and that many u32s into `*out`; with `out` null,
/// checks the array fits and skips it in O(1).
Status DecodeU32Array(Decoder* dec, std::vector<uint32_t>* out) {
  auto n = dec->GetVarint();
  if (!n.ok()) return n.status();
  if (*n > dec->remaining() / 4) {
    return Status::Corruption("decoder: truncated u32 array");
  }
  if (out == nullptr) return dec->Skip(*n * 4);
  out->reserve(*n);
  for (uint64_t j = 0; j < *n; ++j) out->push_back(*dec->GetU32());
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<ReachGraphIndex>> ReachGraphIndex::Build(
    const ContactNetwork& network, const ReachGraphOptions& options) {
  Stopwatch watch;
  DnBuilderOptions dn_options;
  dn_options.merge_identical_components = options.merge_identical_components;
  auto dn = BuildDnGraph(network, dn_options);
  if (!dn.ok()) return dn.status();
  const double reduction_seconds = watch.ElapsedSeconds();
  auto index = BuildFromDn(std::move(dn).ValueUnsafe(), options);
  if (!index.ok()) return index.status();
  (*index)->build_stats_.reduction_seconds = reduction_seconds;
  return index;
}

Result<std::unique_ptr<ReachGraphIndex>> ReachGraphIndex::BuildFromDn(
    DnGraph dn, const ReachGraphOptions& options) {
  if (options.partition_depth < 0) {
    return Status::InvalidArgument("partition_depth must be >= 0");
  }
  STREACH_RETURN_NOT_OK(ValidateBuildOptions(options.build));
  std::unique_ptr<ReachGraphIndex> index(new ReachGraphIndex(options));

  Stopwatch watch;
  // A graph that already carries long edges (e.g. shared across several
  // index builds in a parameter sweep) is used as-is.
  if (dn.stats().num_long_edges == 0) {
    AugmenterOptions augment_options;
    augment_options.num_resolutions = options.num_resolutions;
    STREACH_RETURN_NOT_OK(AugmentWithLongEdges(&dn, augment_options));
  }
  index->build_stats_.augmentation_seconds = watch.ElapsedSeconds();

  watch.Restart();
  STREACH_RETURN_NOT_OK(index->PlaceOnDisk(dn));
  index->build_stats_.placement_seconds = watch.ElapsedSeconds();
  index->build_stats_.dn = dn.stats();
  index->build_stats_.num_partitions = index->partition_extents_.size();
  index->build_stats_.index_pages = index->topology_.num_pages();
  index->build_stats_.index_bytes = index->topology_.size_bytes();
  // Keep the build-phase write profile before wiping the devices for
  // query-time accounting.
  index->build_io_ = index->topology_.PerShardDeviceStats();
  index->topology_.ResetStats();
  return index;
}

Status ReachGraphIndex::PlaceOnDisk(const DnGraph& graph) {
  span_ = graph.span();
  num_objects_ = graph.num_objects();
  const size_t n = graph.num_vertices();
  constexpr uint32_t kUnassigned = static_cast<uint32_t>(-1);
  vertex_partition_.assign(n, kUnassigned);

  // Partitioning (§5.1.3): vertices in topological (= id) order; from each
  // unassigned root, a BFS over DN_1 out-edges up to depth dp claims every
  // still-unassigned vertex it reaches. Long edges are ignored so each
  // partition stays temporally local. Discovery is inherently sequential —
  // each partition's membership depends on every earlier assignment — so
  // it runs here on one thread; only the members are collected, nothing is
  // serialized yet.
  std::vector<std::vector<VertexId>> partition_members;
  std::vector<VertexId> frontier;
  std::vector<VertexId> next;
  for (VertexId root = 0; root < n; ++root) {
    if (vertex_partition_[root] != kUnassigned) continue;
    const auto partition_id = static_cast<uint32_t>(partition_members.size());
    partition_members.emplace_back();
    std::vector<VertexId>& members = partition_members.back();
    frontier.assign(1, root);
    vertex_partition_[root] = partition_id;
    members.push_back(root);
    for (int depth = 0; depth < options_.partition_depth && !frontier.empty();
         ++depth) {
      next.clear();
      for (VertexId v : frontier) {
        for (VertexId w : graph.vertex(v).out) {
          if (vertex_partition_[w] != kUnassigned) continue;
          vertex_partition_[w] = partition_id;
          members.push_back(w);
          next.push_back(w);
        }
      }
      std::swap(frontier, next);
    }
    // Vertices in id (time) order within the partition.
    std::sort(members.begin(), members.end());
  }

  // Serialization: partitions are routed round-robin in creation
  // (= temporal) order, so partitions placed on the same shard stay
  // consecutive in that order and the §5.1.3 placement guarantee holds
  // per shard head. Each partition is one build task pinned to its shard;
  // one worker per shard serializes that shard's partitions in order, so
  // the on-disk image is identical for every worker count.
  ShardedExtentWriter writer(&topology_, options_.build.write_queue_depth,
                             GetPageCodec(options_.build.page_codec));
  BuildWorkerPool pool(topology_.num_shards(), options_.build.build_workers);
  partition_extents_.resize(partition_members.size());
  for (uint32_t partition_id = 0; partition_id < partition_members.size();
       ++partition_id) {
    const uint32_t shard = topology_.ShardForPartition(partition_id);
    pool.Submit(shard, [this, &graph, &writer, &partition_members,
                        partition_id, shard]() -> Status {
      Encoder enc;
      RecordShape shape;
      const std::vector<VertexId>& members = partition_members[partition_id];
      enc.PutVarint(members.size());
      shape.Bytes(enc.size());
      for (VertexId v : members) {
        EncodeVertex(v, graph.vertex(v), &enc, &shape);
      }
      auto extent = writer.Append(shard, enc.buffer(), shape);
      if (!extent.ok()) return extent.status();
      partition_extents_[partition_id] = *extent;
      return Status::OK();
    });
  }

  // Object timelines (the Ht lookup structure), after the partitions;
  // routed by object hash so Ht point lookups spread across shards. The
  // cross-shard section break waits for every partition task.
  STREACH_RETURN_NOT_OK(pool.Barrier());
  STREACH_RETURN_NOT_OK(writer.AlignAllToPage());
  timeline_extents_.resize(num_objects_);
  for (ObjectId o = 0; o < num_objects_; ++o) {
    const uint32_t shard = topology_.ShardForObject(o);
    pool.Submit(shard, [this, &graph, &writer, o, shard]() -> Status {
      Encoder enc;
      RecordShape shape;
      const auto& timeline = graph.timeline(o);
      enc.PutVarint(timeline.size());
      shape.Bytes(enc.size());
      // (start, end, vertex) triples, time-ordered: stride 3 deltas each
      // field against its predecessor record — all three ascend.
      for (const auto& entry : timeline) {
        enc.PutI32(entry.span.start);
        enc.PutI32(entry.span.end);
        enc.PutU32(entry.vertex);
      }
      shape.U32Delta(3 * timeline.size(), /*stride=*/3);
      auto extent = writer.Append(shard, enc.buffer(), shape);
      if (!extent.ok()) return extent.status();
      timeline_extents_[o] = *extent;
      return Status::OK();
    });
  }
  STREACH_RETURN_NOT_OK(pool.Finish());
  return writer.Flush();
}

Result<VertexId> ReachGraphIndex::DecodeVertex(Decoder* dec,
                                               StoredVertex* out) {
  auto id = dec->GetU32();
  if (!id.ok()) return id.status();
  auto ts = dec->GetI32();
  auto te = dec->GetI32();
  if (!ts.ok() || !te.ok()) return Status::Corruption("vertex span");
  if (out != nullptr) out->span = TimeInterval(*ts, *te);
  STREACH_RETURN_NOT_OK(DecodeU32Array(dec, out ? &out->members : nullptr));
  STREACH_RETURN_NOT_OK(DecodeU32Array(dec, out ? &out->out : nullptr));
  STREACH_RETURN_NOT_OK(DecodeU32Array(dec, out ? &out->in : nullptr));
  // Long edges mix fixed and varint fields, so even the index pass walks
  // them entry by entry; it skips the anchor and target unread, which
  // made paper_cold's cold queries ~25% faster than reading them.
  auto nlong = dec->GetVarint();
  if (!nlong.ok()) return nlong.status();
  for (uint64_t j = 0; j < *nlong; ++j) {
    if (out == nullptr) {
      if (!dec->Skip(4).ok() || !dec->GetVarint().ok() || !dec->Skip(4).ok()) {
        return Status::Corruption("long edge");
      }
      continue;
    }
    auto anchor = dec->GetI32();
    auto length = dec->GetVarint();
    auto target = dec->GetU32();
    if (!anchor.ok() || !length.ok() || !target.ok()) {
      return Status::Corruption("long edge");
    }
    out->long_out.push_back(
        LongEdge{*target, *anchor, static_cast<int32_t>(*length)});
  }
  return *id;
}

Result<ReachGraphIndex::IndexedPartition> ReachGraphIndex::IndexPartition(
    std::string blob) {
  IndexedPartition partition;
  Decoder dec(blob);
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  // A record takes at least 16 bytes (id, span, four one-byte counts), so
  // a corrupt count cannot make the reservation outgrow the blob.
  partition.records.reserve(std::min<uint64_t>(*count, dec.remaining() / 16));
  for (uint64_t i = 0; i < *count; ++i) {
    const size_t offset = dec.position();
    auto id = DecodeVertex(&dec, nullptr);
    if (!id.ok()) return id.status();
    if (!partition.records.empty() && *id <= partition.records.back().id) {
      return Status::Corruption("partition vertex ids do not ascend");
    }
    partition.records.push_back({*id, offset});
  }
  partition.blob = std::move(blob);
  return partition;
}

Result<const ReachGraphIndex::StoredVertex*> ReachGraphIndex::GetVertex(
    VertexId v, TraversalScratch* scratch) const {
  if (v >= vertex_partition_.size()) {
    return Status::OutOfRange("vertex id out of range");
  }
  if (auto hit = scratch->vertices.find(v); hit != scratch->vertices.end()) {
    return &hit->second;
  }
  const uint32_t partition = vertex_partition_[v];
  auto it = scratch->partitions.find(partition);
  if (it == scratch->partitions.end()) {
    auto blob = ReadExtent(scratch->pool, partition_extents_[partition],
                           options_.page_size);
    if (!blob.ok()) return blob.status();
    auto indexed = IndexPartition(std::move(*blob));
    if (!indexed.ok()) return indexed.status();
    it = scratch->partitions.emplace(partition, std::move(*indexed)).first;
  }
  const auto& records = it->second.records;
  const auto rec = std::lower_bound(
      records.begin(), records.end(), v,
      [](const IndexedPartition::Record& r, VertexId id) { return r.id < id; });
  if (rec == records.end() || rec->id != v) {
    return Status::Corruption("vertex missing from its partition");
  }
  Decoder dec(std::string_view(it->second.blob).substr(rec->offset));
  StoredVertex sv;
  auto id = DecodeVertex(&dec, &sv);
  if (!id.ok()) return id.status();
  return &scratch->vertices.emplace(v, std::move(sv)).first->second;
}

Status ReachGraphIndex::PrefetchVertices(const std::vector<VertexId>& vs,
                                         TraversalScratch* scratch) const {
  if (scratch->pool->io_queue_depth() == 1 || vs.empty()) return Status::OK();
  // Distinct partitions the frontier needs, first-appearance order (the
  // frontier's expansion order, which each shard's queue starts from).
  std::vector<uint32_t> partitions;
  std::vector<Extent> extents;
  for (VertexId v : vs) {
    if (v >= vertex_partition_.size()) {
      return Status::OutOfRange("vertex id out of range");
    }
    const uint32_t partition = vertex_partition_[v];
    if (scratch->partitions.count(partition) != 0) continue;
    bool queued = false;
    for (uint32_t p : partitions) {
      if (p == partition) {
        queued = true;
        break;
      }
    }
    if (queued) continue;
    partitions.push_back(partition);
    extents.push_back(partition_extents_[partition]);
  }
  if (extents.empty()) return Status::OK();
  auto blobs = ReadExtentsBatched(scratch->pool, extents, options_.page_size);
  if (!blobs.ok()) return blobs.status();
  for (size_t k = 0; k < partitions.size(); ++k) {
    auto indexed = IndexPartition(std::move((*blobs)[k]));
    if (!indexed.ok()) return indexed.status();
    scratch->partitions.emplace(partitions[k], std::move(*indexed));
  }
  return Status::OK();
}

Result<std::vector<DnGraph::TimelineEntry>> ReachGraphIndex::ParseTimeline(
    const std::string& blob) const {
  Decoder dec(blob);
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  std::vector<DnGraph::TimelineEntry> timeline;
  timeline.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto start = dec.GetI32();
    auto end = dec.GetI32();
    auto vertex = dec.GetU32();
    if (!start.ok() || !end.ok() || !vertex.ok()) {
      return Status::Corruption("timeline entry");
    }
    timeline.push_back(
        DnGraph::TimelineEntry{TimeInterval(*start, *end), *vertex});
  }
  return timeline;
}

Result<std::vector<DnGraph::TimelineEntry>> ReachGraphIndex::ReadTimeline(
    ObjectId object, BufferPool* pool) const {
  if (object >= timeline_extents_.size()) {
    return Status::NotFound("unknown object");
  }
  auto blob = ReadExtent(pool, timeline_extents_[object], options_.page_size);
  if (!blob.ok()) return blob.status();
  return ParseTimeline(*blob);
}

Status ReachGraphIndex::LoadTimelines(const std::vector<ObjectId>& objects,
                                      BufferPool* pool,
                                      TimelineCache* cache) const {
  // Uncached objects in first-appearance order. The cache marks each one
  // with an empty placeholder, so a repeat is skipped in O(1); a failed
  // read aborts the query that owns the cache.
  std::vector<ObjectId> need;
  std::vector<Extent> extents;
  for (ObjectId o : objects) {
    if (!cache->try_emplace(o).second) continue;
    need.push_back(o);
    extents.push_back(timeline_extents_[o]);
  }
  if (need.empty()) return Status::OK();
  auto blobs = ReadExtentsBatched(pool, extents, options_.page_size);
  if (!blobs.ok()) return blobs.status();
  for (size_t k = 0; k < need.size(); ++k) {
    auto timeline = ParseTimeline((*blobs)[k]);
    if (!timeline.ok()) return timeline.status();
    (*cache)[need[k]] = std::move(*timeline);
  }
  return Status::OK();
}

Result<VertexId> ReachGraphIndex::LookupVertex(ObjectId object, Timestamp t,
                                               BufferPool* pool) const {
  auto timeline = ReadTimeline(object, pool);
  if (!timeline.ok()) return timeline.status();
  for (const auto& entry : *timeline) {
    if (entry.span.Contains(t)) return entry.vertex;
  }
  return Status::NotFound("object has no vertex at requested time");
}

Result<std::vector<std::vector<Timestamp>>> ReachGraphIndex::ReachableSets(
    const std::vector<ObjectId>& sources, TimeInterval interval,
    BufferPool* pool, QueryStats* stats) const {
  QueryScope scope(pool, stats);
  const size_t num_sources = sources.size();
  std::vector<std::vector<Timestamp>> sets(
      num_sources, std::vector<Timestamp>(num_objects_, kInvalidTime));
  const TimeInterval w = interval.Intersect(span_);
  if (w.empty()) {
    scope.Finish();
    return sets;
  }

  // Batch-shared read state: partitions parse once into the scratch, and
  // every object's timeline is read/parsed at most once no matter how
  // many sources sweep over it — a per-source loop pays both again for
  // every seed.
  TraversalScratch scratch;
  scratch.pool = pool;
  TimelineCache timeline_cache;

  // Lanes of 64 sources share one masked time-ordered Dijkstra over
  // components: an entry says "these lanes' items enter `vertex` at tick
  // `enter`". Pops are monotonically non-decreasing in `enter` (every
  // push derives from the current pop time), so a lane's first pop of a
  // vertex carries its earliest entry, and the arrived mask expands each
  // vertex once per lane.
  struct Entry {
    Timestamp enter;
    VertexId vertex;
    uint64_t mask;
    bool operator>(const Entry& o) const {
      return enter > o.enter || (enter == o.enter && vertex > o.vertex);
    }
  };
  for (size_t chunk_begin = 0; chunk_begin < num_sources; chunk_begin += 64) {
    const size_t chunk_end = std::min(num_sources, chunk_begin + 64);
    std::vector<uint64_t> infected(num_objects_, 0);
    std::vector<uint64_t> arrived(vertex_partition_.size(), 0);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    std::vector<VertexId> pushed;

    auto push_object =
        [&](Timestamp from, const std::vector<DnGraph::TimelineEntry>& timeline,
            uint64_t mask) {
          for (const auto& entry : timeline) {
            if (entry.span.end < from || entry.span.start > w.end) continue;
            if ((mask & ~arrived[entry.vertex]) == 0) continue;
            heap.push({std::max(from, entry.span.start), entry.vertex, mask});
            pushed.push_back(entry.vertex);
          }
        };

    {
      std::vector<ObjectId> seed_objects;
      for (size_t si = chunk_begin; si < chunk_end; ++si) {
        if (sources[si] < num_objects_) seed_objects.push_back(sources[si]);
      }
      STREACH_RETURN_NOT_OK(LoadTimelines(seed_objects, pool, &timeline_cache));
      pushed.clear();
      for (size_t si = chunk_begin; si < chunk_end; ++si) {
        const ObjectId src = sources[si];
        if (src >= num_objects_) continue;  // Its set stays empty.
        const uint64_t lane = 1ull << (si - chunk_begin);
        sets[si][src] = w.start;
        infected[src] |= lane;
        push_object(w.start, timeline_cache[src], lane);
      }
      STREACH_RETURN_NOT_OK(PrefetchVertices(pushed, &scratch));
    }

    std::vector<std::pair<ObjectId, uint64_t>> newly;
    while (!heap.empty()) {
      const Entry top = heap.top();
      heap.pop();
      const uint64_t new_mask = top.mask & ~arrived[top.vertex];
      if (new_mask == 0) continue;  // Every lane already expanded here.
      arrived[top.vertex] |= new_mask;
      scope.AddItemsVisited(1);
      auto sv = GetVertex(top.vertex, &scratch);
      if (!sv.ok()) return sv.status();
      newly.clear();
      std::vector<ObjectId> newly_objects;
      for (ObjectId o : (*sv)->members) {
        if (o >= num_objects_) continue;
        const uint64_t add = new_mask & ~infected[o];
        if (add == 0) continue;
        infected[o] |= add;
        uint64_t lanes = add;
        while (lanes != 0) {
          const int b = __builtin_ctzll(lanes);
          sets[chunk_begin + static_cast<size_t>(b)][o] = top.enter;
          lanes &= lanes - 1;
        }
        newly.push_back({o, add});
        newly_objects.push_back(o);
      }
      if (newly.empty()) continue;
      STREACH_RETURN_NOT_OK(
          LoadTimelines(newly_objects, pool, &timeline_cache));
      pushed.clear();
      for (const auto& [o, add] : newly) {
        push_object(top.enter, timeline_cache[o], add);
      }
      STREACH_RETURN_NOT_OK(PrefetchVertices(pushed, &scratch));
    }
  }
  scope.Finish();
  return sets;
}

Result<std::vector<ReachProfileEntry>> ReachGraphIndex::ConstrainedProfile(
    ObjectId source, TimeInterval interval, const HopConstraints& hops,
    BufferPool* pool, QueryStats* stats) const {
  QueryScope scope(pool, stats);
  const TimeInterval w = interval.Intersect(span_);

  TraversalScratch scratch;
  scratch.pool = pool;
  // Timelines parse once per query, whatever level first needs them.
  TimelineCache timeline_cache;

  // The two earliest admissible entries of a vertex from *distinct*
  // carriers. A member takes the earliest entry not carried by itself,
  // so tracking one runner-up with a different carrier is exactly enough
  // (its carrier cannot also be that member).
  struct VertexEntries {
    Timestamp t1 = kInvalidTime;
    ObjectId m1 = kInvalidObject;
    Timestamp t2 = kInvalidTime;
    ObjectId m2 = kInvalidObject;

    void Add(Timestamp t, ObjectId m) {
      if (m == m1) {
        if (t < t1) t1 = t;
        return;
      }
      if (m == m2) {
        if (t < t2) t2 = t;
      } else if (t1 == kInvalidTime) {
        t1 = t;
        m1 = m;
        return;
      } else if (t < t1) {
        t2 = t1;
        m2 = m1;
        t1 = t;
        m1 = m;
        return;
      } else if (t2 == kInvalidTime || t < t2) {
        t2 = t;
        m2 = m;
      }
      if (t2 != kInvalidTime && t2 < t1) {
        std::swap(t1, t2);
        std::swap(m1, m2);
      }
    }
  };

  auto sweep = [&](const std::vector<Timestamp>& prev,
                   std::vector<Timestamp>* next) -> Status {
    std::vector<ObjectId> carriers;
    for (ObjectId o = 0; o < num_objects_; ++o) {
      if (prev[o] != kInvalidTime) carriers.push_back(o);
    }
    STREACH_RETURN_NOT_OK(LoadTimelines(carriers, pool, &timeline_cache));

    std::unordered_map<VertexId, VertexEntries> entered;
    std::vector<VertexId> wanted;
    for (ObjectId m : carriers) {
      const Timestamp from = prev[m];
      const Timestamp lim =
          hops.per_hop_ticks < 0
              ? w.end
              : static_cast<Timestamp>(std::min<int64_t>(
                    w.end, static_cast<int64_t>(from) + hops.per_hop_ticks));
      if (from > lim) continue;
      for (const auto& entry : timeline_cache[m]) {
        if (entry.span.end < from || entry.span.start > lim) continue;
        // Members are aboard for the whole vertex span (Property 5.1 via
        // the identical-component merge), so the earliest admissible
        // entry tick is simply the window/span/arrival meet.
        const Timestamp tstar = std::max(entry.span.start, from);
        auto [it, inserted] = entered.try_emplace(entry.vertex);
        if (inserted) wanted.push_back(entry.vertex);
        it->second.Add(tstar, m);
      }
    }
    STREACH_RETURN_NOT_OK(PrefetchVertices(wanted, &scratch));
    for (const VertexId v : wanted) {
      const VertexEntries& e = entered[v];
      auto sv = GetVertex(v, &scratch);
      if (!sv.ok()) return sv.status();
      scope.AddItemsVisited(1);
      for (ObjectId o : (*sv)->members) {
        if (o >= num_objects_) continue;
        const Timestamp cand = (o == e.m1) ? e.t2 : e.t1;
        if (cand == kInvalidTime) continue;
        Timestamp& slot = (*next)[o];
        if (slot == kInvalidTime || cand < slot) slot = cand;
      }
    }
    return Status::OK();
  };

  auto profile = DriveHopLevels(num_objects_, source, w, hops, sweep);
  if (!profile.ok()) return profile.status();
  scope.Finish();
  return std::move(*profile);
}

Result<ReachAnswer> ReachGraphIndex::QueryBmBfs(const ReachQuery& query,
                                                BufferPool* pool,
                                                QueryStats* stats) const {
  return RunBidirectional(query, /*use_long_edges=*/true, pool, stats);
}

Result<ReachAnswer> ReachGraphIndex::QueryBBfs(const ReachQuery& query,
                                               BufferPool* pool,
                                               QueryStats* stats) const {
  return RunBidirectional(query, /*use_long_edges=*/false, pool, stats);
}

Result<ReachAnswer> ReachGraphIndex::QueryEBfs(const ReachQuery& query,
                                               BufferPool* pool,
                                               QueryStats* stats) const {
  return RunUnidirectional(query, /*dfs=*/false, pool, stats);
}

Result<ReachAnswer> ReachGraphIndex::QueryEDfs(const ReachQuery& query,
                                               BufferPool* pool,
                                               QueryStats* stats) const {
  return RunUnidirectional(query, /*dfs=*/true, pool, stats);
}

namespace {

/// Forward traversal state: vertex plus item arrival time.
struct FwdEntry {
  Timestamp arrival;
  VertexId vertex;
  bool operator>(const FwdEntry& o) const {
    return arrival > o.arrival || (arrival == o.arrival && vertex > o.vertex);
  }
};

/// Backward traversal state: vertex plus latest witness time theta (an
/// item present in the vertex's component at theta reaches the
/// destination in time).
struct BwdEntry {
  Timestamp theta;
  VertexId vertex;
  bool operator<(const BwdEntry& o) const {
    return theta < o.theta || (theta == o.theta && vertex < o.vertex);
  }
};

}  // namespace

Result<ReachAnswer> ReachGraphIndex::RunBidirectional(const ReachQuery& query,
                                                      bool use_long_edges,
                                                      BufferPool* pool,
                                                      QueryStats* stats) const {
  QueryScope scope(pool, stats);
  TraversalScratch scratch;
  scratch.pool = pool;
  ReachAnswer answer;

  const TimeInterval w = query.interval.Intersect(span_);
  auto finish = [&](bool reachable) {
    answer.reachable = reachable;
    scope.Finish();
    return answer;
  };
  if (query.source == query.destination) return SelfQueryAnswer(w);
  if (w.empty()) return finish(false);
  if (query.source >= num_objects_ || query.destination >= num_objects_) {
    return finish(false);
  }
  const Timestamp t1 = w.start;
  const Timestamp t2 = w.end;
  const Timestamp mid = t1 + (t2 - t1) / 2;

  auto v1 = LookupVertex(query.source, t1, pool);
  if (!v1.ok()) return v1.status();
  auto v2 = LookupVertex(query.destination, t2, pool);
  if (!v2.ok()) return v2.status();

  std::priority_queue<FwdEntry, std::vector<FwdEntry>, std::greater<>> fwd;
  std::priority_queue<BwdEntry> bwd;
  std::unordered_set<VertexId> visited_fwd;
  std::unordered_set<VertexId> visited_bwd;
  std::unordered_set<ObjectId> objects_fwd;
  std::unordered_set<ObjectId> objects_bwd;
  fwd.push({t1, *v1});
  bwd.push({t2, *v2});
  // Both roots will be expanded; batch their partitions up front (no-op
  // at queue depth 1).
  STREACH_RETURN_NOT_OK(PrefetchVertices({*v1, *v2}, &scratch));

  // Partitions the entries a step just pushed will need — batched to the
  // per-shard queues before those entries are popped.
  std::vector<VertexId> pushed;

  // Expands one forward entry; returns true when the object sets meet.
  auto step_forward = [&]() -> Result<bool> {
    const FwdEntry entry = fwd.top();
    fwd.pop();
    if (!visited_fwd.insert(entry.vertex).second) return false;
    scope.AddItemsVisited(1);
    auto sv = GetVertex(entry.vertex, &scratch);
    if (!sv.ok()) return sv.status();
    const StoredVertex& vx = **sv;
    for (ObjectId o : vx.members) {
      if (objects_bwd.count(o) != 0) return true;
      objects_fwd.insert(o);
    }
    pushed.clear();
    bool took_long = false;
    if (use_long_edges) {
      // Resolution cascade: edges are sorted by (length desc, anchor asc);
      // take every admissible edge of the largest admissible length.
      int32_t chosen_length = 0;
      for (const LongEdge& e : vx.long_out) {
        if (chosen_length != 0 && e.length != chosen_length) break;
        if (e.anchor < entry.arrival ||
            e.anchor + e.length > mid) {
          continue;
        }
        chosen_length = e.length;
        took_long = true;
        if (visited_fwd.count(e.target) == 0) {
          fwd.push({static_cast<Timestamp>(e.anchor + e.length), e.target});
          pushed.push_back(e.target);
        }
      }
    }
    if (!took_long) {
      const Timestamp arrival = vx.span.end + 1;
      if (arrival <= mid) {
        for (VertexId t : vx.out) {
          if (visited_fwd.count(t) == 0) {
            fwd.push({arrival, t});
            pushed.push_back(t);
          }
        }
      }
    }
    STREACH_RETURN_NOT_OK(PrefetchVertices(pushed, &scratch));
    return false;
  };

  // Expands one backward entry over the reverse DN_1 graph.
  auto step_backward = [&]() -> Result<bool> {
    const BwdEntry entry = bwd.top();
    bwd.pop();
    if (!visited_bwd.insert(entry.vertex).second) return false;
    scope.AddItemsVisited(1);
    auto sv = GetVertex(entry.vertex, &scratch);
    if (!sv.ok()) return sv.status();
    const StoredVertex& vx = **sv;
    for (ObjectId o : vx.members) {
      if (objects_fwd.count(o) != 0) return true;
      objects_bwd.insert(o);
    }
    pushed.clear();
    const Timestamp theta = vx.span.start - 1;  // Predecessors end here.
    if (theta >= mid) {
      for (VertexId t : vx.in) {
        if (visited_bwd.count(t) == 0) {
          bwd.push({theta, t});
          pushed.push_back(t);
        }
      }
    }
    STREACH_RETURN_NOT_OK(PrefetchVertices(pushed, &scratch));
    return false;
  };

  while (!fwd.empty() || !bwd.empty()) {
    if (!fwd.empty()) {
      auto met = step_forward();
      if (!met.ok()) return met.status();
      if (*met) return finish(true);
    }
    if (!bwd.empty()) {
      auto met = step_backward();
      if (!met.ok()) return met.status();
      if (*met) return finish(true);
    }
  }
  return finish(false);
}

Result<ReachAnswer> ReachGraphIndex::RunUnidirectional(const ReachQuery& query,
                                                       bool dfs,
                                                       BufferPool* pool,
                                                       QueryStats* stats) const {
  QueryScope scope(pool, stats);
  TraversalScratch scratch;
  scratch.pool = pool;
  ReachAnswer answer;

  const TimeInterval w = query.interval.Intersect(span_);
  auto finish = [&](bool reachable) {
    answer.reachable = reachable;
    scope.Finish();
    return answer;
  };
  if (query.source == query.destination) return SelfQueryAnswer(w);
  if (w.empty()) return finish(false);
  if (query.source >= num_objects_ || query.destination >= num_objects_) {
    return finish(false);
  }

  auto v1 = LookupVertex(query.source, w.start, pool);
  if (!v1.ok()) return v1.status();
  auto v2 = LookupVertex(query.destination, w.end, pool);
  if (!v2.ok()) return v2.status();
  if (*v1 == *v2) return finish(true);

  // Worklist used as a FIFO (E-BFS) or LIFO (E-DFS).
  std::deque<VertexId> work;
  std::unordered_set<VertexId> visited;
  work.push_back(*v1);
  visited.insert(*v1);
  // The root is expanded first; its partition (with the destination's —
  // the traversal heads there) goes out as one batch. No-op at depth 1.
  STREACH_RETURN_NOT_OK(PrefetchVertices({*v1, *v2}, &scratch));
  std::vector<VertexId> pushed;
  while (!work.empty()) {
    VertexId v;
    if (dfs) {
      v = work.back();
      work.pop_back();
    } else {
      v = work.front();
      work.pop_front();
    }
    scope.AddItemsVisited(1);
    if (v == *v2) return finish(true);
    auto sv = GetVertex(v, &scratch);
    if (!sv.ok()) return sv.status();
    const StoredVertex& vx = **sv;
    const Timestamp arrival = vx.span.end + 1;
    if (arrival > w.end) continue;
    pushed.clear();
    for (VertexId t : vx.out) {
      if (visited.insert(t).second) {
        work.push_back(t);
        pushed.push_back(t);
      }
    }
    // The frontier just grew by `pushed` — batch their partitions while
    // the step's demand is known (no-op at depth 1).
    STREACH_RETURN_NOT_OK(PrefetchVertices(pushed, &scratch));
  }
  return finish(false);
}

}  // namespace streach
