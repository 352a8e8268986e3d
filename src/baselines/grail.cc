#include "baselines/grail.h"

#include <algorithm>
#include <unordered_set>

#include "common/encoding.h"
#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "storage/build_pool.h"

namespace streach {

Result<std::unique_ptr<GrailIndex>> GrailIndex::Build(
    const DnGraph& graph, const GrailOptions& options) {
  if (options.num_labelings < 1 || options.num_labelings > 16) {
    return Status::InvalidArgument("num_labelings must be in [1, 16]");
  }
  STREACH_RETURN_NOT_OK(ValidateBuildOptions(options.build));
  Stopwatch watch;
  std::unique_ptr<GrailIndex> index(new GrailIndex(options));
  const size_t n = graph.num_vertices();
  index->span_ = graph.span();
  index->labels_.assign(n, std::vector<Label>(
                               static_cast<size_t>(options.num_labelings)));
  index->out_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    index->out_[v] = graph.vertex(v).out;
  }
  index->timelines_.resize(graph.num_objects());
  for (ObjectId o = 0; o < graph.num_objects(); ++o) {
    index->timelines_[o] = graph.timeline(o);
  }
  Rng rng(options.seed);
  for (int i = 0; i < options.num_labelings; ++i) {
    index->BuildLabels(graph, &rng, i);
  }
  STREACH_RETURN_NOT_OK(index->PlaceOnDisk(graph));
  index->build_seconds_ = watch.ElapsedSeconds();
  // Keep the build-phase write profile before wiping the devices for
  // query-time accounting.
  index->build_io_ = index->topology_.PerShardDeviceStats();
  index->topology_.ResetStats();
  return index;
}

void GrailIndex::BuildLabels(const DnGraph& graph, Rng* rng, int labeling) {
  const size_t n = graph.num_vertices();
  // Randomized post-order: iterative DFS over the DAG from every root
  // (virtual-root construction), children shuffled per labeling.
  std::vector<uint32_t> rank(n, 0);
  std::vector<bool> visited(n, false);
  uint32_t next_rank = 1;

  std::vector<VertexId> roots;
  for (VertexId v = 0; v < n; ++v) {
    if (graph.vertex(v).in.empty()) roots.push_back(v);
  }
  // Shuffle root order too (Fisher-Yates).
  for (size_t i = roots.size(); i > 1; --i) {
    std::swap(roots[i - 1], roots[rng->Uniform(i)]);
  }

  struct Frame {
    VertexId v;
    std::vector<VertexId> children;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  for (VertexId root : roots) {
    if (visited[root]) continue;
    visited[root] = true;
    Frame frame{root, graph.vertex(root).out, 0};
    for (size_t i = frame.children.size(); i > 1; --i) {
      std::swap(frame.children[i - 1], frame.children[rng->Uniform(i)]);
    }
    stack.push_back(std::move(frame));
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next < top.children.size()) {
        const VertexId child = top.children[top.next++];
        if (visited[child]) continue;
        visited[child] = true;
        Frame next_frame{child, graph.vertex(child).out, 0};
        for (size_t i = next_frame.children.size(); i > 1; --i) {
          std::swap(next_frame.children[i - 1],
                    next_frame.children[rng->Uniform(i)]);
        }
        stack.push_back(std::move(next_frame));
      } else {
        rank[top.v] = next_rank++;
        stack.pop_back();
      }
    }
  }

  // min label via reverse-topological DP (vertex ids are topological):
  // min(v) = min(rank(v), min over out-neighbors).
  for (size_t vi = n; vi-- > 0;) {
    const auto v = static_cast<VertexId>(vi);
    uint32_t m = rank[v];
    for (VertexId w : graph.vertex(v).out) {
      m = std::min(m, labels_[w][static_cast<size_t>(labeling)].min);
    }
    labels_[v][static_cast<size_t>(labeling)] = Label{m, rank[v]};
  }
}

Status GrailIndex::PlaceOnDisk(const DnGraph& graph) {
  // Vertices in generation (id) order — the naive placement the paper
  // assumes for GRAIL (§6.4) — each record holding labels + out-edges.
  // With S > 1 shards, records go round-robin (still in id order per
  // shard) and timelines are routed by object hash. Labels are already
  // computed, so every record is an independent build task pinned to its
  // shard; per-shard FIFO keeps the on-disk image identical for every
  // worker count.
  ShardedExtentWriter writer(&topology_, options_.build.write_queue_depth,
                             GetPageCodec(options_.build.page_codec));
  BuildWorkerPool pool(topology_.num_shards(), options_.build.build_workers);
  const size_t n = graph.num_vertices();
  vertex_extents_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t shard = topology_.ShardForPartition(v);
    pool.Submit(shard, [this, &writer, v, shard]() -> Status {
      Encoder enc;
      RecordShape shape;
      // (min, rank) label pairs: stride 2 deltas mins against mins and
      // ranks against ranks across the d labelings.
      for (const Label& label : labels_[v]) {
        enc.PutU32(label.min);
        enc.PutU32(label.rank);
      }
      shape.U32Delta(2 * labels_[v].size(), /*stride=*/2);
      const size_t mark = enc.size();
      enc.PutVarint(out_[v].size());
      shape.Bytes(enc.size() - mark);
      for (VertexId w : out_[v]) enc.PutU32(w);
      shape.U32Delta(out_[v].size());
      auto extent = writer.Append(shard, enc.buffer(), shape);
      if (!extent.ok()) return extent.status();
      vertex_extents_[v] = *extent;
      return Status::OK();
    });
  }
  STREACH_RETURN_NOT_OK(pool.Barrier());
  STREACH_RETURN_NOT_OK(writer.AlignAllToPage());
  timeline_extents_.resize(graph.num_objects());
  for (ObjectId o = 0; o < graph.num_objects(); ++o) {
    const uint32_t shard = topology_.ShardForObject(o);
    pool.Submit(shard, [this, &graph, &writer, o, shard]() -> Status {
      Encoder enc;
      RecordShape shape;
      const auto& timeline = graph.timeline(o);
      enc.PutVarint(timeline.size());
      shape.Bytes(enc.size());
      // (start, end, vertex) triples, time-ordered: stride-3 deltas (see
      // the ReachGraph timeline serialization).
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

Result<GrailIndex::DiskVertex> GrailIndex::ParseVertexRecord(
    const std::string& blob) const {
  Decoder dec(blob);
  DiskVertex record;
  record.labels.reserve(static_cast<size_t>(options_.num_labelings));
  for (int i = 0; i < options_.num_labelings; ++i) {
    auto min = dec.GetU32();
    auto rank = dec.GetU32();
    if (!min.ok() || !rank.ok()) return Status::Corruption("grail label");
    record.labels.push_back(Label{*min, *rank});
  }
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  record.out.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    auto w = dec.GetU32();
    if (!w.ok()) return w.status();
    record.out.push_back(*w);
  }
  return record;
}

Result<const GrailIndex::DiskVertex*> GrailIndex::FetchVertexRecord(
    VertexId v, BufferPool* pool, FetchCache* cache) const {
  auto it = cache->find(v);
  if (it != cache->end()) return &it->second;
  auto blob = ReadExtent(pool, vertex_extents_[v], options_.page_size);
  if (!blob.ok()) return blob.status();
  auto record = ParseVertexRecord(*blob);
  if (!record.ok()) return record.status();
  return &cache->emplace(v, std::move(*record)).first->second;
}

Status GrailIndex::FetchVertexRecords(const std::vector<VertexId>& vs,
                                      BufferPool* pool,
                                      FetchCache* cache) const {
  std::vector<VertexId> fresh;
  std::vector<Extent> extents;
  for (VertexId v : vs) {
    if (cache->count(v) != 0) continue;
    fresh.push_back(v);
    extents.push_back(vertex_extents_[v]);
  }
  if (extents.empty()) return Status::OK();
  auto blobs = ReadExtentsBatched(pool, extents, options_.page_size);
  if (!blobs.ok()) return blobs.status();
  for (size_t k = 0; k < fresh.size(); ++k) {
    auto record = ParseVertexRecord((*blobs)[k]);
    if (!record.ok()) return record.status();
    cache->emplace(fresh[k], std::move(*record));
  }
  return Status::OK();
}

Result<VertexId> GrailIndex::LookupVertexDisk(ObjectId object, Timestamp t,
                                              BufferPool* pool) const {
  if (object >= timeline_extents_.size()) {
    return Status::NotFound("unknown object");
  }
  auto blob = ReadExtent(pool, timeline_extents_[object], options_.page_size);
  if (!blob.ok()) return blob.status();
  Decoder dec(*blob);
  auto count = dec.GetVarint();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto start = dec.GetI32();
    auto end = dec.GetI32();
    auto vertex = dec.GetU32();
    if (!start.ok() || !end.ok() || !vertex.ok()) {
      return Status::Corruption("timeline entry");
    }
    if (t >= *start && t <= *end) return *vertex;
  }
  return Status::NotFound("object has no vertex at requested time");
}

bool GrailIndex::ReachableMemory(VertexId from, VertexId to) const {
  if (from == to) return true;
  if (!Contains(from, to)) return false;
  // Label-pruned DFS.
  std::vector<VertexId> stack{from};
  std::unordered_set<VertexId> visited{from};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    if (v == to) return true;
    for (VertexId w : out_[v]) {
      if (w == to) return true;
      if (!Contains(w, to)) continue;  // Prune.
      if (visited.insert(w).second) stack.push_back(w);
    }
  }
  return false;
}

namespace {

VertexId TimelineLookup(const std::vector<DnGraph::TimelineEntry>& timeline,
                        Timestamp t) {
  auto it = std::upper_bound(timeline.begin(), timeline.end(), t,
                             [](Timestamp time, const DnGraph::TimelineEntry& e) {
                               return time < e.span.start;
                             });
  if (it == timeline.begin()) return kInvalidVertex;
  --it;
  return it->span.Contains(t) ? it->vertex : kInvalidVertex;
}

}  // namespace

Result<ReachAnswer> GrailIndex::QueryMemory(const ReachQuery& query,
                                            QueryStats* stats) const {
  QueryScope scope(/*pool=*/nullptr, stats);
  ReachAnswer answer;
  const TimeInterval w = query.interval.Intersect(span_);
  auto finish = [&](bool reachable) {
    answer.reachable = reachable;
    scope.Finish();
    return answer;
  };
  if (query.source == query.destination) return SelfQueryAnswer(w);
  if (w.empty()) return finish(false);
  if (query.source >= timelines_.size() ||
      query.destination >= timelines_.size()) {
    return finish(false);
  }
  const VertexId v1 = TimelineLookup(timelines_[query.source], w.start);
  const VertexId v2 = TimelineLookup(timelines_[query.destination], w.end);
  if (v1 == kInvalidVertex || v2 == kInvalidVertex) return finish(false);
  return finish(ReachableMemory(v1, v2));
}

Result<ReachAnswer> GrailIndex::QueryDisk(const ReachQuery& query,
                                          BufferPool* pool,
                                          QueryStats* stats) const {
  QueryScope scope(pool, stats);
  FetchCache fetched;
  ReachAnswer answer;
  auto finish = [&](bool reachable) {
    answer.reachable = reachable;
    scope.Finish();
    return answer;
  };
  const TimeInterval w = query.interval.Intersect(span_);
  if (query.source == query.destination) return SelfQueryAnswer(w);
  if (w.empty()) return finish(false);
  if (query.source >= timeline_extents_.size() ||
      query.destination >= timeline_extents_.size()) {
    return finish(false);
  }
  auto v1 = LookupVertexDisk(query.source, w.start, pool);
  if (!v1.ok()) return v1.status();
  auto v2 = LookupVertexDisk(query.destination, w.end, pool);
  if (!v2.ok()) return v2.status();
  if (*v1 == *v2) return finish(true);

  // Labels live inside the on-disk vertex records: testing containment for
  // a vertex — even just to prune it — requires fetching its record.
  auto target = FetchVertexRecord(*v2, pool, &fetched);
  if (!target.ok()) return target.status();
  const std::vector<Label> target_labels = (*target)->labels;
  auto start = FetchVertexRecord(*v1, pool, &fetched);
  if (!start.ok()) return start.status();
  if (!LabelsContain((*start)->labels, target_labels)) return finish(false);

  const bool batched = pool->io_queue_depth() > 1;
  std::vector<VertexId> stack{*v1};
  std::vector<VertexId> probes;
  std::unordered_set<VertexId> visited{*v1};
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    scope.AddItemsVisited(1);
    if (v == *v2) return finish(true);
    auto record = FetchVertexRecord(v, pool, &fetched);
    if (!record.ok()) return record.status();
    // Copy the out-edges: fetching children below may rehash the cache.
    const std::vector<VertexId> out = (*record)->out;
    if (batched) {
      // The step's whole probe set — every not-yet-visited child needs
      // its record read just to test containment — goes out as one
      // batch. (The destination never needs a probe: the hit is decided
      // before its record would be read.)
      probes.clear();
      for (VertexId next : out) {
        if (next != *v2 && visited.count(next) == 0) probes.push_back(next);
      }
      STREACH_RETURN_NOT_OK(FetchVertexRecords(probes, pool, &fetched));
    }
    for (VertexId next : out) {
      if (next == *v2) return finish(true);
      if (!visited.insert(next).second) continue;
      auto child = FetchVertexRecord(next, pool, &fetched);
      if (!child.ok()) return child.status();
      if (!LabelsContain((*child)->labels, target_labels)) continue;
      stack.push_back(next);
    }
  }
  return finish(false);
}

}  // namespace streach
