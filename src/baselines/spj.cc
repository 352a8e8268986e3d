#include "baselines/spj.h"

#include <algorithm>
#include <unordered_map>

#include "common/encoding.h"
#include "common/query_scope.h"
#include "common/stopwatch.h"
#include "network/hop_profile.h"
#include "network/union_find.h"
#include "storage/build_pool.h"
#include "spatial/grid2d.h"

namespace streach {

Result<std::unique_ptr<SpjEvaluator>> SpjEvaluator::Build(
    const TrajectoryStore& store, const SpjOptions& options) {
  if (store.num_objects() == 0) {
    return Status::InvalidArgument("empty trajectory store");
  }
  if (options.slab_ticks < 1) {
    return Status::InvalidArgument("slab_ticks must be >= 1");
  }
  STREACH_RETURN_NOT_OK(ValidateBuildOptions(options.build));
  std::unique_ptr<SpjEvaluator> spj(
      new SpjEvaluator(options, store.span(), store.num_objects()));
  Stopwatch watch;
  STREACH_RETURN_NOT_OK(spj->WriteSlabs(store));
  spj->build_seconds_ = watch.ElapsedSeconds();
  // Keep the build-phase write profile before wiping the devices for
  // query-time accounting.
  spj->build_io_ = spj->topology_.PerShardDeviceStats();
  spj->topology_.ResetStats();
  return spj;
}

TimeInterval SpjEvaluator::SlabInterval(int slab) const {
  const Timestamp start =
      span_.start + static_cast<Timestamp>(slab) * options_.slab_ticks;
  const Timestamp end =
      std::min<Timestamp>(start + options_.slab_ticks - 1, span_.end);
  return TimeInterval(start, end);
}

Status SpjEvaluator::WriteSlabs(const TrajectoryStore& store) {
  const int num_slabs = static_cast<int>(
      (span_.length() + options_.slab_ticks - 1) / options_.slab_ticks);
  // Slabs are routed round-robin: with S > 1 shards, the slabs placed on
  // the same shard stay in temporal order, so the baseline's sequential
  // range scan remains sequential per shard head. Each slab is one build
  // task pinned to its shard; per-shard FIFO keeps the on-disk image
  // identical for every worker count.
  ShardedExtentWriter writer(&topology_, options_.build.write_queue_depth,
                             GetPageCodec(options_.build.page_codec));
  BuildWorkerPool pool(topology_.num_shards(), options_.build.build_workers);
  slab_extents_.resize(static_cast<size_t>(num_slabs));
  for (int slab = 0; slab < num_slabs; ++slab) {
    const uint32_t shard =
        topology_.ShardForPartition(static_cast<uint64_t>(slab));
    pool.Submit(shard, [this, &store, &writer, slab, shard]() -> Status {
      const TimeInterval sw = SlabInterval(slab);
      Encoder enc;
      // All objects' positions for the slab, object-major. One stride-2
      // double run: x,y interleave, each coordinate predicted from its
      // own dimension (object boundaries cost a few mispredicted values).
      for (ObjectId o = 0; o < store.num_objects(); ++o) {
        const Trajectory& tr = store.Get(o);
        for (Timestamp t = sw.start; t <= sw.end; ++t) {
          const Point& p = tr.At(t);
          enc.PutDouble(p.x);
          enc.PutDouble(p.y);
        }
      }
      RecordShape shape;
      shape.DoubleDelta(enc.size() / 8, /*stride=*/2);
      auto extent = writer.Append(shard, enc.buffer(), shape);
      if (!extent.ok()) return extent.status();
      slab_extents_[static_cast<size_t>(slab)] = *extent;
      return Status::OK();
    });
  }
  STREACH_RETURN_NOT_OK(pool.Finish());
  return writer.Flush();
}

Result<ReachAnswer> SpjEvaluator::Query(const ReachQuery& query,
                                        BufferPool* pool,
                                        QueryStats* stats) const {
  if (query.source == query.destination) {
    QueryScope scope(pool, stats);  // Records a query that read nothing.
    return SelfQueryAnswer(query.interval.Intersect(span_));
  }
  auto sets =
      Closure({query.source}, query.interval, query.destination, pool, stats);
  if (!sets.ok()) return sets.status();
  return AnswerFromSet((*sets)[0], query.destination);
}

Result<std::vector<std::vector<Timestamp>>> SpjEvaluator::ReachableSets(
    const std::vector<ObjectId>& sources, TimeInterval interval,
    BufferPool* pool, QueryStats* stats) const {
  return Closure(sources, interval, kInvalidObject, pool, stats);
}

Result<std::vector<ReachProfileEntry>> SpjEvaluator::ConstrainedProfile(
    ObjectId source, TimeInterval interval, const HopConstraints& hops,
    BufferPool* pool, QueryStats* stats) const {
  QueryScope scope(pool, stats);
  const TimeInterval w = interval.Intersect(span_);
  if (w.empty() || source >= num_objects_) {
    scope.Finish();
    return std::vector<ReachProfileEntry>(num_objects_);
  }
  // The transfer-level recursion revisits every tick per level, but
  // contact pairs are a property of the positions alone, so the scan joins
  // them a single time and the level loop runs over the materialized
  // per-tick pair lists in memory.
  std::vector<ContactPairs> tick_pairs(static_cast<size_t>(w.length()));
  auto keep = [&](Timestamp t, ContactPairs pairs) {
    tick_pairs[static_cast<size_t>(t - w.start)] = std::move(pairs);
    return true;
  };
  STREACH_RETURN_NOT_OK(ScanContacts(w, pool, keep));
  auto profile = ComputeHopProfile(
      num_objects_, source, w, hops,
      [&](Timestamp t) -> const ContactPairs& {
        return tick_pairs[static_cast<size_t>(t - w.start)];
      });
  scope.Finish();
  return profile;
}

Status SpjEvaluator::ScanContacts(TimeInterval w, BufferPool* pool,
                                  const TickVisitor& visit) const {
  const double dt = options_.contact_range;
  const double dt_sq = dt * dt;
  const int first_slab =
      static_cast<int>((w.start - span_.start) / options_.slab_ticks);
  const int last_slab =
      static_cast<int>((w.end - span_.start) / options_.slab_ticks);

  // Phase 1 — materialize C': SPJ first "retrieves all the trajectories
  // segments which overlap with the query interval" (§6.1.2). The whole
  // overlapping range is known up front, so it goes out as one batch:
  // with a queue depth of 1 the slabs stream in order, one read at a
  // time; deeper queues overlap the reads across every shard's queue at
  // once — the scan is the deepest batch any evaluator issues.
  const std::vector<Extent> wanted(
      slab_extents_.begin() + first_slab,
      slab_extents_.begin() + last_slab + 1);
  auto slabs = ReadExtentsBatched(pool, wanted, options_.page_size);
  if (!slabs.ok()) return slabs.status();

  // Phase 2 — the per-tick self-join in memory, cell side dT.
  std::vector<Point> positions;  // Object-major slab positions.
  for (int slab = first_slab; slab <= last_slab; ++slab) {
    const TimeInterval sw = SlabInterval(slab);
    const auto slab_ticks = static_cast<size_t>(sw.length());
    Decoder dec((*slabs)[static_cast<size_t>(slab - first_slab)]);
    positions.assign(num_objects_ * slab_ticks, Point());
    for (size_t i = 0; i < positions.size(); ++i) {
      auto x = dec.GetDouble();
      auto y = dec.GetDouble();
      if (!x.ok() || !y.ok()) return Status::Corruption("slab positions");
      positions[i] = Point(*x, *y);
    }
    auto position_of = [&](ObjectId o, Timestamp t) -> const Point& {
      return positions[static_cast<size_t>(o) * slab_ticks +
                       static_cast<size_t>(t - sw.start)];
    };

    // Extent of the slab's population for the per-tick grid join.
    Rect extent;
    for (const Point& p : positions) extent.ExpandToInclude(p);
    if (extent.Width() <= 0 || extent.Height() <= 0) {
      extent = extent.Padded(1.0);
    }
    UniformGrid2D grid(extent, dt);
    std::unordered_map<CellId, std::vector<ObjectId>> buckets;

    const TimeInterval tw = sw.Intersect(w);
    for (Timestamp t = tw.start; t <= tw.end; ++t) {
      buckets.clear();
      for (ObjectId o = 0; o < num_objects_; ++o) {
        buckets[grid.CellOf(position_of(o, t))].push_back(o);
      }
      ContactPairs pairs;
      for (const auto& [cell, mine] : buckets) {
        const int row = grid.RowOfCell(cell);
        const int col = grid.ColOfCell(cell);
        for (size_t i = 0; i < mine.size(); ++i) {
          for (size_t j = i + 1; j < mine.size(); ++j) {
            if (Point::DistanceSquared(position_of(mine[i], t),
                                       position_of(mine[j], t)) < dt_sq) {
              pairs.emplace_back(mine[i], mine[j]);
            }
          }
        }
        static constexpr int kForward[4][2] = {
            {0, 1}, {1, -1}, {1, 0}, {1, 1}};
        for (const auto& d : kForward) {
          const int nr = row + d[0];
          const int nc = col + d[1];
          if (nr < 0 || nr >= grid.rows() || nc < 0 || nc >= grid.cols()) {
            continue;
          }
          auto other = buckets.find(grid.CellAt(nr, nc));
          if (other == buckets.end()) continue;
          for (ObjectId a : mine) {
            for (ObjectId b : other->second) {
              if (Point::DistanceSquared(position_of(a, t),
                                         position_of(b, t)) < dt_sq) {
                pairs.emplace_back(a, b);
              }
            }
          }
        }
      }
      if (!visit(t, std::move(pairs))) return Status::OK();
    }
  }
  return Status::OK();
}

Result<std::vector<std::vector<Timestamp>>> SpjEvaluator::Closure(
    const std::vector<ObjectId>& sources, TimeInterval interval,
    ObjectId destination, BufferPool* pool, QueryStats* stats) const {
  QueryScope scope(pool, stats);
  const size_t num_sources = sources.size();
  std::vector<std::vector<Timestamp>> sets(
      num_sources, std::vector<Timestamp>(num_objects_, kInvalidTime));

  const TimeInterval w = interval.Intersect(span_);
  // Lane masks, 64 sources per chunk: infected[chunk][object] holds one
  // bit per source in the chunk.
  const size_t num_chunks = (num_sources + 63) / 64;
  std::vector<std::vector<uint64_t>> infected(
      num_chunks, std::vector<uint64_t>(num_objects_, 0));
  bool any_seed = false;
  if (!w.empty()) {
    for (size_t si = 0; si < num_sources; ++si) {
      if (sources[si] >= num_objects_) continue;  // Its set stays empty.
      sets[si][sources[si]] = w.start;
      infected[si / 64][sources[si]] |= 1ull << (si % 64);
      any_seed = true;
    }
  }
  if (!any_seed) {
    scope.Finish();
    return sets;
  }

  // Join once, propagate per lane group. The contact pairs of a tick are
  // a property of the positions alone, so every source shares one
  // union-find pass; only the mask OR-propagation repeats per chunk.
  UnionFind uf(num_objects_);
  auto reached_destination = [&]() {
    if (destination >= num_objects_) return false;
    for (const std::vector<uint64_t>& lane_infected : infected) {
      if (lane_infected[destination] != 0) return true;
    }
    return false;
  };
  auto propagate = [&](Timestamp t, const ContactPairs& pairs) {
    if (pairs.empty()) return true;
    uf.Reset();
    for (const auto& [a, b] : pairs) uf.Union(a, b);
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      std::vector<uint64_t>& lane_infected = infected[chunk];
      // A snapshot component's mask is the OR of its members' masks at
      // tick start; every member then acquires the whole mask — the
      // masked form of "every component containing an infected object
      // becomes fully infected".
      std::unordered_map<uint32_t, uint64_t> component_mask;
      for (const auto& [a, b] : pairs) {
        component_mask[uf.Find(a)] |= lane_infected[a] | lane_infected[b];
      }
      for (const auto& [a, b] : pairs) {
        const uint64_t comp = component_mask[uf.Find(a)];
        for (ObjectId x : {a, b}) {
          const uint64_t add = comp & ~lane_infected[x];
          if (add == 0) continue;
          lane_infected[x] = comp;
          uint64_t lanes = add;
          while (lanes != 0) {
            const int bit = __builtin_ctzll(lanes);
            sets[chunk * 64 + static_cast<size_t>(bit)][x] = t;
            lanes &= lanes - 1;
          }
        }
      }
    }
    // The join stops at the tick that reaches the destination; the scan
    // is already spent, so this saves CPU only.
    return !reached_destination();
  };
  STREACH_RETURN_NOT_OK(ScanContacts(w, pool, propagate));
  scope.Finish();
  return sets;
}

}  // namespace streach
