#include "stream/segmented_index.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/query_stats.h"
#include "common/stopwatch.h"
#include "common/types.h"
#include "network/hop_profile.h"
#include "storage/buffer_pool.h"
#include "storage/io_stats.h"

namespace streach {
namespace {

/// Seal ids of sealed segments that failed verification (checksum
/// mismatch while loading), shared by every session minted from one
/// `MakeStreamingBackend` call. Quarantine is sticky and cumulative: a
/// segment that once returned `Corruption` is never read again by any
/// session — under degraded serving its contacts are silently absent
/// from answers (flagged via `QueryStats::degraded`), otherwise every
/// query touching it keeps failing with `Corruption`. Seal ids are never
/// reused, so entries never alias a later segment.
struct QuarantineRegistry {
  std::mutex mu;
  std::set<uint64_t> seal_ids;

  bool Contains(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    return seal_ids.count(id) != 0;
  }
  void Add(uint64_t id) {
    std::lock_guard<std::mutex> lock(mu);
    seal_ids.insert(id);
  }
};

/// One unit of the cross-segment closure: the contacts a single segment
/// (sealed or head) contributes to the query interval, with an
/// object -> contact-index adjacency for the sweep.
struct SweepUnit {
  uint64_t ordinal = 0;  // Seal id; the head sorts after every seal.
  TimeInterval cover;
  std::vector<Contact> contacts;
  std::unordered_map<ObjectId, std::vector<uint32_t>> adjacency;
};

void BuildAdjacency(SweepUnit* unit) {
  for (uint32_t e = 0; e < unit->contacts.size(); ++e) {
    const Contact& c = unit->contacts[e];
    unit->adjacency[c.a].push_back(e);
    unit->adjacency[c.b].push_back(e);
  }
}

/// One temporal-Dijkstra pass over a unit, clamped to `w`. `times` is
/// the global infection front (kInvalidTime = uninfected); the pass
/// relaxes it in place and reports whether anything improved. Equal
/// arrival times chain within the pass, so a whole same-tick contact
/// component infects together — the brute-force oracle's per-tick
/// union-find semantics (§3.2).
bool SweepOnce(const SweepUnit& unit, TimeInterval w,
               std::vector<Timestamp>* times) {
  using Item = std::pair<Timestamp, ObjectId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (const auto& [object, edges] : unit.adjacency) {
    const Timestamp t = (*times)[object];
    if (t != kInvalidTime) heap.push({t, object});
  }
  bool improved = false;
  while (!heap.empty()) {
    const auto [t, object] = heap.top();
    heap.pop();
    if (t != (*times)[object]) continue;  // Superseded by a better time.
    for (const uint32_t e : unit.adjacency.at(object)) {
      const Contact& c = unit.contacts[e];
      const Timestamp clamped_start = std::max(c.validity.start, w.start);
      const Timestamp clamped_end = std::min(c.validity.end, w.end);
      if (clamped_start > clamped_end || t > clamped_end) continue;
      const Timestamp arrival = std::max(t, clamped_start);
      Timestamp& partner = (*times)[c.Other(object)];
      if (partner == kInvalidTime || arrival < partner) {
        partner = arrival;
        improved = true;
        heap.push({arrival, c.Other(object)});
      }
    }
  }
  return improved;
}

/// \brief The `ReachabilityIndex` session over a live ingestor (see
/// segmented_index.h for the query model).
class SegmentedIndex final : public ReachabilityIndex {
 public:
  SegmentedIndex(std::shared_ptr<const StreamingIngestor> ingestor,
                 std::shared_ptr<QuarantineRegistry> quarantine)
      : ingestor_(std::move(ingestor)), quarantine_(std::move(quarantine)) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    // Mirrors the brute-force oracle case for case: a self-query is
    // reachable iff the clamped window is non-empty, with no object
    // range check; otherwise the answer is the closure's entry.
    if (query.source == query.destination) {
      stats_ = QueryStats{};
      return SelfQueryAnswer(query.interval.Intersect(ingestor_->span()));
    }
    std::vector<Timestamp> infected;
    STREACH_ASSIGN_OR_RETURN(infected,
                             ReachableSet(query.source, query.interval));
    return AnswerFromSet(infected, query.destination);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    const size_t num_objects = ingestor_->num_objects();
    const TimeInterval w = interval.Intersect(ingestor_->span());
    std::vector<std::vector<Timestamp>> sets(
        sources.size(), std::vector<Timestamp>(num_objects, kInvalidTime));
    STREACH_RETURN_NOT_OK(Accounted([&]() -> Status {
      if (w.empty()) return Status::OK();
      std::vector<SweepUnit> units;
      STREACH_RETURN_NOT_OK(LoadUnits(w, &units, &stats_.degraded));
      for (const SweepUnit& unit : units) {
        stats_.items_visited += unit.contacts.size();
      }
      for (size_t i = 0; i < sources.size(); ++i) {
        if (sources[i] >= num_objects) continue;
        std::vector<Timestamp>& times = sets[i];
        times[sources[i]] = w.start;
        // Bounded fixpoint: sweep the units (ascending cover, head last)
        // until no infection time improves. A run crossing a seal
        // boundary lives in the later unit, so infection flows backward
        // across the cut on the next round; times only decrease over a
        // finite lattice, so this terminates.
        bool changed = true;
        while (changed) {
          changed = false;
          for (const SweepUnit& unit : units) {
            changed |= SweepOnce(unit, w, &times);
          }
        }
      }
      return Status::OK();
    }));
    return sets;
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    const size_t num_objects = ingestor_->num_objects();
    const TimeInterval w = interval.Intersect(ingestor_->span());
    std::vector<ReachProfileEntry> profile(num_objects);
    STREACH_RETURN_NOT_OK(Accounted([&]() -> Status {
      if (w.empty() || source >= num_objects) return Status::OK();
      std::vector<SweepUnit> units;
      STREACH_RETURN_NOT_OK(LoadUnits(w, &units, &stats_.degraded));
      // The transfer-level recursion needs the per-tick snapshot
      // components of the WHOLE stream — a same-tick chain may cross
      // units (conduit in one segment, carrier in another), so per-unit
      // relaxation cannot see it. Materialize every unit's contacts into
      // one per-tick pair table, then run the shared kernel; the table is
      // independent of the seal schedule, which is what keeps streaming
      // answers byte-identical to a one-shot batch build.
      std::vector<std::vector<std::pair<ObjectId, ObjectId>>> tick_pairs(
          static_cast<size_t>(w.length()));
      for (const SweepUnit& unit : units) {
        stats_.items_visited += unit.contacts.size();
        for (const Contact& c : unit.contacts) {
          const TimeInterval v = c.validity.Intersect(w);
          for (Timestamp t = v.start; t <= v.end; ++t) {
            tick_pairs[static_cast<size_t>(t - w.start)].emplace_back(c.a,
                                                                      c.b);
          }
        }
      }
      profile = ComputeHopProfile(
          num_objects, source, w, hops,
          [&](Timestamp t)
              -> const std::vector<std::pair<ObjectId, ObjectId>>& {
            return tick_pairs[static_cast<size_t>(t - w.start)];
          });
      return Status::OK();
    }));
    return profile;
  }

  const QueryStats& last_query_stats() const override { return stats_; }

  void ClearCache() override {
    for (const auto& [id, pool] : pools_) pool->Clear();
  }

  void SetIoQueueDepth(int depth) override {
    io_queue_depth_ = std::max(depth, 1);
    for (const auto& [id, pool] : pools_) {
      pool->set_io_queue_depth(io_queue_depth_);
    }
  }

  void SetMaxReadRetries(int retries) override {
    max_read_retries_ = std::max(retries, 0);
    for (const auto& [id, pool] : pools_) {
      pool->set_max_read_retries(max_read_retries_);
    }
  }

  void SetDegradedServing(bool on) override { degraded_serving_ = on; }

  // No identity on purpose: the index is live (appends land between
  // queries), so the engine's result cache must never memoize it.
  std::shared_ptr<const void> IndexIdentity() const override {
    return nullptr;
  }

  int num_shards() const override { return ingestor_->options().num_shards; }

  std::optional<PageCodecKind> page_codec() const override {
    return ingestor_->options().build.page_codec;
  }

  std::vector<IoStats> shard_io_stats() const override {
    std::vector<IoStats> total(
        static_cast<size_t>(ingestor_->options().num_shards));
    for (const auto& [id, pool] : pools_) {
      const std::vector<IoStats> per_shard = pool->PerShardIoStats();
      for (size_t s = 0; s < per_shard.size() && s < total.size(); ++s) {
        total[s] += per_shard[s];
      }
    }
    return total;
  }

  std::string DescribeIndex() const override {
    return "SegmentedIndex(streaming)";
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<SegmentedIndex>(ingestor_, quarantine_);
    session->io_queue_depth_ = io_queue_depth_;
    session->max_read_retries_ = max_read_retries_;
    session->degraded_serving_ = degraded_serving_;
    return session;
  }

 private:
  /// Runs `body` as one query's accounting scope: resets `stats_` (which
  /// `body` may fill with items visited and the degraded flag), then
  /// folds the IO, page misses and pool hits this query caused across
  /// the per-segment pools into it, plus the wall time. Pools can be
  /// created mid-query (first touch of a segment), so the existing
  /// pools' counters are snapshotted first and a pool absent from the
  /// snapshot contributes its full totals. The fold runs even when
  /// `body` fails, so partially accounted IO stays visible.
  template <typename Body>
  Status Accounted(Body&& body) {
    Stopwatch watch;
    stats_ = QueryStats{};
    struct Before {
      IoStats io;
      uint64_t hits = 0;
      uint64_t misses = 0;
    };
    std::unordered_map<const BufferPool*, Before> before;
    before.reserve(pools_.size());
    for (const auto& [id, pool] : pools_) {
      before[pool.get()] = {pool->io_stats(), pool->hits(), pool->misses()};
    }
    const Status status = body();
    IoStats io;
    for (const auto& [id, pool] : pools_) {
      const auto it = before.find(pool.get());
      const Before start = it != before.end() ? it->second : Before{};
      io += pool->io_stats() - start.io;
      stats_.pages_fetched += pool->misses() - start.misses;
      stats_.pool_hits += pool->hits() - start.hits;
    }
    stats_.io_cost = io.NormalizedReadCost();
    stats_.cpu_seconds = watch.ElapsedSeconds();
    return status;
  }

  /// Snapshots the ingestor and loads every overlapping unit's contacts:
  /// sealed segments in ascending (cover start, seal id), the head last.
  /// Segments that fail verification (`Corruption` from the read path —
  /// a blob or page checksum mismatch) are quarantined for every session
  /// sharing this backend; already-quarantined segments are never read.
  /// Under degraded serving an unreadable segment is skipped and
  /// `*degraded` is set; otherwise the query fails with the Corruption.
  /// Non-Corruption errors (e.g. an unmasked transient fault) propagate
  /// without quarantining — the segment's media may be fine.
  Status LoadUnits(TimeInterval w, std::vector<SweepUnit>* units,
                   bool* degraded) {
    StreamingIngestor::Snapshot snapshot = ingestor_->SnapshotFor(w);
    units->reserve(snapshot.segments.size() + 1);
    for (const auto& segment : snapshot.segments) {
      if (quarantine_->Contains(segment->id())) {
        if (!degraded_serving_) {
          return Status::Corruption(
              "sealed segment " + std::to_string(segment->id()) +
              " is quarantined (failed verification)");
        }
        *degraded = true;
        continue;
      }
      SweepUnit unit;
      unit.ordinal = segment->id();
      unit.cover = segment->cover();
      const Status status =
          segment->LoadOverlapping(w, PoolFor(*segment), &unit.contacts);
      if (!status.ok()) {
        if (!status.IsCorruption()) return status;
        quarantine_->Add(segment->id());
        if (!degraded_serving_) return status;
        *degraded = true;
        continue;
      }
      if (!unit.contacts.empty()) units->push_back(std::move(unit));
    }
    std::sort(units->begin(), units->end(),
              [](const SweepUnit& x, const SweepUnit& y) {
                return std::tie(x.cover.start, x.ordinal) <
                       std::tie(y.cover.start, y.ordinal);
              });
    if (!snapshot.head.empty()) {
      SweepUnit unit;
      unit.contacts = std::move(snapshot.head);
      units->push_back(std::move(unit));
    }
    for (SweepUnit& unit : *units) BuildAdjacency(&unit);
    return Status::OK();
  }

  /// This session's pool over one sealed segment, created on first
  /// touch. Seal ids are unique and never reused, so the key is stable.
  BufferPool* PoolFor(const SealedSegment& segment) {
    auto it = pools_.find(segment.id());
    if (it == pools_.end()) {
      it = pools_
               .emplace(segment.id(),
                        segment.NewPool(
                            ingestor_->options().buffer_pool_pages,
                            io_queue_depth_))
               .first;
      it->second->set_max_read_retries(max_read_retries_);
    }
    return it->second.get();
  }

  std::shared_ptr<const StreamingIngestor> ingestor_;
  std::shared_ptr<QuarantineRegistry> quarantine_;
  std::unordered_map<uint64_t, std::unique_ptr<BufferPool>> pools_;
  QueryStats stats_;
  int io_queue_depth_ = 1;
  int max_read_retries_ = 0;
  bool degraded_serving_ = false;
};

}  // namespace

std::unique_ptr<ReachabilityIndex> MakeStreamingBackend(
    std::shared_ptr<const StreamingIngestor> ingestor) {
  STREACH_CHECK(ingestor != nullptr);
  return std::make_unique<SegmentedIndex>(
      std::move(ingestor), std::make_shared<QuarantineRegistry>());
}

}  // namespace streach
