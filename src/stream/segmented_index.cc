#include "stream/segmented_index.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
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

/// Earliest-arrival closures over one window's contacts, every contact
/// clamped to `w`: builds one object -> contact adjacency, then runs one
/// temporal Dijkstra per in-range source, seeded at `w.start`. `sets[i]`
/// arrives sized to the population and all kInvalidTime (unreached).
/// Equal arrival times chain within a sweep, so a whole same-tick contact
/// component infects together — the brute-force oracle's per-tick
/// union-find semantics (§3.2); otherwise an item only moves forward in
/// time, so one sweep over the window is exact however its contacts were
/// cut into segments.
void SweepClosures(const std::vector<Contact>& contacts, TimeInterval w,
                   size_t num_objects, const std::vector<ObjectId>& sources,
                   std::vector<std::vector<Timestamp>>* sets) {
  // Object o's contacts are incident[offsets[o] .. offsets[o + 1]).
  std::vector<size_t> offsets(num_objects + 1, 0);
  for (const Contact& c : contacts) {
    ++offsets[c.a + 1];
    ++offsets[c.b + 1];
  }
  for (size_t o = 0; o < num_objects; ++o) offsets[o + 1] += offsets[o];
  std::vector<uint32_t> incident(offsets.back());
  std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
  for (uint32_t e = 0; e < contacts.size(); ++e) {
    incident[fill[contacts[e].a]++] = e;
    incident[fill[contacts[e].b]++] = e;
  }

  using Item = std::pair<Timestamp, ObjectId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i] >= num_objects) continue;
    std::vector<Timestamp>& times = (*sets)[i];
    times[sources[i]] = w.start;
    heap.push({w.start, sources[i]});
    while (!heap.empty()) {
      const auto [t, object] = heap.top();
      heap.pop();
      if (t != times[object]) continue;  // Superseded by a better time.
      for (size_t k = offsets[object]; k < offsets[object + 1]; ++k) {
        const Contact& c = contacts[incident[k]];
        const Timestamp clamped_start = std::max(c.validity.start, w.start);
        const Timestamp clamped_end = std::min(c.validity.end, w.end);
        if (clamped_start > clamped_end || t > clamped_end) continue;
        const Timestamp arrival = std::max(t, clamped_start);
        Timestamp& partner = times[c.Other(object)];
        if (partner == kInvalidTime || arrival < partner) {
          partner = arrival;
          heap.push({arrival, c.Other(object)});
        }
      }
    }
  }
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
      std::vector<Contact> contacts;
      STREACH_RETURN_NOT_OK(LoadContacts(w, &contacts));
      SweepClosures(contacts, w, num_objects, sources, &sets);
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
      std::vector<Contact> contacts;
      STREACH_RETURN_NOT_OK(LoadContacts(w, &contacts));
      // The transfer-level recursion needs the window's per-tick snapshot
      // components, so spread its contacts into one per-tick pair table
      // and run the shared kernel.
      std::vector<std::vector<std::pair<ObjectId, ObjectId>>> tick_pairs(
          static_cast<size_t>(w.length()));
      for (const Contact& c : contacts) {
        const TimeInterval v = c.validity.Intersect(w);
        for (Timestamp t = v.start; t <= v.end; ++t) {
          tick_pairs[static_cast<size_t>(t - w.start)].emplace_back(c.a, c.b);
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
  /// Runs `body` as one query's accounting scope: resets `stats_`, which
  /// `body` fills through `LoadContacts`, then adds the wall time, also
  /// when `body` fails.
  template <typename Body>
  Status Accounted(Body&& body) {
    Stopwatch watch;
    stats_ = QueryStats{};
    const Status status = body();
    stats_.cpu_seconds = watch.ElapsedSeconds();
    return status;
  }

  /// Snapshots the ingestor and appends the contacts overlapping `w` to
  /// `contacts`: each readable sealed segment's, then the head's, counted
  /// in `stats_.items_visited`. Each segment's read adds its pool's page
  /// misses, hits and IO to `stats_`, also when the read fails, so a
  /// failed query's partial IO stays visible; a failed read contributes
  /// no contacts. Segments that fail verification (`Corruption` from the
  /// read path — a blob or page checksum mismatch) are quarantined for
  /// every session sharing this backend; already-quarantined segments are
  /// never read. Under degraded serving an unreadable segment is skipped
  /// and `stats_.degraded` is set; otherwise the query fails with the
  /// Corruption. Non-Corruption errors (e.g. an unmasked transient fault)
  /// propagate without quarantining — the segment's media may be fine.
  Status LoadContacts(TimeInterval w, std::vector<Contact>* contacts) {
    StreamingIngestor::Snapshot snapshot = ingestor_->SnapshotFor(w);
    IoStats io;
    for (const auto& segment : snapshot.segments) {
      if (quarantine_->Contains(segment->id())) {
        if (!degraded_serving_) {
          return Status::Corruption(
              "sealed segment " + std::to_string(segment->id()) +
              " is quarantined (failed verification)");
        }
        stats_.degraded = true;
        continue;
      }
      BufferPool* pool = PoolFor(*segment);
      const IoStats io_before = pool->io_stats();
      const uint64_t misses_before = pool->misses();
      const uint64_t hits_before = pool->hits();
      const size_t loaded = contacts->size();
      const Status status = segment->LoadOverlapping(w, pool, contacts);
      io += pool->io_stats() - io_before;
      stats_.io_cost = io.NormalizedReadCost();
      stats_.pages_fetched += pool->misses() - misses_before;
      stats_.pool_hits += pool->hits() - hits_before;
      if (!status.ok()) {
        contacts->resize(loaded);
        if (!status.IsCorruption()) return status;
        quarantine_->Add(segment->id());
        if (!degraded_serving_) return status;
        stats_.degraded = true;
      }
    }
    contacts->insert(contacts->end(), snapshot.head.begin(),
                     snapshot.head.end());
    stats_.items_visited = contacts->size();
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
