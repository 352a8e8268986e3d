#include "engine/backends.h"

#include <utility>

#include "common/check.h"
#include "common/query_scope.h"
#include "network/brute_force.h"
#include "network/hop_profile.h"
#include "storage/buffer_pool.h"

namespace streach {

const char* ToString(ReachGraphTraversal traversal) {
  switch (traversal) {
    case ReachGraphTraversal::kBmBfs:
      return "BM-BFS";
    case ReachGraphTraversal::kBBfs:
      return "B-BFS";
    case ReachGraphTraversal::kEBfs:
      return "E-BFS";
    case ReachGraphTraversal::kEDfs:
      return "E-DFS";
  }
  return "?";
}

// ------------------------------------------------------------ brute force

BruteForceReachability::BruteForceReachability(
    std::shared_ptr<const ContactNetwork> network)
    : network_(std::move(network)) {
  STREACH_CHECK(network_ != nullptr);
}

Result<ReachAnswer> BruteForceReachability::Query(const ReachQuery& query) {
  QueryScope scope(/*pool=*/nullptr, &stats_);
  return BruteForceReach(*network_, query.source, query.destination,
                         query.interval);
}

Result<std::vector<std::vector<Timestamp>>>
BruteForceReachability::ReachableSets(const std::vector<ObjectId>& sources,
                                      TimeInterval interval) {
  // Per-source oracle sweeps, accounted as one batch like every other
  // backend's.
  QueryScope scope(/*pool=*/nullptr, &stats_);
  std::vector<std::vector<Timestamp>> sets;
  sets.reserve(sources.size());
  for (ObjectId source : sources) {
    sets.push_back(BruteForceClosure(*network_, source, interval));
  }
  return sets;
}

Result<std::vector<ReachProfileEntry>>
BruteForceReachability::ConstrainedProfile(ObjectId source,
                                           TimeInterval interval,
                                           const HopConstraints& hops) {
  QueryScope scope(/*pool=*/nullptr, &stats_);
  const ContactNetwork& network = *network_;
  return ComputeHopProfile(
      network.num_objects(), source, interval.Intersect(network.span()),
      hops,
      [&network](Timestamp t)
          -> const std::vector<std::pair<ObjectId, ObjectId>>& {
        return network.PairsAt(t);
      });
}

std::string BruteForceReachability::DescribeIndex() const {
  return "BruteForce(contact sweep)";
}

std::unique_ptr<ReachabilityIndex> BruteForceReachability::NewSession() const {
  return std::make_unique<BruteForceReachability>(network_);
}

namespace {

// ---------------------------------------------------------- disk sessions

/// \brief The one session over a disk-resident index: the shared
/// immutable index, this session's buffer pool over its storage, and its
/// stats slot. Everything a disk session does besides running queries
/// lives here once; each backend below adds only its query calls, its
/// name and `Fork`.
template <typename Index>
class PooledSession : public ReachabilityIndex {
 public:
  explicit PooledSession(std::shared_ptr<const Index> index)
      : index_(std::move(index)),
        pool_(std::make_unique<BufferPool>(
            &index_->topology(), index_->options().buffer_pool_pages)) {
    pool_->set_page_codec(GetPageCodec(index_->page_codec()));
  }

  const QueryStats& last_query_stats() const override { return stats_; }
  void ClearCache() override { pool_->Clear(); }
  void SetIoQueueDepth(int depth) override {
    pool_->set_io_queue_depth(depth);
  }
  void SetMaxReadRetries(int retries) override {
    pool_->set_max_read_retries(retries);
  }
  int num_shards() const override { return pool_->num_shards(); }
  std::vector<IoStats> shard_io_stats() const override {
    return pool_->PerShardIoStats();
  }
  std::optional<PageCodecKind> page_codec() const override {
    return index_->page_codec();
  }
  std::shared_ptr<const void> IndexIdentity() const override {
    return index_;
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const final {
    std::unique_ptr<ReachabilityIndex> session = Fork();
    session->SetIoQueueDepth(pool_->io_queue_depth());
    session->SetMaxReadRetries(pool_->max_read_retries());
    return session;
  }

 protected:
  /// A fresh session over the same index with this backend's own
  /// settings (ReachGraph's traversal); `NewSession` adds the pool's.
  virtual std::unique_ptr<ReachabilityIndex> Fork() const = 0;

  std::shared_ptr<const Index> index_;
  std::unique_ptr<BufferPool> pool_;
  QueryStats stats_;
};

class ReachGridSession final : public PooledSession<ReachGridIndex> {
 public:
  using PooledSession::PooledSession;

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return index_->Query(query, pool_.get(), &stats_);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    return index_->ReachableSets(sources, interval, pool_.get(), &stats_);
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    return index_->ConstrainedProfile(source, interval, hops, pool_.get(),
                                      &stats_);
  }

  std::string DescribeIndex() const override {
    const ReachGridOptions& o = index_->options();
    return "ReachGrid(RT=" + std::to_string(o.temporal_resolution) +
           ", RS=" + std::to_string(static_cast<int>(o.spatial_cell_size)) +
           "m)";
  }

 private:
  std::unique_ptr<ReachabilityIndex> Fork() const override {
    return std::make_unique<ReachGridSession>(index_);
  }
};

class ReachGraphSession final : public PooledSession<ReachGraphIndex> {
 public:
  ReachGraphSession(std::shared_ptr<const ReachGraphIndex> index,
                    ReachGraphTraversal traversal)
      : PooledSession(std::move(index)), traversal_(traversal) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    switch (traversal_) {
      case ReachGraphTraversal::kBmBfs:
        return index_->QueryBmBfs(query, pool_.get(), &stats_);
      case ReachGraphTraversal::kBBfs:
        return index_->QueryBBfs(query, pool_.get(), &stats_);
      case ReachGraphTraversal::kEBfs:
        return index_->QueryEBfs(query, pool_.get(), &stats_);
      case ReachGraphTraversal::kEDfs:
        return index_->QueryEDfs(query, pool_.get(), &stats_);
    }
    return Status::Internal("unknown traversal mode");
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    return index_->ReachableSets(sources, interval, pool_.get(), &stats_);
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    return index_->ConstrainedProfile(source, interval, hops, pool_.get(),
                                      &stats_);
  }

  std::string DescribeIndex() const override {
    return std::string("ReachGraph(") + ToString(traversal_) + ")";
  }

 private:
  std::unique_ptr<ReachabilityIndex> Fork() const override {
    return std::make_unique<ReachGraphSession>(index_, traversal_);
  }

  ReachGraphTraversal traversal_;
};

class SpjSession final : public PooledSession<SpjEvaluator> {
 public:
  using PooledSession::PooledSession;

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return index_->Query(query, pool_.get(), &stats_);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    return index_->ReachableSets(sources, interval, pool_.get(), &stats_);
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    return index_->ConstrainedProfile(source, interval, hops, pool_.get(),
                                      &stats_);
  }

  std::string DescribeIndex() const override { return "SPJ(scan-join)"; }

 private:
  std::unique_ptr<ReachabilityIndex> Fork() const override {
    return std::make_unique<SpjSession>(index_);
  }
};

class GrailDiskSession final : public PooledSession<GrailIndex> {
 public:
  using PooledSession::PooledSession;

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return index_->QueryDisk(query, pool_.get(), &stats_);
  }

  std::string DescribeIndex() const override { return "GRAIL(disk)"; }

 private:
  std::unique_ptr<ReachabilityIndex> Fork() const override {
    return std::make_unique<GrailDiskSession>(index_);
  }
};

// --------------------------------------------------------- GRAIL (memory)

/// GRAIL over its in-memory labels: no pool, no IO, no storage settings.
class GrailMemorySession final : public ReachabilityIndex {
 public:
  explicit GrailMemorySession(std::shared_ptr<const GrailIndex> index)
      : index_(std::move(index)) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return index_->QueryMemory(query, &stats_);
  }

  const QueryStats& last_query_stats() const override { return stats_; }
  void ClearCache() override {}
  std::shared_ptr<const void> IndexIdentity() const override {
    return index_;
  }
  std::string DescribeIndex() const override { return "GRAIL(memory)"; }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    return std::make_unique<GrailMemorySession>(index_);
  }

 private:
  std::shared_ptr<const GrailIndex> index_;
  QueryStats stats_;
};

}  // namespace

// -------------------------------------------------------------- factories

std::unique_ptr<ReachabilityIndex> MakeReachGridBackend(
    std::shared_ptr<const ReachGridIndex> index) {
  STREACH_CHECK(index != nullptr);
  return std::make_unique<ReachGridSession>(std::move(index));
}

std::unique_ptr<ReachabilityIndex> MakeReachGraphBackend(
    std::shared_ptr<const ReachGraphIndex> index,
    ReachGraphTraversal traversal) {
  STREACH_CHECK(index != nullptr);
  return std::make_unique<ReachGraphSession>(std::move(index), traversal);
}

std::unique_ptr<ReachabilityIndex> MakeSpjBackend(
    std::shared_ptr<const SpjEvaluator> spj) {
  STREACH_CHECK(spj != nullptr);
  return std::make_unique<SpjSession>(std::move(spj));
}

std::unique_ptr<ReachabilityIndex> MakeGrailBackend(
    std::shared_ptr<const GrailIndex> grail, GrailMode mode) {
  STREACH_CHECK(grail != nullptr);
  if (mode == GrailMode::kMemory) {
    return std::make_unique<GrailMemorySession>(std::move(grail));
  }
  return std::make_unique<GrailDiskSession>(std::move(grail));
}

std::unique_ptr<ReachabilityIndex> MakeBruteForceBackend(
    std::shared_ptr<const ContactNetwork> network) {
  return std::make_unique<BruteForceReachability>(std::move(network));
}

}  // namespace streach
