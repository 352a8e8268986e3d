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

Result<std::vector<Timestamp>> BruteForceReachability::ReachableSet(
    ObjectId source, TimeInterval interval) {
  QueryScope scope(/*pool=*/nullptr, &stats_);
  return BruteForceClosure(*network_, source, interval);
}

Result<std::vector<std::vector<Timestamp>>>
BruteForceReachability::ReachableSets(const std::vector<ObjectId>& sources,
                                      TimeInterval interval) {
  // Same per-source oracle sweeps, accounted as one batch so
  // last_query_stats() matches the overriding backends' contract.
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

// -------------------------------------------------------------- ReachGrid

namespace {

class ReachGridBackend : public ReachabilityIndex {
 public:
  explicit ReachGridBackend(std::shared_ptr<const ReachGridIndex> index)
      : index_(std::move(index)), pool_(index_->NewSessionPool()) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return index_->Query(query, pool_.get(), &stats_);
  }

  Result<std::vector<Timestamp>> ReachableSet(ObjectId source,
                                              TimeInterval interval) override {
    auto sets = index_->ReachableSets({source}, interval, pool_.get(),
                                      &stats_, frontier_.get());
    if (!sets.ok()) return sets.status();
    return std::move((*sets)[0]);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    return index_->ReachableSets(sources, interval, pool_.get(), &stats_,
                                 frontier_.get());
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    return index_->ConstrainedProfile(source, interval, hops, pool_.get(),
                                      &stats_);
  }

  void SetTraversalThreads(int threads) override {
    if (threads < 1) threads = 1;
    if (threads == traversal_threads_) return;
    traversal_threads_ = threads;
    frontier_ = threads > 1 ? std::make_unique<FrontierPool>(threads)
                            : nullptr;
    // Frontier workers fetch through this session's pool concurrently.
    pool_->set_thread_safe(threads > 1);
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

  std::string DescribeIndex() const override {
    const ReachGridOptions& o = index_->options();
    return "ReachGrid(RT=" + std::to_string(o.temporal_resolution) +
           ", RS=" + std::to_string(static_cast<int>(o.spatial_cell_size)) +
           "m)";
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<ReachGridBackend>(index_);
    session->SetIoQueueDepth(pool_->io_queue_depth());
    session->SetMaxReadRetries(pool_->max_read_retries());
    session->SetTraversalThreads(traversal_threads_);
    return session;
  }

 private:
  std::shared_ptr<const ReachGridIndex> index_;
  std::unique_ptr<BufferPool> pool_;
  QueryStats stats_;
  int traversal_threads_ = 1;
  std::unique_ptr<FrontierPool> frontier_;
};

// ------------------------------------------------------------- ReachGraph

class ReachGraphBackend : public ReachabilityIndex {
 public:
  ReachGraphBackend(std::shared_ptr<const ReachGraphIndex> index,
                    ReachGraphTraversal traversal)
      : index_(std::move(index)),
        traversal_(traversal),
        pool_(index_->NewSessionPool()) {}

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

  Result<std::vector<Timestamp>> ReachableSet(ObjectId source,
                                              TimeInterval interval) override {
    return index_->ReachableSet(source, interval, pool_.get(), &stats_);
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

  std::string DescribeIndex() const override {
    return std::string("ReachGraph(") + ToString(traversal_) + ")";
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<ReachGraphBackend>(index_, traversal_);
    session->SetIoQueueDepth(pool_->io_queue_depth());
    session->SetMaxReadRetries(pool_->max_read_retries());
    return session;
  }

 private:
  std::shared_ptr<const ReachGraphIndex> index_;
  ReachGraphTraversal traversal_;
  std::unique_ptr<BufferPool> pool_;
  QueryStats stats_;
};

// -------------------------------------------------------------------- SPJ

class SpjBackend : public ReachabilityIndex {
 public:
  explicit SpjBackend(std::shared_ptr<const SpjEvaluator> spj)
      : spj_(std::move(spj)), pool_(spj_->NewSessionPool()) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    return spj_->Query(query, pool_.get(), &stats_);
  }

  Result<std::vector<Timestamp>> ReachableSet(ObjectId source,
                                              TimeInterval interval) override {
    return spj_->ReachableSet(source, interval, pool_.get(), &stats_);
  }

  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override {
    return spj_->ReachableSets(sources, interval, pool_.get(), &stats_);
  }

  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override {
    return spj_->ConstrainedProfile(source, interval, hops, pool_.get(),
                                    &stats_);
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
    return spj_->page_codec();
  }
  std::shared_ptr<const void> IndexIdentity() const override {
    return spj_;
  }
  std::string DescribeIndex() const override { return "SPJ(scan-join)"; }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<SpjBackend>(spj_);
    session->SetIoQueueDepth(pool_->io_queue_depth());
    session->SetMaxReadRetries(pool_->max_read_retries());
    return session;
  }

 private:
  std::shared_ptr<const SpjEvaluator> spj_;
  std::unique_ptr<BufferPool> pool_;
  QueryStats stats_;
};

// ------------------------------------------------------------------ GRAIL

class GrailBackend : public ReachabilityIndex {
 public:
  GrailBackend(std::shared_ptr<const GrailIndex> grail, GrailMode mode)
      : grail_(std::move(grail)),
        mode_(mode),
        pool_(mode == GrailMode::kDisk ? grail_->NewSessionPool() : nullptr) {}

  Result<ReachAnswer> Query(const ReachQuery& query) override {
    if (mode_ == GrailMode::kMemory) {
      return grail_->QueryMemory(query, &stats_);
    }
    return grail_->QueryDisk(query, pool_.get(), &stats_);
  }

  const QueryStats& last_query_stats() const override { return stats_; }
  void ClearCache() override {
    if (pool_ != nullptr) pool_->Clear();
  }
  void SetIoQueueDepth(int depth) override {
    if (pool_ != nullptr) pool_->set_io_queue_depth(depth);
  }
  void SetMaxReadRetries(int retries) override {
    if (pool_ != nullptr) pool_->set_max_read_retries(retries);
  }

  int num_shards() const override {
    return pool_ != nullptr ? pool_->num_shards() : 1;
  }
  std::vector<IoStats> shard_io_stats() const override {
    return pool_ != nullptr ? pool_->PerShardIoStats()
                            : std::vector<IoStats>{};
  }
  std::optional<PageCodecKind> page_codec() const override {
    if (mode_ == GrailMode::kMemory) return std::nullopt;
    return grail_->page_codec();
  }

  std::shared_ptr<const void> IndexIdentity() const override {
    return grail_;
  }

  std::string DescribeIndex() const override {
    return mode_ == GrailMode::kMemory ? "GRAIL(memory)" : "GRAIL(disk)";
  }

  std::unique_ptr<ReachabilityIndex> NewSession() const override {
    auto session = std::make_unique<GrailBackend>(grail_, mode_);
    if (pool_ != nullptr) {
      session->SetIoQueueDepth(pool_->io_queue_depth());
      session->SetMaxReadRetries(pool_->max_read_retries());
    }
    return session;
  }

 private:
  std::shared_ptr<const GrailIndex> grail_;
  GrailMode mode_;
  std::unique_ptr<BufferPool> pool_;
  QueryStats stats_;
};

}  // namespace

// -------------------------------------------------------------- factories

std::unique_ptr<ReachabilityIndex> MakeReachGridBackend(
    std::shared_ptr<const ReachGridIndex> index) {
  STREACH_CHECK(index != nullptr);
  return std::make_unique<ReachGridBackend>(std::move(index));
}

std::unique_ptr<ReachabilityIndex> MakeReachGraphBackend(
    std::shared_ptr<const ReachGraphIndex> index,
    ReachGraphTraversal traversal) {
  STREACH_CHECK(index != nullptr);
  return std::make_unique<ReachGraphBackend>(std::move(index), traversal);
}

std::unique_ptr<ReachabilityIndex> MakeSpjBackend(
    std::shared_ptr<const SpjEvaluator> spj) {
  STREACH_CHECK(spj != nullptr);
  return std::make_unique<SpjBackend>(std::move(spj));
}

std::unique_ptr<ReachabilityIndex> MakeGrailBackend(
    std::shared_ptr<const GrailIndex> grail, GrailMode mode) {
  STREACH_CHECK(grail != nullptr);
  return std::make_unique<GrailBackend>(std::move(grail), mode);
}

std::unique_ptr<ReachabilityIndex> MakeBruteForceBackend(
    std::shared_ptr<const ContactNetwork> network) {
  return std::make_unique<BruteForceReachability>(std::move(network));
}

}  // namespace streach
