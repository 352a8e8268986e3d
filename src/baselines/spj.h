#ifndef STREACH_BASELINES_SPJ_H_
#define STREACH_BASELINES_SPJ_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/types.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/buffer_pool.h"
#include "storage/build_options.h"
#include "storage/storage_topology.h"
#include "trajectory/trajectory_store.h"

namespace streach {

/// SPJ parameters.
struct SpjOptions {
  /// Ticks per stored time slab (granularity of the interval filter).
  int slab_ticks = 20;
  double contact_range = 25.0;
  size_t page_size = BlockDevice::kDefaultPageSize;
  size_t buffer_pool_pages = 256;
  /// Storage shards: time slabs are routed round-robin across this many
  /// per-shard devices. 1 reproduces the single-disk layout bit-for-bit.
  int num_shards = 1;
  /// Write-side build parameters (worker pool + write queues); the
  /// defaults reproduce the historical synchronous single-threaded build
  /// page for page. On-disk images are identical at any setting.
  BuildOptions build;
};

/// \brief The naive scan-join-traverse evaluator of §6.1.2 ("SPJ").
///
/// SPJ "generates the contact network C' relevant to the query interval on
/// the fly and afterward traverses it": it retrieves *every* trajectory
/// segment overlapping the query interval (a sequential scan of the time
/// slabs touched by the interval), runs the spatiotemporal self-join to
/// extract contacts, and sweeps the resulting contact network. No spatial
/// pruning, no guided expansion — the ReachGrid comparison baseline.
class SpjEvaluator {
 public:
  static Result<std::unique_ptr<SpjEvaluator>> Build(
      const TrajectoryStore& store, const SpjOptions& options);

  /// Evaluates a reachability query, scanning through the caller's
  /// buffer pool and writing its metrics into `*stats`. A self-query
  /// answers like `BruteForceReach` with no IO; any other query is a
  /// one-source closure whose join stops at the tick that reaches the
  /// destination (the scan itself is read in full either way). Safe to
  /// call concurrently from many threads with distinct pools.
  Result<ReachAnswer> Query(const ReachQuery& query, BufferPool* pool,
                            QueryStats* stats) const;

  /// Multi-source batch closure: `result[i]` holds every object reachable
  /// from `sources[i]` during `interval` with its infection time
  /// (kInvalidTime for unreached), joined to the end of the window, which
  /// is what lets the engine's result cache memoize SPJ point queries.
  /// The batch is ONE slab scan and ONE per-tick self-join shared by
  /// every source — the contact pairs do not depend on who is infected,
  /// so only the (cheap) mask propagation runs per 64-source lane group.
  /// The scan is the baseline's whole IO bill, so a batch of k sources
  /// costs ~1/k of a per-source loop.
  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval,
      BufferPool* pool, QueryStats* stats) const;

  /// Constrained reachability profile (network/hop_profile.h semantics)
  /// from the same slab scan: the per-tick contact pairs are materialized
  /// once — they depend on positions alone — and the transfer-level
  /// recursion runs over them in memory, so the IO bill matches a single
  /// closure.
  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval, const HopConstraints& hops,
      BufferPool* pool, QueryStats* stats) const;

  const StorageTopology& topology() const { return topology_; }
  int num_shards() const { return topology_.num_shards(); }

  /// On-disk record codec the slabs were stored (and must be read) with.
  PageCodecKind page_codec() const { return options_.build.page_codec; }

  const SpjOptions& options() const { return options_; }
  /// Wall-clock seconds the slab-placement build took.
  double build_seconds() const { return build_seconds_; }
  /// Device IO each shard performed during construction (index = shard
  /// id): the write-side profile of the slab placement.
  const std::vector<IoStats>& build_io_stats() const { return build_io_; }

 private:
  SpjEvaluator(const SpjOptions& options, TimeInterval span,
               size_t num_objects)
      : options_(options),
        topology_(StorageTopologyOptions{options.num_shards,
                                         options.page_size}),
        span_(span),
        num_objects_(num_objects) {}

  Status WriteSlabs(const TrajectoryStore& store);
  TimeInterval SlabInterval(int slab) const;

  using ContactPairs = std::vector<std::pair<ObjectId, ObjectId>>;
  /// Receives one tick's contact pairs; returns false to stop the scan.
  using TickVisitor = std::function<bool(Timestamp t, ContactPairs pairs)>;

  /// The one slab scan behind every entry point: reads the slabs that
  /// overlap `w` (non-empty, clamped to the span) as one batch — the
  /// baseline's whole IO bill — then self-joins them tick by tick and
  /// hands each tick's contact pairs to `visit` in time order.
  Status ScanContacts(TimeInterval w, BufferPool* pool,
                      const TickVisitor& visit) const;

  /// The closure behind `Query` and `ReachableSets`: one scan, one
  /// union-find pass per tick, per-lane infection masks. A `destination`
  /// other than kInvalidObject stops the join at the first tick that
  /// reaches it.
  Result<std::vector<std::vector<Timestamp>>> Closure(
      const std::vector<ObjectId>& sources, TimeInterval interval,
      ObjectId destination, BufferPool* pool, QueryStats* stats) const;

  SpjOptions options_;
  StorageTopology topology_;
  TimeInterval span_;
  size_t num_objects_;
  double build_seconds_ = 0.0;
  std::vector<IoStats> build_io_;  // Per-shard build-phase device IO.
  std::vector<Extent> slab_extents_;
};

}  // namespace streach

#endif  // STREACH_BASELINES_SPJ_H_
