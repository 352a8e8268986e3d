#ifndef STREACH_REACHGRAPH_REACH_GRAPH_INDEX_H_
#define STREACH_REACHGRAPH_REACH_GRAPH_INDEX_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/types.h"
#include "network/contact_network.h"
#include "reachgraph/augmenter.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/dn_graph.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/buffer_pool.h"
#include "storage/build_options.h"
#include "storage/storage_topology.h"

namespace streach {

/// Construction and placement parameters of ReachGraph (§5).
struct ReachGraphOptions {
  /// Resolutions of HN including DN_1 (§6.2.1.4 optimum: 6).
  int num_resolutions = 6;
  /// Partitioning depth dp (§6.2.1.4 optimum: 32).
  int partition_depth = 32;
  size_t page_size = BlockDevice::kDefaultPageSize;
  /// Buffer-pool capacity in pages ("internal memory" for partitions).
  size_t buffer_pool_pages = 64;
  /// Reduction step 2 toggle (ablation).
  bool merge_identical_components = true;
  /// Storage shards: DN partitions are routed round-robin and object
  /// timelines by object hash across this many per-shard devices. 1
  /// reproduces the paper's single-disk layout bit-for-bit.
  int num_shards = 1;
  /// Write-side build parameters (worker pool + write queues); the
  /// defaults reproduce the historical synchronous single-threaded build
  /// page for page. On-disk images are identical at any setting.
  BuildOptions build;
};

/// Construction metrics (Figures 10, 11; Table 4 uses the DnStats).
struct ReachGraphBuildStats {
  double reduction_seconds = 0.0;     ///< TEN -> DN (Figure 11).
  double augmentation_seconds = 0.0;  ///< Long edges.
  double placement_seconds = 0.0;     ///< Partitioning + serialization.
  uint64_t num_partitions = 0;
  uint64_t index_pages = 0;
  uint64_t index_bytes = 0;
  DnStats dn;
};

/// \brief Disk-resident multi-resolution reachability index (§5).
///
/// Owns a simulated block device holding: (a) the hypergraph HN serialized
/// as depth-dp partitions of topologically ordered vertices placed on
/// consecutive pages (§5.1.3), each vertex carrying its members, DN_1
/// out-edges, reverse (in) edges, and long edges; and (b) per-object
/// timelines implementing the paper's Ht lookup tables (object, t) ->
/// vertex. Four query processors are exposed:
///
///  * `QueryBmBfs` — the paper's BM-BFS (Algorithm 2): bidirectional
///    traversal meeting at the query-interval midpoint, long edges taken
///    at the highest admissible resolution, early termination when the
///    forward/backward object sets intersect.
///  * `QueryBBfs`  — bidirectional, single resolution (baseline of Fig 13).
///  * `QueryEBfs` / `QueryEDfs` — unidirectional external BFS/DFS on DN_1
///    testing vertex-to-vertex reachability (naive baselines of Fig 13;
///    they do not inspect component members).
class ReachGraphIndex {
 public:
  /// Builds the index from a contact network: reduction, augmentation,
  /// and disk placement.
  static Result<std::unique_ptr<ReachGraphIndex>> Build(
      const ContactNetwork& network, const ReachGraphOptions& options);

  /// Builds from an already-reduced DN graph (shares construction across
  /// experiments). The graph must not already contain long edges.
  static Result<std::unique_ptr<ReachGraphIndex>> BuildFromDn(
      DnGraph dn, const ReachGraphOptions& options);

  /// The four query processors. Each traverses through the caller's
  /// buffer pool and writes its metrics into `*stats`; all are safe to
  /// call concurrently from many threads with distinct pools.
  Result<ReachAnswer> QueryBmBfs(const ReachQuery& query, BufferPool* pool,
                                 QueryStats* stats) const;
  Result<ReachAnswer> QueryBBfs(const ReachQuery& query, BufferPool* pool,
                                QueryStats* stats) const;
  Result<ReachAnswer> QueryEBfs(const ReachQuery& query, BufferPool* pool,
                                QueryStats* stats) const;
  Result<ReachAnswer> QueryEDfs(const ReachQuery& query, BufferPool* pool,
                                QueryStats* stats) const;

  /// Multi-source batch closure: `result[i]` holds every object reachable
  /// from `sources[i]` during `interval` with its infection time
  /// (kInvalidTime for unreached objects), matching `BruteForceClosure`.
  /// Implemented as a member sweep over the partition-resident vertices
  /// and the on-disk Ht timelines: a time-ordered Dijkstra pops the
  /// earliest-entered component, infects its members, and follows each
  /// newly infected member's timeline into the components it carries the
  /// item to — exactly the semantics DN_1 edges encode, without needing a
  /// destination to steer toward. Sources run in lanes of 64 — one masked
  /// Dijkstra per lane group with per-vertex/per-object reach bitmasks —
  /// and every object timeline and partition blob is read once for the
  /// whole batch instead of once per source, which is where the
  /// batched-IO savings come from. This is also what lets the engine's
  /// result cache memoize ReachGraph point queries instead of falling
  /// back.
  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval,
      BufferPool* pool, QueryStats* stats) const;

  /// Constrained reachability profile (network/hop_profile.h semantics):
  /// the transfer-level recursion runs natively on the DN structure — per
  /// level, every carrier's Ht timeline is walked for the components it
  /// can enter inside its transmission window, each candidate vertex
  /// keeps its two earliest entries from *distinct* carriers (so a member
  /// is never labeled by itself alone), and the vertex's members take the
  /// earliest admissible entry. Timelines and partitions are cached
  /// across levels, so the IO bill is close to one member sweep.
  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval, const HopConstraints& hops,
      BufferPool* pool, QueryStats* stats) const;

  const StorageTopology& topology() const { return topology_; }
  int num_shards() const { return topology_.num_shards(); }

  /// On-disk record codec this index was built (and must be read) with.
  PageCodecKind page_codec() const { return options_.build.page_codec; }

  const ReachGraphBuildStats& build_stats() const { return build_stats_; }
  /// Device IO each shard performed during construction (index = shard
  /// id): the write-side profile of the placement phase.
  const std::vector<IoStats>& build_io_stats() const { return build_io_; }
  const ReachGraphOptions& options() const { return options_; }

  size_t num_vertices() const { return vertex_partition_.size(); }
  uint64_t num_partitions() const { return partition_extents_.size(); }

 private:
  /// Deserialized vertex as stored in a partition blob.
  struct StoredVertex {
    TimeInterval span;
    std::vector<ObjectId> members;
    std::vector<VertexId> out;
    std::vector<VertexId> in;
    std::vector<LongEdge> long_out;
  };
  using ParsedPartition = std::unordered_map<VertexId, StoredVertex>;

  explicit ReachGraphIndex(const ReachGraphOptions& options)
      : options_(options),
        topology_(StorageTopologyOptions{options.num_shards,
                                         options.page_size}) {}

  Status PlaceOnDisk(const DnGraph& graph);

  /// Per-query traversal state: the caller's buffer pool plus the
  /// partitions parsed so far (discarded when the query ends). Keeping it
  /// on the query's stack — not in the index — is what makes the query
  /// paths const and concurrently callable.
  struct TraversalScratch {
    BufferPool* pool = nullptr;
    std::unordered_map<uint32_t, ParsedPartition> parsed;
  };

  /// Loads (and caches in `scratch`) the vertex's partition; returns the
  /// vertex, valid for the lifetime of `scratch`.
  Result<const StoredVertex*> GetVertex(VertexId v,
                                        TraversalScratch* scratch) const;

  /// Prefetches the partitions of `vs` into `scratch` as one batched read
  /// when the session's queue depth exceeds 1 — the frontier's partition
  /// demand goes to the per-shard queues together instead of one
  /// partition per expansion. No-op at depth 1: there a prefetch cannot
  /// overlap anything, and it would read partitions an early-stopping
  /// traversal never expands.
  Status PrefetchVertices(const std::vector<VertexId>& vs,
                          TraversalScratch* scratch) const;

  /// Decodes one partition blob into its vertex table.
  Result<ParsedPartition> ParsePartition(const std::string& blob) const;

  /// (object, t) -> vertex via the on-disk timeline (Ht lookup).
  Result<VertexId> LookupVertex(ObjectId object, Timestamp t,
                                BufferPool* pool) const;

  /// Decodes one on-disk Ht timeline into its (span, vertex) entries.
  Result<std::vector<DnGraph::TimelineEntry>> ParseTimeline(
      const std::string& blob) const;

  /// Reads `object`'s full timeline (the member sweep's edge source).
  Result<std::vector<DnGraph::TimelineEntry>> ReadTimeline(
      ObjectId object, BufferPool* pool) const;

  /// Per-query parsed timelines, by object.
  using TimelineCache =
      std::unordered_map<ObjectId, std::vector<DnGraph::TimelineEntry>>;

  /// Reads the timelines of `objects` missing from `cache` as one batch
  /// (repeats dropped, first-appearance order) and parses them into it.
  Status LoadTimelines(const std::vector<ObjectId>& objects, BufferPool* pool,
                       TimelineCache* cache) const;

  Result<ReachAnswer> RunBidirectional(const ReachQuery& query,
                                       bool use_long_edges, BufferPool* pool,
                                       QueryStats* stats) const;
  Result<ReachAnswer> RunUnidirectional(const ReachQuery& query, bool dfs,
                                        BufferPool* pool,
                                        QueryStats* stats) const;

  ReachGraphOptions options_;
  StorageTopology topology_;
  ReachGraphBuildStats build_stats_;
  std::vector<IoStats> build_io_;  // Per-shard build-phase device IO.

  // In-memory directory (metadata): partition of each vertex, extent of
  // each partition, extent of each object timeline.
  std::vector<uint32_t> vertex_partition_;
  std::vector<Extent> partition_extents_;
  std::vector<Extent> timeline_extents_;
  TimeInterval span_;
  size_t num_objects_ = 0;
};

}  // namespace streach

#endif  // STREACH_REACHGRAPH_REACH_GRAPH_INDEX_H_
