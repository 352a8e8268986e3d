#ifndef STREACH_BASELINES_GRAIL_H_
#define STREACH_BASELINES_GRAIL_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/types.h"
#include "reachgraph/dn_graph.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/buffer_pool.h"
#include "storage/build_options.h"
#include "storage/storage_topology.h"

namespace streach {

/// GRAIL parameters. `num_labelings` is the paper's small constant d.
struct GrailOptions {
  int num_labelings = 5;
  uint64_t seed = 99;
  size_t page_size = BlockDevice::kDefaultPageSize;
  size_t buffer_pool_pages = 64;
  /// Storage shards for the disk mode: vertex records are routed
  /// round-robin and object timelines by object hash. 1 reproduces the
  /// paper's single-disk layout bit-for-bit.
  int num_shards = 1;
  /// Write-side build parameters (worker pool + write queues); the
  /// defaults reproduce the historical synchronous single-threaded build
  /// page for page. On-disk images are identical at any setting.
  BuildOptions build;
};

/// \brief GRAIL reachability index of Yildirim, Chaoji & Zaki (VLDB'10),
/// the state-of-the-art baseline of §6.4 (Table 5).
///
/// GRAIL assigns every DAG vertex d interval labels from d randomized
/// post-order DFS traversals; u can reach v only if v's label is contained
/// in u's label under *every* labeling, and queries run a DFS from u
/// pruned by that test. Here GRAIL is applied to the reduced contact DAG
/// DN: a query (src, dst, [t1,t2]) tests vertex-level reachability from
/// the component of src at t1 to the component of dst at t2 (GRAIL does
/// not inspect component members and cannot terminate early the way
/// BM-BFS does — the paper's Table 5 comparison).
///
/// Two execution modes reproduce both halves of Table 5:
///  * `QueryMemory` — labels and adjacency in RAM (Table 5a, runtime).
///  * `QueryDisk`   — vertices are serialized in creation (id) order on a
///    simulated disk ("the vertices are placed on disk in the same order
///    they are generated", §6.4) and the DFS fetches them through a
///    buffer pool (Table 5b, IO count).
class GrailIndex {
 public:
  static Result<std::unique_ptr<GrailIndex>> Build(const DnGraph& graph,
                                                   const GrailOptions& options);

  /// Vertex-level reachability using in-memory labels + adjacency.
  bool ReachableMemory(VertexId from, VertexId to) const;

  /// Full query, memory-resident (Table 5a); metrics go into `*stats`.
  Result<ReachAnswer> QueryMemory(const ReachQuery& query,
                                  QueryStats* stats) const;

  /// Full query, disk-resident (Table 5b): IO goes through the caller's
  /// pool and metrics into `*stats`. Both modes are safe to call
  /// concurrently from many threads (the disk mode with distinct pools).
  Result<ReachAnswer> QueryDisk(const ReachQuery& query, BufferPool* pool,
                                QueryStats* stats) const;

  const StorageTopology& topology() const { return topology_; }
  int num_shards() const { return topology_.num_shards(); }

  /// On-disk record codec this index was built (and must be read) with.
  PageCodecKind page_codec() const { return options_.build.page_codec; }

  const GrailOptions& options() const { return options_; }
  double build_seconds() const { return build_seconds_; }
  /// Device IO each shard performed during construction (index = shard
  /// id): the write-side profile of the placement phase.
  const std::vector<IoStats>& build_io_stats() const { return build_io_; }

  size_t num_vertices() const { return labels_.size(); }

 private:
  explicit GrailIndex(const GrailOptions& options)
      : options_(options),
        topology_(StorageTopologyOptions{options.num_shards,
                                         options.page_size}) {}

  /// One interval [min, post_rank] per labeling.
  struct Label {
    uint32_t min;
    uint32_t rank;
  };

  bool Contains(VertexId outer, VertexId inner) const {
    const int d = options_.num_labelings;
    for (int i = 0; i < d; ++i) {
      const Label& lo = labels_[outer][i];
      const Label& li = labels_[inner][i];
      if (li.min < lo.min || li.rank > lo.rank) return false;
    }
    return true;
  }

  void BuildLabels(const DnGraph& graph, Rng* rng, int labeling);
  Status PlaceOnDisk(const DnGraph& graph);

  /// A vertex record as stored on disk: d interval labels + out-edges.
  struct DiskVertex {
    std::vector<Label> labels;
    std::vector<VertexId> out;
  };
  /// Records fetched during one disk query (discarded when it ends).
  using FetchCache = std::unordered_map<VertexId, DiskVertex>;

  /// Fetches (and per-query caches) a vertex record through the pool.
  /// Reading a record costs IO — including when it is read only to test
  /// label containment for pruning, the dominant cost of external GRAIL.
  Result<const DiskVertex*> FetchVertexRecord(VertexId v, BufferPool* pool,
                                              FetchCache* cache) const;

  /// Batched variant: the records of every id not already in `cache` are
  /// read through one `ReadExtentsBatched` call — a DFS step's whole
  /// probe set (every child inspected for label containment) hits the
  /// per-shard queues together. Parses into `cache`.
  Status FetchVertexRecords(const std::vector<VertexId>& vs, BufferPool* pool,
                            FetchCache* cache) const;

  /// Decodes one on-disk vertex record.
  Result<DiskVertex> ParseVertexRecord(const std::string& blob) const;
  Result<VertexId> LookupVertexDisk(ObjectId object, Timestamp t,
                                    BufferPool* pool) const;

  static bool LabelsContain(const std::vector<Label>& outer,
                            const std::vector<Label>& inner) {
    for (size_t i = 0; i < outer.size(); ++i) {
      if (inner[i].min < outer[i].min || inner[i].rank > outer[i].rank) {
        return false;
      }
    }
    return true;
  }

  GrailOptions options_;
  StorageTopology topology_;
  double build_seconds_ = 0.0;
  std::vector<IoStats> build_io_;  // Per-shard build-phase device IO.

  // Memory-resident structures.
  std::vector<std::vector<Label>> labels_;  // [vertex][labeling]
  std::vector<std::vector<VertexId>> out_;
  std::vector<std::vector<DnGraph::TimelineEntry>> timelines_;
  TimeInterval span_;

  // Disk directory.
  std::vector<Extent> vertex_extents_;
  std::vector<Extent> timeline_extents_;
};

}  // namespace streach

#endif  // STREACH_BASELINES_GRAIL_H_
