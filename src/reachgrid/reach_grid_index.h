#ifndef STREACH_REACHGRID_REACH_GRID_INDEX_H_
#define STREACH_REACHGRID_REACH_GRID_INDEX_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/types.h"
#include "spatial/grid2d.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/build_options.h"
#include "storage/buffer_pool.h"
#include "storage/storage_topology.h"
#include "trajectory/trajectory_store.h"

namespace streach {

class QueryScope;

/// Construction parameters of ReachGrid (§4.1).
struct ReachGridOptions {
  /// Temporal resolution RT: ticks per temporal bucket (paper optimum 20).
  int temporal_resolution = 20;
  /// Spatial resolution RS: grid-cell side in meters (paper optimum 1024 m
  /// for RWP, 17 km for VN).
  double spatial_cell_size = 1024.0;
  /// Contact threshold dT in meters.
  double contact_range = 25.0;
  size_t page_size = BlockDevice::kDefaultPageSize;
  size_t buffer_pool_pages = 256;
  /// Storage shards: temporal buckets (and their locator tables) are
  /// routed round-robin across this many per-shard devices. 1 reproduces
  /// the paper's single-disk layout bit-for-bit.
  int num_shards = 1;
  /// Write-side build parameters (worker pool + write queues); the
  /// defaults reproduce the historical synchronous single-threaded build
  /// page for page. On-disk images are identical at any setting.
  BuildOptions build;
};

/// Construction metrics (Figure 9).
struct ReachGridBuildStats {
  double build_seconds = 0.0;
  uint64_t num_buckets = 0;
  uint64_t num_nonempty_cells = 0;
  uint64_t index_pages = 0;
  uint64_t index_bytes = 0;
};

/// \brief Disk-resident spatiotemporal grid index over raw trajectory
/// segments (§4).
///
/// Offline, the time span is cut into temporal buckets of RT ticks; within
/// each bucket a uniform RS-meter grid partitions the environment, and
/// every object's bucket segment is stored in each cell one of its samples
/// falls in. Cells of bucket i are placed before cells of bucket j > i on
/// consecutive pages, and positions are time-ordered (§4.1's placement
/// rules). A per-bucket object locator (the external hash of §4.2) maps
/// each object to its cell at the bucket start.
///
/// Online (Algorithm 1), the query interval is swept bucket by bucket: a
/// seed set (objects already reached) starts as {source}; at every tick
/// only the cells intersecting the dT-padded MBRs of the seeds' remaining
/// segments are fetched (the "potential seed cells" Ni), contacts between
/// seeds and candidates are tested, newly reached objects join the seed
/// set immediately (chaining within the tick), and processing stops the
/// moment the destination is reached.
class ReachGridIndex {
 public:
  static Result<std::unique_ptr<ReachGridIndex>> Build(
      const TrajectoryStore& store, const ReachGridOptions& options);

  /// Evaluates a reachability query through `pool`, writing its metrics
  /// into `*stats`; returns the answer with the earliest arrival tick
  /// when reachable. A self-query answers like `BruteForceReach` with no
  /// IO; any other query is a one-source closure sweep that stops at the
  /// destination. Safe to call concurrently from many threads with
  /// distinct pools.
  Result<ReachAnswer> Query(const ReachQuery& query, BufferPool* pool,
                            QueryStats* stats) const;

  /// Multi-source batch closure: `result[i]` holds every object reachable
  /// from `sources[i]` during `interval` with its infection time
  /// (kInvalidTime for unreached objects), and the whole batch is ONE
  /// shared-frontier sweep run to the end of the window — per-source
  /// reach lives in a bitset slab and every cell record is fetched once no
  /// matter how many seeds need it. A singleton batch is the sweep `Query`
  /// runs, page for page, minus the early exit.
  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval,
      BufferPool* pool, QueryStats* stats) const;

  /// Constrained reachability profile (network/hop_profile.h semantics):
  /// each transfer level runs as one guided bucket sweep. The level's
  /// carriers are admitted like Algorithm 1 seeds; every tick grows the
  /// contact closure around the carriers active at that tick (an object in
  /// contact conducts the wave whether or not it may transmit), newly
  /// waved objects fetch their candidate cells exactly like new seeds, and
  /// an exact union pass over the wave's positions recovers the snapshot
  /// components so a member is only labeled by an eligible carrier other
  /// than itself. Sequential; the buffer pool amortizes repeated cell
  /// fetches across levels.
  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval, const HopConstraints& hops,
      BufferPool* pool, QueryStats* stats) const;

  const StorageTopology& topology() const { return topology_; }
  int num_shards() const { return topology_.num_shards(); }

  /// On-disk record codec this index was built (and must be read) with.
  PageCodecKind page_codec() const { return options_.build.page_codec; }

  const ReachGridBuildStats& build_stats() const { return build_stats_; }
  /// Device IO each shard performed during construction (index = shard
  /// id): the write-side profile — total pages written, how many went
  /// through the batched write queues, and their mean occupancy.
  const std::vector<IoStats>& build_io_stats() const { return build_io_; }
  const ReachGridOptions& options() const { return options_; }

  int num_buckets() const { return static_cast<int>(bucket_cells_.size()); }
  TimeInterval BucketInterval(int bucket) const;

 private:
  explicit ReachGridIndex(const ReachGridOptions& options, Rect extent,
                          TimeInterval span, size_t num_objects)
      : options_(options),
        topology_(StorageTopologyOptions{options.num_shards,
                                         options.page_size}),
        grid_(extent, options.spatial_cell_size),
        span_(span),
        num_objects_(num_objects) {}

  int BucketOf(Timestamp t) const {
    return static_cast<int>((t - span_.start) / options_.temporal_resolution);
  }

  Status WriteIndex(const TrajectoryStore& store);

  /// Object positions for one bucket, parsed out of a cell record.
  using BucketPositions = std::vector<Point>;

  /// Per-query, per-bucket sweep state shared by `MultiSweep` and
  /// `LevelSweep`: the positions of every object fetched so far, the
  /// cells already fetched, and the IO handles the bucket helpers read
  /// through.
  struct BucketContext {
    BucketContext(int b, TimeInterval bucket_interval, TimeInterval w,
                  BufferPool* p, QueryScope* s)
        : bucket(b),
          interval(bucket_interval),
          window(bucket_interval.Intersect(w)),
          pool(p),
          scope(s) {}

    const Point& PositionOf(ObjectId o, Timestamp t) const {
      return objects.find(o)->second[static_cast<size_t>(t - interval.start)];
    }

    int bucket;
    TimeInterval interval;  // Full bucket interval.
    TimeInterval window;    // `interval` clipped to the query window.
    BufferPool* pool;
    QueryScope* scope;
    std::unordered_map<ObjectId, BucketPositions> objects;
    std::unordered_map<CellId, bool> fetched_cells;
  };

  /// Fetches `cells` (any order, repeats allowed) into `ctx`. The
  /// not-yet-fetched non-empty ones go out in ascending id order — the
  /// §4.1 on-disk order — as one `ReadExtentsBatched` call, so the
  /// per-shard queues see the whole expansion step at any queue depth.
  Status FetchCells(std::vector<CellId> cells, BucketContext* ctx) const;

  /// Decodes one cell record into `ctx->objects`, keeping the first copy
  /// of each object: an object stored in several cells carries its whole
  /// bucket segment in each.
  Status DecodeCellRecord(const std::string& blob, BucketContext* ctx) const;

  /// Brings `batch` into the bucket as Algorithm 1 seeds from tick
  /// `from`: locates their cells (one locator batch), fetches those
  /// records, then fetches the candidate cells around their remaining
  /// segments (the potential-seed cells Ni of §4.2).
  Status AdmitSeeds(const std::vector<ObjectId>& batch, Timestamp from,
                    BucketContext* ctx) const;

  /// Locator lookups: the cell of each of `objects` at the start of
  /// `bucket` (§4.2's constant-IO external hash). The locator pages of
  /// all `objects` go out as one fetch batch at any queue depth.
  Result<std::vector<CellId>> LookupCells(int bucket,
                                          const std::vector<ObjectId>& objects,
                                          BufferPool* pool) const;

  /// One E-column step of `ConstrainedProfile` (the `LevelSweepFn` handed
  /// to `DriveHopLevels`): labels `next` from the carriers in `prev` by
  /// the guided per-tick wave sweep described on the public entry point.
  Status LevelSweep(const std::vector<Timestamp>& prev, TimeInterval window,
                    Timestamp per_hop_ticks, std::vector<Timestamp>* next,
                    std::vector<uint32_t>* wave_stamp, uint32_t* stamp_clock,
                    BufferPool* pool, QueryScope* scope) const;

  /// The one closure sweep, behind `Query` and `ReachableSets`:
  /// Algorithm 1 over a whole batch, one pass over the buckets with
  /// per-source reach bits. Each contact round of a tick scans the fetched
  /// objects in ascending id order against the previous round's reach,
  /// and the round's discoveries take effect together when it ends. A
  /// `destination` other than kInvalidObject stops the sweep after the
  /// first round that reaches it, before that round's discoveries are
  /// admitted (Algorithm 1's early exit); the sets then hold the reach
  /// found so far. All traversal state lives on the stack or in the
  /// caller's pool — re-entrant and const.
  Result<std::vector<std::vector<Timestamp>>> MultiSweep(
      const std::vector<ObjectId>& sources, TimeInterval interval,
      ObjectId destination, BufferPool* pool, QueryStats* stats) const;

  ReachGridOptions options_;
  StorageTopology topology_;
  UniformGrid2D grid_;
  TimeInterval span_;
  size_t num_objects_;
  ReachGridBuildStats build_stats_;
  std::vector<IoStats> build_io_;  // Per-shard build-phase device IO.

  // In-memory directory: per bucket, extents of non-empty cells.
  std::vector<std::unordered_map<CellId, Extent>> bucket_cells_;
  // Locator tables: per bucket, extent of the object->cell array (raw
  // codec only — one back-to-back byte array probed in place).
  std::vector<Extent> locator_extents_;
  // Entries per compressed locator block: small enough that one probe
  // decodes a constant number of bytes (§4.2's constant-IO contract),
  // large enough that U32Delta still squeezes the per-block run.
  static constexpr size_t kLocatorBlockEntries = 256;
  // Non-raw codecs store the locator as fixed-span blocks of
  // kLocatorBlockEntries entries; this skip table maps block index ->
  // extent so a probe decodes exactly one block instead of the table.
  std::vector<std::vector<Extent>> locator_blocks_;
};

}  // namespace streach

#endif  // STREACH_REACHGRID_REACH_GRID_INDEX_H_
