#ifndef STREACH_JOIN_PROXIMITY_JOIN_H_
#define STREACH_JOIN_PROXIMITY_JOIN_H_

#include <utility>
#include <vector>

#include "common/types.h"
#include "spatial/grid2d.h"
#include "trajectory/trajectory_store.h"

namespace streach {

/// \brief Knobs of the contact-extraction front end (the trajectory join
/// that feeds every index build).
///
/// `ExtractContacts` partitions the scan window into time-slice chunks
/// processed by `threads` workers, one single-threaded joiner each.
/// Results are *identical* (same contacts, same order) at every setting —
/// a work-size floor keeps short windows sequential, and `threads = 1`
/// with `chunk_ticks = 0` runs the historical sequential code path.
struct JoinOptions {
  /// Join workers (>= 1). 1 = the historical sequential front end.
  int threads = 1;
  /// Ticks per extraction chunk; 0 = auto (window / (2 * threads),
  /// floored so tiny windows stay sequential). Setting it explicitly
  /// forces the chunked scan even at `threads = 1` — the test hook for
  /// boundary stitching.
  int chunk_ticks = 0;
};

/// \brief Per-tick spatial self-join: all object pairs closer than dT.
///
/// The building block of contact-network construction (the
/// `R(Tp) ⊲⊳dT R(Tp)` window trajectory join of §4). Uses a uniform grid
/// with cell side dT: each object only needs to be compared against
/// objects in its own and the 8 neighboring cells.
///
/// Each call bins the positions into a flat CSR-style cell list — one
/// counting pass, prefix offsets, one scatter into a single contiguous
/// ObjectId array — so a joiner reused tick after tick rebuilds its cell
/// list without allocating after the first call.
class ProximityJoiner {
 public:
  /// `dt` is the contact threshold dT (meters); pairs at distance < dT
  /// match (strict, per §3.1). `extent` sizes the grid (see
  /// `EnvironmentExtent`), so many joiners — e.g. one per chunk worker —
  /// share one extent scan.
  ProximityJoiner(double dt, const Rect& extent);

  ProximityJoiner(const ProximityJoiner&) = delete;
  ProximityJoiner& operator=(const ProximityJoiner&) = delete;

  /// The non-degenerate bounding box of every sample of `store`.
  static Rect EnvironmentExtent(const TrajectoryStore& store);

  /// All pairs (a < b) of `positions` (indexed by object id) closer than
  /// dT, sorted ascending. A position outside the extent joins from its
  /// nearest border cell, so the pairs are exact for any positions.
  std::vector<std::pair<ObjectId, ObjectId>> PairsAmong(
      const std::vector<Point>& positions);

 private:
  /// Rebuilds the CSR cell list from `positions`.
  void BinPositions(const std::vector<Point>& positions);

  /// The contact pairs of the cell list of `positions` (within-cell and
  /// forward-neighbor sweeps), sorted ascending.
  std::vector<std::pair<ObjectId, ObjectId>> SweepCells(
      const std::vector<Point>& positions) const;

  double dt_sq_;
  UniformGrid2D grid_;

  // CSR cell list of the last joined positions: objects of cell c occupy
  // cell_objects_[slot_[c] - count_[c], slot_[c]), ascending. count_ is
  // nonzero only for cells in used_cells_ (reset cell-by-cell, never a
  // full-grid memset).
  std::vector<CellId> cell_of_;         // Cell of each object.
  std::vector<uint32_t> count_;         // Per-cell occupancy.
  std::vector<uint32_t> slot_;          // Per-cell CSR end offset.
  std::vector<ObjectId> cell_objects_;  // The one contiguous payload array.
  std::vector<CellId> used_cells_;      // Non-empty cells, discovery order.
};

}  // namespace streach

#endif  // STREACH_JOIN_PROXIMITY_JOIN_H_
