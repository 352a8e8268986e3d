#include "join/proximity_join.h"

#include <algorithm>

#include "common/check.h"

namespace streach {

Rect ProximityJoiner::EnvironmentExtent(const TrajectoryStore& store) {
  Rect extent = store.ComputeExtent();
  STREACH_CHECK(!extent.empty());
  // Guard against a degenerate (zero-area) extent, e.g. all objects
  // stationary on a line.
  if (extent.Width() <= 0.0 || extent.Height() <= 0.0) {
    extent = extent.Padded(1.0);
  }
  return extent;
}

ProximityJoiner::ProximityJoiner(double dt, const Rect& extent)
    : dt_sq_(dt * dt), grid_(extent, dt) {
  STREACH_CHECK_GT(dt, 0.0);
  count_.assign(grid_.num_cells(), 0);
  slot_.resize(grid_.num_cells());
}

void ProximityJoiner::BinPositions(const std::vector<Point>& positions) {
  const size_t n = positions.size();
  cell_of_.resize(n);
  cell_objects_.resize(n);
  for (CellId c : used_cells_) count_[c] = 0;
  used_cells_.clear();
  // Counting pass. used_cells_ keeps discovery order — no consumer
  // depends on cell order (SweepCells sorts its output), and within a
  // cell ids ascend because the scatter below runs in id order.
  for (ObjectId o = 0; o < n; ++o) {
    const CellId c = grid_.CellOf(positions[o]);
    cell_of_[o] = c;
    if (count_[c]++ == 0) used_cells_.push_back(c);
  }
  // Prefix offsets, then scatter. slot_[c] ends at the cell's CSR end;
  // its range start is recovered as slot_[c] - count_[c].
  uint32_t offset = 0;
  for (CellId c : used_cells_) {
    slot_[c] = offset;
    offset += count_[c];
  }
  for (ObjectId o = 0; o < n; ++o) {
    cell_objects_[slot_[cell_of_[o]]++] = o;
  }
}

std::vector<std::pair<ObjectId, ObjectId>> ProximityJoiner::SweepCells(
    const std::vector<Point>& positions) const {
  std::vector<std::pair<ObjectId, ObjectId>> out;
  const int rows = grid_.rows();
  const int cols = grid_.cols();
  for (const CellId cell : used_cells_) {
    const uint32_t me = slot_[cell];
    const uint32_t mb = me - count_[cell];
    const int row = grid_.RowOfCell(cell);
    const int col = grid_.ColOfCell(cell);
    // Within-cell pairs; ids ascend within a cell, so a < b already.
    for (uint32_t i = mb; i < me; ++i) {
      const ObjectId a = cell_objects_[i];
      const Point& pa = positions[a];
      for (uint32_t j = i + 1; j < me; ++j) {
        const ObjectId b = cell_objects_[j];
        if (Point::DistanceSquared(pa, positions[b]) < dt_sq_) {
          out.emplace_back(a, b);
        }
      }
    }
    // Cross-cell pairs: visit only "forward" neighbors so each unordered
    // cell pair is examined once.
    static constexpr int kForward[4][2] = {{0, 1}, {1, -1}, {1, 0}, {1, 1}};
    for (const auto& d : kForward) {
      const int nr = row + d[0];
      const int nc = col + d[1];
      if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
      const CellId other = grid_.CellAt(nr, nc);
      if (count_[other] == 0) continue;
      const uint32_t te = slot_[other];
      const uint32_t tb = te - count_[other];
      for (uint32_t i = mb; i < me; ++i) {
        const ObjectId a = cell_objects_[i];
        const Point& pa = positions[a];
        for (uint32_t j = tb; j < te; ++j) {
          const ObjectId b = cell_objects_[j];
          if (Point::DistanceSquared(pa, positions[b]) < dt_sq_) {
            out.emplace_back(std::min(a, b), std::max(a, b));
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<ObjectId, ObjectId>> ProximityJoiner::PairsAmong(
    const std::vector<Point>& positions) {
  BinPositions(positions);
  return SweepCells(positions);
}

}  // namespace streach
