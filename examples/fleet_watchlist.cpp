// Fleet watchlist monitoring — the paper's law-enforcement scenario (§1):
// a set of vehicles O is on a watch list; discover the vehicles that have
// potentially been in (direct or indirect) contact with any of them —
// reachable FROM a watched vehicle or reachable TO one.
//
//   build/examples/fleet_watchlist [num_vehicles] [ticks]
//
// Generates Brinkhoff-style network-constrained vehicle traces (DSRC
// 300 m contacts), builds a ReachGraph index, and answers the batch with
// BM-BFS in both directions, reporting per-query IO.

#include <cstdio>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/check.h"
#include "engine/backends.h"
#include "generators/road_network.h"
#include "generators/vehicle_gen.h"
#include "join/contact_extractor.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"

using namespace streach;  // NOLINT — example brevity.

int main(int argc, char** argv) {
  const int num_vehicles = argc > 1 ? std::atoi(argv[1]) : 160;
  const Timestamp ticks = argc > 2 ? std::atoi(argv[2]) : 600;
  std::printf("Fleet watchlist: %d vehicles, %d ticks (5 s each)\n",
              num_vehicles, ticks);

  // A ~25 km^2 city core street grid.
  auto roads = RoadNetwork::MakeGrid(11, 11, 500.0, 60.0, 99);
  STREACH_CHECK(roads.ok());
  VehicleGenParams params;
  params.num_vehicles = num_vehicles;
  params.min_speed = 40;   // 30 km/h at 5 s ticks.
  params.max_speed = 125;  // 90 km/h.
  params.duration = ticks;
  params.seed = 2027;
  auto store = GenerateVehicleTraces(*roads, params);
  STREACH_CHECK(store.ok());

  // DSRC effective range (§6): 300 m.
  ContactNetwork network(store->num_objects(), store->span(),
                         ExtractContacts(*store, 300.0));
  std::printf("Contact network: %zu contacts extracted\n",
              network.contacts().size());

  auto index = ReachGraphIndex::Build(network, ReachGraphOptions{});
  STREACH_CHECK(index.ok());
  const auto& build = (*index)->build_stats();
  std::printf("ReachGraph built: DN %llu vertices / %llu edges "
              "(+%llu long edges), %llu partitions\n",
              static_cast<unsigned long long>(build.dn.num_vertices),
              static_cast<unsigned long long>(build.dn.num_edges),
              static_cast<unsigned long long>(build.dn.num_long_edges),
              static_cast<unsigned long long>(build.num_partitions));

  auto session =
      MakeReachGraphBackend(std::move(*index), ReachGraphTraversal::kBmBfs);

  const std::vector<ObjectId> watchlist = {3, 42, 77};
  const TimeInterval window(ticks / 4, (3 * ticks) / 4);
  std::printf("\nScreening all vehicles against watchlist {3, 42, 77} over "
              "%s...\n", window.ToString().c_str());

  std::set<ObjectId> exposed_from;  // Reachable from a watched vehicle.
  std::set<ObjectId> feeding_to;    // Can reach a watched vehicle.
  double io = 0;
  uint64_t queries = 0;
  for (ObjectId other = 0; other < store->num_objects(); ++other) {
    for (ObjectId watched : watchlist) {
      if (other == watched) continue;
      auto forward = session->Query({watched, other, window});
      STREACH_CHECK(forward.ok());
      io += session->last_query_stats().io_cost;
      if (forward->reachable) exposed_from.insert(other);
      auto backward = session->Query({other, watched, window});
      STREACH_CHECK(backward.ok());
      io += session->last_query_stats().io_cost;
      if (backward->reachable) feeding_to.insert(other);
      queries += 2;
    }
  }
  std::printf("\n%llu reachability queries evaluated, %.2f IO per query "
              "(warm buffer pool)\n",
              static_cast<unsigned long long>(queries),
              io / static_cast<double>(queries));
  std::printf("Vehicles reachable FROM the watchlist: %zu\n",
              exposed_from.size());
  std::printf("Vehicles able to REACH the watchlist:  %zu\n",
              feeding_to.size());
  std::printf("In both sets: %zu\n",
              [&] {
                size_t n = 0;
                for (ObjectId o : exposed_from) n += feeding_to.count(o);
                return n;
              }());
  return 0;
}
