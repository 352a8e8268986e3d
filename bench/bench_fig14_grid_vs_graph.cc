// Reproduces Figure 14 (a)/(b): ReachGrid vs ReachGraph (BM-BFS) query IO
// for query intervals of 100, 300 and 500 ticks on the mid-size RWP and
// VN datasets.
//
// Paper: ReachGrid is comparable with ReachGraph for small query
// intervals and falls behind as the interval grows (it sweeps contacts
// along time while ReachGraph jumps via precomputed long edges); on VN,
// where objects concentrate on the road network, ReachGraph wins by ~63%
// on average because ReachGrid's spatial grid cannot exploit locality in
// skewed distributions.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace bench {
namespace {

struct Setup {
  BenchEnv env;
  std::unique_ptr<ReachabilityIndex> grid;   // ReachGrid session.
  std::unique_ptr<ReachabilityIndex> graph;  // ReachGraph(BM-BFS) session.
};

Setup& GetSetup(const std::string& which) {
  static std::unordered_map<std::string, std::unique_ptr<Setup>> cache;
  auto it = cache.find(which);
  if (it == cache.end()) {
    auto setup = std::make_unique<Setup>();
    setup->env = MakeEnv(which, DatasetScale::kMedium, /*duration=*/1000,
                         /*num_queries=*/0);
    ReachGridOptions grid_options;
    grid_options.temporal_resolution = 20;
    grid_options.spatial_cell_size = which == "RWP" ? 1024.0 : 2500.0;
    grid_options.contact_range = setup->env.dataset.contact_range;
    auto grid = ReachGridIndex::Build(setup->env.dataset.store, grid_options);
    STREACH_CHECK(grid.ok());
    setup->grid = MakeReachGridBackend(std::move(grid).ValueUnsafe());
    auto graph =
        ReachGraphIndex::Build(*setup->env.network, ReachGraphOptions{});
    STREACH_CHECK(graph.ok());
    setup->graph = MakeReachGraphBackend(std::move(graph).ValueUnsafe(),
                                         ReachGraphTraversal::kBmBfs);
    it = cache.emplace(which, std::move(setup)).first;
  }
  return *it->second;
}

struct Row {
  std::string dataset;
  int interval;
  double grid_io;
  double graph_io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void Compare(benchmark::State& state, const std::string& which) {
  const int interval = static_cast<int>(state.range(0));
  Setup& setup = GetSetup(which);
  WorkloadParams wl;
  wl.num_queries = 40;
  wl.num_objects = setup.env.dataset.num_objects();
  wl.span = setup.env.dataset.span();
  wl.min_interval_len = interval;
  wl.max_interval_len = interval;
  wl.seed = 777;
  const auto queries = GenerateWorkload(wl);
  double grid_io = 0, graph_io = 0;
  for (auto _ : state) {
    grid_io = RunThroughEngine(setup.grid.get(), queries).mean_io_cost();
    graph_io = RunThroughEngine(setup.graph.get(), queries).mean_io_cost();
  }
  state.counters["grid_io"] = grid_io;
  state.counters["graph_io"] = graph_io;
  Rows().push_back({setup.env.dataset.name, interval, grid_io, graph_io});
}

BENCHMARK_CAPTURE(Compare, RWP_M, std::string("RWP"))
    ->Arg(100)->Arg(300)->Arg(500)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Compare, VN_M, std::string("VN"))
    ->Arg(100)->Arg(300)->Arg(500)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Figure 14 — ReachGrid vs ReachGraph IO, |Tp| in {100, 300, 500}",
      "comparable at small |Tp|; ReachGraph pulls ahead as |Tp| grows, "
      "especially on VN (~63%)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-8s %6s %14s %14s %14s\n", "Dataset", "|Tp|",
              "ReachGrid IO", "ReachGraph IO", "graph wins by");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %6d %14.1f %14.1f %13.1f%%\n", row.dataset.c_str(),
                row.interval, row.grid_io, row.graph_io,
                streach::bench::ImprovementPct(row.graph_io, row.grid_io));
  }
  return 0;
}
