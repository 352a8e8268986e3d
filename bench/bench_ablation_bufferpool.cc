// Ablation B (disk-placement assumption): sensitivity of both indexes to
// the buffer-pool capacity ("internal memory" available to the query
// processor).
//
// Expectation: both indexes degrade gracefully as memory shrinks; the
// partition/cell buffering that the placement strategies rely on only
// needs a modest pool to pay off.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace bench {
namespace {

struct Row {
  std::string index;
  size_t pool_pages;
  double io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

BenchEnv& Env() {
  static BenchEnv env = MakeEnv("RWP", DatasetScale::kMedium,
                                /*duration=*/1000, /*num_queries=*/40);
  return env;
}

void GraphPool(benchmark::State& state) {
  const auto pool = static_cast<size_t>(state.range(0));
  BenchEnv& env = Env();
  ReachGraphOptions options;
  options.buffer_pool_pages = pool;
  auto index = ReachGraphIndex::Build(*env.network, options);
  STREACH_CHECK(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  double io = 0;
  for (auto _ : state) {
    io = RunThroughEngine(session.get(), env.queries).mean_io_cost();
  }
  state.counters["avg_io"] = io;
  Rows().push_back({"ReachGraph", pool, io});
}
BENCHMARK(GraphPool)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void GridPool(benchmark::State& state) {
  const auto pool = static_cast<size_t>(state.range(0));
  BenchEnv& env = Env();
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 1024.0;
  options.contact_range = env.dataset.contact_range;
  options.buffer_pool_pages = pool;
  auto index = ReachGridIndex::Build(env.dataset.store, options);
  STREACH_CHECK(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  double io = 0;
  for (auto _ : state) {
    io = RunThroughEngine(session.get(), env.queries).mean_io_cost();
  }
  state.counters["avg_io"] = io;
  Rows().push_back({"ReachGrid", pool, io});
}
BENCHMARK(GridPool)->Arg(8)->Arg(32)->Arg(128)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Ablation — buffer-pool capacity sensitivity (RWP-M)",
      "graceful degradation; modest pools suffice for the placement win");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-12s %12s %10s\n", "Index", "pool pages", "avg IO");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-12s %12zu %10.1f\n", row.index.c_str(), row.pool_pages,
                row.io);
  }
  return 0;
}
