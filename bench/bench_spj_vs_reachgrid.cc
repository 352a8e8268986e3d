// Reproduces the §6.1.2 comparison: ReachGrid query processing versus the
// naive SPJ evaluator that materializes the whole window contact network.
//
// Paper: "our ReachGrid approach outperforms SPJ by at least 96% for all
// RWP and VN datasets". The margin grows with dataset size (SPJ scans all
// |O| trajectories in the window; ReachGrid touches only the cells its
// seed set passes through), so at laptop scale we expect the same
// direction with a smaller percentage.

#include <benchmark/benchmark.h>

#include "baselines/spj.h"
#include "bench_common.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace bench {
namespace {

struct Row {
  std::string dataset;
  double grid_io;
  double spj_io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void Compare(benchmark::State& state, const std::string& which, DatasetScale scale, double cell) {
  BenchEnv env = MakeEnv(which, scale, /*duration=*/1000, /*num_queries=*/50,
                         150, 350, /*build_network=*/false);
  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 20;
  grid_options.spatial_cell_size = cell;
  grid_options.contact_range = env.dataset.contact_range;
  auto grid = ReachGridIndex::Build(env.dataset.store, grid_options);
  STREACH_CHECK(grid.ok());
  SpjOptions spj_options;
  spj_options.contact_range = env.dataset.contact_range;
  auto spj = SpjEvaluator::Build(env.dataset.store, spj_options);
  STREACH_CHECK(spj.ok());

  auto grid_session = MakeReachGridBackend(std::move(*grid));
  auto spj_session = MakeSpjBackend(std::move(*spj));

  double grid_io = 0, spj_io = 0;
  for (auto _ : state) {
    grid_io = RunThroughEngine(grid_session.get(), env.queries).mean_io_cost();
    spj_io = RunThroughEngine(spj_session.get(), env.queries).mean_io_cost();
  }
  state.counters["grid_io"] = grid_io;
  state.counters["spj_io"] = spj_io;
  state.counters["improvement_pct"] = ImprovementPct(grid_io, spj_io);
  Rows().push_back({env.dataset.name, grid_io, spj_io});
}

BENCHMARK_CAPTURE(Compare, RWP_M, std::string("RWP"), DatasetScale::kMedium,
                  1024.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Compare, VN_M, std::string("VN"), DatasetScale::kMedium,
                  2500.0)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "§6.1.2 — ReachGrid vs SPJ (naive scan-join-traverse)",
      "ReachGrid >= 96% fewer IOs at 10k-40k objects; margin grows with size");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-8s %14s %12s %14s\n", "Dataset", "ReachGrid IO", "SPJ IO",
              "improvement");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %14.1f %12.1f %13.1f%%\n", row.dataset.c_str(),
                row.grid_io, row.spj_io,
                streach::bench::ImprovementPct(row.grid_io, row.spj_io));
  }
  return 0;
}
