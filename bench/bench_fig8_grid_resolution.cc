// Reproduces Figure 8 (a)/(b): ReachGrid query IO versus the spatial
// resolution RS (at the optimal temporal resolution RT=20) and versus the
// temporal resolution RT (at the optimal spatial resolution).
//
// Paper: both curves are U-shaped — too-fine resolutions cause many random
// accesses, too-coarse resolutions read many irrelevant trajectory
// segments. The optimum for RWP is RS=1024 m, RT=20.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace bench {
namespace {

BenchEnv& Env() {
  static BenchEnv env = MakeEnv("RWP", DatasetScale::kSmall,
                                /*duration=*/1000, /*num_queries=*/50,
                                150, 350, /*build_network=*/false);
  return env;
}

struct Row {
  std::string label;
  double rs;
  int rt;
  double io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

double MeasureGridIo(int rt, double rs) {
  BenchEnv& env = Env();
  ReachGridOptions options;
  options.temporal_resolution = rt;
  options.spatial_cell_size = rs;
  options.contact_range = env.dataset.contact_range;
  auto index = ReachGridIndex::Build(env.dataset.store, options);
  STREACH_CHECK(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  return RunThroughEngine(session.get(), env.queries).mean_io_cost();
}

void SpatialSweep(benchmark::State& state) {
  const double rs = static_cast<double>(state.range(0));
  double io = 0;
  for (auto _ : state) io = MeasureGridIo(/*rt=*/20, rs);
  state.counters["avg_io"] = io;
  Rows().push_back({"Fig8a RS sweep (RT=20)", rs, 20, io});
}
BENCHMARK(SpatialSweep)
    ->Arg(128)->Arg(256)->Arg(512)->Arg(1024)->Arg(2048)->Arg(4096)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void TemporalSweep(benchmark::State& state) {
  const int rt = static_cast<int>(state.range(0));
  double io = 0;
  for (auto _ : state) io = MeasureGridIo(rt, /*rs=*/1024.0);
  state.counters["avg_io"] = io;
  Rows().push_back({"Fig8b RT sweep (RS=1024)", 1024.0, rt, io});
}
BENCHMARK(TemporalSweep)
    ->Arg(5)->Arg(10)->Arg(20)->Arg(40)->Arg(80)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Figure 8 — ReachGrid resolution optimization (RWP)",
      "U-shaped IO curves; optimum RS=1024 m, RT=20 for RWP");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-26s %8s %5s %10s\n", "sweep", "RS (m)", "RT",
              "avg IO");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-26s %8.0f %5d %10.1f\n", row.label.c_str(), row.rs,
                row.rt, row.io);
  }
  return 0;
}
