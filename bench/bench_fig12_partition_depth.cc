// Reproduces Figure 12: ReachGraph query IO versus the partitioning depth
// dp for the mid-size RWP and VN datasets.
//
// Paper: a U-shaped tradeoff — deeper partitions buffer more
// soon-to-be-visited vertices (fewer IOs) until partitions become so large
// that fetching one drags in mostly redundant vertices; their optimum is
// dp = 32 with 20k-object datasets.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgraph/augmenter.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"

namespace streach {
namespace bench {
namespace {

struct Sweep {
  BenchEnv env;
  DnGraph dn;  // Pre-augmented; copied per depth.
};

Sweep& GetSweep(const std::string& which) {
  static std::unordered_map<std::string, std::unique_ptr<Sweep>> cache;
  auto it = cache.find(which);
  if (it == cache.end()) {
    BenchEnv env = MakeEnv(which, DatasetScale::kMedium, /*duration=*/1000,
                           /*num_queries=*/40);
    auto dn = BuildDnGraph(*env.network);
    STREACH_CHECK(dn.ok());
    AugmenterOptions aug;
    aug.num_resolutions = 6;
    STREACH_CHECK_OK(AugmentWithLongEdges(&*dn, aug));
    auto sweep = std::make_unique<Sweep>(
        Sweep{std::move(env), std::move(*dn)});
    it = cache.emplace(which, std::move(sweep)).first;
  }
  return *it->second;
}

struct Row {
  std::string dataset;
  int depth;
  double io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void DepthSweep(benchmark::State& state, const std::string& which) {
  const int dp = static_cast<int>(state.range(0));
  Sweep& sweep = GetSweep(which);
  ReachGraphOptions options;
  options.partition_depth = dp;
  auto built = ReachGraphIndex::BuildFromDn(sweep.dn, options);
  STREACH_CHECK(built.ok());
  std::shared_ptr<const ReachGraphIndex> index = std::move(*built);
  auto session = MakeReachGraphBackend(index, ReachGraphTraversal::kBmBfs);
  double io = 0;
  for (auto _ : state) {
    io = RunThroughEngine(session.get(), sweep.env.queries).mean_io_cost();
  }
  state.counters["avg_io"] = io;
  state.counters["partitions"] = static_cast<double>(index->num_partitions());
  Rows().push_back({sweep.env.dataset.name, dp, io});
}

BENCHMARK_CAPTURE(DepthSweep, RWP_M, std::string("RWP"))
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(DepthSweep, VN_M, std::string("VN"))
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Figure 12 — query IO vs partition depth dp (RWP-M, VN-M)",
      "U-shaped curve with an interior optimum (paper: dp=32 at 20k objects)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-8s %6s %10s\n", "Dataset", "dp", "avg IO");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %6d %10.1f\n", row.dataset.c_str(), row.depth, row.io);
  }
  return 0;
}
