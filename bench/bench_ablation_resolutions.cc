// Ablation C (§6.2.1.4): query IO versus the number of HN resolutions
// (1 = DN_1 only .. 7 = up to DN_64).
//
// Paper: a tradeoff — more resolutions let BM-BFS take longer jumps, but
// "this can significantly increase the number of edges if overdone and
// hence adversely reduce the efficiency of query expansion"; their
// empirical optimum is 6 resolutions.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgraph/reach_graph_index.h"

namespace streach {
namespace bench {
namespace {

struct Row {
  std::string dataset;
  int resolutions;
  uint64_t long_edges;
  uint64_t pages;
  double io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

BenchEnv& Env(const std::string& which) {
  static std::unordered_map<std::string, std::unique_ptr<BenchEnv>> cache;
  auto it = cache.find(which);
  if (it == cache.end()) {
    it = cache
             .emplace(which, std::make_unique<BenchEnv>(MakeEnv(
                                 which, DatasetScale::kMedium,
                                 /*duration=*/1000, /*num_queries=*/40)))
             .first;
  }
  return *it->second;
}

void ResolutionSweep(benchmark::State& state, const std::string& which) {
  const int resolutions = static_cast<int>(state.range(0));
  BenchEnv& env = Env(which);
  ReachGraphOptions options;
  options.num_resolutions = resolutions;
  auto built = ReachGraphIndex::Build(*env.network, options);
  STREACH_CHECK(built.ok());
  std::shared_ptr<const ReachGraphIndex> index = std::move(*built);
  auto session = MakeReachGraphBackend(index, ReachGraphTraversal::kBmBfs);
  double io = 0;
  for (auto _ : state) {
    io = RunThroughEngine(session.get(), env.queries).mean_io_cost();
  }
  state.counters["avg_io"] = io;
  state.counters["long_edges"] =
      static_cast<double>(index->build_stats().dn.num_long_edges);
  Rows().push_back({env.dataset.name, resolutions,
                    index->build_stats().dn.num_long_edges,
                    index->build_stats().index_pages, io});
}

BENCHMARK_CAPTURE(ResolutionSweep, RWP_M, std::string("RWP"))
    ->DenseRange(1, 7)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Ablation — number of HN resolutions (§6.2.1.4), RWP-M",
      "IO falls with added resolutions, then flattens/rises (optimum ~6)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-8s %12s %14s %10s %10s\n", "Dataset", "resolutions",
              "long edges", "pages", "avg IO");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %12d %14llu %10llu %10.1f\n", row.dataset.c_str(),
                row.resolutions,
                static_cast<unsigned long long>(row.long_edges),
                static_cast<unsigned long long>(row.pages), row.io);
  }
  return 0;
}
