// Ablation A (design choice of §5.1.2.1, step 2): what does merging runs
// of identical connected components (aggregated edges) buy?
//
// Expectation: merging shrinks DN by an order of magnitude — the paper
// notes the effect is strongest "when the sampling rate for objects
// positions is high relevant to the objects moving speed" — and the
// smaller graph directly translates into fewer query IOs.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "reachgraph/reach_graph_index.h"

namespace streach {
namespace bench {
namespace {

struct Row {
  std::string config;
  uint64_t vertices;
  uint64_t edges;
  uint64_t pages;
  double io;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void Compare(benchmark::State& state, bool merging) {
  BenchEnv env = MakeEnv("RWP", DatasetScale::kMedium, /*duration=*/1000,
                         /*num_queries=*/40);
  ReachGraphOptions options;
  options.merge_identical_components = merging;
  auto built = ReachGraphIndex::Build(*env.network, options);
  STREACH_CHECK(built.ok());
  std::shared_ptr<const ReachGraphIndex> index = std::move(*built);
  auto session = MakeReachGraphBackend(index, ReachGraphTraversal::kBmBfs);
  double io = 0;
  for (auto _ : state) {
    io = RunThroughEngine(session.get(), env.queries).mean_io_cost();
  }
  const auto& dn = index->build_stats().dn;
  state.counters["V"] = static_cast<double>(dn.num_vertices);
  state.counters["E"] = static_cast<double>(dn.num_edges);
  state.counters["avg_io"] = io;
  Rows().push_back({merging ? "merged (paper)" : "unmerged",
                    dn.num_vertices, dn.num_edges,
                    index->build_stats().index_pages, io});
}

BENCHMARK_CAPTURE(Compare, Merged, true)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Compare, Unmerged, false)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Ablation — reduction step 2 (aggregated-edge merging), RWP-M",
      "merging shrinks DN drastically and cuts query IO");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n%-16s %12s %12s %10s %10s\n", "Config", "DN |V|", "DN |E|",
              "pages", "avg IO");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-16s %12llu %12llu %10llu %10.1f\n", row.config.c_str(),
                static_cast<unsigned long long>(row.vertices),
                static_cast<unsigned long long>(row.edges),
                static_cast<unsigned long long>(row.pages), row.io);
  }
  return 0;
}
