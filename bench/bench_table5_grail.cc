// Reproduces Table 5 (a)/(b): ReachGraph vs GRAIL on memory-resident and
// disk-resident contact datasets, |Tp| = 300.
//
// Paper (|T|=1000 for the memory case):
//   (a) runtime:  VN2k  GRAIL 3.5 ms vs RG 9.0 ms;
//                 RWP20k GRAIL 60 ms vs RG 39 ms  (comparable overall)
//   (b) IO count: VN2k  GRAIL 213 vs RG 49   (RG wins 76%)
//                 RWP20k GRAIL 6790 vs RG 570 (RG wins 88%)

#include <benchmark/benchmark.h>

#include "baselines/grail.h"
#include "bench_common.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"

namespace streach {
namespace bench {
namespace {

struct Row {
  std::string dataset;
  double grail_ms, rg_ms;   // Table 5a.
  double grail_io, rg_io;   // Table 5b.
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void Compare(benchmark::State& state, const std::string& which) {
  BenchEnv env = MakeEnv(which, DatasetScale::kMedium, /*duration=*/1000,
                         /*num_queries=*/50, 300, 300);
  auto rg = ReachGraphIndex::Build(*env.network, ReachGraphOptions{});
  STREACH_CHECK(rg.ok());
  auto dn = BuildDnGraph(*env.network);
  STREACH_CHECK(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  STREACH_CHECK(grail.ok());
  std::shared_ptr<const GrailIndex> shared_grail = std::move(*grail);
  auto rg_session =
      MakeReachGraphBackend(std::move(*rg), ReachGraphTraversal::kBmBfs);
  auto grail_memory = MakeGrailBackend(shared_grail, GrailMode::kMemory);
  auto grail_disk = MakeGrailBackend(shared_grail, GrailMode::kDisk);

  Row row;
  row.dataset = env.dataset.name;
  for (auto _ : state) {
    const auto n = static_cast<double>(env.queries.size());
    // Memory-resident runtimes (Table 5a): warm caches, measure CPU.
    row.grail_ms =
        RunThroughEngine(grail_memory.get(), env.queries, /*cold=*/false)
            .total_cpu_seconds * 1e3 / n;
    row.rg_ms = RunThroughEngine(rg_session.get(), env.queries, /*cold=*/false)
                    .total_cpu_seconds * 1e3 / n;
    // Disk-resident IO (Table 5b): cold caches.
    row.grail_io =
        RunThroughEngine(grail_disk.get(), env.queries).mean_io_cost();
    row.rg_io = RunThroughEngine(rg_session.get(), env.queries).mean_io_cost();
  }
  state.counters["grail_io"] = row.grail_io;
  state.counters["rg_io"] = row.rg_io;
  state.counters["grail_ms"] = row.grail_ms;
  state.counters["rg_ms"] = row.rg_ms;
  Rows().push_back(row);
}

BENCHMARK_CAPTURE(Compare, VN_M, std::string("VN"))
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(Compare, RWP_M, std::string("RWP"))
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Table 5 — GRAIL vs ReachGraph, memory (runtime) and disk (IO)",
      "(a) memory: comparable runtimes; (b) disk: ReachGraph wins 76-88%");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n(a) memory-resident runtime per query\n");
  std::printf("%-8s %12s %12s\n", "Dataset", "GRAIL (ms)", "RG (ms)");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %12.3f %12.3f\n", row.dataset.c_str(), row.grail_ms,
                row.rg_ms);
  }
  std::printf("\n(b) disk-resident IO count per query\n");
  std::printf("%-8s %12s %12s %14s\n", "Dataset", "GRAIL IO", "RG IO",
              "RG wins by");
  for (const auto& row : streach::bench::Rows()) {
    std::printf("%-8s %12.1f %12.1f %13.1f%%\n", row.dataset.c_str(),
                row.grail_io, row.rg_io,
                streach::bench::ImprovementPct(row.rg_io, row.grail_io));
  }
  return 0;
}
