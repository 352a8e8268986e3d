// Engine scaling sweep: throughput of the disk-resident backends under
// num_threads x num_shards x io_queue_depth x page_codec, through the
// concurrent QueryEngine — plus the closure-side batch_sources axis
// (multi-source shared-frontier closure). The closure cells run
// RunClosures over a fixed seed set: the batch_sources axis charts the
// read dedup of evaluating many seeds in one sweep (reads_per_source
// drops as the batch grows; answers never change).
//
// Not a paper experiment — this charts the perf trajectory of the
// production engine: per-thread buffer-pool sessions over a shared
// immutable index (PR 1), the sharded storage topology (PR 2), the
// batched async read path (PR 3), the parallel batched-write build
// path (PR 4 — indexes here are built with one worker per shard and
// deep write queues; each row carries its index's build wall time and
// write profile), and the compressed page codec (PR 5 — the codec axis
// contrasts the raw on-disk format against delta-varint records, whose
// build-side compression ratio and query-side read counts each row
// reports). Each cell runs the same warm workload; results land in
// BENCH_engine_scaling.json for trend tracking — docs/BENCH_SCHEMA.md
// documents every field. Thread
// scaling is wall-clock: on a single-core host the threads axis is flat
// (the workload is compute-bound once the simulated disk is in memory) —
// run on a multi-core box to see the parallel speedup. The depth axis is
// about the simulated IO cost model: at depth 8 the per-shard submission
// queues overlap and reorder a step's reads (mean_inflight > 1), which
// is what the `inflight` column certifies.
//
// Set STREACH_BENCH_TINY=1 to run a reduced dataset/workload — the CI
// bench-smoke configuration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>
#include <utility>

#include "bench_common.h"
#include "baselines/spj.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/page_codec.h"

namespace streach {
namespace bench {
namespace {

bool TinyMode() {
  const char* tiny = std::getenv("STREACH_BENCH_TINY");
  return tiny != nullptr && tiny[0] != '\0' && tiny[0] != '0';
}

BenchEnv& Env() {
  static BenchEnv env = TinyMode()
                            ? MakeEnv("RWP", DatasetScale::kSmall,
                                      /*duration=*/300, /*num_queries=*/60,
                                      /*min_interval=*/50,
                                      /*max_interval=*/150)
                            : MakeEnv("RWP", DatasetScale::kMedium,
                                      /*duration=*/1000, /*num_queries=*/400,
                                      /*min_interval=*/100,
                                      /*max_interval=*/300);
  return env;
}

/// Construction-side metrics of one (backend, shards) index build: wall
/// time plus the write profile of the batched build path the indexes are
/// built with here (deep write queues, one worker per shard).
struct BuildProfile {
  double seconds = 0.0;
  uint64_t pages_written = 0;
  uint64_t batched_writes = 0;
  double mean_write_inflight = 0.0;
  // Codec profile of the build: stored vs raw record bytes.
  uint64_t encoded_bytes = 0;
  uint64_t decoded_bytes = 0;
  double compression_ratio = 1.0;
};
/// Keyed by (backend, shards, codec) — the index a cell queries.
using BuildKey = std::tuple<std::string, int, int>;
std::map<BuildKey, BuildProfile>& BuildProfiles() {
  static std::map<BuildKey, BuildProfile> profiles;
  return profiles;
}

BuildProfile ProfileOf(double seconds, const std::vector<IoStats>& build_io) {
  BuildProfile profile;
  profile.seconds = seconds;
  IoStats total;
  for (const IoStats& shard : build_io) total += shard;
  profile.pages_written = total.total_writes();
  profile.batched_writes = total.batched_writes;
  profile.mean_write_inflight = total.mean_write_inflight();
  profile.encoded_bytes = total.encoded_bytes;
  profile.decoded_bytes = total.decoded_bytes;
  profile.compression_ratio = total.compression_ratio();
  return profile;
}

PageCodecKind CodecOf(int axis) {
  return axis == 0 ? PageCodecKind::kRaw : PageCodecKind::kDeltaVarint;
}

/// Builds here exercise the write-side queue model: one build worker per
/// shard, 8 pages in flight per shard write queue. The on-disk images
/// (and all answers) are identical to the synchronous defaults.
BuildOptions BenchBuildOptions(int codec) {
  BuildOptions build;
  build.build_workers = 0;
  build.write_queue_depth = 8;
  build.page_codec = CodecOf(codec);
  return build;
}

std::shared_ptr<const ReachGridIndex> GridIndex(int shards, int codec) {
  static std::map<std::pair<int, int>,
                  std::shared_ptr<const ReachGridIndex>> cache;
  auto it = cache.find({shards, codec});
  if (it == cache.end()) {
    ReachGridOptions options;
    options.temporal_resolution = 20;
    options.spatial_cell_size = 1024.0;
    options.contact_range = Env().dataset.contact_range;
    options.num_shards = shards;
    options.build = BenchBuildOptions(codec);
    auto index = ReachGridIndex::Build(Env().dataset.store, options);
    STREACH_CHECK(index.ok());
    it = cache.emplace(std::make_pair(shards, codec),
                       std::move(index).ValueUnsafe()).first;
    BuildProfiles()[{"ReachGrid", shards, codec}] =
        ProfileOf(it->second->build_stats().build_seconds,
                  it->second->build_io_stats());
  }
  return it->second;
}

std::shared_ptr<const ReachGraphIndex> GraphIndex(int shards, int codec) {
  static std::map<std::pair<int, int>,
                  std::shared_ptr<const ReachGraphIndex>> cache;
  auto it = cache.find({shards, codec});
  if (it == cache.end()) {
    ReachGraphOptions options;
    options.num_shards = shards;
    options.build = BenchBuildOptions(codec);
    auto index = ReachGraphIndex::Build(*Env().network, options);
    STREACH_CHECK(index.ok());
    it = cache.emplace(std::make_pair(shards, codec),
                       std::move(index).ValueUnsafe()).first;
    const ReachGraphBuildStats& stats = it->second->build_stats();
    BuildProfiles()[{"ReachGraph(BM-BFS)", shards, codec}] =
        ProfileOf(stats.reduction_seconds + stats.augmentation_seconds +
                      stats.placement_seconds,
                  it->second->build_io_stats());
  }
  return it->second;
}

std::shared_ptr<const SpjEvaluator> SpjIndex(int shards, int codec) {
  static std::map<std::pair<int, int>,
                  std::shared_ptr<const SpjEvaluator>> cache;
  auto it = cache.find({shards, codec});
  if (it == cache.end()) {
    SpjOptions options;
    options.contact_range = Env().dataset.contact_range;
    options.num_shards = shards;
    options.build = BenchBuildOptions(codec);
    auto spj = SpjEvaluator::Build(Env().dataset.store, options);
    STREACH_CHECK(spj.ok());
    it = cache.emplace(std::make_pair(shards, codec),
                       std::move(spj).ValueUnsafe()).first;
    BuildProfiles()[{"SPJ(scan-join)", shards, codec}] =
        ProfileOf(it->second->build_seconds(), it->second->build_io_stats());
  }
  return it->second;
}

struct Row {
  std::string backend;
  int threads;
  int shards;
  int depth;
  std::string codec;
  // Closure axis (1 on the point-query cells): seeds per shared-frontier
  // batch.
  int batch_sources;
  double qps;
  double mean_io;
  uint64_t total_reads;
  // total_reads amortized over the workload's queries (sources, for the
  // closure cells) — the dedup metric the batch_sources axis moves.
  double reads_per_source;
  double p95_us;
  double p99_us;
  double pool_hit_rate;
  double mean_inflight;
  uint64_t batched_reads;
  // Construction-side metrics of the (backend, shards, codec) index this
  // cell queried — identical across the cell's threads/depth settings.
  BuildProfile build;
};
std::vector<Row>& Rows() {
  static std::vector<Row> rows;
  return rows;
}

void RunCell(benchmark::State& state, const std::string& name,
             std::unique_ptr<ReachabilityIndex> backend) {
  const int threads = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const int depth = static_cast<int>(state.range(2));
  const int codec = static_cast<int>(state.range(3));
  WorkloadSummary summary;
  for (auto _ : state) {
    // Warm cache: the scaling story is parallel serving over a shared
    // immutable index, not the paper's cold per-query IO protocol.
    summary = RunThroughEngine(backend.get(), Env().queries, /*cold=*/false,
                               threads, depth, CodecOf(codec));
  }
  state.counters["qps"] = summary.queries_per_second;
  state.counters["io_per_query"] = summary.mean_io_cost();
  state.counters["p99_us"] = summary.p99_latency * 1e6;
  state.counters["inflight"] = summary.mean_inflight_requests();
  const double per_source =
      summary.num_queries == 0
          ? 0.0
          : static_cast<double>(summary.total_pages_fetched) /
                static_cast<double>(summary.num_queries);
  Rows().push_back({name, threads, shards, depth,
                    ToString(CodecOf(codec)), /*batch_sources=*/1,
                    summary.queries_per_second, summary.mean_io_cost(),
                    summary.total_pages_fetched, per_source,
                    summary.p95_latency * 1e6, summary.p99_latency * 1e6,
                    summary.pool_hit_rate(),
                    summary.mean_inflight_requests(),
                    summary.total_batched_reads(),
                    BuildProfiles()[{name, shards, codec}]});
}

/// The closure workload: a fixed, deterministic seed set spread across
/// the population, traced over the first quarter of the span.
std::vector<ObjectId> ClosureSources() {
  const size_t num_objects = Env().dataset.num_objects();
  const size_t stride = std::max<size_t>(1, num_objects / 16);
  std::vector<ObjectId> sources;
  for (size_t i = 0; i < 16 && i * stride < num_objects; ++i) {
    sources.push_back(static_cast<ObjectId>(i * stride));
  }
  return sources;
}

TimeInterval ClosureWindow() {
  const TimeInterval span = Env().dataset.span();
  return TimeInterval(span.start, span.start + span.length() / 4);
}

/// One closure cell: RunClosures over the fixed seeds, cold per batch.
/// `built_as` names the BuildProfiles entry of the underlying index (the
/// closure cells query the same indexes the point cells do).
void RunClosureCell(benchmark::State& state, const std::string& name,
                    const std::string& built_as,
                    std::unique_ptr<ReachabilityIndex> backend) {
  const int shards = static_cast<int>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const int codec = static_cast<int>(state.range(2));
  BuildProfiles()[{name, shards, codec}] =
      BuildProfiles()[{built_as, shards, codec}];
  QueryEngineOptions options;
  options.num_threads = 1;
  options.cold_cache = true;  // Dedup WITHIN a batch is the whole story.
  options.page_codec = CodecOf(codec);
  options.batch_sources = batch;
  const QueryEngine engine(options);
  const std::vector<ObjectId> sources = ClosureSources();
  WorkloadSummary summary;
  for (auto _ : state) {
    auto report =
        engine.RunClosures(backend.get(), sources, ClosureWindow());
    STREACH_CHECK(report.ok() && report->summary.failed_queries == 0);
    summary = std::move(report->summary);
  }
  const double per_source =
      static_cast<double>(summary.total_pages_fetched) /
      static_cast<double>(sources.size());
  state.counters["closures_per_sec"] = summary.queries_per_second;
  state.counters["reads_per_source"] = per_source;
  Rows().push_back({name, /*threads=*/1, shards, /*depth=*/1,
                    ToString(CodecOf(codec)), batch,
                    summary.queries_per_second, summary.mean_io_cost(),
                    summary.total_pages_fetched, per_source,
                    summary.p95_latency * 1e6, summary.p99_latency * 1e6,
                    summary.pool_hit_rate(),
                    summary.mean_inflight_requests(),
                    summary.total_batched_reads(),
                    BuildProfiles()[{name, shards, codec}]});
}

void GridScaling(benchmark::State& state) {
  RunCell(state, "ReachGrid",
          MakeReachGridBackend(GridIndex(static_cast<int>(state.range(1)),
                                         static_cast<int>(state.range(3)))));
}

void GraphScaling(benchmark::State& state) {
  RunCell(state, "ReachGraph(BM-BFS)",
          MakeReachGraphBackend(GraphIndex(static_cast<int>(state.range(1)),
                                           static_cast<int>(state.range(3))),
                                ReachGraphTraversal::kBmBfs));
}

void SpjScaling(benchmark::State& state) {
  RunCell(state, "SPJ(scan-join)",
          MakeSpjBackend(SpjIndex(static_cast<int>(state.range(1)),
                                  static_cast<int>(state.range(3)))));
}

BENCHMARK(GridScaling)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2, 4}, {1, 8}, {0, 1}})
    ->ArgNames({"threads", "shards", "depth", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(GraphScaling)
    ->ArgsProduct({{1, 2, 4, 8}, {1, 2, 4}, {1, 8}, {0, 1}})
    ->ArgNames({"threads", "shards", "depth", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// SPJ scans every overlapping slab per query, so its sweep is smaller:
// the codec story (compressed slabs -> strictly fewer reads) needs only
// a thread/shard corner, not the full grid.
BENCHMARK(SpjScaling)
    ->ArgsProduct({{1, 4}, {1, 4}, {1, 8}, {0, 1}})
    ->ArgNames({"threads", "shards", "depth", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// ---- Closure cells: the batch_sources axis.

void GridMultiSource(benchmark::State& state) {
  RunClosureCell(
      state, "ReachGrid(multi-source)", "ReachGrid",
      MakeReachGridBackend(GridIndex(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(2)))));
}

void GraphMultiSource(benchmark::State& state) {
  RunClosureCell(
      state, "ReachGraph(multi-source)", "ReachGraph(BM-BFS)",
      MakeReachGraphBackend(GraphIndex(static_cast<int>(state.range(0)),
                                       static_cast<int>(state.range(2))),
                            ReachGraphTraversal::kBmBfs));
}

void SpjMultiSource(benchmark::State& state) {
  RunClosureCell(
      state, "SPJ(multi-source)", "SPJ(scan-join)",
      MakeSpjBackend(SpjIndex(static_cast<int>(state.range(0)),
                              static_cast<int>(state.range(2)))));
}

// Multi-source read dedup: one thread, growing shared-frontier batches.
BENCHMARK(GridMultiSource)
    ->ArgsProduct({{1}, {1, 2, 4, 8}, {0}})
    ->ArgNames({"shards", "batch", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(GraphMultiSource)
    ->ArgsProduct({{1}, {1, 2, 4, 8}, {0}})
    ->ArgNames({"shards", "batch", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(SpjMultiSource)
    ->ArgsProduct({{1}, {1, 2, 4, 8}, {0}})
    ->ArgNames({"shards", "batch", "codec"})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void WriteJson(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  const auto& rows = Rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "  {\"backend\": \"%s\", \"threads\": %d, \"shards\": %d, "
        "\"depth\": %d, \"codec\": \"%s\", "
        "\"batch_sources\": %d, \"qps\": %.1f, "
        "\"io_per_query\": %.2f, \"total_reads\": %llu, "
        "\"reads_per_source\": %.2f, "
        "\"p95_us\": %.1f, \"p99_us\": %.1f, \"pool_hit_rate\": %.4f, "
        "\"mean_inflight\": %.3f, \"batched_reads\": %llu, "
        "\"build_seconds\": %.6f, \"build_pages_written\": %llu, "
        "\"build_batched_writes\": %llu, "
        "\"build_mean_write_inflight\": %.3f, "
        "\"encoded_bytes\": %llu, \"decoded_bytes\": %llu, "
        "\"compression_ratio\": %.3f}%s\n",
        r.backend.c_str(), r.threads, r.shards, r.depth, r.codec.c_str(),
        r.batch_sources, r.qps, r.mean_io,
        static_cast<unsigned long long>(r.total_reads),
        r.reads_per_source,
        r.p95_us, r.p99_us, r.pool_hit_rate, r.mean_inflight,
        static_cast<unsigned long long>(r.batched_reads),
        r.build.seconds,
        static_cast<unsigned long long>(r.build.pages_written),
        static_cast<unsigned long long>(r.build.batched_writes),
        r.build.mean_write_inflight,
        static_cast<unsigned long long>(r.build.encoded_bytes),
        static_cast<unsigned long long>(r.build.decoded_bytes),
        r.build.compression_ratio,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace

void PrintScalingTable() {
  std::printf(
      "\n%-24s %8s %7s %6s %-13s %6s %10s %12s %10s %10s %9s %8s\n",
      "Backend", "Threads", "Shards", "Depth", "Codec", "batch",
      "q/s", "io/query", "p99(us)", "hit-rate", "inflight", "reads/src");
  double best_multi = 0, best_single = 0;
  for (const Row& r : Rows()) {
    std::printf(
        "%-24s %8d %7d %6d %-13s %6d %10.0f %12.2f %10.0f %9.1f%% "
        "%9.2f %9.2f\n",
        r.backend.c_str(), r.threads, r.shards, r.depth, r.codec.c_str(),
        r.batch_sources, r.qps, r.mean_io, r.p99_us, 100.0 * r.pool_hit_rate,
        r.mean_inflight, r.reads_per_source);
    if (r.batch_sources > 1) continue;
    if (r.threads == 1) {
      if (r.qps > best_single) best_single = r.qps;
    } else if (r.qps > best_multi) {
      best_multi = r.qps;
    }
  }
  if (best_single > 0) {
    std::printf("\nBest multi-thread over best single-thread: %.2fx\n",
                best_multi / best_single);
  }
  std::printf("\nIndex builds (one worker per shard, write queue depth 8):\n");
  for (const auto& [key, build] : BuildProfiles()) {
    std::printf(
        "  %-20s shards=%d codec=%-13s %8.2f ms, %6llu pages, "
        "%6llu batched, write inflight %.2f, compression %.2fx\n",
        std::get<0>(key).c_str(), std::get<1>(key),
        ToString(CodecOf(std::get<2>(key))), build.seconds * 1e3,
        static_cast<unsigned long long>(build.pages_written),
        static_cast<unsigned long long>(build.batched_writes),
        build.mean_write_inflight, build.compression_ratio);
  }
  WriteJson("BENCH_engine_scaling.json");
  std::printf("Wrote BENCH_engine_scaling.json (%zu cells)\n", Rows().size());
}

}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) {
  streach::bench::PrintHeader(
      "Engine scaling — throughput under num_threads x num_shards x "
      "io_queue_depth x page_codec",
      "(beyond the paper) multi-thread throughput exceeds single-thread "
      "for the disk-resident backends; depth-8 submission queues overlap "
      "per-shard reads (mean inflight > 1); delta-varint records "
      "compress >1.5x and strictly cut page reads");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  streach::bench::PrintScalingTable();
  return 0;
}
