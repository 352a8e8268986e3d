#ifndef STREACH_BENCH_BENCH_COMMON_H_
#define STREACH_BENCH_BENCH_COMMON_H_

// Shared helpers for the bench binaries: bench_paper (the paper's
// evaluation) and the six sweeps that write a BENCH_*.json each.
//
// Every binary prints a header identifying the experiment it runs and
// what the paper (or the design) reports, then its results.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/reachability_index.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/contact_network.h"

namespace streach {
namespace bench {

/// Prints the experiment banner: which table/figure of the paper this
/// binary regenerates and what the paper reports.
inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("stReach reproduction — %s\n", experiment.c_str());
  std::printf("Paper result: %s\n", paper_claim.c_str());
  std::printf("Simulated disk: 4 KB pages; IO normalized as random + seq/20\n");
  std::printf("================================================================\n");
}

/// Default worker count for the contact-extraction front end: every
/// available core, capped at 8 (the join saturates memory bandwidth well
/// before wide fan-out pays off). 1 on hosts that do not report a count.
inline int DefaultJoinThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, 8u));
}

/// Generates a dataset preset: `which` is "RWP", "VN" or "VNR" (whose
/// scale is ignored).
inline Dataset MakeDataset(const std::string& which, DatasetScale scale,
                           Timestamp duration) {
  Result<Dataset> dataset = which == "RWP" ? MakeRwpDataset(scale, duration)
                            : which == "VN" ? MakeVnDataset(scale, duration)
                                            : MakeVnrDataset(duration);
  STREACH_CHECK(dataset.ok());
  return std::move(dataset).ValueUnsafe();
}

/// Extracts `dataset`'s contact network on DefaultJoinThreads() workers
/// (the contact set is identical at every thread count).
inline std::unique_ptr<ContactNetwork> MakeNetwork(const Dataset& dataset) {
  JoinOptions join;
  join.threads = DefaultJoinThreads();
  return std::make_unique<ContactNetwork>(
      dataset.num_objects(), dataset.span(),
      ExtractContacts(dataset.store, dataset.contact_range, join));
}

/// A §6-style workload over `dataset`: `num_queries` random
/// (source, destination) pairs with intervals of
/// [min_interval, max_interval] ticks.
inline std::vector<ReachQuery> MakeWorkload(const Dataset& dataset,
                                            int num_queries,
                                            int min_interval = 150,
                                            int max_interval = 350,
                                            uint64_t seed = 4242) {
  WorkloadParams wl;
  wl.num_queries = num_queries;
  wl.num_objects = dataset.num_objects();
  wl.span = dataset.span();
  wl.min_interval_len = min_interval;
  wl.max_interval_len = max_interval;
  wl.seed = seed;
  return GenerateWorkload(wl);
}

/// A dataset with its derived contact network and a §6-style workload.
struct BenchEnv {
  Dataset dataset;
  std::unique_ptr<ContactNetwork> network;
  std::vector<ReachQuery> queries;
};

/// Builds and returns the environment for a dataset preset (see
/// MakeDataset, MakeNetwork and MakeWorkload).
inline BenchEnv MakeEnv(const std::string& which, DatasetScale scale,
                        Timestamp duration, int num_queries,
                        int min_interval = 150, int max_interval = 350,
                        bool build_network = true) {
  BenchEnv env{MakeDataset(which, scale, duration), nullptr, {}};
  if (build_network) env.network = MakeNetwork(env.dataset);
  if (num_queries > 0) {
    env.queries =
        MakeWorkload(env.dataset, num_queries, min_interval, max_interval);
  }
  return env;
}

/// Runs `queries` against any `ReachabilityIndex` backend through the
/// QueryEngine and returns the aggregated summary. `cold` clears the
/// session's buffer pool before every query — the paper's per-query IO
/// measurement protocol (each query starts with an empty buffer).
/// `io_queue_depth` > 1 turns on the batched async read path.
inline WorkloadSummary RunThroughEngine(
    ReachabilityIndex* backend, const std::vector<ReachQuery>& queries,
    bool cold = true, int threads = 1, int io_queue_depth = 1,
    PageCodecKind page_codec = PageCodecKind::kRaw) {
  QueryEngineOptions options;
  options.cold_cache = cold;
  options.num_threads = threads;
  options.io_queue_depth = io_queue_depth;
  options.page_codec = page_codec;
  auto report = QueryEngine(options).Run(backend, queries);
  STREACH_CHECK(report.ok());
  return report->summary;
}

}  // namespace bench
}  // namespace streach

#endif  // STREACH_BENCH_BENCH_COMMON_H_
