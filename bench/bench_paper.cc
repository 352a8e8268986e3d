// The paper's evaluation (arXiv:1205.6696, §6) as one scorecard: Tables 2,
// 4 and 5, Figures 8-15, the §6.1.2 SPJ comparison and three ablations.
//
//   bench_paper                 # all 15 experiments
//   bench_paper fig13 table5    # only the named ones
//
// Each experiment runs once and records one Cell per measured number. Its
// table prints from those cells, and BENCH_paper.json holds every cell
// plus one claim row per numeric bound an experiment's header states
// (contract: docs/BENCH_SCHEMA.md). Simulated IO, counts and sizes are
// exact, so `tools/validate_bench.py paper` compares them with
// bench/paper_baseline.json; wall-clock cells are only checked for > 0.
//
// The datasets keep the paper's spatial densities, sampling periods and
// contact ranges at 1/12.5 of its population (RWP-S/M/L = 800/1,600/3,200
// objects), so absolute sizes and margins are smaller than the paper's.
// Every query runs on one engine thread.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "bench_common.h"
#include "common/stopwatch.h"
#include "reachgraph/augmenter.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace bench {
namespace {

// ---------------------------------------------------------------- datasets

/// A generated dataset and, from its first use, its contact network.
struct Env {
  Dataset dataset;
  std::unique_ptr<ContactNetwork> network;

  const ContactNetwork& Network() {
    if (!network) network = MakeNetwork(dataset);
    return *network;
  }
};

/// The per-process cache, keyed by (family, scale, duration): every
/// experiment that names a dataset shares one copy of it and its network.
Env& GetEnv(const std::string& family, DatasetScale scale,
            Timestamp duration) {
  static std::map<std::tuple<std::string, DatasetScale, Timestamp>,
                  std::unique_ptr<Env>>
      cache;
  std::unique_ptr<Env>& env = cache[{family, scale, duration}];
  if (!env) {
    env = std::make_unique<Env>(
        Env{MakeDataset(family, scale, duration), nullptr});
  }
  return *env;
}

using Preset = std::pair<const char*, DatasetScale>;
constexpr DatasetScale kS = DatasetScale::kSmall;
constexpr DatasetScale kM = DatasetScale::kMedium;
constexpr DatasetScale kL = DatasetScale::kLarge;
const std::vector<Preset> kSixScales = {{"RWP", kS}, {"RWP", kM}, {"RWP", kL},
                                        {"VN", kS},  {"VN", kM},  {"VN", kL}};

/// ReachGrid's cell side at the paper's optimum for each family.
double GridCell(const std::string& family) {
  return family == "RWP" ? 1024.0 : 2500.0;
}

ReachGridOptions GridOptions(const Dataset& dataset, double cell,
                             int rt = 20) {
  ReachGridOptions options;
  options.temporal_resolution = rt;
  options.spatial_cell_size = cell;
  options.contact_range = dataset.contact_range;
  return options;
}

std::unique_ptr<ReachabilityIndex> GridSession(
    const Dataset& dataset, const ReachGridOptions& options) {
  auto index = ReachGridIndex::Build(dataset.store, options);
  STREACH_CHECK(index.ok());
  return MakeReachGridBackend(std::move(index).ValueUnsafe());
}

std::shared_ptr<const ReachGraphIndex> BuildGraph(
    const ContactNetwork& network, const ReachGraphOptions& options = {}) {
  auto index = ReachGraphIndex::Build(network, options);
  STREACH_CHECK(index.ok());
  return std::move(index).ValueUnsafe();
}

std::unique_ptr<ReachabilityIndex> BmBfs(
    std::shared_ptr<const ReachGraphIndex> index) {
  return MakeReachGraphBackend(std::move(index), ReachGraphTraversal::kBmBfs);
}

/// Mean simulated IO per query, each query on an empty buffer pool (the
/// paper's per-query protocol).
double MeanIo(ReachabilityIndex* backend,
              const std::vector<ReachQuery>& queries) {
  return RunThroughEngine(backend, queries).mean_io_cost();
}

/// Processing time per query, in ms, with warm caches.
double CpuMs(ReachabilityIndex* backend,
             const std::vector<ReachQuery>& queries) {
  return RunThroughEngine(backend, queries, /*cold=*/false)
             .total_cpu_seconds *
         1e3 / static_cast<double>(queries.size());
}

/// Percentage improvement of `ours` over `baseline` (positive = better).
double ImprovementPct(double ours, double baseline) {
  if (baseline <= 0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

std::string Setting(const char* name, int64_t value) {
  return std::string(name) + "=" + std::to_string(value);
}

// ------------------------------------------------------------------- cells

/// One measured number.
struct Cell {
  std::string experiment;
  std::string dataset;
  std::string setting;  // The sweep point or configuration; may be "".
  std::string metric;
  double value;
  int digits;  // Printed precision.
  bool exact;  // False for a wall-clock time.
};

/// The cells one experiment records, in print order.
class Cells {
 public:
  /// A count, size or simulated-IO value, or one derived from them.
  void Exact(const std::string& dataset, const std::string& setting,
             const std::string& metric, double value, int digits = 1) {
    cells_.push_back({"", dataset, setting, metric, value, digits, true});
  }
  /// A wall-clock time.
  void Timed(const std::string& dataset, const std::string& setting,
             const std::string& metric, double value, int digits) {
    cells_.push_back({"", dataset, setting, metric, value, digits, false});
  }
  std::vector<Cell> Take(const std::string& experiment) {
    for (Cell& cell : cells_) cell.experiment = experiment;
    return std::move(cells_);
  }

 private:
  std::vector<Cell> cells_;
};

// ------------------------------------------------------------- experiments

// Table 2 and the §6 dataset description. Paper: RWP10k/20k/40k =
// 190/380/760 GB, VN1k/2k/4k = 23/46/92 GB.
void Table2(Cells* out) {
  std::vector<Preset> presets = kSixScales;
  presets.push_back({"VNR", kM});
  for (const auto& [family, scale] : presets) {
    Env& env = GetEnv(family, scale, 2000);
    const Dataset& d = env.dataset;
    const auto objects = static_cast<double>(d.num_objects());
    const Rect extent = d.store.ComputeExtent();
    out->Exact(d.name, "", "objects", objects, 0);
    out->Exact(d.name, "", "ticks", static_cast<double>(d.span().length()), 0);
    out->Exact(d.name, "", "raw_MB",
               static_cast<double>(d.store.RawSizeBytes()) / 1e6);
    out->Exact(d.name, "", "contacts",
               static_cast<double>(env.Network().contacts().size()), 0);
    out->Exact(d.name, "", "obj_per_km2",
               objects / (extent.Area() / 1e6 + 1e-12));
  }
}

// Table 4. Paper (VN4k / RWP40k / VNR): DN_2 2.9/3.0/1.5, DN_4
// 6.1/8.1/1.7, DN_8 16.3/33.4/2.3, DN_16 55.5/75.6/3.69, DN_32
// 221.4/322/9.0.
void Table4(Cells* out) {
  for (const auto& [family, scale] :
       std::vector<Preset>{{"VN", kL}, {"RWP", kL}, {"VNR", kM}}) {
    Env& env = GetEnv(family, scale, 1000);
    auto dn = BuildDnGraph(env.Network());
    STREACH_CHECK(dn.ok());
    AugmenterOptions options;
    options.num_resolutions = 6;
    STREACH_CHECK_OK(AugmentWithLongEdges(&*dn, options));
    for (int32_t len : {2, 4, 8, 16, 32}) {
      out->Exact(env.dataset.name, "DN_" + std::to_string(len), "avg_degree",
                 dn->AverageDegreeAtResolution(len));
    }
  }
}

// Table 5, |Tp| = 300. Paper: (a) VN2k GRAIL 3.5 ms vs ReachGraph 9.0 ms,
// RWP20k 60 vs 39 ms; (b) VN2k 213 vs 49 IOs, RWP20k 6790 vs 570.
void Table5(Cells* out) {
  for (const char* family : {"VN", "RWP"}) {
    Env& env = GetEnv(family, kM, 1000);
    const auto queries = MakeWorkload(env.dataset, 50, 300, 300);
    auto rg = BmBfs(BuildGraph(env.Network()));
    auto dn = BuildDnGraph(env.Network());
    STREACH_CHECK(dn.ok());
    auto built = GrailIndex::Build(*dn, GrailOptions{});
    STREACH_CHECK(built.ok());
    std::shared_ptr<const GrailIndex> grail = std::move(built).ValueUnsafe();
    auto grail_memory = MakeGrailBackend(grail, GrailMode::kMemory);
    auto grail_disk = MakeGrailBackend(grail, GrailMode::kDisk);
    const std::string& name = env.dataset.name;
    // (a) memory-resident runtime; (b) disk-resident IO.
    out->Timed(name, "", "grail_ms", CpuMs(grail_memory.get(), queries), 3);
    out->Timed(name, "", "rg_ms", CpuMs(rg.get(), queries), 3);
    const double grail_io = MeanIo(grail_disk.get(), queries);
    const double rg_io = MeanIo(rg.get(), queries);
    out->Exact(name, "", "grail_io", grail_io);
    out->Exact(name, "", "rg_io", rg_io);
    out->Exact(name, "", "rg_wins_pct", ImprovementPct(rg_io, grail_io));
  }
}

// Figure 8: ReachGrid IO against (a) the spatial resolution RS at RT=20
// and (b) the temporal resolution RT at RS=1024 m, on RWP-S.
void Fig8(Cells* out) {
  Env& env = GetEnv("RWP", kS, 1000);
  const auto queries = MakeWorkload(env.dataset, 50);
  const std::string& name = env.dataset.name;
  for (int rs : {128, 256, 512, 1024, 2048, 4096}) {
    auto grid = GridSession(env.dataset, GridOptions(env.dataset, rs));
    out->Exact(name, "(a) " + Setting("RS", rs) + " RT=20", "avg_io",
               MeanIo(grid.get(), queries));
  }
  for (int rt : {5, 10, 20, 40, 80}) {
    auto grid = GridSession(env.dataset, GridOptions(env.dataset, 1024, rt));
    out->Exact(name, "(b) RS=1024 " + Setting("RT", rt), "avg_io",
               MeanIo(grid.get(), queries));
  }
}

// Figure 9: ReachGrid construction time and size against |T|.
void Fig9(Cells* out) {
  for (const auto& [family, scale] : kSixScales) {
    for (Timestamp duration : {500, 1000, 2000}) {
      Env& env = GetEnv(family, scale, duration);
      auto index = ReachGridIndex::Build(
          env.dataset.store, GridOptions(env.dataset, GridCell(family)));
      STREACH_CHECK(index.ok());
      const auto& stats = (*index)->build_stats();
      const std::string setting = Setting("|T|", duration);
      out->Timed(env.dataset.name, setting, "build_s", stats.build_seconds, 2);
      out->Exact(env.dataset.name, setting, "index_MB",
                 static_cast<double>(stats.index_bytes) / 1e6);
    }
  }
}

// Figure 10 and §6.2.1.1: DN size against |T|, and its reduction against
// the TEN. Paper: RWP40k reaches 10,545M vertices / 17,466M edges; the
// reduction is ~81%/80% (vertices/edges) on RWP and ~64%/61% on VN.
void Fig10(Cells* out) {
  const std::vector<std::pair<Preset, std::vector<Timestamp>>> sweeps = {
      {{"RWP", kS}, {250, 500, 1000, 2000}},
      {{"RWP", kM}, {250, 500, 1000, 2000}},
      {{"RWP", kL}, {250, 500, 1000}},
      {{"VN", kM}, {250, 500, 1000, 2000}}};
  for (const auto& [preset, durations] : sweeps) {
    for (Timestamp duration : durations) {
      Env& env = GetEnv(preset.first, preset.second, duration);
      auto dn = BuildDnGraph(env.Network());
      STREACH_CHECK(dn.ok());
      const TenStats ten = env.Network().ComputeTenStats();
      const auto v = static_cast<double>(dn->stats().num_vertices);
      const auto e = static_cast<double>(dn->stats().num_edges);
      const std::string setting = Setting("|T|", duration);
      out->Exact(env.dataset.name, setting, "dn_V", v, 0);
      out->Exact(env.dataset.name, setting, "dn_E", e, 0);
      out->Exact(env.dataset.name, setting, "V_red_pct",
                 100.0 * (1.0 - v / static_cast<double>(ten.num_vertices)));
      out->Exact(env.dataset.name, setting, "E_red_pct",
                 100.0 * (1.0 - e / static_cast<double>(ten.num_edges)));
    }
  }
}

// Figure 11: contact network construction time against |T| — the
// per-tick trajectory self-join, then the TEN -> DN reduction.
void Fig11(Cells* out) {
  for (const auto& [family, scale] : kSixScales) {
    for (Timestamp duration : {500, 1000, 2000}) {
      const Dataset& d = GetEnv(family, scale, duration).dataset;
      Stopwatch watch;
      auto contacts = ExtractContacts(d.store, d.contact_range);
      const double join_s = watch.ElapsedSeconds();
      ContactNetwork network(d.num_objects(), d.span(), std::move(contacts));
      watch.Restart();
      STREACH_CHECK(BuildDnGraph(network).ok());
      const double reduction_s = watch.ElapsedSeconds();
      const std::string setting = Setting("|T|", duration);
      out->Timed(d.name, setting, "join_s", join_s, 2);
      out->Timed(d.name, setting, "reduction_s", reduction_s, 2);
      out->Timed(d.name, setting, "total_s", join_s + reduction_s, 2);
    }
  }
}

// Figure 12: ReachGraph IO against the partitioning depth dp.
void Fig12(Cells* out) {
  for (const char* family : {"RWP", "VN"}) {
    Env& env = GetEnv(family, kM, 1000);
    const auto queries = MakeWorkload(env.dataset, 40);
    auto dn = BuildDnGraph(env.Network());
    STREACH_CHECK(dn.ok());
    AugmenterOptions augment;
    augment.num_resolutions = 6;
    STREACH_CHECK_OK(AugmentWithLongEdges(&*dn, augment));
    for (int dp : {1, 2, 4, 8, 16, 32, 64}) {
      ReachGraphOptions options;
      options.partition_depth = dp;
      auto built = ReachGraphIndex::BuildFromDn(*dn, options);
      STREACH_CHECK(built.ok());
      std::shared_ptr<const ReachGraphIndex> index =
          std::move(built).ValueUnsafe();
      auto session = BmBfs(index);
      out->Exact(env.dataset.name, Setting("dp", dp), "avg_io",
                 MeanIo(session.get(), queries));
      out->Exact(env.dataset.name, Setting("dp", dp), "partitions",
                 static_cast<double>(index->num_partitions()), 0);
    }
  }
}

// Figure 13: ReachGraph IO under its three traversals — BM-BFS
// (bidirectional multi-resolution), B-BFS (bidirectional) and E-DFS.
void Fig13(Cells* out) {
  for (const char* family : {"RWP", "VN"}) {
    Env& env = GetEnv(family, kM, 1000);
    const auto queries = MakeWorkload(env.dataset, 50);
    auto index = BuildGraph(env.Network());
    auto io = [&](ReachGraphTraversal traversal) {
      auto session = MakeReachGraphBackend(index, traversal);
      return MeanIo(session.get(), queries);
    };
    const double bm = io(ReachGraphTraversal::kBmBfs);
    const double bb = io(ReachGraphTraversal::kBBfs);
    const double edfs = io(ReachGraphTraversal::kEDfs);
    const std::string& name = env.dataset.name;
    out->Exact(name, "", "bm_bfs_io", bm);
    out->Exact(name, "", "b_bfs_io", bb);
    out->Exact(name, "", "e_dfs_io", edfs);
    out->Exact(name, "", "bm_vs_e_dfs_pct", ImprovementPct(bm, edfs));
    out->Exact(name, "", "bm_vs_b_bfs_pct", ImprovementPct(bm, bb));
  }
}

// Figure 14: ReachGrid vs ReachGraph (BM-BFS) IO at |Tp| of 100, 300 and
// 500 ticks.
void Fig14(Cells* out) {
  for (const char* family : {"RWP", "VN"}) {
    Env& env = GetEnv(family, kM, 1000);
    auto grid =
        GridSession(env.dataset, GridOptions(env.dataset, GridCell(family)));
    auto graph = BmBfs(BuildGraph(env.Network()));
    for (int tp : {100, 300, 500}) {
      const auto queries = MakeWorkload(env.dataset, 40, tp, tp, 777);
      const double grid_io = MeanIo(grid.get(), queries);
      const double graph_io = MeanIo(graph.get(), queries);
      const std::string setting = Setting("|Tp|", tp);
      out->Exact(env.dataset.name, setting, "grid_io", grid_io);
      out->Exact(env.dataset.name, setting, "graph_io", graph_io);
      out->Exact(env.dataset.name, setting, "graph_wins_pct",
                 ImprovementPct(graph_io, grid_io));
    }
  }
}

// Figure 15: processing time per query (no simulated disk transfer), one
// warm run per (dataset, index).
void Fig15(Cells* out) {
  for (const char* family : {"RWP", "VN"}) {
    Env& env = GetEnv(family, kM, 1000);
    const auto queries = MakeWorkload(env.dataset, 40);
    auto grid =
        GridSession(env.dataset, GridOptions(env.dataset, GridCell(family)));
    auto graph = BmBfs(BuildGraph(env.Network()));
    out->Timed(env.dataset.name, "ReachGrid", "cpu_ms_per_query",
               CpuMs(grid.get(), queries), 3);
    out->Timed(env.dataset.name, "ReachGraph", "cpu_ms_per_query",
               CpuMs(graph.get(), queries), 3);
  }
}

// §6.1.2: ReachGrid against SPJ, the evaluator that scans every
// trajectory in the window, self-joins it and traverses the result.
void Spj(Cells* out) {
  for (const char* family : {"RWP", "VN"}) {
    Env& env = GetEnv(family, kM, 1000);
    const auto queries = MakeWorkload(env.dataset, 50);
    auto grid =
        GridSession(env.dataset, GridOptions(env.dataset, GridCell(family)));
    SpjOptions options;
    options.contact_range = env.dataset.contact_range;
    auto built = SpjEvaluator::Build(env.dataset.store, options);
    STREACH_CHECK(built.ok());
    auto spj = MakeSpjBackend(std::move(built).ValueUnsafe());
    const double grid_io = MeanIo(grid.get(), queries);
    const double spj_io = MeanIo(spj.get(), queries);
    out->Exact(env.dataset.name, "", "grid_io", grid_io);
    out->Exact(env.dataset.name, "", "spj_io", spj_io);
    out->Exact(env.dataset.name, "", "improvement_pct",
               ImprovementPct(grid_io, spj_io));
  }
}

// Ablation: both indexes' IO against the buffer-pool capacity, RWP-M.
void AblationBufferPool(Cells* out) {
  Env& env = GetEnv("RWP", kM, 1000);
  const auto queries = MakeWorkload(env.dataset, 40);
  const std::vector<size_t> pools = {8, 32, 128, 512};
  for (size_t pool : pools) {
    ReachGraphOptions options;
    options.buffer_pool_pages = pool;
    auto graph = BmBfs(BuildGraph(env.Network(), options));
    out->Exact(env.dataset.name, Setting("ReachGraph pool", pool), "avg_io",
               MeanIo(graph.get(), queries));
  }
  for (size_t pool : pools) {
    ReachGridOptions options = GridOptions(env.dataset, 1024);
    options.buffer_pool_pages = pool;
    auto grid = GridSession(env.dataset, options);
    out->Exact(env.dataset.name, Setting("ReachGrid pool", pool), "avg_io",
               MeanIo(grid.get(), queries));
  }
}

// Ablation (§5.1.2.1, step 2): what merging runs of identical connected
// components buys, RWP-M.
void AblationMerging(Cells* out) {
  Env& env = GetEnv("RWP", kM, 1000);
  const auto queries = MakeWorkload(env.dataset, 40);
  for (bool merging : {true, false}) {
    ReachGraphOptions options;
    options.merge_identical_components = merging;
    auto index = BuildGraph(env.Network(), options);
    const auto& stats = index->build_stats();
    auto session = BmBfs(index);
    const std::string setting = merging ? "merged (paper)" : "unmerged";
    out->Exact(env.dataset.name, setting, "dn_V",
               static_cast<double>(stats.dn.num_vertices), 0);
    out->Exact(env.dataset.name, setting, "dn_E",
               static_cast<double>(stats.dn.num_edges), 0);
    out->Exact(env.dataset.name, setting, "pages",
               static_cast<double>(stats.index_pages), 0);
    out->Exact(env.dataset.name, setting, "avg_io",
               MeanIo(session.get(), queries));
  }
}

// Ablation (§6.2.1.4): IO against the number of HN resolutions (1 = DN_1
// only .. 7 = up to DN_64), RWP-M. Paper: the optimum is 6.
void AblationResolutions(Cells* out) {
  Env& env = GetEnv("RWP", kM, 1000);
  const auto queries = MakeWorkload(env.dataset, 40);
  for (int resolutions = 1; resolutions <= 7; ++resolutions) {
    ReachGraphOptions options;
    options.num_resolutions = resolutions;
    auto index = BuildGraph(env.Network(), options);
    const auto& stats = index->build_stats();
    auto session = BmBfs(index);
    const std::string setting = Setting("resolutions", resolutions);
    out->Exact(env.dataset.name, setting, "long_edges",
               static_cast<double>(stats.dn.num_long_edges), 0);
    out->Exact(env.dataset.name, setting, "pages",
               static_cast<double>(stats.index_pages), 0);
    out->Exact(env.dataset.name, setting, "avg_io",
               MeanIo(session.get(), queries));
  }
}

// ---------------------------------------------------------------- registry

/// A numeric bound a header states, checked on every cell of `metric`.
struct Bound {
  std::string metric;
  std::string comparison;  // ">" or ">=".
  double bound;

  bool Holds(double measured) const {
    return comparison == ">" ? measured > bound : measured >= bound;
  }
};

struct Experiment {
  std::string id;
  std::string title;
  std::string paper;  // The paper's result, as the header prints it.
  std::vector<Bound> bounds;
  void (*measure)(Cells*);
};

const std::vector<Experiment>& Registry() {
  static const std::vector<Experiment> experiments = {
      {"table2", "Table 2 — data collection sizes",
       "RWP 190/380/760 GB, VN 23/46/92 GB (2x per scale step)", {}, Table2},
      {"table4", "Table 4 — average vertex degree of DN_i per resolution",
       "degree grows with L (up to 221/322/9 at DN_32); VNR much sparser",
       {}, Table4},
      {"table5",
       "Table 5 — GRAIL vs ReachGraph, memory (runtime) and disk (IO)",
       "(a) memory: comparable runtimes; (b) disk: ReachGraph wins 76-88%",
       {{"rg_wins_pct", ">=", 76}}, Table5},
      {"fig8", "Figure 8 — ReachGrid resolution optimization (RWP)",
       "U-shaped IO curves; optimum RS=1024 m, RT=20 for RWP", {}, Fig8},
      {"fig9", "Figure 9 — ReachGrid construction time vs |T| (RWP & VN)",
       "time grows with object count and |T| (roughly linearly)", {}, Fig9},
      {"fig10",
       "Figure 10 + §6.2.1.1 — DN size vs |T|, and reduction vs the TEN",
       "V/E grow with |T| and |O|; reduction ~81%/80% (RWP), ~64%/61% (VN)",
       {}, Fig10},
      {"fig11", "Figure 11 — contact network (DN) construction time vs |T|",
       "grows with |O| and |T|; join dominates, reduction is one pass", {},
       Fig11},
      {"fig12", "Figure 12 — query IO vs partition depth dp (RWP-M, VN-M)",
       "U-shaped curve with an interior optimum (paper: dp=32 at 20k "
       "objects)",
       {}, Fig12},
      {"fig13", "Figure 13 — BM-BFS vs B-BFS vs E-DFS query IO (RWP-M, VN-M)",
       "BM-BFS beats E-DFS by >80% and B-BFS by >=15%",
       {{"bm_vs_e_dfs_pct", ">", 80}, {"bm_vs_b_bfs_pct", ">=", 15}}, Fig13},
      {"fig14",
       "Figure 14 — ReachGrid vs ReachGraph IO, |Tp| in {100, 300, 500}",
       "comparable at small |Tp|; ReachGraph pulls ahead as |Tp| grows, "
       "especially on VN (~63%)",
       {}, Fig14},
      {"fig15", "Figure 15 — CPU time, ReachGrid vs ReachGraph (RWP-M, VN-M)",
       "ReachGraph's precomputation gives far lower CPU time per query", {},
       Fig15},
      {"spj", "§6.1.2 — ReachGrid vs SPJ (naive scan-join-traverse)",
       "ReachGrid >= 96% fewer IOs at 10k-40k objects; margin grows with "
       "size",
       {{"improvement_pct", ">=", 96}}, Spj},
      {"ablation_bufferpool",
       "Ablation — buffer-pool capacity sensitivity (RWP-M)",
       "graceful degradation; modest pools suffice for the placement win",
       {}, AblationBufferPool},
      {"ablation_merging",
       "Ablation — reduction step 2 (aggregated-edge merging), RWP-M",
       "merging shrinks DN drastically and cuts query IO", {},
       AblationMerging},
      {"ablation_resolutions",
       "Ablation — number of HN resolutions (§6.2.1.4), RWP-M",
       "IO falls with added resolutions, then flattens/rises (optimum ~6)",
       {}, AblationResolutions},
  };
  return experiments;
}

// ----------------------------------------------------------- table + JSON

/// One bound checked on one cell.
struct Claim {
  Cell cell;
  Bound bound;
};

/// Prints an experiment's table: one row per (dataset, setting) and one
/// column per metric, both in recording order.
void PrintTable(const std::vector<Cell>& cells) {
  std::vector<std::pair<std::string, std::string>> rows;
  std::vector<std::string> metrics;
  std::map<std::tuple<std::string, std::string, std::string>, const Cell*>
      by_key;
  size_t setting_width = 7;
  for (const Cell& cell : cells) {
    const std::pair<std::string, std::string> row(cell.dataset, cell.setting);
    if (std::find(rows.begin(), rows.end(), row) == rows.end()) {
      rows.push_back(row);
    }
    if (std::find(metrics.begin(), metrics.end(), cell.metric) ==
        metrics.end()) {
      metrics.push_back(cell.metric);
    }
    by_key[{cell.dataset, cell.setting, cell.metric}] = &cell;
    setting_width = std::max(setting_width, cell.setting.size());
  }
  const int sw = static_cast<int>(setting_width);
  std::printf("\n%-8s %-*s", "dataset", sw, "setting");
  for (const std::string& metric : metrics) {
    std::printf(" %*s", std::max(10, static_cast<int>(metric.size())),
                metric.c_str());
  }
  std::printf("\n");
  for (const auto& [dataset, setting] : rows) {
    std::printf("%-8s %-*s", dataset.c_str(), sw,
                setting.empty() ? "-" : setting.c_str());
    for (const std::string& metric : metrics) {
      const int width = std::max(10, static_cast<int>(metric.size()));
      const auto it = by_key.find({dataset, setting, metric});
      if (it == by_key.end()) {
        std::printf(" %*s", width, "");
      } else {
        std::printf(" %*.*f", width, it->second->digits, it->second->value);
      }
    }
    std::printf("\n");
  }
}

void PrintClaim(const Claim& claim) {
  const Cell& cell = claim.cell;
  const Bound& bound = claim.bound;
  std::printf("claim: %-8s %-16s %8.1f %-2s %g  %s\n", cell.dataset.c_str(),
              cell.metric.c_str(), cell.value, bound.comparison.c_str(),
              bound.bound, bound.Holds(cell.value) ? "holds" : "MISSES");
}

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  STREACH_CHECK(std::isfinite(value));
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string CellKey(const Cell& cell) {
  return "\"experiment\": " + Quoted(cell.experiment) +
         ", \"dataset\": " + Quoted(cell.dataset) +
         ", \"setting\": " + Quoted(cell.setting) +
         ", \"metric\": " + Quoted(cell.metric);
}

void WriteJson(const char* path, const std::vector<const Experiment*>& ran,
               const std::vector<Cell>& cells,
               const std::vector<Claim>& claims) {
  std::FILE* f = std::fopen(path, "w");
  STREACH_CHECK(f != nullptr);
  std::fprintf(f, "{\n  \"experiments\": [");
  for (size_t i = 0; i < ran.size(); ++i) {
    std::fprintf(f, "%s\n    {\"id\": %s, \"title\": %s, \"paper\": %s}",
                 i == 0 ? "" : ",", Quoted(ran[i]->id).c_str(),
                 Quoted(ran[i]->title).c_str(),
                 Quoted(ran[i]->paper).c_str());
  }
  std::fprintf(f, "\n  ],\n  \"cells\": [");
  for (size_t i = 0; i < cells.size(); ++i) {
    std::fprintf(f, "%s\n    {%s, \"value\": %s, \"exact\": %s}",
                 i == 0 ? "" : ",", CellKey(cells[i]).c_str(),
                 Number(cells[i].value).c_str(),
                 cells[i].exact ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n  \"claims\": [");
  for (size_t i = 0; i < claims.size(); ++i) {
    const Cell& cell = claims[i].cell;
    const Bound& bound = claims[i].bound;
    std::fprintf(f,
                 "%s\n    {%s, \"measured\": %s, \"comparison\": %s, "
                 "\"bound\": %s, \"holds\": %s}",
                 i == 0 ? "" : ",", CellKey(cell).c_str(),
                 Number(cell.value).c_str(), Quoted(bound.comparison).c_str(),
                 Number(bound.bound).c_str(),
                 bound.Holds(cell.value) ? "true" : "false");
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
}

/// Runs the experiments named on the command line (all of them when none
/// is), each once and in registry order, then writes BENCH_paper.json.
int Main(int argc, char** argv) {
  const std::vector<Experiment>& registry = Registry();
  const std::set<std::string> wanted(argv + 1, argv + argc);
  for (const std::string& id : wanted) {
    if (std::none_of(registry.begin(), registry.end(),
                     [&](const Experiment& e) { return e.id == id; })) {
      std::fprintf(stderr, "unknown experiment '%s'; the ids are:",
                   id.c_str());
      for (const Experiment& e : registry) {
        std::fprintf(stderr, " %s", e.id.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  std::vector<const Experiment*> ran;
  std::vector<Cell> cells;
  std::vector<Claim> claims;
  for (const Experiment& e : registry) {
    if (!wanted.empty() && wanted.count(e.id) == 0) continue;
    PrintHeader(e.title, e.paper);
    Cells recorder;
    e.measure(&recorder);
    const std::vector<Cell> table = recorder.Take(e.id);
    PrintTable(table);
    for (const Bound& bound : e.bounds) {
      for (const Cell& cell : table) {
        if (cell.metric != bound.metric) continue;
        claims.push_back({cell, bound});
        PrintClaim(claims.back());
      }
    }
    ran.push_back(&e);
    cells.insert(cells.end(), table.begin(), table.end());
  }
  WriteJson("BENCH_paper.json", ran, cells, claims);
  std::printf("\nWrote BENCH_paper.json (%zu cells, %zu claims)\n",
              cells.size(), claims.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace streach

int main(int argc, char** argv) { return streach::bench::Main(argc, argv); }
