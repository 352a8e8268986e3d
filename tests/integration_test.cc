// End-to-end integration tests: every evaluator in the repository —
// brute force, ReachGrid, ReachGraph (BM-BFS/B-BFS/E-BFS/E-DFS), GRAIL
// (memory + disk), and SPJ — must return the same answer on the same
// query workload, across both dataset families, and the cost ordering
// the paper reports must hold qualitatively.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/backends.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace {

/// One session per evaluator over indexes built from the same dataset.
struct Stack {
  Dataset dataset;
  std::unique_ptr<ContactNetwork> network;
  std::unique_ptr<ReachabilityIndex> grid;
  std::unique_ptr<ReachabilityIndex> bm;  // ReachGraph, one per traversal.
  std::unique_ptr<ReachabilityIndex> bb;
  std::unique_ptr<ReachabilityIndex> eb;
  std::unique_ptr<ReachabilityIndex> ed;
  std::unique_ptr<ReachabilityIndex> grail_memory;
  std::unique_ptr<ReachabilityIndex> grail_disk;
  std::unique_ptr<ReachabilityIndex> spj;
  std::vector<ReachQuery> queries;
};

Stack BuildStack(Result<Dataset> dataset_result, double grid_cell,
                 int num_queries = 80, int min_interval = 30,
                 int max_interval = 180) {
  EXPECT_TRUE(dataset_result.ok());
  Stack s;
  s.dataset = std::move(dataset_result).ValueUnsafe();
  s.network = std::make_unique<ContactNetwork>(
      s.dataset.num_objects(), s.dataset.span(),
      ExtractContacts(s.dataset.store, s.dataset.contact_range));

  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 20;
  grid_options.spatial_cell_size = grid_cell;
  grid_options.contact_range = s.dataset.contact_range;
  auto grid = ReachGridIndex::Build(s.dataset.store, grid_options);
  EXPECT_TRUE(grid.ok());
  s.grid = MakeReachGridBackend(std::move(grid).ValueUnsafe());

  auto graph = ReachGraphIndex::Build(*s.network, ReachGraphOptions{});
  EXPECT_TRUE(graph.ok());
  const std::shared_ptr<const ReachGraphIndex> shared_graph =
      std::move(graph).ValueUnsafe();
  s.bm = MakeReachGraphBackend(shared_graph, ReachGraphTraversal::kBmBfs);
  s.bb = MakeReachGraphBackend(shared_graph, ReachGraphTraversal::kBBfs);
  s.eb = MakeReachGraphBackend(shared_graph, ReachGraphTraversal::kEBfs);
  s.ed = MakeReachGraphBackend(shared_graph, ReachGraphTraversal::kEDfs);

  auto dn = BuildDnGraph(*s.network);
  EXPECT_TRUE(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  EXPECT_TRUE(grail.ok());
  const std::shared_ptr<const GrailIndex> shared_grail =
      std::move(grail).ValueUnsafe();
  s.grail_memory = MakeGrailBackend(shared_grail, GrailMode::kMemory);
  s.grail_disk = MakeGrailBackend(shared_grail, GrailMode::kDisk);

  SpjOptions spj_options;
  spj_options.contact_range = s.dataset.contact_range;
  auto spj = SpjEvaluator::Build(s.dataset.store, spj_options);
  EXPECT_TRUE(spj.ok());
  s.spj = MakeSpjBackend(std::move(spj).ValueUnsafe());

  WorkloadParams wl;
  wl.num_queries = num_queries;
  wl.num_objects = s.dataset.num_objects();
  wl.span = s.dataset.span();
  wl.min_interval_len = min_interval;
  wl.max_interval_len = max_interval;
  wl.seed = 404;
  s.queries = GenerateWorkload(wl);
  return s;
}

void ExpectAllEvaluatorsAgree(Stack& s) {
  int reachable = 0;
  for (const ReachQuery& q : s.queries) {
    const bool expected =
        BruteForceReach(*s.network, q.source, q.destination, q.interval)
            .reachable;
    reachable += expected;
    auto grid = s.grid->Query(q);
    auto bm = s.bm->Query(q);
    auto bb = s.bb->Query(q);
    auto eb = s.eb->Query(q);
    auto ed = s.ed->Query(q);
    auto gm = s.grail_memory->Query(q);
    auto gd = s.grail_disk->Query(q);
    auto spj = s.spj->Query(q);
    ASSERT_TRUE(grid.ok() && bm.ok() && bb.ok() && eb.ok() && ed.ok() &&
                gm.ok() && gd.ok() && spj.ok());
    EXPECT_EQ(grid->reachable, expected) << "ReachGrid " << q.ToString();
    EXPECT_EQ(bm->reachable, expected) << "BM-BFS " << q.ToString();
    EXPECT_EQ(bb->reachable, expected) << "B-BFS " << q.ToString();
    EXPECT_EQ(eb->reachable, expected) << "E-BFS " << q.ToString();
    EXPECT_EQ(ed->reachable, expected) << "E-DFS " << q.ToString();
    EXPECT_EQ(gm->reachable, expected) << "GRAIL-mem " << q.ToString();
    EXPECT_EQ(gd->reachable, expected) << "GRAIL-disk " << q.ToString();
    EXPECT_EQ(spj->reachable, expected) << "SPJ " << q.ToString();
  }
  // The workload must exercise both outcomes.
  EXPECT_GT(reachable, 2);
  EXPECT_LT(reachable, static_cast<int>(s.queries.size()) - 2);
}

TEST(IntegrationTest, AllEvaluatorsAgreeOnRwp) {
  Stack s = BuildStack(MakeRwpDataset(DatasetScale::kSmall, 400), 1000.0);
  ExpectAllEvaluatorsAgree(s);
}

TEST(IntegrationTest, AllEvaluatorsAgreeOnVn) {
  Stack s = BuildStack(MakeVnDataset(DatasetScale::kSmall, 400), 1500.0);
  ExpectAllEvaluatorsAgree(s);
}

TEST(IntegrationTest, AllEvaluatorsAgreeOnVnr) {
  Stack s = BuildStack(MakeVnrDataset(300), 1500.0);
  ExpectAllEvaluatorsAgree(s);
}

TEST(IntegrationTest, ReachGridBeatsSpjOnIo) {
  // §6.1.2: ReachGrid outperforms SPJ (by >= 96% in the paper) because it
  // only constructs the necessary portion of the contact network.
  Stack s = BuildStack(MakeRwpDataset(DatasetScale::kSmall, 1000), 1000.0, 40,
                       150, 350);
  double grid_io = 0, spj_io = 0;
  for (const ReachQuery& q : s.queries) {
    s.grid->ClearCache();
    ASSERT_TRUE(s.grid->Query(q).ok());
    grid_io += s.grid->last_query_stats().io_cost;
    s.spj->ClearCache();
    ASSERT_TRUE(s.spj->Query(q).ok());
    spj_io += s.spj->last_query_stats().io_cost;
  }
  // The paper reports >= 96% at 20k-40k objects; the margin grows with
  // dataset size (see bench_spj_vs_reachgrid), so at this unit-test scale
  // we only assert the direction.
  EXPECT_LT(grid_io, spj_io) << "grid=" << grid_io << " spj=" << spj_io;
}

TEST(IntegrationTest, ReachGraphBeatsDiskGrailOnIo) {
  // Table 5b: ReachGraph's partitioned placement + early termination beat
  // GRAIL's generation-order placement on disk.
  Stack s = BuildStack(MakeRwpDataset(DatasetScale::kSmall, 1000), 1000.0, 40,
                       150, 350);
  double graph_io = 0, grail_io = 0;
  for (const ReachQuery& q : s.queries) {
    s.bm->ClearCache();
    ASSERT_TRUE(s.bm->Query(q).ok());
    graph_io += s.bm->last_query_stats().io_cost;
    s.grail_disk->ClearCache();
    ASSERT_TRUE(s.grail_disk->Query(q).ok());
    grail_io += s.grail_disk->last_query_stats().io_cost;
  }
  EXPECT_LT(graph_io, grail_io) << "graph=" << graph_io
                                << " grail=" << grail_io;
}

TEST(IntegrationTest, BmBfsBeatsEDfsOnIo) {
  // Figure 13: BM-BFS outperforms E-DFS (>80% in the paper) thanks to
  // long edges and early termination.
  Stack s = BuildStack(MakeRwpDataset(DatasetScale::kSmall, 1000), 1000.0, 40,
                       150, 350);
  double bm_io = 0, ed_io = 0;
  for (const ReachQuery& q : s.queries) {
    s.bm->ClearCache();
    ASSERT_TRUE(s.bm->Query(q).ok());
    bm_io += s.bm->last_query_stats().io_cost;
    s.ed->ClearCache();
    ASSERT_TRUE(s.ed->Query(q).ok());
    ed_io += s.ed->last_query_stats().io_cost;
  }
  EXPECT_LT(bm_io, ed_io) << "bm=" << bm_io << " edfs=" << ed_io;
}

TEST(IntegrationTest, GraphCpuBeatsGridCpu) {
  // Figure 15: ReachGraph's precomputation gives it much lower CPU time
  // than ReachGrid's on-the-fly joins.
  Stack s = BuildStack(MakeRwpDataset(DatasetScale::kSmall, 1000), 1000.0, 40,
                       150, 350);
  double grid_cpu = 0, graph_cpu = 0;
  for (const ReachQuery& q : s.queries) {
    ASSERT_TRUE(s.grid->Query(q).ok());
    grid_cpu += s.grid->last_query_stats().cpu_seconds;
    ASSERT_TRUE(s.bm->Query(q).ok());
    graph_cpu += s.bm->last_query_stats().cpu_seconds;
  }
  EXPECT_LT(graph_cpu, grid_cpu);
}

}  // namespace
}  // namespace streach
