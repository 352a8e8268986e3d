// Correctness tests for the ReachGraph index (§5): DN reduction
// invariants, long-edge augmentation, disk partitioning, and agreement of
// all four traversal algorithms with the brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "engine/backends.h"
#include "generators/datasets.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/augmenter.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/dn_graph.h"
#include "reachgraph/reach_graph_index.h"

namespace streach {
namespace {

ContactNetwork Figure1Network() {
  std::vector<Contact> contacts = {
      Contact(0, 1, TimeInterval(0, 0)),
      Contact(1, 3, TimeInterval(1, 1)),
      Contact(2, 3, TimeInterval(1, 2)),
      Contact(0, 1, TimeInterval(2, 3)),
  };
  return ContactNetwork(4, TimeInterval(0, 3), std::move(contacts));
}

ContactNetwork RandomRwpNetwork(uint64_t seed, int objects = 40,
                                Timestamp ticks = 160, double dt = 30.0) {
  RandomWaypointParams params;
  params.num_objects = objects;
  params.area = Rect(0, 0, 400, 400);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = ticks;
  params.seed = seed;
  auto store = GenerateRandomWaypoint(params);
  EXPECT_TRUE(store.ok());
  return ContactNetwork(store->num_objects(), store->span(),
                        ExtractContacts(*store, dt));
}

// ------------------------------------------------------------- DnBuilder

TEST(DnBuilderTest, Figure1Reduction) {
  auto dn = BuildDnGraph(Figure1Network());
  ASSERT_TRUE(dn.ok());
  // Every (object, tick) maps to exactly one vertex whose members contain
  // the object.
  for (ObjectId o = 0; o < 4; ++o) {
    for (Timestamp t = 0; t <= 3; ++t) {
      const VertexId v = dn->VertexOf(o, t);
      ASSERT_NE(v, kInvalidVertex);
      const DnVertex& vx = dn->vertex(v);
      EXPECT_TRUE(vx.span.Contains(t));
      EXPECT_TRUE(std::binary_search(vx.members.begin(), vx.members.end(), o));
    }
  }
  // At t=0 the components are {o0,o1}, {o2}, {o3}.
  const VertexId c01 = dn->VertexOf(0, 0);
  EXPECT_EQ(c01, dn->VertexOf(1, 0));
  EXPECT_NE(c01, dn->VertexOf(2, 0));
  EXPECT_NE(dn->VertexOf(2, 0), dn->VertexOf(3, 0));
  // At t=1: {o1,o2,o3} together (contacts o1-o3 and o2-o3), {o0} alone.
  const VertexId c123 = dn->VertexOf(1, 1);
  EXPECT_EQ(c123, dn->VertexOf(2, 1));
  EXPECT_EQ(c123, dn->VertexOf(3, 1));
  EXPECT_NE(c123, dn->VertexOf(0, 1));
}

TEST(DnBuilderTest, MergingCollapsesStableComponents) {
  // Two objects in permanent contact, one isolated: with merging the DAG
  // needs just 2 vertices; unmerged it needs 2 per tick.
  std::vector<Contact> contacts = {Contact(0, 1, TimeInterval(0, 9))};
  const ContactNetwork net(3, TimeInterval(0, 9), std::move(contacts));
  auto merged = BuildDnGraph(net);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_vertices(), 2u);
  EXPECT_EQ(merged->stats().num_edges, 0u);
  EXPECT_EQ(merged->stats().unmerged_vertices, 20u);

  DnBuilderOptions no_merge;
  no_merge.merge_identical_components = false;
  auto unmerged = BuildDnGraph(net, no_merge);
  ASSERT_TRUE(unmerged.ok());
  EXPECT_EQ(unmerged->num_vertices(), 20u);
}

TEST(DnBuilderTest, VertexIdsAreTopological) {
  const ContactNetwork net = RandomRwpNetwork(71, 30, 80);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  for (VertexId v = 0; v < dn->num_vertices(); ++v) {
    for (VertexId w : dn->vertex(v).out) {
      EXPECT_GT(w, v);
      // DN_1 edge arrives exactly one tick after the source span ends.
      EXPECT_EQ(dn->vertex(w).span.start, dn->vertex(v).span.end + 1);
    }
    for (VertexId u : dn->vertex(v).in) {
      EXPECT_LT(u, v);
    }
  }
}

TEST(DnBuilderTest, MembersPartitionObjectsPerTick) {
  const ContactNetwork net = RandomRwpNetwork(73, 25, 60);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  for (Timestamp t = 0; t < 60; ++t) {
    std::set<ObjectId> seen;
    std::set<VertexId> vertices;
    for (ObjectId o = 0; o < 25; ++o) {
      vertices.insert(dn->VertexOf(o, t));
    }
    for (VertexId v : vertices) {
      for (ObjectId o : dn->vertex(v).members) {
        EXPECT_TRUE(seen.insert(o).second)
            << "object in two components at t=" << t;
      }
    }
    EXPECT_EQ(seen.size(), 25u);
  }
}

TEST(DnBuilderTest, ReductionCountsMatchPaperDirection) {
  // DN must be significantly smaller than the unmerged component DAG,
  // which in turn is smaller than the TEN (§6.2.1.1).
  const ContactNetwork net = RandomRwpNetwork(79, 50, 200);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  const TenStats ten = net.ComputeTenStats();
  EXPECT_LT(dn->stats().num_vertices, dn->stats().unmerged_vertices);
  EXPECT_LT(dn->stats().unmerged_vertices, ten.num_vertices);
  EXPECT_LT(dn->stats().num_edges, ten.num_edges);
}

TEST(DnBuilderTest, DnPreservesReachabilityUnderMergeToggle) {
  // Vertex-level reachability in DN must be identical with and without
  // the merging step (the merge is lossless).
  const ContactNetwork net = RandomRwpNetwork(83, 25, 80);
  auto merged = BuildDnGraph(net);
  DnBuilderOptions no_merge_opts;
  no_merge_opts.merge_identical_components = false;
  auto plain = BuildDnGraph(net, no_merge_opts);
  ASSERT_TRUE(merged.ok() && plain.ok());
  // Compare through full queries on indexes built from each graph.
  ReachGraphOptions options;
  options.num_resolutions = 1;
  auto index_merged = ReachGraphIndex::BuildFromDn(std::move(*merged), options);
  auto index_plain = ReachGraphIndex::BuildFromDn(std::move(*plain), options);
  ASSERT_TRUE(index_merged.ok() && index_plain.ok());
  auto merged_session = MakeReachGraphBackend(std::move(*index_merged),
                                              ReachGraphTraversal::kBmBfs);
  auto plain_session = MakeReachGraphBackend(std::move(*index_plain),
                                             ReachGraphTraversal::kBmBfs);
  WorkloadParams wl;
  wl.num_queries = 80;
  wl.num_objects = 25;
  wl.span = TimeInterval(0, 79);
  wl.min_interval_len = 5;
  wl.max_interval_len = 60;
  wl.seed = 17;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    auto a = merged_session->Query(q);
    auto b = plain_session->Query(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->reachable, b->reachable) << q.ToString();
  }
}

// -------------------------------------------------------------- Augmenter

TEST(AugmenterTest, LongEdgesAreSoundAndAnchored) {
  const ContactNetwork net = RandomRwpNetwork(89, 30, 96);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 5;  // L up to 16.
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  EXPECT_GT(dn->stats().num_long_edges, 0u);
  for (VertexId v = 0; v < dn->num_vertices(); ++v) {
    const DnVertex& vx = dn->vertex(v);
    for (const LongEdge& e : vx.long_out) {
      // Anchor alignment and source/target liveness.
      EXPECT_EQ((e.anchor - net.span().start) % e.length, 0);
      EXPECT_TRUE(vx.span.Contains(e.anchor));
      EXPECT_TRUE(dn->vertex(e.target).span.Contains(
          static_cast<Timestamp>(e.anchor + e.length)));
      EXPECT_NE(e.target, v);
      // Soundness: some member of the target is brute-force reachable
      // from some member of the source over [anchor, anchor+L].
      const ObjectId src = vx.members.front();
      const auto closure = BruteForceClosure(
          net, src, TimeInterval(e.anchor, e.anchor + e.length));
      bool any = false;
      for (ObjectId o : dn->vertex(e.target).members) {
        any |= closure[o] != kInvalidTime;
      }
      EXPECT_TRUE(any) << "unsound long edge";
    }
  }
}

TEST(AugmenterTest, CompletenessAtResolutionBoundaries) {
  // For every pair of vertices u alive at ta, v alive at ta+L with v's
  // component brute-force reachable from u's, a long edge (or identity)
  // must exist. Checked on a small network for L = 4.
  const ContactNetwork net = RandomRwpNetwork(97, 15, 24);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 3;  // L = 2, 4.
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  const Timestamp L = 4;
  for (Timestamp ta = 0; ta + L <= net.span().end; ta += L) {
    for (ObjectId o = 0; o < 15; ++o) {
      const VertexId u = dn->VertexOf(o, ta);
      const auto closure = BruteForceClosure(net, o, TimeInterval(ta, ta + L));
      for (ObjectId p = 0; p < 15; ++p) {
        if (closure[p] == kInvalidTime) continue;
        const VertexId v = dn->VertexOf(p, ta + L);
        if (v == u) continue;  // Identity: staying put, no edge needed.
        bool found = false;
        for (const LongEdge& e : dn->vertex(u).long_out) {
          if (e.target == v && e.anchor == ta && e.length == L) {
            found = true;
            break;
          }
        }
        EXPECT_TRUE(found) << "missing long edge o" << o << "@" << ta
                           << " -> o" << p << "@" << ta + L;
      }
    }
  }
}

TEST(AugmenterTest, DegreeGrowsWithResolution) {
  // Table 4's qualitative shape: average degree increases with L.
  const ContactNetwork net = RandomRwpNetwork(101, 60, 256, 40.0);
  auto dn = BuildDnGraph(net);
  ASSERT_TRUE(dn.ok());
  AugmenterOptions options;
  options.num_resolutions = 6;
  ASSERT_TRUE(AugmentWithLongEdges(&*dn, options).ok());
  double prev = 0;
  int increases = 0;
  for (int32_t len : {2, 4, 8, 16, 32}) {
    const double deg = dn->AverageDegreeAtResolution(len);
    if (deg > prev) ++increases;
    prev = deg;
  }
  EXPECT_GE(increases, 4);
}

// --------------------------------------------------------- ReachGraphIndex

struct TraversalCase {
  const char* name;
  int num_resolutions;
};

class ReachGraphQueryTest : public ::testing::TestWithParam<int> {};

TEST_P(ReachGraphQueryTest, AllTraversalsMatchBruteForce) {
  const ContactNetwork net = RandomRwpNetwork(103, 40, 160);
  ReachGraphOptions options;
  options.num_resolutions = GetParam();
  options.partition_depth = 8;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  const std::shared_ptr<const ReachGraphIndex> shared = std::move(*index);
  auto bm_session = MakeReachGraphBackend(shared, ReachGraphTraversal::kBmBfs);
  auto bb_session = MakeReachGraphBackend(shared, ReachGraphTraversal::kBBfs);
  auto eb_session = MakeReachGraphBackend(shared, ReachGraphTraversal::kEBfs);
  auto ed_session = MakeReachGraphBackend(shared, ReachGraphTraversal::kEDfs);
  WorkloadParams wl;
  wl.num_queries = 150;
  wl.num_objects = 40;
  wl.span = net.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 150;
  wl.seed = 11;
  int reachable = 0;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(net, q.source, q.destination, q.interval).reachable;
    reachable += expected;
    auto bm = bm_session->Query(q);
    auto bb = bb_session->Query(q);
    auto eb = eb_session->Query(q);
    auto ed = ed_session->Query(q);
    ASSERT_TRUE(bm.ok() && bb.ok() && eb.ok() && ed.ok());
    EXPECT_EQ(bm->reachable, expected) << "BM-BFS " << q.ToString();
    EXPECT_EQ(bb->reachable, expected) << "B-BFS " << q.ToString();
    EXPECT_EQ(eb->reachable, expected) << "E-BFS " << q.ToString();
    EXPECT_EQ(ed->reachable, expected) << "E-DFS " << q.ToString();
  }
  EXPECT_GT(reachable, 10);
  EXPECT_LT(reachable, 140);
}

INSTANTIATE_TEST_SUITE_P(Resolutions, ReachGraphQueryTest,
                         ::testing::Values(1, 2, 4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "R" + std::to_string(info.param);
                         });

TEST(ReachGraphTest, Figure1Queries) {
  ReachGraphOptions options;
  options.num_resolutions = 2;
  auto index = ReachGraphIndex::Build(Figure1Network(), options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  EXPECT_TRUE(session->Query({0, 3, TimeInterval(0, 1)})->reachable);
  EXPECT_FALSE(session->Query({3, 0, TimeInterval(0, 1)})->reachable);
  EXPECT_TRUE(session->Query({0, 1, TimeInterval(2, 3)})->reachable);
  EXPECT_FALSE(session->Query({0, 3, TimeInterval(1, 3)})->reachable);
  EXPECT_TRUE(session->Query({2, 0, TimeInterval(1, 3)})->reachable);
}

TEST(ReachGraphTest, VnDatasetAgreement) {
  auto dataset = MakeVnDataset(DatasetScale::kSmall, 128);
  ASSERT_TRUE(dataset.ok());
  const ContactNetwork net(
      dataset->num_objects(), dataset->span(),
      ExtractContacts(dataset->store, dataset->contact_range));
  ReachGraphOptions options;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  WorkloadParams wl;
  wl.num_queries = 80;
  wl.num_objects = dataset->num_objects();
  wl.span = net.span();
  wl.min_interval_len = 10;
  wl.max_interval_len = 100;
  wl.seed = 13;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(net, q.source, q.destination, q.interval).reachable;
    auto bm = session->Query(q);
    ASSERT_TRUE(bm.ok());
    EXPECT_EQ(bm->reachable, expected) << q.ToString();
  }
}

TEST(ReachGraphTest, PartitionDepthSweepIsExact) {
  const ContactNetwork net = RandomRwpNetwork(107, 30, 100);
  WorkloadParams wl;
  wl.num_queries = 50;
  wl.num_objects = 30;
  wl.span = net.span();
  wl.min_interval_len = 10;
  wl.max_interval_len = 90;
  wl.seed = 19;
  const auto queries = GenerateWorkload(wl);
  for (int dp : {0, 1, 4, 32, 64}) {
    ReachGraphOptions options;
    options.partition_depth = dp;
    auto index = ReachGraphIndex::Build(net, options);
    ASSERT_TRUE(index.ok());
    auto session = MakeReachGraphBackend(std::move(*index),
                                         ReachGraphTraversal::kBmBfs);
    for (const ReachQuery& q : queries) {
      const bool expected =
          BruteForceReach(net, q.source, q.destination, q.interval).reachable;
      EXPECT_EQ(session->Query(q)->reachable, expected)
          << "dp=" << dp << " " << q.ToString();
    }
  }
}

TEST(ReachGraphTest, SelfAndDegenerateQueries) {
  const ContactNetwork net = Figure1Network();
  auto index = ReachGraphIndex::Build(net, ReachGraphOptions{});
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  EXPECT_TRUE(session->Query({2, 2, TimeInterval(0, 3)})->reachable);
  EXPECT_FALSE(session->Query({0, 1, TimeInterval(9, 5)})->reachable);
  EXPECT_FALSE(session->Query({0, 1, TimeInterval(50, 60)})->reachable);
  // Clamping.
  EXPECT_TRUE(session->Query({0, 3, TimeInterval(-5, 1)})->reachable);
}

TEST(ReachGraphTest, BuildStatsAndPartitions) {
  const ContactNetwork net = RandomRwpNetwork(109, 30, 120);
  ReachGraphOptions options;
  options.partition_depth = 16;
  auto index = ReachGraphIndex::Build(net, options);
  ASSERT_TRUE(index.ok());
  const auto& stats = (*index)->build_stats();
  EXPECT_GT(stats.dn.num_vertices, 0u);
  EXPECT_GT(stats.dn.num_edges, 0u);
  EXPECT_GT(stats.dn.num_long_edges, 0u);
  EXPECT_GT(stats.num_partitions, 0u);
  EXPECT_LE(stats.num_partitions, stats.dn.num_vertices);
  EXPECT_GT(stats.index_pages, 0u);
  EXPECT_EQ((*index)->num_vertices(), stats.dn.num_vertices);
}

TEST(ReachGraphTest, PartitionDepthTradeoffShape) {
  // Figure 12's qualitative shape: query IO falls from depth 0 to an
  // interior optimum, then rises sharply when partitions get so large
  // that fetching one drags in mostly redundant vertices. (The paper's
  // optimum is 32 at its scale; at this test's scale it sits near 16.)
  RandomWaypointParams params;
  params.num_objects = 200;
  params.area = Rect(0, 0, 1000, 1000);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = 600;
  params.seed = 113;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const ContactNetwork net(store->num_objects(), store->span(),
                           ExtractContacts(*store, 30.0));
  WorkloadParams wl;
  wl.num_queries = 30;
  wl.num_objects = 200;
  wl.span = net.span();
  wl.min_interval_len = 150;
  wl.max_interval_len = 350;
  wl.seed = 23;
  const auto queries = GenerateWorkload(wl);
  auto measure = [&](int dp) {
    ReachGraphOptions options;
    options.partition_depth = dp;
    auto index = ReachGraphIndex::Build(net, options);
    EXPECT_TRUE(index.ok());
    auto session = MakeReachGraphBackend(std::move(*index),
                                         ReachGraphTraversal::kBmBfs);
    double io = 0;
    for (const ReachQuery& q : queries) {
      session->ClearCache();
      EXPECT_TRUE(session->Query(q).ok());
      io += session->last_query_stats().io_cost;
    }
    return io / queries.size();
  };
  const double at_0 = measure(0);
  const double at_16 = measure(16);
  const double at_64 = measure(64);
  EXPECT_LT(at_16, at_0);   // Buffering future vertices pays off...
  EXPECT_LT(at_16, at_64);  // ...until partitions turn mostly redundant.
}

TEST(ReachGraphTest, QueryStatsTrackIo) {
  const ContactNetwork net = RandomRwpNetwork(127, 40, 160);
  auto index = ReachGraphIndex::Build(net, ReachGraphOptions{});
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  session->ClearCache();
  ASSERT_TRUE(session->Query({0, 20, TimeInterval(0, 150)}).ok());
  const QueryStats& stats = session->last_query_stats();
  EXPECT_GT(stats.io_cost, 0.0);
  EXPECT_GT(stats.pages_fetched, 0u);
}

}  // namespace
}  // namespace streach
