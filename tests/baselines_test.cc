// Correctness tests for the baselines: GRAIL (memory + disk) and SPJ.
// Every baseline must agree exactly with the brute-force oracle.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/backends.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"

namespace streach {
namespace {

struct Fixture {
  TrajectoryStore store;
  ContactNetwork network;
  std::vector<ReachQuery> queries;
};

Fixture MakeFixture(uint64_t seed, int objects = 40, Timestamp ticks = 160,
                    double dt = 30.0, int num_queries = 120) {
  RandomWaypointParams params;
  params.num_objects = objects;
  params.area = Rect(0, 0, 400, 400);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = ticks;
  params.seed = seed;
  auto store = GenerateRandomWaypoint(params);
  EXPECT_TRUE(store.ok());
  ContactNetwork network(store->num_objects(), store->span(),
                         ExtractContacts(*store, dt));
  WorkloadParams wl;
  wl.num_queries = num_queries;
  wl.num_objects = store->num_objects();
  wl.span = store->span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 150;
  wl.seed = seed + 1;
  return Fixture{std::move(*store), std::move(network), GenerateWorkload(wl)};
}

// ------------------------------------------------------------------ GRAIL

TEST(GrailTest, LabelsAdmitAllReachablePairs) {
  // GRAIL's core invariant: u reaches v => L_v contained in L_u for all
  // labelings, i.e. ReachableMemory never yields a false negative. (The
  // DFS makes the index exact; this test validates the label pruning.)
  const Fixture f = MakeFixture(211, 25, 60);
  auto dn = BuildDnGraph(f.network);
  ASSERT_TRUE(dn.ok());
  GrailOptions options;
  auto grail = GrailIndex::Build(*dn, options);
  ASSERT_TRUE(grail.ok());
  // Reference vertex-level reachability via DFS over DN out-edges.
  const size_t n = dn->num_vertices();
  for (VertexId u = 0; u < n; u += 7) {
    std::vector<bool> reach(n, false);
    std::vector<VertexId> stack{u};
    reach[u] = true;
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId w : dn->vertex(v).out) {
        if (!reach[w]) {
          reach[w] = true;
          stack.push_back(w);
        }
      }
    }
    for (VertexId v = 0; v < n; v += 5) {
      EXPECT_EQ((*grail)->ReachableMemory(u, v), static_cast<bool>(reach[v]))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(GrailTest, MemoryQueriesMatchBruteForce) {
  const Fixture f = MakeFixture(223);
  auto dn = BuildDnGraph(f.network);
  ASSERT_TRUE(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  ASSERT_TRUE(grail.ok());
  auto session = MakeGrailBackend(std::move(*grail), GrailMode::kMemory);
  for (const ReachQuery& q : f.queries) {
    const bool expected =
        BruteForceReach(f.network, q.source, q.destination, q.interval)
            .reachable;
    auto answer = session->Query(q);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->reachable, expected) << q.ToString();
  }
}

TEST(GrailTest, DiskQueriesMatchMemoryAndCountIo) {
  const Fixture f = MakeFixture(227);
  auto dn = BuildDnGraph(f.network);
  ASSERT_TRUE(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  ASSERT_TRUE(grail.ok());
  const std::shared_ptr<const GrailIndex> shared = std::move(*grail);
  auto memory = MakeGrailBackend(shared, GrailMode::kMemory);
  auto disk_session = MakeGrailBackend(shared, GrailMode::kDisk);
  bool any_io = false;
  for (const ReachQuery& q : f.queries) {
    auto mem = memory->Query(q);
    disk_session->ClearCache();
    auto disk = disk_session->Query(q);
    ASSERT_TRUE(mem.ok() && disk.ok());
    EXPECT_EQ(disk->reachable, mem->reachable) << q.ToString();
    any_io |= disk_session->last_query_stats().io_cost > 0;
  }
  EXPECT_TRUE(any_io);
}

TEST(GrailTest, FewerLabelingsStillExact) {
  // d only affects pruning power, never correctness.
  const Fixture f = MakeFixture(229, 30, 80, 30.0, 60);
  auto dn = BuildDnGraph(f.network);
  ASSERT_TRUE(dn.ok());
  for (int d : {1, 2, 8}) {
    GrailOptions options;
    options.num_labelings = d;
    auto grail = GrailIndex::Build(*dn, options);
    ASSERT_TRUE(grail.ok());
    auto session = MakeGrailBackend(std::move(*grail), GrailMode::kMemory);
    for (const ReachQuery& q : f.queries) {
      const bool expected =
          BruteForceReach(f.network, q.source, q.destination, q.interval)
              .reachable;
      EXPECT_EQ(session->Query(q)->reachable, expected)
          << "d=" << d << " " << q.ToString();
    }
  }
}

TEST(GrailTest, RejectsBadOptions) {
  const Fixture f = MakeFixture(233, 5, 10);
  auto dn = BuildDnGraph(f.network);
  ASSERT_TRUE(dn.ok());
  GrailOptions options;
  options.num_labelings = 0;
  EXPECT_FALSE(GrailIndex::Build(*dn, options).ok());
  options.num_labelings = 100;
  EXPECT_FALSE(GrailIndex::Build(*dn, options).ok());
}

// -------------------------------------------------------------------- SPJ

TEST(SpjTest, MatchesBruteForce) {
  const Fixture f = MakeFixture(239);
  SpjOptions options;
  options.contact_range = 30.0;
  auto spj = SpjEvaluator::Build(f.store, options);
  ASSERT_TRUE(spj.ok());
  auto session = MakeSpjBackend(std::move(*spj));
  for (const ReachQuery& q : f.queries) {
    const ReachAnswer expected =
        BruteForceReach(f.network, q.source, q.destination, q.interval);
    auto answer = session->Query(q);
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->reachable, expected.reachable) << q.ToString();
    if (expected.reachable) {
      EXPECT_EQ(answer->arrival_time, expected.arrival_time) << q.ToString();
    }
  }
}

TEST(SpjTest, IoProportionalToIntervalLength) {
  // SPJ has no IO-level pruning: it materializes every trajectory segment
  // overlapping the query interval before traversing (§6.1.2), so its IO
  // grows with the interval length regardless of the answer — which is
  // what makes ReachGrid's guided expansion win.
  const Fixture f = MakeFixture(241, 30, 400, 20.0, 0);
  SpjOptions options;
  options.contact_range = 20.0;
  auto spj = SpjEvaluator::Build(f.store, options);
  ASSERT_TRUE(spj.ok());
  auto session = MakeSpjBackend(std::move(*spj));
  session->ClearCache();
  ASSERT_TRUE(session->Query({0, 1, TimeInterval(0, 99)}).ok());
  const double io_short = session->last_query_stats().io_cost;
  session->ClearCache();
  ASSERT_TRUE(session->Query({0, 1, TimeInterval(0, 399)}).ok());
  const double io_long = session->last_query_stats().io_cost;
  EXPECT_GT(io_long, io_short * 2);
}

TEST(SpjTest, DegenerateQueries) {
  const Fixture f = MakeFixture(251, 10, 30);
  SpjOptions options;
  options.contact_range = 30.0;
  auto spj = SpjEvaluator::Build(f.store, options);
  ASSERT_TRUE(spj.ok());
  auto session = MakeSpjBackend(std::move(*spj));
  EXPECT_TRUE(session->Query({4, 4, TimeInterval(0, 10)})->reachable);
  EXPECT_FALSE(session->Query({0, 1, TimeInterval(50, 90)})->reachable);
  EXPECT_FALSE(session->Query({0, 1, TimeInterval(9, 2)})->reachable);
}

TEST(SpjTest, RejectsBadOptions) {
  TrajectoryStore empty;
  EXPECT_FALSE(SpjEvaluator::Build(empty, SpjOptions{}).ok());
  const Fixture f = MakeFixture(257, 5, 10);
  SpjOptions options;
  options.slab_ticks = 0;
  EXPECT_FALSE(SpjEvaluator::Build(f.store, options).ok());
}

}  // namespace
}  // namespace streach
