// Correctness tests for the ReachGrid index (§4): agreement with the
// brute-force oracle across datasets, resolutions, and query shapes, plus
// disk-layout and early-termination behavior.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/backends.h"
#include "generators/datasets.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace {

struct GridCase {
  int temporal_resolution;
  double spatial_cell_size;
};

/// Parameterized over (RT, RS) combinations: ReachGrid must be exact at
/// every resolution; resolution only affects cost.
class ReachGridResolutionTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(ReachGridResolutionTest, MatchesBruteForceOnRwp) {
  RandomWaypointParams params;
  params.num_objects = 40;
  params.area = Rect(0, 0, 400, 400);
  params.min_speed = 5;
  params.max_speed = 15;
  params.duration = 160;
  params.seed = 1001;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const double dt = 30.0;

  ReachGridOptions options;
  options.temporal_resolution = GetParam().temporal_resolution;
  options.spatial_cell_size = GetParam().spatial_cell_size;
  options.contact_range = dt;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));

  const ContactNetwork network(store->num_objects(), store->span(),
                               ExtractContacts(*store, dt));
  WorkloadParams wl;
  wl.num_queries = 120;
  wl.num_objects = store->num_objects();
  wl.span = store->span();
  wl.min_interval_len = 10;
  wl.max_interval_len = 120;
  wl.seed = 5;
  int reachable = 0;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const ReachAnswer expected =
        BruteForceReach(network, q.source, q.destination, q.interval);
    auto actual = session->Query(q);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(actual->reachable, expected.reachable) << q.ToString();
    if (expected.reachable) {
      ++reachable;
      EXPECT_EQ(actual->arrival_time, expected.arrival_time) << q.ToString();
    }
  }
  // The workload must exercise both outcomes to be meaningful.
  EXPECT_GT(reachable, 5);
  EXPECT_LT(reachable, 115);
}

INSTANTIATE_TEST_SUITE_P(
    Resolutions, ReachGridResolutionTest,
    ::testing::Values(GridCase{5, 50}, GridCase{20, 50}, GridCase{20, 100},
                      GridCase{40, 200}, GridCase{80, 400}, GridCase{1, 25}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      return "Rt" + std::to_string(info.param.temporal_resolution) + "Rs" +
             std::to_string(
                 static_cast<int>(info.param.spatial_cell_size));
    });

TEST(ReachGridTest, MatchesBruteForceOnVn) {
  auto dataset = MakeVnDataset(DatasetScale::kSmall, 160);
  ASSERT_TRUE(dataset.ok());
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 1000;
  options.contact_range = dataset->contact_range;
  auto index = ReachGridIndex::Build(dataset->store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  const ContactNetwork network(
      dataset->num_objects(), dataset->span(),
      ExtractContacts(dataset->store, dataset->contact_range));
  WorkloadParams wl;
  wl.num_queries = 60;
  wl.num_objects = dataset->num_objects();
  wl.span = dataset->span();
  wl.min_interval_len = 20;
  wl.max_interval_len = 100;
  wl.seed = 6;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const ReachAnswer expected =
        BruteForceReach(network, q.source, q.destination, q.interval);
    auto actual = session->Query(q);
    ASSERT_TRUE(actual.ok());
    EXPECT_EQ(actual->reachable, expected.reachable) << q.ToString();
  }
}

TEST(ReachGridTest, SelfAndDegenerateQueries) {
  RandomWaypointParams params;
  params.num_objects = 10;
  params.duration = 50;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  ReachGridOptions options;
  options.temporal_resolution = 10;
  options.spatial_cell_size = 200;
  options.contact_range = 20;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));

  // Self query.
  auto self = session->Query({3, 3, TimeInterval(5, 15)});
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->reachable);
  EXPECT_EQ(self->arrival_time, 5);
  // Interval outside the span.
  auto outside = session->Query({0, 1, TimeInterval(100, 200)});
  ASSERT_TRUE(outside.ok());
  EXPECT_FALSE(outside->reachable);
  // Empty interval.
  auto empty = session->Query({0, 1, TimeInterval(10, 5)});
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->reachable);
  // Interval partially overlapping the span is clamped.
  auto clamped = session->Query({2, 2, TimeInterval(-10, 3)});
  ASSERT_TRUE(clamped.ok());
  EXPECT_TRUE(clamped->reachable);
  EXPECT_EQ(clamped->arrival_time, 0);
}

TEST(ReachGridTest, SingleTickInterval) {
  RandomWaypointParams params;
  params.num_objects = 30;
  params.area = Rect(0, 0, 200, 200);
  params.duration = 40;
  params.seed = 9;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const double dt = 40.0;
  ReachGridOptions options;
  options.temporal_resolution = 8;
  options.spatial_cell_size = 60;
  options.contact_range = dt;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  const ContactNetwork network(store->num_objects(), store->span(),
                               ExtractContacts(*store, dt));
  for (Timestamp t = 0; t < 40; t += 7) {
    for (ObjectId a = 0; a < 30; a += 5) {
      for (ObjectId b = 1; b < 30; b += 7) {
        if (a == b) continue;
        const ReachQuery q{a, b, TimeInterval(t, t)};
        auto actual = session->Query(q);
        ASSERT_TRUE(actual.ok());
        EXPECT_EQ(actual->reachable,
                  BruteForceReach(network, a, b, q.interval).reachable)
            << q.ToString();
      }
    }
  }
}

TEST(ReachGridTest, ReachableSetMatchesBruteForceClosure) {
  RandomWaypointParams params;
  params.num_objects = 35;
  params.area = Rect(0, 0, 300, 300);
  params.duration = 100;
  params.seed = 21;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const double dt = 30.0;
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 80;
  options.contact_range = dt;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  const ContactNetwork network(store->num_objects(), store->span(),
                               ExtractContacts(*store, dt));
  const TimeInterval interval(10, 80);
  for (ObjectId src = 0; src < 35; src += 6) {
    auto got = session->ReachableSet(src, interval);
    ASSERT_TRUE(got.ok());
    const auto expected = BruteForceClosure(network, src, interval);
    EXPECT_EQ(*got, expected) << "src=" << src;
  }
}

TEST(ReachGridTest, EarlyTerminationReadsLessThanFullInterval) {
  // A pair that meets early in a long query interval: the index must stop
  // fetching once the destination is reached (T'p << Tp of §4).
  RandomWaypointParams params;
  params.num_objects = 60;
  params.area = Rect(0, 0, 300, 300);
  params.duration = 400;
  params.seed = 30;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const double dt = 50.0;
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 100;
  options.contact_range = dt;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  const ContactNetwork network(store->num_objects(), store->span(),
                               ExtractContacts(*store, dt));
  // Find a pair reachable within the first 40 ticks.
  ObjectId src = kInvalidObject, dst = kInvalidObject;
  for (ObjectId a = 0; a < 60 && src == kInvalidObject; ++a) {
    const auto closure = BruteForceClosure(network, a, TimeInterval(0, 399));
    for (ObjectId b = 0; b < 60; ++b) {
      if (b != a && closure[b] != kInvalidTime && closure[b] < 40) {
        src = a;
        dst = b;
        break;
      }
    }
  }
  ASSERT_NE(src, kInvalidObject) << "dataset too sparse for the test";

  session->ClearCache();
  auto short_q = session->Query({src, dst, TimeInterval(0, 49)});
  ASSERT_TRUE(short_q.ok());
  ASSERT_TRUE(short_q->reachable);
  const double io_short = session->last_query_stats().io_cost;

  session->ClearCache();
  auto long_q = session->Query({src, dst, TimeInterval(0, 399)});
  ASSERT_TRUE(long_q.ok());
  ASSERT_TRUE(long_q->reachable);
  const double io_long = session->last_query_stats().io_cost;
  EXPECT_EQ(long_q->arrival_time, short_q->arrival_time);

  // The 8x longer interval must not cost anywhere near 8x the IO.
  EXPECT_LT(io_long, io_short * 3 + 10);
}

TEST(ReachGridTest, BuildRejectsBadOptions) {
  RandomWaypointParams params;
  params.num_objects = 3;
  params.duration = 10;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  ReachGridOptions options;
  options.temporal_resolution = 0;
  EXPECT_FALSE(ReachGridIndex::Build(*store, options).ok());
  options.temporal_resolution = 10;
  options.spatial_cell_size = -5;
  EXPECT_FALSE(ReachGridIndex::Build(*store, options).ok());
  TrajectoryStore empty;
  EXPECT_FALSE(ReachGridIndex::Build(empty, ReachGridOptions{}).ok());
}

TEST(ReachGridTest, BuildStatsPopulated) {
  RandomWaypointParams params;
  params.num_objects = 20;
  params.duration = 60;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  ReachGridOptions options;
  options.temporal_resolution = 15;
  options.spatial_cell_size = 150;
  options.contact_range = 25;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  const auto& stats = (*index)->build_stats();
  EXPECT_EQ(stats.num_buckets, 4u);
  EXPECT_GT(stats.num_nonempty_cells, 0u);
  EXPECT_GT(stats.index_pages, 0u);
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_EQ((*index)->num_buckets(), 4);
  EXPECT_EQ((*index)->BucketInterval(0), TimeInterval(0, 14));
  EXPECT_EQ((*index)->BucketInterval(3), TimeInterval(45, 59));
}

TEST(ReachGridTest, QueryStatsTrackIo) {
  RandomWaypointParams params;
  params.num_objects = 30;
  params.area = Rect(0, 0, 200, 200);
  params.duration = 100;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 50;
  options.contact_range = 30;
  auto index = ReachGridIndex::Build(*store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  session->ClearCache();
  ASSERT_TRUE(session->Query({0, 1, TimeInterval(0, 99)}).ok());
  const QueryStats& stats = session->last_query_stats();
  EXPECT_GT(stats.io_cost, 0.0);
  EXPECT_GT(stats.pages_fetched, 0u);
  EXPECT_GE(stats.cpu_seconds, 0.0);
  // A repeated warm query costs less IO than the cold one.
  const double cold = stats.io_cost;
  ASSERT_TRUE(session->Query({0, 1, TimeInterval(0, 99)}).ok());
  EXPECT_LE(session->last_query_stats().io_cost, cold);
}

}  // namespace
}  // namespace streach
