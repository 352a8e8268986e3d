// Disk-format stress tests: both indexes must stay exact under unusual
// page sizes (blobs straddling many tiny pages), and deserialization must
// fail cleanly (Status::Corruption) on damaged bytes — never crash or
// fabricate answers.

#include <gtest/gtest.h>

#include <string>

#include "common/encoding.h"
#include "engine/backends.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {
namespace {

struct PageCase {
  size_t page_size;
  size_t pool_pages;
};

class PageSizeSweepTest : public ::testing::TestWithParam<PageCase> {
 protected:
  static TrajectoryStore MakeStore() {
    RandomWaypointParams params;
    params.num_objects = 30;
    params.area = Rect(0, 0, 300, 300);
    params.min_speed = 5;
    params.max_speed = 15;
    params.duration = 120;
    params.seed = 777;
    auto store = GenerateRandomWaypoint(params);
    EXPECT_TRUE(store.ok());
    return std::move(store).ValueUnsafe();
  }
};

TEST_P(PageSizeSweepTest, ReachGridExactAtAnyPageSize) {
  const TrajectoryStore store = MakeStore();
  const double dt = 30.0;
  ReachGridOptions options;
  options.temporal_resolution = 10;
  options.spatial_cell_size = 100;
  options.contact_range = dt;
  options.page_size = GetParam().page_size;
  options.buffer_pool_pages = GetParam().pool_pages;
  auto index = ReachGridIndex::Build(store, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGridBackend(std::move(*index));
  const ContactNetwork network(store.num_objects(), store.span(),
                               ExtractContacts(store, dt));
  WorkloadParams wl;
  wl.num_queries = 60;
  wl.num_objects = store.num_objects();
  wl.span = store.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 100;
  wl.seed = 9;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(network, q.source, q.destination, q.interval)
            .reachable;
    auto got = session->Query(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->reachable, expected)
        << q.ToString() << " page_size=" << GetParam().page_size;
  }
}

TEST_P(PageSizeSweepTest, ReachGraphExactAtAnyPageSize) {
  const TrajectoryStore store = MakeStore();
  const double dt = 30.0;
  const ContactNetwork network(store.num_objects(), store.span(),
                               ExtractContacts(store, dt));
  ReachGraphOptions options;
  options.page_size = GetParam().page_size;
  options.buffer_pool_pages = GetParam().pool_pages;
  auto index = ReachGraphIndex::Build(network, options);
  ASSERT_TRUE(index.ok());
  auto session = MakeReachGraphBackend(std::move(*index),
                                       ReachGraphTraversal::kBmBfs);
  WorkloadParams wl;
  wl.num_queries = 60;
  wl.num_objects = store.num_objects();
  wl.span = store.span();
  wl.min_interval_len = 5;
  wl.max_interval_len = 100;
  wl.seed = 10;
  for (const ReachQuery& q : GenerateWorkload(wl)) {
    const bool expected =
        BruteForceReach(network, q.source, q.destination, q.interval)
            .reachable;
    auto got = session->Query(q);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->reachable, expected)
        << q.ToString() << " page_size=" << GetParam().page_size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageSizes, PageSizeSweepTest,
    ::testing::Values(PageCase{64, 512}, PageCase{256, 128},
                      PageCase{1024, 32}, PageCase{4096, 8},
                      PageCase{16384, 4}),
    [](const ::testing::TestParamInfo<PageCase>& info) {
      return "Page" + std::to_string(info.param.page_size) + "Pool" +
             std::to_string(info.param.pool_pages);
    });

// ------------------------------------------------------ corruption paths

TEST(CorruptionTest, DecoderRejectsGarbageGracefully) {
  // Decoding random bytes as structured records must never crash and must
  // surface Corruption for truncations.
  Rng rng(12345);
  for (int round = 0; round < 200; ++round) {
    std::string garbage;
    const size_t len = rng.Uniform(64);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Decoder dec(garbage);
    // Attempt a plausible record parse; all outcomes must be clean.
    auto count = dec.GetVarint();
    if (!count.ok()) continue;
    for (uint64_t i = 0; i < *count && i < 100; ++i) {
      auto a = dec.GetU32();
      if (!a.ok()) break;
      auto b = dec.GetI32();
      if (!b.ok()) break;
      auto c = dec.GetDouble();
      if (!c.ok()) break;
    }
  }
  SUCCEED();
}

TEST(CorruptionTest, StringLengthBeyondBufferDetected) {
  Encoder enc;
  enc.PutVarint(1000000);  // Claims a million bytes follow.
  enc.PutU8('x');
  Decoder dec(enc.buffer());
  EXPECT_TRUE(dec.GetString().status().IsCorruption());
}

TEST(CorruptionTest, DecoderPositionTracksConsumption) {
  Encoder enc;
  enc.PutU32(7);
  enc.PutVarint(300);
  enc.PutString("ab");
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.position(), 0u);
  ASSERT_TRUE(dec.GetU32().ok());
  EXPECT_EQ(dec.position(), 4u);
  ASSERT_TRUE(dec.GetVarint().ok());
  EXPECT_EQ(dec.position(), 6u);  // 300 takes 2 varint bytes.
  ASSERT_TRUE(dec.GetString().ok());
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(dec.remaining(), 0u);
}

TEST(CorruptionTest, ExtentPageSpanArithmetic) {
  Extent e;
  e.first_page = 10;
  e.offset_in_page = 4090;
  e.length = 10;  // Crosses one page boundary: spans 2 pages.
  EXPECT_EQ(e.PageSpan(4096), 2u);
  e.offset_in_page = 0;
  e.length = 4096;
  EXPECT_EQ(e.PageSpan(4096), 1u);
  e.length = 4097;
  EXPECT_EQ(e.PageSpan(4096), 2u);
  e.length = 0;
  EXPECT_EQ(e.PageSpan(4096), 0u);
}

TEST(CorruptionTest, InvalidQueriesReturnCleanStatuses) {
  RandomWaypointParams params;
  params.num_objects = 5;
  params.duration = 20;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const ContactNetwork network(5, store->span(),
                               ExtractContacts(*store, 20.0));
  auto graph = ReachGraphIndex::Build(network, ReachGraphOptions{});
  ASSERT_TRUE(graph.ok());
  // Unknown object ids get the brute-force oracle's answer, not a crash.
  auto graph_session =
      MakeReachGraphBackend(std::move(*graph), ReachGraphTraversal::kBmBfs);
  auto bad = graph_session->Query({999, 1, TimeInterval(0, 10)});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->reachable);

  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 5;
  grid_options.spatial_cell_size = 50;
  grid_options.contact_range = 20.0;
  auto grid = ReachGridIndex::Build(*store, grid_options);
  ASSERT_TRUE(grid.ok());
  auto grid_session = MakeReachGridBackend(std::move(*grid));
  auto answer = grid_session->Query({999, 1, TimeInterval(0, 10)});
  ASSERT_TRUE(answer.ok());  // Out-of-population source: not reachable.
  EXPECT_FALSE(answer->reachable);
}

}  // namespace
}  // namespace streach
