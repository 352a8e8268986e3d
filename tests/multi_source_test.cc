// Multi-source batch closure equivalence suite (PR 6).
//
// The contract under test: for every backend and every knob combination,
// `ReachableSets(sources, interval)[i]` is byte-identical to
// `ReachableSet(sources[i], interval)` and to the brute-force closure —
// the batch changes the IO bill, never the answers. Swept here:
// shards {1,4} x codec {raw,delta-varint} x traversal_threads {1,4} x
// io_queue_depth {1,8}, plus the engine's RunClosures across
// num_threads / batch_sources, the read-dedup guarantee (a batch reads
// strictly fewer pages than the per-source loop), and the one-sweep
// contract (ReachableSet and a singleton batch at one traversal thread
// run the same sweep, page for page, on every disk backend).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/reachability_index.h"
#include "generators/random_waypoint.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/page_codec.h"

namespace streach {
namespace {

constexpr double kContactRange = 25.0;

/// Seeded RWP population plus per-(shards, codec) index caches, built on
/// demand and shared across the whole suite.
class MultiSourceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    RandomWaypointParams params;
    params.num_objects = 120;
    params.area = Rect(0, 0, 1200, 1200);
    params.duration = 200;
    params.seed = 20120806;  // Fixed for replay.
    auto store = GenerateRandomWaypoint(params);
    ASSERT_TRUE(store.ok());
    store_ = new TrajectoryStore(std::move(*store));
    network_ = new std::shared_ptr<const ContactNetwork>(
        std::make_shared<const ContactNetwork>(
            store_->num_objects(), store_->span(),
            ExtractContacts(*store_, kContactRange)));
  }

  static void TearDownTestSuite() {
    delete grids_;
    delete graphs_;
    delete spjs_;
    delete network_;
    delete store_;
    grids_ = nullptr;
    graphs_ = nullptr;
    spjs_ = nullptr;
    network_ = nullptr;
    store_ = nullptr;
  }

  static BuildOptions BuildWith(PageCodecKind codec) {
    BuildOptions build;
    build.page_codec = codec;
    return build;
  }

  static std::shared_ptr<const ReachGridIndex> Grid(int shards,
                                                    PageCodecKind codec) {
    if (grids_ == nullptr) grids_ = new GridCache();
    auto& slot = (*grids_)[{shards, codec}];
    if (slot == nullptr) {
      ReachGridOptions options;
      options.temporal_resolution = 20;
      options.spatial_cell_size = 150.0;
      options.contact_range = kContactRange;
      options.num_shards = shards;
      options.build = BuildWith(codec);
      auto grid = ReachGridIndex::Build(*store_, options);
      EXPECT_TRUE(grid.ok());
      slot = std::move(*grid);
    }
    return slot;
  }

  static std::shared_ptr<const ReachGraphIndex> Graph(int shards,
                                                      PageCodecKind codec) {
    if (graphs_ == nullptr) graphs_ = new GraphCache();
    auto& slot = (*graphs_)[{shards, codec}];
    if (slot == nullptr) {
      ReachGraphOptions options;
      options.num_shards = shards;
      options.build = BuildWith(codec);
      auto graph = ReachGraphIndex::Build(**network_, options);
      EXPECT_TRUE(graph.ok());
      slot = std::move(*graph);
    }
    return slot;
  }

  static std::shared_ptr<const SpjEvaluator> Spj(int shards,
                                                 PageCodecKind codec) {
    if (spjs_ == nullptr) spjs_ = new SpjCache();
    auto& slot = (*spjs_)[{shards, codec}];
    if (slot == nullptr) {
      SpjOptions options;
      options.contact_range = kContactRange;
      options.num_shards = shards;
      options.build = BuildWith(codec);
      auto spj = SpjEvaluator::Build(*store_, options);
      EXPECT_TRUE(spj.ok());
      slot = std::move(*spj);
    }
    return slot;
  }

  /// The batch every test traces: seeds spread across the population,
  /// including a duplicated seed (17) — two lanes of the same source
  /// must produce two identical sets.
  static std::vector<ObjectId> Sources() {
    return {3, 17, 42, 55, 70, 88, 17, 119};
  }

  static TimeInterval Window() { return TimeInterval(40, 160); }

  /// Ground truth: one brute-force closure per source.
  static std::vector<std::vector<Timestamp>> Expected(
      const std::vector<ObjectId>& sources, TimeInterval interval) {
    std::vector<std::vector<Timestamp>> sets;
    sets.reserve(sources.size());
    for (ObjectId source : sources) {
      sets.push_back(BruteForceClosure(**network_, source, interval));
    }
    return sets;
  }

  using GridCache = std::map<std::pair<int, PageCodecKind>,
                             std::shared_ptr<const ReachGridIndex>>;
  using GraphCache = std::map<std::pair<int, PageCodecKind>,
                              std::shared_ptr<const ReachGraphIndex>>;
  using SpjCache = std::map<std::pair<int, PageCodecKind>,
                            std::shared_ptr<const SpjEvaluator>>;
  static TrajectoryStore* store_;
  static std::shared_ptr<const ContactNetwork>* network_;
  static GridCache* grids_;
  static GraphCache* graphs_;
  static SpjCache* spjs_;
};

TrajectoryStore* MultiSourceTest::store_ = nullptr;
std::shared_ptr<const ContactNetwork>* MultiSourceTest::network_ = nullptr;
MultiSourceTest::GridCache* MultiSourceTest::grids_ = nullptr;
MultiSourceTest::GraphCache* MultiSourceTest::graphs_ = nullptr;
MultiSourceTest::SpjCache* MultiSourceTest::spjs_ = nullptr;

/// Batch == per-source loop == brute force, across the whole knob sweep.
void ExpectBatchMatches(ReachabilityIndex* backend,
                        const std::vector<std::vector<Timestamp>>& expected,
                        const std::vector<ObjectId>& sources,
                        TimeInterval interval, const std::string& label) {
  auto batch = backend->ReachableSets(sources, interval);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();
  ASSERT_EQ(batch->size(), sources.size()) << label;
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ((*batch)[i], expected[i])
        << label << " source=" << sources[i];
    auto single = backend->ReachableSet(sources[i], interval);
    ASSERT_TRUE(single.ok()) << label;
    EXPECT_EQ((*batch)[i], *single) << label << " source=" << sources[i];
  }
}

TEST_F(MultiSourceTest, ReachGridBatchMatchesEverywhere) {
  const auto sources = Sources();
  const auto expected = Expected(sources, Window());
  for (int shards : {1, 4}) {
    for (PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      for (int tthreads : {1, 4}) {
        for (int depth : {1, 8}) {
          auto backend = MakeReachGridBackend(Grid(shards, codec));
          backend->SetIoQueueDepth(depth);
          backend->SetTraversalThreads(tthreads);
          ExpectBatchMatches(
              backend.get(), expected, sources, Window(),
              "grid shards=" + std::to_string(shards) + " codec=" +
                  ToString(codec) + " tthreads=" + std::to_string(tthreads) +
                  " depth=" + std::to_string(depth));
        }
      }
    }
  }
}

TEST_F(MultiSourceTest, ReachGraphBatchMatchesEverywhere) {
  const auto sources = Sources();
  const auto expected = Expected(sources, Window());
  for (int shards : {1, 4}) {
    for (PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      for (int depth : {1, 8}) {
        auto backend =
            MakeReachGraphBackend(Graph(shards, codec),
                                  ReachGraphTraversal::kBmBfs);
        backend->SetIoQueueDepth(depth);
        ExpectBatchMatches(
            backend.get(), expected, sources, Window(),
            "graph shards=" + std::to_string(shards) + " codec=" +
                ToString(codec) + " depth=" + std::to_string(depth));
      }
    }
  }
}

TEST_F(MultiSourceTest, SpjBatchAndPointSetsMatchEverywhere) {
  const auto sources = Sources();
  const auto expected = Expected(sources, Window());
  for (int shards : {1, 4}) {
    for (PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      for (int depth : {1, 8}) {
        auto backend = MakeSpjBackend(Spj(shards, codec));
        backend->SetIoQueueDepth(depth);
        ExpectBatchMatches(
            backend.get(), expected, sources, Window(),
            "spj shards=" + std::to_string(shards) + " codec=" +
                ToString(codec) + " depth=" + std::to_string(depth));
      }
    }
  }
}

TEST_F(MultiSourceTest, BatchesWithMoreThan64SourcesSpanLaneChunks) {
  // Cross the 64-lane boundary: every object is a seed, so the mask
  // propagation must get the chunked lane bookkeeping right.
  std::vector<ObjectId> all;
  for (size_t o = 0; o < store_->num_objects(); ++o) {
    all.push_back(static_cast<ObjectId>(o));
  }
  const auto expected = Expected(all, Window());
  auto grid = MakeReachGridBackend(Grid(1, PageCodecKind::kRaw));
  auto graph = MakeReachGraphBackend(Graph(1, PageCodecKind::kRaw),
                                     ReachGraphTraversal::kBmBfs);
  auto spj = MakeSpjBackend(Spj(1, PageCodecKind::kRaw));
  for (ReachabilityIndex* backend : {grid.get(), graph.get(), spj.get()}) {
    auto batch = backend->ReachableSets(all, Window());
    ASSERT_TRUE(batch.ok()) << backend->DescribeIndex();
    for (size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ((*batch)[i], expected[i])
          << backend->DescribeIndex() << " source=" << all[i];
    }
  }
}

TEST_F(MultiSourceTest, SingletonBatchReplaysSingleSourcePageSequence) {
  // The one-sweep contract: ReachableSet is the interface's one-source
  // ReachableSets, so at one traversal thread the two run the same sweep
  // on every disk backend — identical answers AND identical IO profile.
  auto grid = MakeReachGridBackend(Grid(1, PageCodecKind::kRaw));
  auto graph = MakeReachGraphBackend(Graph(1, PageCodecKind::kRaw),
                                     ReachGraphTraversal::kBmBfs);
  auto spj = MakeSpjBackend(Spj(1, PageCodecKind::kRaw));
  const ObjectId source = Sources()[0];
  for (ReachabilityIndex* backend : {grid.get(), graph.get(), spj.get()}) {
    backend->ClearCache();
    auto single = backend->ReachableSet(source, Window());
    ASSERT_TRUE(single.ok()) << backend->DescribeIndex();
    const QueryStats single_stats = backend->last_query_stats();
    backend->ClearCache();
    auto batch = backend->ReachableSets({source}, Window());
    ASSERT_TRUE(batch.ok()) << backend->DescribeIndex();
    const QueryStats batch_stats = backend->last_query_stats();
    EXPECT_EQ((*batch)[0], *single) << backend->DescribeIndex();
    EXPECT_EQ(batch_stats.pages_fetched, single_stats.pages_fetched)
        << backend->DescribeIndex();
    EXPECT_EQ(batch_stats.pool_hits, single_stats.pool_hits)
        << backend->DescribeIndex();
    EXPECT_DOUBLE_EQ(batch_stats.io_cost, single_stats.io_cost)
        << backend->DescribeIndex();
  }
}

TEST_F(MultiSourceTest, GrailRejectsBatchClosures) {
  auto grail = GrailIndex::Build(*BuildDnGraph(**network_), GrailOptions{});
  ASSERT_TRUE(grail.ok());
  auto backend = MakeGrailBackend(std::move(*grail), GrailMode::kDisk);
  auto result = backend->ReachableSets(Sources(), Window());
  EXPECT_TRUE(result.status().IsNotSupported());
}

TEST_F(MultiSourceTest, BatchReadsStrictlyBelowPerSourceLoop) {
  // The tentpole's IO guarantee, measured cold: a shared-frontier batch
  // fetches every page once, the per-source loop re-fetches it per seed.
  const auto sources = Sources();
  auto grid = MakeReachGridBackend(Grid(1, PageCodecKind::kRaw));
  auto graph = MakeReachGraphBackend(Graph(1, PageCodecKind::kRaw),
                                     ReachGraphTraversal::kBmBfs);
  auto spj = MakeSpjBackend(Spj(1, PageCodecKind::kRaw));
  for (ReachabilityIndex* backend : {grid.get(), graph.get(), spj.get()}) {
    uint64_t loop_pages = 0;
    for (ObjectId source : sources) {
      backend->ClearCache();
      ASSERT_TRUE(backend->ReachableSet(source, Window()).ok());
      loop_pages += backend->last_query_stats().pages_fetched;
    }
    backend->ClearCache();
    ASSERT_TRUE(backend->ReachableSets(sources, Window()).ok());
    const uint64_t batch_pages = backend->last_query_stats().pages_fetched;
    EXPECT_LT(batch_pages, loop_pages) << backend->DescribeIndex();
  }
}

TEST_F(MultiSourceTest, EngineRunClosuresIdenticalAcrossAllKnobs) {
  const auto sources = Sources();
  const auto expected = Expected(sources, Window());
  auto backend = MakeReachGridBackend(Grid(1, PageCodecKind::kRaw));
  uint64_t pages_at_batch1 = 0;
  for (int num_threads : {1, 2}) {
    for (int batch : {1, 4}) {
      for (int tthreads : {1, 4}) {
        QueryEngineOptions options;
        options.num_threads = num_threads;
        options.cold_cache = true;
        options.batch_sources = batch;
        options.traversal_threads = tthreads;
        const QueryEngine engine(options);
        auto report = engine.RunClosures(backend.get(), sources, Window());
        ASSERT_TRUE(report.ok());
        ASSERT_EQ(report->summary.failed_queries, 0u);
        for (size_t i = 0; i < sources.size(); ++i) {
          ASSERT_EQ(report->sets[i], expected[i])
              << "threads=" << num_threads << " batch=" << batch
              << " tthreads=" << tthreads << " source=" << sources[i];
        }
        EXPECT_EQ(report->summary.batch_sources, batch);
        EXPECT_EQ(report->summary.traversal_threads, tthreads);
        EXPECT_EQ(report->per_batch.size(),
                  (sources.size() + static_cast<size_t>(batch) - 1) /
                      static_cast<size_t>(batch));
        // The dedup acceptance bar, via the engine path: batched cold
        // runs read strictly fewer pages than the per-source loop.
        if (num_threads == 1 && tthreads == 1) {
          if (batch == 1) {
            pages_at_batch1 = report->summary.total_pages_fetched;
          } else {
            EXPECT_LT(report->summary.total_pages_fetched, pages_at_batch1);
          }
        }
      }
    }
  }
}

TEST_F(MultiSourceTest, RunClosuresRejectsCodecMismatch) {
  auto backend = MakeReachGridBackend(Grid(1, PageCodecKind::kDeltaVarint));
  QueryEngineOptions options;  // Declares raw.
  auto report = QueryEngine(options).RunClosures(backend.get(), Sources(),
                                                 Window());
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace streach
