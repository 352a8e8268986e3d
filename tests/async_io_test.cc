// End-to-end contract of the batched async IO path.
//
// `io_queue_depth` is an IO-overlap / accounting concern only: for every
// disk-resident backend, any queue depth and any shard count must produce
// byte-identical answers to the depth-1 unsharded baseline — sequentially
// and under a multi-threaded engine — while the per-shard IoStats
// breakdown keeps summing to the workload totals. Deep queues must also
// actually overlap: the SPJ slab scan (the deepest batch any evaluator
// issues) has to report mean in-flight requests > 1 at depth 8. The
// page-codec axis composes with all of it: a delta-varint stack must
// answer byte-identically to the raw baseline over the same
// shards x depth grid, sequentially and under a 4-thread engine, while
// reading strictly fewer pages for the trajectory-heavy families.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "common/check.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/reachability_index.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "test_util.h"

namespace streach {
namespace {

constexpr double kContactRange = 25.0;

class AsyncIoTest : public ::testing::Test {
 protected:
  /// Every disk-resident structure built at one shard count.
  struct Stack {
    std::shared_ptr<const ReachGridIndex> grid;
    std::shared_ptr<const ReachGraphIndex> graph;
    std::shared_ptr<const GrailIndex> grail;
    std::shared_ptr<const SpjEvaluator> spj;
  };

  static void SetUpTestSuite() {
    RandomWaypointParams params;
    params.num_objects = 100;
    params.area = Rect(0, 0, 1100, 1100);
    params.duration = 360;
    params.seed = 20260729;  // Fixed for replay.
    auto store = GenerateRandomWaypoint(params);
    ASSERT_TRUE(store.ok());
    store_ = new TrajectoryStore(std::move(*store));
    network_ = new std::shared_ptr<const ContactNetwork>(
        std::make_shared<const ContactNetwork>(
            store_->num_objects(), store_->span(),
            ExtractContacts(*store_, kContactRange)));
    stack1_ = new Stack(BuildStack(1));
    stack4_ = new Stack(BuildStack(4));
    delta1_ = new Stack(BuildStack(1, PageCodecKind::kDeltaVarint));
    delta4_ = new Stack(BuildStack(4, PageCodecKind::kDeltaVarint));
  }

  static void TearDownTestSuite() {
    delete delta4_;
    delete delta1_;
    delete stack4_;
    delete stack1_;
    delete network_;
    delete store_;
    delta4_ = nullptr;
    delta1_ = nullptr;
    stack4_ = nullptr;
    stack1_ = nullptr;
    network_ = nullptr;
    store_ = nullptr;
  }

  static Stack BuildStack(int num_shards,
                          PageCodecKind codec = PageCodecKind::kRaw) {
    Stack stack;
    BuildOptions build;
    build.page_codec = codec;

    ReachGridOptions grid_options;
    grid_options.temporal_resolution = 20;
    grid_options.spatial_cell_size = 140.0;
    grid_options.contact_range = kContactRange;
    grid_options.num_shards = num_shards;
    grid_options.build = build;
    auto grid = ReachGridIndex::Build(*store_, grid_options);
    STREACH_CHECK(grid.ok());
    stack.grid = std::move(*grid);

    ReachGraphOptions graph_options;
    graph_options.num_shards = num_shards;
    graph_options.build = build;
    auto graph = ReachGraphIndex::Build(**network_, graph_options);
    STREACH_CHECK(graph.ok());
    stack.graph = std::move(*graph);

    auto dn = BuildDnGraph(**network_);
    STREACH_CHECK(dn.ok());
    GrailOptions grail_options;
    grail_options.num_shards = num_shards;
    grail_options.build = build;
    auto grail = GrailIndex::Build(*dn, grail_options);
    STREACH_CHECK(grail.ok());
    stack.grail = std::move(*grail);

    SpjOptions spj_options;
    spj_options.contact_range = kContactRange;
    spj_options.num_shards = num_shards;
    spj_options.build = build;
    auto spj = SpjEvaluator::Build(*store_, spj_options);
    STREACH_CHECK(spj.ok());
    stack.spj = std::move(*spj);

    return stack;
  }

  static const Stack& StackFor(int num_shards) {
    return num_shards == 1 ? *stack1_ : *stack4_;
  }

  static const Stack& DeltaStackFor(int num_shards) {
    return num_shards == 1 ? *delta1_ : *delta4_;
  }

  /// One session per disk-resident backend family over `stack`.
  static std::vector<std::unique_ptr<ReachabilityIndex>> DiskBackends(
      const Stack& stack) {
    std::vector<std::unique_ptr<ReachabilityIndex>> backends;
    backends.push_back(MakeReachGridBackend(stack.grid));
    backends.push_back(
        MakeReachGraphBackend(stack.graph, ReachGraphTraversal::kBmBfs));
    backends.push_back(
        MakeReachGraphBackend(stack.graph, ReachGraphTraversal::kBBfs));
    backends.push_back(
        MakeReachGraphBackend(stack.graph, ReachGraphTraversal::kEBfs));
    backends.push_back(
        MakeReachGraphBackend(stack.graph, ReachGraphTraversal::kEDfs));
    backends.push_back(MakeSpjBackend(stack.spj));
    backends.push_back(MakeGrailBackend(stack.grail, GrailMode::kDisk));
    return backends;
  }

  static std::vector<ReachQuery> MakeQueries(int n, uint64_t seed) {
    WorkloadParams wl;
    wl.num_queries = n;
    wl.num_objects = store_->num_objects();
    wl.span = store_->span();
    wl.min_interval_len = 30;
    wl.max_interval_len = 160;
    wl.seed = seed;
    return GenerateWorkload(wl);
  }

  static TrajectoryStore* store_;
  static std::shared_ptr<const ContactNetwork>* network_;
  static Stack* stack1_;
  static Stack* stack4_;
  static Stack* delta1_;
  static Stack* delta4_;
};

TrajectoryStore* AsyncIoTest::store_ = nullptr;
std::shared_ptr<const ContactNetwork>* AsyncIoTest::network_ = nullptr;
AsyncIoTest::Stack* AsyncIoTest::stack1_ = nullptr;
AsyncIoTest::Stack* AsyncIoTest::stack4_ = nullptr;
AsyncIoTest::Stack* AsyncIoTest::delta1_ = nullptr;
AsyncIoTest::Stack* AsyncIoTest::delta4_ = nullptr;

TEST_F(AsyncIoTest, AnswersIdenticalAcrossDepthAndShardsSequentially) {
  const std::vector<ReachQuery> queries = MakeQueries(160, 71);
  // Baseline: depth 1 on the unsharded stack — the historical
  // synchronous single-device evaluation.
  std::vector<std::string> baseline;
  {
    auto backends = DiskBackends(StackFor(1));
    for (auto& backend : backends) {
      std::vector<ReachAnswer> answers;
      answers.reserve(queries.size());
      for (const ReachQuery& q : queries) {
        auto a = backend->Query(q);
        ASSERT_TRUE(a.ok()) << backend->DescribeIndex() << " " << q.ToString();
        answers.push_back(*a);
      }
      baseline.push_back(SerializeAnswers(answers));
    }
  }
  for (int shards : {1, 4}) {
    for (int depth : {1, 8}) {
      auto backends = DiskBackends(StackFor(shards));
      for (size_t b = 0; b < backends.size(); ++b) {
        backends[b]->SetIoQueueDepth(depth);
        std::vector<ReachAnswer> answers;
        answers.reserve(queries.size());
        for (const ReachQuery& q : queries) {
          auto a = backends[b]->Query(q);
          ASSERT_TRUE(a.ok())
              << backends[b]->DescribeIndex() << " " << q.ToString();
          answers.push_back(*a);
        }
        EXPECT_EQ(SerializeAnswers(answers), baseline[b])
            << backends[b]->DescribeIndex() << " depth=" << depth
            << " shards=" << shards << ": answers depend on the IO path";
      }
    }
  }
}

TEST_F(AsyncIoTest, AnswersIdenticalAcrossDepthAndShardsUnder4Threads) {
  const std::vector<ReachQuery> queries = MakeQueries(160, 72);
  std::vector<std::string> baseline;
  {
    QueryEngineOptions options;  // num_threads = 1, io_queue_depth = 1.
    const QueryEngine engine(options);
    auto backends = DiskBackends(StackFor(1));
    for (auto& backend : backends) {
      auto report = engine.Run(backend.get(), queries);
      ASSERT_TRUE(report.ok()) << backend->DescribeIndex();
      baseline.push_back(SerializeAnswers(report->answers));
    }
  }
  for (int shards : {1, 4}) {
    for (int depth : {1, 8}) {
      QueryEngineOptions options;
      options.num_threads = 4;
      options.io_queue_depth = depth;
      const QueryEngine engine(options);
      auto backends = DiskBackends(StackFor(shards));
      for (size_t b = 0; b < backends.size(); ++b) {
        auto report = engine.Run(backends[b].get(), queries);
        ASSERT_TRUE(report.ok()) << backends[b]->DescribeIndex();
        EXPECT_EQ(SerializeAnswers(report->answers), baseline[b])
            << backends[b]->DescribeIndex() << " depth=" << depth
            << " shards=" << shards;
        EXPECT_EQ(report->summary.io_queue_depth, depth);
      }
    }
  }
}

TEST_F(AsyncIoTest, PerShardIoStillSumsToTotalsUnderBatching) {
  const std::vector<ReachQuery> queries = MakeQueries(120, 73);
  for (int threads : {1, 4}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.io_queue_depth = 8;
    const QueryEngine engine(options);
    auto backends = DiskBackends(StackFor(4));
    for (auto& backend : backends) {
      auto report = engine.Run(backend.get(), queries);
      ASSERT_TRUE(report.ok()) << backend->DescribeIndex();
      const WorkloadSummary& s = report->summary;
      ASSERT_EQ(s.per_shard_io.size(), 4u) << backend->DescribeIndex();
      IoStats total;
      for (const IoStats& shard : s.per_shard_io) total += shard;
      EXPECT_EQ(total.total_reads(), s.total_pages_fetched)
          << backend->DescribeIndex() << " threads=" << threads;
      EXPECT_NEAR(total.NormalizedReadCost(), s.total_io_cost, 1e-6)
          << backend->DescribeIndex() << " threads=" << threads;
      // Every batched read carried an occupancy of at least 1, never
      // more than the queue depth.
      EXPECT_GE(total.inflight_accum, total.batched_reads);
      EXPECT_LE(total.inflight_accum, total.batched_reads * 8);
    }
  }
}

TEST_F(AsyncIoTest, DeepQueuesActuallyOverlap) {
  // SPJ reads every overlapping slab as one batch — the structural
  // guarantee that depth 8 keeps more than one request in flight.
  const std::vector<ReachQuery> queries = MakeQueries(40, 74);
  for (int shards : {1, 4}) {
    QueryEngineOptions options;
    options.io_queue_depth = 8;
    const QueryEngine engine(options);
    auto backend = MakeSpjBackend(StackFor(shards).spj);
    auto report = engine.Run(backend.get(), queries);
    ASSERT_TRUE(report.ok());
    EXPECT_GT(report->summary.total_batched_reads(), 0u) << shards;
    EXPECT_GT(report->summary.mean_inflight_requests(), 1.0)
        << "shards=" << shards
        << ": depth-8 slab scans should keep >1 request in flight";
  }
  // At depth 1 nothing overlaps: occupancy is exactly 1 per batched read.
  {
    QueryEngineOptions options;
    const QueryEngine engine(options);
    auto backend = MakeSpjBackend(StackFor(4).spj);
    auto report = engine.Run(backend.get(), queries);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->summary.mean_inflight_requests(), 1.0);
  }
}

TEST_F(AsyncIoTest, DeltaVarintAnswersIdenticalAcrossDepthAndShards) {
  // The codec half of the acceptance criteria: with kDeltaVarint, all
  // seven disk backends return byte-identical answers to the raw
  // baseline across shards {1,4} x depth {1,8}, sequentially and under
  // a 4-thread engine.
  const std::vector<ReachQuery> queries = MakeQueries(160, 76);
  std::vector<std::string> baseline;
  {
    auto backends = DiskBackends(StackFor(1));
    for (auto& backend : backends) {
      std::vector<ReachAnswer> answers;
      answers.reserve(queries.size());
      for (const ReachQuery& q : queries) {
        auto a = backend->Query(q);
        ASSERT_TRUE(a.ok()) << backend->DescribeIndex() << " " << q.ToString();
        answers.push_back(*a);
      }
      baseline.push_back(SerializeAnswers(answers));
    }
  }
  for (int shards : {1, 4}) {
    for (int depth : {1, 8}) {
      // Sequential sessions.
      auto backends = DiskBackends(DeltaStackFor(shards));
      for (size_t b = 0; b < backends.size(); ++b) {
        backends[b]->SetIoQueueDepth(depth);
        ASSERT_EQ(backends[b]->page_codec(), PageCodecKind::kDeltaVarint);
        std::vector<ReachAnswer> answers;
        answers.reserve(queries.size());
        for (const ReachQuery& q : queries) {
          auto a = backends[b]->Query(q);
          ASSERT_TRUE(a.ok())
              << backends[b]->DescribeIndex() << " " << q.ToString();
          answers.push_back(*a);
        }
        EXPECT_EQ(SerializeAnswers(answers), baseline[b])
            << backends[b]->DescribeIndex() << " depth=" << depth
            << " shards=" << shards << " codec=delta-varint";
      }
      // 4-thread engine.
      QueryEngineOptions options;
      options.num_threads = 4;
      options.io_queue_depth = depth;
      options.page_codec = PageCodecKind::kDeltaVarint;
      const QueryEngine engine(options);
      auto engine_backends = DiskBackends(DeltaStackFor(shards));
      for (size_t b = 0; b < engine_backends.size(); ++b) {
        auto report = engine.Run(engine_backends[b].get(), queries);
        ASSERT_TRUE(report.ok()) << engine_backends[b]->DescribeIndex();
        EXPECT_EQ(SerializeAnswers(report->answers), baseline[b])
            << engine_backends[b]->DescribeIndex() << " depth=" << depth
            << " shards=" << shards << " codec=delta-varint (engine)";
        EXPECT_EQ(report->summary.page_codec, "delta-varint");
      }
    }
  }
}

TEST_F(AsyncIoTest, DeltaVarintReadsStrictlyFewerPages) {
  // Compression is the point: over the same cold workload, the
  // delta-varint ReachGrid and SPJ stacks must fetch strictly fewer
  // pages than raw, and report the bytes they saved.
  const std::vector<ReachQuery> queries = MakeQueries(60, 77);
  struct Case {
    const char* name;
    std::unique_ptr<ReachabilityIndex> raw;
    std::unique_ptr<ReachabilityIndex> delta;
  };
  std::vector<Case> cases;
  cases.push_back({"ReachGrid", MakeReachGridBackend(StackFor(1).grid),
                   MakeReachGridBackend(DeltaStackFor(1).grid)});
  cases.push_back({"SPJ", MakeSpjBackend(StackFor(1).spj),
                   MakeSpjBackend(DeltaStackFor(1).spj)});
  for (Case& c : cases) {
    QueryEngineOptions raw_options;
    raw_options.cold_cache = true;
    auto raw = QueryEngine(raw_options).Run(c.raw.get(), queries);
    QueryEngineOptions delta_options = raw_options;
    delta_options.page_codec = PageCodecKind::kDeltaVarint;
    auto delta = QueryEngine(delta_options).Run(c.delta.get(), queries);
    ASSERT_TRUE(raw.ok() && delta.ok()) << c.name;
    EXPECT_LT(delta->summary.total_pages_fetched,
              raw->summary.total_pages_fetched)
        << c.name << ": compressed records should span fewer pages";
    EXPECT_GT(delta->summary.compression_ratio(), 1.5) << c.name;
    EXPECT_GT(delta->summary.total_encoded_bytes(), 0u) << c.name;
    EXPECT_DOUBLE_EQ(raw->summary.compression_ratio(), 1.0) << c.name;
  }
}

TEST_F(AsyncIoTest, SessionsInheritQueueDepth) {
  // NewSession copies the IO depth onto the minted session of every disk
  // backend: at depth 1 each read goes out alone; at depth 8 reads
  // overlap in the minted session's queues (every depth reads through
  // the batch path).
  const std::vector<ReachQuery> queries = MakeQueries(20, 75);
  for (const int depth : {1, 8}) {
    for (auto& backend : DiskBackends(StackFor(4))) {
      const std::string label =
          backend->DescribeIndex() + " depth=" + std::to_string(depth);
      backend->SetIoQueueDepth(depth);
      auto session = backend->NewSession();
      for (const ReachQuery& q : queries) {
        ASSERT_TRUE(session->Query(q).ok()) << label;
      }
      IoStats total;
      for (const IoStats& shard : session->shard_io_stats()) total += shard;
      ASSERT_GT(total.batched_reads, 0u) << label;
      if (depth == 1) {
        EXPECT_EQ(total.mean_inflight(), 1.0) << label;
      } else {
        EXPECT_GT(total.mean_inflight(), 1.0) << label;
      }
    }
  }
}

}  // namespace
}  // namespace streach
