// Tests for the engine layer: the `ReachabilityIndex` interface, the
// backend adapters over all five evaluator families, and the concurrent
// `QueryEngine`.
//
// Ground rules verified here: (a) every backend answers exactly like the
// brute-force oracle on a seeded random-waypoint dataset, both through a
// plain sequential loop and through a 4-thread engine run; (b) a
// multi-threaded engine run is byte-identical to the sequential run of
// the same backend while still reporting aggregated QueryStats.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/reachability_index.h"
#include "engine/result_cache.h"
#include "generators/random_waypoint.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "test_util.h"

namespace streach {
namespace {

constexpr double kContactRange = 25.0;

/// One shared stack of indexes over a seeded RWP dataset, built once for
/// the whole suite (index construction dominates the test runtime).
class EngineTest : public ::testing::Test {
 protected:
  struct Stack {
    TrajectoryStore store;
    std::shared_ptr<const ContactNetwork> network;
    std::shared_ptr<const ReachGridIndex> grid;
    std::shared_ptr<const ReachGraphIndex> graph;
    std::shared_ptr<const GrailIndex> grail;
    std::shared_ptr<const SpjEvaluator> spj;
  };

  static void SetUpTestSuite() {
    RandomWaypointParams params;
    params.num_objects = 120;
    params.area = Rect(0, 0, 1200, 1200);
    params.duration = 400;
    params.seed = 20120731;  // Fixed for replay.
    auto store = GenerateRandomWaypoint(params);
    ASSERT_TRUE(store.ok());
    stack_ = new Stack();
    stack_->store = std::move(*store);

    stack_->network = std::make_shared<const ContactNetwork>(
        stack_->store.num_objects(), stack_->store.span(),
        ExtractContacts(stack_->store, kContactRange));

    ReachGridOptions grid_options;
    grid_options.temporal_resolution = 20;
    grid_options.spatial_cell_size = 150.0;
    grid_options.contact_range = kContactRange;
    auto grid = ReachGridIndex::Build(stack_->store, grid_options);
    ASSERT_TRUE(grid.ok());
    stack_->grid = std::move(*grid);

    auto graph = ReachGraphIndex::Build(*stack_->network, ReachGraphOptions{});
    ASSERT_TRUE(graph.ok());
    stack_->graph = std::move(*graph);

    auto dn = BuildDnGraph(*stack_->network);
    ASSERT_TRUE(dn.ok());
    auto grail = GrailIndex::Build(*dn, GrailOptions{});
    ASSERT_TRUE(grail.ok());
    stack_->grail = std::move(*grail);

    SpjOptions spj_options;
    spj_options.contact_range = kContactRange;
    auto spj = SpjEvaluator::Build(stack_->store, spj_options);
    ASSERT_TRUE(spj.ok());
    stack_->spj = std::move(*spj);
  }

  static void TearDownTestSuite() {
    delete stack_;
    stack_ = nullptr;
  }

  /// Sessions over every backend variant (the five evaluator families;
  /// ReachGraph contributes one adapter per traversal, GRAIL per mode).
  static std::vector<std::unique_ptr<ReachabilityIndex>> AllBackends() {
    std::vector<std::unique_ptr<ReachabilityIndex>> backends;
    backends.push_back(MakeReachGridBackend(stack_->grid));
    backends.push_back(
        MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kBmBfs));
    backends.push_back(
        MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kBBfs));
    backends.push_back(
        MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kEBfs));
    backends.push_back(
        MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kEDfs));
    backends.push_back(MakeSpjBackend(stack_->spj));
    backends.push_back(MakeGrailBackend(stack_->grail, GrailMode::kMemory));
    backends.push_back(MakeGrailBackend(stack_->grail, GrailMode::kDisk));
    backends.push_back(MakeBruteForceBackend(stack_->network));
    return backends;
  }

  /// AllBackends() plus the streaming tier over the same contacts, all
  /// sealed: every backend the engine serves.
  static std::vector<std::unique_ptr<ReachabilityIndex>> ServedBackends() {
    StreamingOptions streaming;
    streaming.num_objects = stack_->store.num_objects();
    streaming.span = stack_->store.span();
    auto ingestor = StreamingIngestor::Create(streaming);
    EXPECT_TRUE(ingestor.ok());
    ExtractContactsTo(stack_->store, kContactRange, stack_->store.span(),
                      JoinOptions{}, ingestor->get());
    EXPECT_TRUE((*ingestor)->SealRemaining().ok());
    auto backends = AllBackends();
    backends.push_back(MakeStreamingBackend(*ingestor));
    return backends;
  }

  /// Runs `queries` on `backend` through `Run` with the result cache off
  /// and on, and through `RunFamilies` as boolean specs, and checks every
  /// answer against BruteForceReach. Arrival times are compared wherever
  /// the backend reports one: ReachGraph's and GRAIL's point traversals
  /// answer a reachable query between two objects without one. Every
  /// self-query's arrival is compared.
  static void ExpectOracleAnswers(ReachabilityIndex* backend,
                                  const std::vector<ReachQuery>& queries) {
    const std::string name = backend->DescribeIndex();
    const bool untracked_arrival =
        name.rfind("ReachGraph(", 0) == 0 || name.rfind("GRAIL(", 0) == 0;
    std::vector<QuerySpec> specs;
    std::vector<ReachAnswer> expected;
    for (const ReachQuery& q : queries) {
      QuerySpec spec;
      spec.source = q.source;
      spec.destination = q.destination;
      spec.interval = q.interval;
      specs.push_back(spec);
      expected.push_back(BruteForceReach(*stack_->network, q.source,
                                         q.destination, q.interval));
    }
    QueryEngineOptions cached;
    cached.result_cache_capacity = 64;
    for (const QueryEngineOptions& options : {QueryEngineOptions{}, cached}) {
      const QueryEngine engine(options);
      auto run = engine.Run(backend, queries);
      auto families = engine.RunFamilies(backend, specs);
      ASSERT_TRUE(run.ok()) << name;
      ASSERT_TRUE(families.ok()) << name;
      EXPECT_EQ(run->summary.failed_queries, 0u) << name;
      EXPECT_EQ(families->summary.failed_queries, 0u) << name;
      for (size_t i = 0; i < queries.size(); ++i) {
        auto check = [&](const char* path, const Status& status,
                         const ReachAnswer& got) {
          const std::string where =
              name + " " + path +
              (options.result_cache_capacity > 0 ? " (cache on)" : "") +
              " on " + queries[i].ToString();
          EXPECT_TRUE(status.ok()) << where << ": " << status.ToString();
          EXPECT_EQ(got.reachable, expected[i].reachable) << where;
          if (untracked_arrival && got.reachable &&
              got.arrival_time == kInvalidTime &&
              queries[i].source != queries[i].destination) {
            return;
          }
          EXPECT_EQ(got.arrival_time, expected[i].arrival_time) << where;
        };
        check("Run", run->statuses[i], run->answers[i]);
        check("RunFamilies", families->statuses[i],
              families->answers[i].point);
      }
    }
  }

  static std::vector<ReachQuery> MakeQueries(int n, uint64_t seed) {
    WorkloadParams wl;
    wl.num_queries = n;
    wl.num_objects = stack_->store.num_objects();
    wl.span = stack_->store.span();
    wl.min_interval_len = 30;
    wl.max_interval_len = 180;
    wl.seed = seed;
    return GenerateWorkload(wl);
  }

  static Stack* stack_;
};

EngineTest::Stack* EngineTest::stack_ = nullptr;

TEST_F(EngineTest, AllBackendsAgreeWithBruteForceSequentially) {
  const std::vector<ReachQuery> queries = MakeQueries(200, 77);
  auto backends = AllBackends();
  for (const ReachQuery& q : queries) {
    const bool expected =
        BruteForceReach(*stack_->network, q.source, q.destination, q.interval)
            .reachable;
    for (auto& backend : backends) {
      auto answer = backend->Query(q);
      ASSERT_TRUE(answer.ok())
          << backend->DescribeIndex() << " failed on " << q.ToString() << ": "
          << answer.status().ToString();
      EXPECT_EQ(answer->reachable, expected)
          << backend->DescribeIndex() << " disagrees on " << q.ToString();
    }
  }
}

TEST_F(EngineTest, OutOfRangeObjectIdsGetTheOraclesAnswer) {
  // Ids outside the population answer like BruteForceReach on every
  // backend and every engine path: a self-query holds over any non-empty
  // clamped window, and any other query naming an unknown object is
  // unreachable. Never a NotFound, never a crash.
  const auto n = static_cast<ObjectId>(stack_->store.num_objects());
  const TimeInterval window(20, 200);
  const TimeInterval past_span(stack_->store.span().end + 10,
                               stack_->store.span().end + 50);
  const std::vector<ReachQuery> queries{
      {n + 5, 1, window},                // Unknown source.
      {1, n + 5, window},                // Unknown destination.
      {n + 5, n + 9, window},            // Both unknown.
      {n + 5, n + 5, window},            // Unknown self-query.
      {n, n, window},                    // First id past the population.
      {kInvalidObject, kInvalidObject, window},
      {n + 5, n + 5, past_span},         // Empty clamped window.
      {3, 3, window},                    // In-range self-query.
  };
  for (auto& backend : ServedBackends()) {
    ExpectOracleAnswers(backend.get(), queries);
  }
}

TEST_F(EngineTest, BoundaryWindowsGetTheOraclesAnswer) {
  // Windows that clamp to nothing or to part of the span: every pair of a
  // few ids (self-queries and unknown ids included) answers like
  // BruteForceReach, and every closure — one of an unknown source — equals
  // BruteForceClosure, on every backend and every engine path.
  const auto n = static_cast<ObjectId>(stack_->store.num_objects());
  const Timestamp end = stack_->store.span().end;
  const std::vector<TimeInterval> windows{
      {200, 20},              // Inverted.
      {-50, -10},             // Before the span.
      {-30, 40},              // Straddles the span's start.
      {end - 40, end + 30},   // Straddles the span's end.
      {150, 150},             // One tick.
      {end, end},             // The span's last tick.
  };
  const std::vector<ObjectId> ids{0, 17, 42, 64, 88, 119, n, n + 5};
  const std::vector<ObjectId> sources{3, n + 5, 42, 17, 119};
  for (auto& backend : ServedBackends()) {
    const std::string name = backend->DescribeIndex();
    // GRAIL answers point queries only.
    const bool enumerates_sets = name.rfind("GRAIL(", 0) != 0;
    for (const TimeInterval& window : windows) {
      std::vector<ReachQuery> queries;
      for (ObjectId s : ids) {
        for (ObjectId d : ids) queries.push_back({s, d, window});
      }
      ExpectOracleAnswers(backend.get(), queries);
      for (int batch : {1, 4}) {
        QueryEngineOptions options;
        options.batch_sources = batch;
        auto report = QueryEngine(options).RunClosures(backend.get(),
                                                       sources, window);
        ASSERT_TRUE(report.ok()) << name;
        for (const Status& status : report->statuses) {
          EXPECT_EQ(status.ok(), enumerates_sets)
              << name << " on " << window << ": " << status.ToString();
        }
        if (!enumerates_sets) continue;
        for (size_t i = 0; i < sources.size(); ++i) {
          EXPECT_EQ(report->sets[i],
                    BruteForceClosure(*stack_->network, sources[i], window))
              << name << " closure of o" << sources[i] << " on " << window
              << " (batch " << batch << ")";
        }
      }
    }
  }
}

TEST_F(EngineTest, AllBackendsAgreeWithBruteForceUnder4EngineThreads) {
  const std::vector<ReachQuery> queries = MakeQueries(200, 78);

  QueryEngineOptions options;
  options.num_threads = 4;
  const QueryEngine engine(options);

  auto oracle = MakeBruteForceBackend(stack_->network);
  auto expected = engine.Run(oracle.get(), queries);
  ASSERT_TRUE(expected.ok());

  for (auto& backend : AllBackends()) {
    auto report = engine.Run(backend.get(), queries);
    ASSERT_TRUE(report.ok()) << backend->DescribeIndex();
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(report->answers[i].reachable, expected->answers[i].reachable)
          << backend->DescribeIndex() << " disagrees on "
          << queries[i].ToString();
    }
  }
}

TEST_F(EngineTest, ParallelRunIsByteIdenticalToSequentialRun) {
  const std::vector<ReachQuery> queries = MakeQueries(500, 99);

  std::vector<std::unique_ptr<ReachabilityIndex>> backends;
  backends.push_back(MakeReachGridBackend(stack_->grid));
  backends.push_back(
      MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kBmBfs));
  backends.push_back(MakeGrailBackend(stack_->grail, GrailMode::kDisk));

  for (auto& backend : backends) {
    const QueryEngine sequential(QueryEngineOptions{});  // 1 thread.
    QueryEngineOptions parallel_options;
    parallel_options.num_threads = 4;
    const QueryEngine parallel(parallel_options);

    auto seq = sequential.Run(backend.get(), queries);
    ASSERT_TRUE(seq.ok()) << backend->DescribeIndex();
    auto session = backend->NewSession();
    auto par = parallel.Run(session.get(), queries);
    ASSERT_TRUE(par.ok()) << backend->DescribeIndex();

    ASSERT_EQ(seq->answers.size(), par->answers.size());
    // Byte-identical answer streams (field-serialized, padding excluded).
    EXPECT_EQ(SerializeAnswers(seq->answers), SerializeAnswers(par->answers))
        << backend->DescribeIndex()
        << ": parallel answers differ from sequential";

    // The parallel run still aggregates QueryStats across its sessions.
    const WorkloadSummary& s = par->summary;
    EXPECT_EQ(s.num_queries, queries.size());
    EXPECT_EQ(s.num_reachable, seq->summary.num_reachable);
    EXPECT_GT(s.total_pages_fetched, 0u);
    EXPECT_GT(s.total_io_cost, 0.0);
    EXPECT_GT(s.queries_per_second, 0.0);
    EXPECT_GT(s.max_latency, 0.0);
    EXPECT_GE(s.p95_latency, s.p50_latency);
    EXPECT_EQ(par->per_query.size(), queries.size());
    EXPECT_FALSE(s.ToString().empty());
  }
}

TEST_F(EngineTest, ReachableSetMatchesBruteForceClosure) {
  auto grid = MakeReachGridBackend(stack_->grid);
  auto brute = MakeBruteForceBackend(stack_->network);
  const TimeInterval interval(40, 160);
  for (ObjectId source : {ObjectId{0}, ObjectId{17}, ObjectId{63}}) {
    auto from_grid = grid->ReachableSet(source, interval);
    auto from_brute = brute->ReachableSet(source, interval);
    ASSERT_TRUE(from_grid.ok() && from_brute.ok());
    ASSERT_EQ(from_grid->size(), from_brute->size());
    for (size_t o = 0; o < from_grid->size(); ++o) {
      EXPECT_EQ((*from_grid)[o], (*from_brute)[o])
          << "object " << o << " from source " << source;
    }
  }
}

TEST_F(EngineTest, ReachGraphReachableSetMatchesBruteForceClosure) {
  // The member sweep over partition timelines must reproduce the exact
  // infection times of the brute-force closure — that is what lets the
  // engine's result cache serve ReachGraph point queries.
  auto graph = MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kBmBfs);
  auto brute = MakeBruteForceBackend(stack_->network);
  for (ObjectId source : {ObjectId{0}, ObjectId{17}, ObjectId{63},
                          ObjectId{119}}) {
    for (const TimeInterval interval :
         {TimeInterval(40, 160), TimeInterval(0, 399),
          TimeInterval(200, 230), TimeInterval(390, 399)}) {
      auto from_graph = graph->ReachableSet(source, interval);
      auto from_brute = brute->ReachableSet(source, interval);
      ASSERT_TRUE(from_graph.ok() && from_brute.ok())
          << "source " << source << " " << interval.ToString();
      ASSERT_EQ(from_graph->size(), from_brute->size());
      for (size_t o = 0; o < from_graph->size(); ++o) {
        ASSERT_EQ((*from_graph)[o], (*from_brute)[o])
            << "object " << o << " from source " << source << " over "
            << interval.ToString();
      }
    }
  }
}

TEST_F(EngineTest, ResultCacheServesReachGraphPointQueries) {
  // ReachGraph now enumerates reachable sets, so the engine's result
  // cache memoizes it instead of falling back to point queries: repeats
  // hit, and the cached answers' reachability agrees with the plain run
  // (arrival times come from the set — richer than BM-BFS's
  // boolean-only answers, and cross-checked against brute force above).
  std::vector<ReachQuery> queries;
  for (const ReachQuery& q : MakeQueries(30, 328)) {
    for (int rep = 0; rep < 3; ++rep) queries.push_back(q);
  }
  auto backend =
      MakeReachGraphBackend(stack_->graph, ReachGraphTraversal::kBmBfs);
  auto baseline = QueryEngine(QueryEngineOptions{}).Run(backend.get(), queries);
  ASSERT_TRUE(baseline.ok());
  for (int threads : {1, 4}) {
    QueryEngineOptions options;
    options.num_threads = threads;
    options.result_cache_capacity = 128;
    const QueryEngine engine(options);
    auto session = backend->NewSession();
    auto cached = engine.Run(session.get(), queries);
    ASSERT_TRUE(cached.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(cached->answers[i].reachable, baseline->answers[i].reachable)
          << queries[i].ToString() << " threads=" << threads;
    }
    auto rerun = engine.Run(session.get(), queries);
    ASSERT_TRUE(rerun.ok());
    EXPECT_EQ(rerun->summary.result_cache_hits, queries.size())
        << "threads=" << threads;
  }
}

TEST_F(EngineTest, PointQueryBackendsRejectReachableSet) {
  auto grail = MakeGrailBackend(stack_->grail, GrailMode::kDisk);
  auto result = grail->ReachableSet(0, TimeInterval(0, 50));
  EXPECT_TRUE(result.status().IsNotSupported());
  // SPJ used to be point-query-only too; its slab sweep now keeps the
  // infection ticks it always computed, so the set path works.
  auto spj = MakeSpjBackend(stack_->spj);
  auto set = spj->ReachableSet(0, TimeInterval(0, 50));
  EXPECT_TRUE(set.ok()) << set.status().ToString();
}

TEST_F(EngineTest, SessionsAreIndependent) {
  auto backend = MakeReachGridBackend(stack_->grid);
  auto session = backend->NewSession();
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->DescribeIndex(), backend->DescribeIndex());

  const ReachQuery q = MakeQueries(1, 5)[0];
  ASSERT_TRUE(backend->Query(q).ok());
  const QueryStats backend_stats = backend->last_query_stats();
  // Querying the session does not disturb the original session's stats.
  ASSERT_TRUE(session->Query(q).ok());
  EXPECT_EQ(backend->last_query_stats().pages_fetched,
            backend_stats.pages_fetched);
  // A fresh session has a cold pool: it pays at least as many page
  // fetches as the warmed-up original.
  EXPECT_GE(session->last_query_stats().pages_fetched,
            backend_stats.pages_fetched);
}

TEST_F(EngineTest, ClearCacheMakesNextIdenticalQueryRefetchSequentially) {
  // The ClearCache contract: after ClearCache(), the next identical query
  // must refetch its pages — cold IO is at least the warm IO. Memory
  // backends hold trivially (0 >= 0).
  const ReachQuery q = MakeQueries(1, 321)[0];
  for (auto& backend : AllBackends()) {
    ASSERT_TRUE(backend->Query(q).ok()) << backend->DescribeIndex();
    ASSERT_TRUE(backend->Query(q).ok()) << backend->DescribeIndex();
    const uint64_t warm_pages = backend->last_query_stats().pages_fetched;
    const double warm_io = backend->last_query_stats().io_cost;
    backend->ClearCache();
    ASSERT_TRUE(backend->Query(q).ok()) << backend->DescribeIndex();
    EXPECT_GE(backend->last_query_stats().pages_fetched, warm_pages)
        << backend->DescribeIndex();
    EXPECT_GE(backend->last_query_stats().io_cost, warm_io)
        << backend->DescribeIndex();
  }
}

TEST_F(EngineTest, ClearCacheContractHoldsUnder4EngineThreads) {
  // Same contract through the engine: a cold_cache run (ClearCache before
  // every query, on every worker session) costs at least as much IO as a
  // warm run of the same workload, for every backend.
  std::vector<ReachQuery> queries;
  for (const ReachQuery& q : MakeQueries(10, 322)) {
    for (int rep = 0; rep < 4; ++rep) queries.push_back(q);
  }
  QueryEngineOptions warm_options;
  warm_options.num_threads = 4;
  QueryEngineOptions cold_options = warm_options;
  cold_options.cold_cache = true;
  for (auto& backend : AllBackends()) {
    auto cold = QueryEngine(cold_options).Run(backend.get(), queries);
    ASSERT_TRUE(cold.ok()) << backend->DescribeIndex();
    auto warm_session = backend->NewSession();
    auto warm = QueryEngine(warm_options).Run(warm_session.get(), queries);
    ASSERT_TRUE(warm.ok()) << backend->DescribeIndex();
    EXPECT_GE(cold->summary.total_pages_fetched,
              warm->summary.total_pages_fetched)
        << backend->DescribeIndex();
    EXPECT_GE(cold->summary.total_io_cost, warm->summary.total_io_cost)
        << backend->DescribeIndex();
  }
}

TEST_F(EngineTest, ResultCacheAnswersAreDeterministicAndHit) {
  // A workload with each query repeated 4x. With the result cache on,
  // answers must be byte-identical to the uncached run — sequentially and
  // under 4 threads — while repeated point queries hit the cache.
  std::vector<ReachQuery> queries;
  for (const ReachQuery& q : MakeQueries(40, 323)) {
    for (int rep = 0; rep < 4; ++rep) queries.push_back(q);
  }
  // ReachGrid enumerates reachable sets (cacheable); brute force is the
  // oracle cross-check.
  std::vector<std::unique_ptr<ReachabilityIndex>> backends;
  backends.push_back(MakeReachGridBackend(stack_->grid));
  backends.push_back(MakeBruteForceBackend(stack_->network));
  for (auto& backend : backends) {
    auto baseline =
        QueryEngine(QueryEngineOptions{}).Run(backend.get(), queries);
    ASSERT_TRUE(baseline.ok()) << backend->DescribeIndex();
    EXPECT_EQ(baseline->summary.result_cache_hits, 0u);

    for (int threads : {1, 4}) {
      QueryEngineOptions options;
      options.num_threads = threads;
      options.result_cache_capacity = 128;
      const QueryEngine engine(options);
      auto session = backend->NewSession();
      auto cached = engine.Run(session.get(), queries);
      ASSERT_TRUE(cached.ok()) << backend->DescribeIndex();
      EXPECT_EQ(SerializeAnswers(baseline->answers), SerializeAnswers(cached->answers))
          << backend->DescribeIndex() << " threads=" << threads
          << ": cached answers differ from uncached";
      // A second run on the same engine finds every key already cached
      // (the first run inserted all 40; racing workers could in theory
      // make the FIRST run's hit count zero, so assert on the rerun).
      auto rerun = engine.Run(session.get(), queries);
      ASSERT_TRUE(rerun.ok()) << backend->DescribeIndex();
      EXPECT_EQ(SerializeAnswers(baseline->answers), SerializeAnswers(rerun->answers))
          << backend->DescribeIndex() << " threads=" << threads;
      EXPECT_EQ(rerun->summary.result_cache_hits, queries.size())
          << backend->DescribeIndex() << " threads=" << threads;
    }
  }
}

TEST(ResultCacheTest, StaleEntriesFromDestroyedIndexAreDropped) {
  // Address-reuse (ABA) guard: an entry whose producing index died must
  // not be served to a new index that the allocator placed at the same
  // address. Simulated with an aliasing shared_ptr carrying the old raw
  // address under a new owner.
  ResultCache cache(4);
  const TimeInterval interval(0, 10);
  auto set = std::make_shared<const std::vector<Timestamp>>(
      std::vector<Timestamp>{0, 5, kInvalidTime});

  auto address = std::make_shared<int>(1);  // The reused "index address".
  {
    auto old_index = std::make_shared<int>(2);
    std::shared_ptr<const void> old_token(old_index, address.get());
    cache.Insert(old_token, 7, interval, set);
    EXPECT_NE(cache.Lookup(old_token, 7, interval), nullptr);
  }  // Old index destroyed; the entry's liveness witness expires.

  std::shared_ptr<const void> new_token = address;  // New index, same key.
  EXPECT_EQ(cache.Lookup(new_token, 7, interval), nullptr);
  // The new index can populate and then hit the very same key.
  cache.Insert(new_token, 7, interval, set);
  EXPECT_NE(cache.Lookup(new_token, 7, interval), nullptr);
}

TEST_F(EngineTest, ResultCacheNeverCrossesIndexes) {
  // One engine serving two different indexes must not serve index A's
  // memoized sets to index B: entries are keyed by IndexIdentity().
  RandomWaypointParams params;
  params.num_objects = stack_->store.num_objects();
  params.area = Rect(0, 0, 1200, 1200);
  params.duration = 400;
  params.seed = 777;  // Different dataset, same id space.
  auto other_store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(other_store.ok());
  auto other_network = std::make_shared<const ContactNetwork>(
      other_store->num_objects(), other_store->span(),
      ExtractContacts(*other_store, kContactRange));

  auto a = MakeBruteForceBackend(stack_->network);
  auto b = MakeBruteForceBackend(other_network);
  ASSERT_NE(a->IndexIdentity(), b->IndexIdentity());

  const std::vector<ReachQuery> queries = MakeQueries(60, 326);
  auto baseline_b = QueryEngine(QueryEngineOptions{}).Run(b.get(), queries);
  ASSERT_TRUE(baseline_b.ok());

  QueryEngineOptions options;
  options.result_cache_capacity = 256;
  const QueryEngine engine(options);
  ASSERT_TRUE(engine.Run(a.get(), queries).ok());  // Warms A's entries.
  auto cached_b = engine.Run(b.get(), queries);
  ASSERT_TRUE(cached_b.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(cached_b->answers[i].reachable,
              baseline_b->answers[i].reachable)
        << "cache crossed indexes on " << queries[i].ToString();
  }
  // And sessions of one backend share the identity (and thus entries).
  EXPECT_EQ(a->NewSession()->IndexIdentity(), a->IndexIdentity());
}

TEST_F(EngineTest, ColdCacheModeDisablesResultCache) {
  // cold_cache measures every query cold; memoized answers would defeat
  // that, so the result cache must be ignored when both are requested.
  std::vector<ReachQuery> queries;
  for (const ReachQuery& q : MakeQueries(10, 327)) {
    queries.push_back(q);
    queries.push_back(q);  // Guaranteed repeats.
  }
  auto backend = MakeReachGridBackend(stack_->grid);
  QueryEngineOptions plain_cold;
  plain_cold.cold_cache = true;
  auto expected = QueryEngine(plain_cold).Run(backend.get(), queries);
  ASSERT_TRUE(expected.ok());

  QueryEngineOptions cold_with_cache = plain_cold;
  cold_with_cache.result_cache_capacity = 64;
  auto session = backend->NewSession();
  auto actual = QueryEngine(cold_with_cache).Run(session.get(), queries);
  ASSERT_TRUE(actual.ok());
  EXPECT_EQ(actual->summary.result_cache_hits, 0u);
  EXPECT_EQ(actual->summary.total_pages_fetched,
            expected->summary.total_pages_fetched);
}

TEST_F(EngineTest, ResultCacheFallsBackForPointQueryOnlyBackends) {
  // GRAIL answers point queries only: its ReachableSets is the
  // interface's NotSupported default, so with the cache on the engine
  // must silently fall back to plain point queries — no hits, no failed
  // queries, the cache-off answers. Every query is sent twice, so a
  // backend that did memoize would hit on every repeat. SPJ enumerates
  // sets and is the positive control: exactly one hit per repeat.
  std::vector<ReachQuery> queries;
  for (const ReachQuery& q : MakeQueries(40, 324)) {
    queries.push_back(q);
    queries.push_back(q);
  }
  struct Case {
    std::unique_ptr<ReachabilityIndex> backend;
    uint64_t expected_hits;
  };
  std::vector<Case> cases;
  cases.push_back({MakeGrailBackend(stack_->grail, GrailMode::kMemory), 0});
  cases.push_back({MakeGrailBackend(stack_->grail, GrailMode::kDisk), 0});
  cases.push_back({MakeSpjBackend(stack_->spj), 40});
  QueryEngineOptions options;
  options.result_cache_capacity = 64;
  for (Case& c : cases) {
    const std::string name = c.backend->DescribeIndex();
    auto baseline =
        QueryEngine(QueryEngineOptions{}).Run(c.backend.get(), queries);
    ASSERT_TRUE(baseline.ok()) << name;
    auto session = c.backend->NewSession();
    auto cached = QueryEngine(options).Run(session.get(), queries);
    ASSERT_TRUE(cached.ok()) << name;
    EXPECT_EQ(cached->summary.result_cache_hits, c.expected_hits) << name;
    EXPECT_EQ(cached->summary.failed_queries, 0u) << name;
    EXPECT_EQ(SerializeAnswers(cached->answers),
              SerializeAnswers(baseline->answers))
        << name;
  }
}

TEST_F(EngineTest, SummaryReportsP99AndPoolHitRate) {
  auto backend = MakeReachGridBackend(stack_->grid);
  const std::vector<ReachQuery> queries = MakeQueries(50, 325);
  auto report = QueryEngine(QueryEngineOptions{}).Run(backend.get(), queries);
  ASSERT_TRUE(report.ok());
  const WorkloadSummary& s = report->summary;
  EXPECT_GE(s.p99_latency, s.p95_latency);
  EXPECT_GE(s.max_latency, s.p99_latency);
  EXPECT_GT(s.pool_hit_rate(), 0.0);
  EXPECT_LE(s.pool_hit_rate(), 1.0);
  EXPECT_NE(s.ToString().find("p99="), std::string::npos);
  EXPECT_NE(s.ToString().find("pool_hit_rate="), std::string::npos);
}

TEST_F(EngineTest, ColdCacheModeRefetchesEveryQuery) {
  auto backend = MakeGrailBackend(stack_->grail, GrailMode::kDisk);
  const std::vector<ReachQuery> queries = MakeQueries(20, 123);

  QueryEngineOptions cold;
  cold.cold_cache = true;
  auto cold_report = QueryEngine(cold).Run(backend.get(), queries);
  ASSERT_TRUE(cold_report.ok());

  auto warm_report =
      QueryEngine(QueryEngineOptions{}).Run(backend.get(), queries);
  ASSERT_TRUE(warm_report.ok());

  // A warm pool can only reduce the pages fetched.
  EXPECT_LE(warm_report->summary.total_pages_fetched,
            cold_report->summary.total_pages_fetched);
}

TEST_F(EngineTest, EntryPointsShareOneFailureContract) {
  const TimeInterval window(20, 200);
  QueryEngineOptions options;
  options.num_threads = 8;  // More workers than any workload below.
  options.batch_sources = 2;
  const QueryEngine engine(options);
  auto grid = MakeReachGridBackend(stack_->grid);

  // Empty inputs: healthy, empty reports from all three entry points.
  const auto no_queries = engine.Run(grid.get(), {});
  ASSERT_TRUE(no_queries.ok());
  EXPECT_TRUE(no_queries->answers.empty());
  EXPECT_TRUE(no_queries->statuses.empty());
  EXPECT_EQ(no_queries->summary.num_queries, 0u);
  const auto no_specs = engine.RunFamilies(grid.get(), {});
  ASSERT_TRUE(no_specs.ok());
  EXPECT_TRUE(no_specs->answers.empty());
  EXPECT_TRUE(no_specs->statuses.empty());
  EXPECT_EQ(no_specs->summary.num_queries, 0u);
  const auto no_sources = engine.RunClosures(grid.get(), {}, window);
  ASSERT_TRUE(no_sources.ok());
  EXPECT_TRUE(no_sources->sets.empty());
  EXPECT_TRUE(no_sources->per_batch.empty());
  EXPECT_TRUE(no_sources->statuses.empty());
  EXPECT_EQ(no_sources->summary.num_queries, 0u);

  // Three items on eight workers answer like a sequential run.
  const std::vector<ReachQuery> queries = MakeQueries(3, 4242);
  std::vector<QuerySpec> specs;
  std::vector<ObjectId> sources;
  for (const ReachQuery& q : queries) {
    QuerySpec spec;
    spec.source = q.source;
    spec.destination = q.destination;
    spec.interval = q.interval;
    specs.push_back(spec);
    sources.push_back(q.source);
  }
  const auto run = engine.Run(grid.get(), queries);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->summary.failed_queries, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const ReachAnswer expected =
        BruteForceReach(*stack_->network, queries[i].source,
                        queries[i].destination, queries[i].interval);
    EXPECT_EQ(run->answers[i].reachable, expected.reachable) << i;
  }
  const auto families = engine.RunFamilies(grid.get(), specs);
  ASSERT_TRUE(families.ok());
  EXPECT_EQ(families->summary.failed_queries, 0u);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(families->answers[i].point.reachable,
              run->answers[i].reachable)
        << i;
  }
  const auto closures = engine.RunClosures(grid.get(), sources, window);
  ASSERT_TRUE(closures.ok());
  EXPECT_EQ(closures->statuses.size(), 2u);
  EXPECT_EQ(closures->summary.failed_queries, 0u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(closures->sets[i],
              BruteForceClosure(*stack_->network, sources[i], window))
        << i;
  }

  // GRAIL answers point queries only. Its closure batches fail one by
  // one with NotSupported, counted per source, and the call succeeds.
  auto grail = MakeGrailBackend(stack_->grail, GrailMode::kDisk);
  const auto grail_closures = engine.RunClosures(grail.get(), sources, window);
  ASSERT_TRUE(grail_closures.ok()) << grail_closures.status().ToString();
  ASSERT_EQ(grail_closures->statuses.size(), 2u);
  for (const Status& status : grail_closures->statuses) {
    EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  }
  for (const std::vector<Timestamp>& set : grail_closures->sets) {
    EXPECT_TRUE(set.empty());
  }
  EXPECT_EQ(grail_closures->summary.failed_queries, sources.size());
  EXPECT_EQ(grail_closures->summary.num_reachable, 0u);
  EXPECT_EQ(grail_closures->summary.total_pages_fetched, 0u);
  const auto grail_run = engine.Run(grail.get(), queries);
  ASSERT_TRUE(grail_run.ok());
  EXPECT_EQ(grail_run->summary.failed_queries, 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(grail_run->answers[i].reachable, run->answers[i].reachable)
        << i;
  }
  QuerySpec khop = specs[0];
  khop.family = QueryFamily::kKHopReach;
  const auto grail_families =
      engine.RunFamilies(grail.get(), {specs[0], khop});
  ASSERT_TRUE(grail_families.ok());
  EXPECT_TRUE(grail_families->statuses[0].ok());
  EXPECT_TRUE(grail_families->statuses[1].IsNotSupported());
  EXPECT_EQ(grail_families->summary.failed_queries, 1u);
}

}  // namespace
}  // namespace streach
