// Streaming-ingestion equivalence suite.
//
// The invariant under test: a SegmentedIndex over any append order
// (within the lateness bound), any seal schedule (automatic grid,
// adversarial mid-run seals, unsealed live head), any shard count and
// any page codec answers byte-identically to a one-shot batch build
// over the same contacts — and both match the brute-force oracle.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/query_engine.h"
#include "generators/random_waypoint.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "storage/io_stats.h"
#include "stream/head_segment.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"
#include "test_util.h"

namespace streach {
namespace {

constexpr size_t kObjects = 40;
constexpr TimeInterval kSpan(0, 199);

std::vector<Contact> MakeRandomContacts(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<ObjectId> object(0, kObjects - 1);
  std::uniform_int_distribution<Timestamp> start(kSpan.start, kSpan.end);
  std::geometric_distribution<int> run_length(0.15);
  std::vector<Contact> contacts;
  contacts.reserve(count);
  while (contacts.size() < count) {
    const ObjectId a = object(rng);
    const ObjectId b = object(rng);
    if (a == b) continue;
    const Timestamp s = start(rng);
    const Timestamp e =
        std::min<Timestamp>(kSpan.end, s + run_length(rng));
    contacts.emplace_back(a, b, TimeInterval(s, e));
  }
  return contacts;
}

/// The ContactSink delivery order: runs grouped by close tick.
void SortBySinkOrder(std::vector<Contact>* contacts) {
  std::sort(contacts->begin(), contacts->end(),
            [](const Contact& x, const Contact& y) {
              return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
                     std::tie(y.validity.end, y.validity.start, y.a, y.b);
            });
}

/// A random arrival order that provably respects `lateness`: sorting by
/// end + U[0, lateness] guarantees that when a contact arrives, every
/// earlier arrival closed at most `lateness` ticks after it.
std::vector<Contact> ShuffleWithinLateness(std::vector<Contact> contacts,
                                           int lateness, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> jitter(0, lateness);
  std::vector<std::pair<std::pair<int64_t, uint32_t>, Contact>> keyed;
  keyed.reserve(contacts.size());
  for (const Contact& c : contacts) {
    keyed.push_back(
        {{static_cast<int64_t>(c.validity.end) + jitter(rng), rng()}, c});
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<Contact> arrivals;
  arrivals.reserve(keyed.size());
  for (auto& [key, c] : keyed) arrivals.push_back(c);
  return arrivals;
}

struct BuildSpec {
  int seal_interval = 64;
  int lateness = 0;
  int num_shards = 1;
  PageCodecKind codec = PageCodecKind::kRaw;
  int manual_seal_every = 0;  // Adversarial Seal() after every N appends.
  bool seal_remaining = true;
  std::string label;
};

std::shared_ptr<StreamingIngestor> BuildIngestor(
    const std::vector<Contact>& arrivals, const BuildSpec& spec) {
  StreamingOptions options;
  options.num_objects = kObjects;
  options.span = kSpan;
  options.seal_interval_ticks = spec.seal_interval;
  options.max_lateness_ticks = spec.lateness;
  options.num_shards = spec.num_shards;
  options.block_contacts = 16;  // Small blocks: many placement units.
  options.build.page_codec = spec.codec;
  auto ingestor = StreamingIngestor::Create(options);
  EXPECT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  size_t appended = 0;
  for (const Contact& c : arrivals) {
    const Status status = (*ingestor)->Append(c);
    EXPECT_TRUE(status.ok()) << spec.label << ": " << status.ToString();
    ++appended;
    if (spec.manual_seal_every > 0 &&
        appended % static_cast<size_t>(spec.manual_seal_every) == 0) {
      const Status seal = (*ingestor)->Seal();
      EXPECT_TRUE(seal.ok()) << spec.label << ": " << seal.ToString();
    }
  }
  if (spec.seal_remaining) {
    const Status seal = (*ingestor)->SealRemaining();
    EXPECT_TRUE(seal.ok()) << spec.label << ": " << seal.ToString();
  }
  return *ingestor;
}

std::vector<ReachQuery> MakeQueries(uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<ObjectId> object(0, kObjects - 1);
  std::uniform_int_distribution<Timestamp> tick(kSpan.start, kSpan.end);
  std::vector<ReachQuery> queries;
  queries.reserve(count + 4);
  while (queries.size() < count) {
    ReachQuery q;
    q.source = object(rng);
    q.destination = object(rng);
    const Timestamp a = tick(rng);
    const Timestamp b = tick(rng);
    q.interval = TimeInterval(std::min(a, b), std::max(a, b));
    queries.push_back(q);
  }
  // Edge cases: self-query, empty interval, out-of-range destination,
  // interval clamped by the span.
  queries.push_back({5, 5, TimeInterval(10, 40)});
  queries.push_back({3, 9, TimeInterval(50, 20)});
  queries.push_back({2, static_cast<ObjectId>(kObjects + 3),
                     TimeInterval(0, 100)});
  queries.push_back({1, 7, TimeInterval(-50, kSpan.end + 50)});
  return queries;
}

std::vector<ReachAnswer> Answers(ReachabilityIndex* index,
                                 const std::vector<ReachQuery>& queries) {
  std::vector<ReachAnswer> answers;
  answers.reserve(queries.size());
  for (const ReachQuery& q : queries) {
    auto answer = index->Query(q);
    EXPECT_TRUE(answer.ok()) << q.ToString() << ": "
                             << answer.status().ToString();
    answers.push_back(answer.ok() ? *answer : ReachAnswer{});
  }
  return answers;
}

TEST(HeadSegment, AbsorbsReordersAndExtractsCanonically) {
  HeadSegment head(/*max_lateness_ticks=*/10);
  std::vector<Contact> contacts = MakeRandomContacts(3, 300);
  std::vector<Contact> arrivals = ShuffleWithinLateness(contacts, 10, 4);
  for (const Contact& c : arrivals) ASSERT_TRUE(head.Append(c).ok());
  EXPECT_EQ(head.size(), contacts.size());
  EXPECT_EQ(head.SafeWatermark(), kSpan.end - 10 - 1);

  // Overlap collection sees everything resident, reorder buffer included.
  std::vector<Contact> overlapping;
  head.CollectOverlapping(kSpan, &overlapping);
  EXPECT_EQ(overlapping.size(), contacts.size());

  // Extraction returns exactly the runs closing at or before the
  // watermark, in canonical batch-build order.
  const Timestamp watermark = 120;
  std::vector<Contact> extracted = head.ExtractThrough(watermark);
  EXPECT_TRUE(std::is_sorted(extracted.begin(), extracted.end()));
  size_t expected = 0;
  for (const Contact& c : contacts) {
    expected += (c.validity.end <= watermark);
  }
  EXPECT_EQ(extracted.size(), expected);
  EXPECT_EQ(head.size(), contacts.size() - expected);
  EXPECT_EQ(head.sealed_through(), watermark);

  // The seal line is final: a run closing at or before it is rejected.
  const Status late = head.Append(Contact(0, 1, TimeInterval(100, 110)));
  EXPECT_TRUE(late.IsInvalidArgument()) << late.ToString();
  // A re-extract below the line is a no-op.
  EXPECT_TRUE(head.ExtractThrough(watermark - 5).empty());
}

TEST(StreamingEquivalence, AppendOrderSealScheduleShardCodecLattice) {
  const std::vector<Contact> contacts = MakeRandomContacts(7, 220);
  const ContactNetwork network(kObjects, kSpan, contacts);
  const std::vector<ReachQuery> queries = MakeQueries(11, 60);

  std::vector<ReachAnswer> oracle;
  for (const ReachQuery& q : queries) {
    oracle.push_back(
        BruteForceReach(network, q.source, q.destination, q.interval));
  }
  const std::string oracle_bytes = SerializeAnswers(oracle);

  // One-shot batch build: canonical arrival order, one seal at the end.
  std::vector<Contact> canonical = contacts;
  SortBySinkOrder(&canonical);
  BuildSpec one_shot;
  one_shot.seal_interval = static_cast<int>(kSpan.length());
  one_shot.label = "one-shot";
  auto reference = BuildIngestor(canonical, one_shot);
  EXPECT_EQ(reference->sealed_segments(), 1u);
  auto reference_index = MakeStreamingBackend(reference);
  EXPECT_EQ(SerializeAnswers(Answers(reference_index.get(), queries)),
            oracle_bytes);

  for (const int num_shards : {1, 4}) {
    for (const PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      std::vector<BuildSpec> specs(4);
      specs[0].seal_interval = 16;
      specs[0].label = "auto-seal-16/in-order";
      specs[1].seal_interval = 16;
      specs[1].lateness = 12;
      specs[1].label = "auto-seal-16/shuffled-lateness-12";
      specs[2].seal_interval = 64;
      specs[2].lateness = 5;
      specs[2].manual_seal_every = 17;
      specs[2].label = "adversarial-mid-run-seals";
      specs[3].seal_interval = 16;
      specs[3].lateness = 12;
      specs[3].seal_remaining = false;
      specs[3].label = "live-head-unsealed-tail";
      for (BuildSpec spec : specs) {
        spec.num_shards = num_shards;
        spec.codec = codec;
        spec.label += "/shards=" + std::to_string(num_shards) +
                      "/codec=" + ToString(codec);
        std::vector<Contact> arrivals =
            spec.lateness == 0
                ? canonical
                : ShuffleWithinLateness(contacts, spec.lateness,
                                        /*seed=*/13 + num_shards);
        auto ingestor = BuildIngestor(arrivals, spec);
        if (spec.seal_interval == 16 && spec.seal_remaining) {
          EXPECT_GT(ingestor->sealed_segments(), 4u) << spec.label;
        }
        if (!spec.seal_remaining) {
          EXPECT_GT(ingestor->head_contacts(), 0u) << spec.label;
        }
        auto index = MakeStreamingBackend(ingestor);
        EXPECT_EQ(SerializeAnswers(Answers(index.get(), queries)),
                  oracle_bytes)
            << spec.label;
      }
    }
  }
}

TEST(StreamingEquivalence, ClosuresMatchBruteForceAndBatchLoop) {
  const std::vector<Contact> contacts = MakeRandomContacts(17, 200);
  const ContactNetwork network(kObjects, kSpan, contacts);
  BuildSpec spec;
  spec.seal_interval = 25;
  spec.num_shards = 4;
  spec.codec = PageCodecKind::kDeltaVarint;
  spec.label = "closures";
  std::vector<Contact> canonical = contacts;
  SortBySinkOrder(&canonical);
  auto ingestor = BuildIngestor(canonical, spec);
  auto index = MakeStreamingBackend(ingestor);

  const TimeInterval window(20, 160);
  const std::vector<ObjectId> sources = {0, 7, 13, 21, 34, 39};
  for (const ObjectId source : sources) {
    auto set = index->ReachableSet(source, window);
    ASSERT_TRUE(set.ok()) << set.status().ToString();
    EXPECT_EQ(*set, BruteForceClosure(network, source, window))
        << "source " << source;
  }
  // The batch API is the per-source loop, cheaper — never different.
  auto sets = index->ReachableSets(sources, window);
  ASSERT_TRUE(sets.ok()) << sets.status().ToString();
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ((*sets)[i], BruteForceClosure(network, sources[i], window));
  }
  // An out-of-range source yields the all-unreached set, like the oracle.
  auto none = index->ReachableSet(kObjects + 5, window);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none,
            std::vector<Timestamp>(kObjects, kInvalidTime));
}

TEST(StreamingEquivalence, RunSpanningSealBoundaryIsStitched) {
  // Seal grid of 10 ticks; the {1,2} run [8,14] crosses the boundary at
  // tick 9 and must carry infection from the first segment's era into
  // the second — the cross-segment stitch.
  StreamingOptions options;
  options.num_objects = 8;
  options.span = TimeInterval(0, 39);
  options.seal_interval_ticks = 10;
  auto ingestor = StreamingIngestor::Create(options);
  ASSERT_TRUE(ingestor.ok());
  const std::vector<Contact> contacts = {
      Contact(0, 1, TimeInterval(3, 4)),
      Contact(1, 2, TimeInterval(8, 14)),
      Contact(2, 3, TimeInterval(12, 13)),
      Contact(3, 4, TimeInterval(30, 31)),
  };
  std::vector<Contact> arrivals = contacts;
  SortBySinkOrder(&arrivals);
  for (const Contact& c : arrivals) {
    ASSERT_TRUE((*ingestor)->Append(c).ok());
  }
  ASSERT_TRUE((*ingestor)->SealRemaining().ok());
  EXPECT_GE((*ingestor)->sealed_segments(), 2u);

  const ContactNetwork network(8, options.span, contacts);
  auto index = MakeStreamingBackend(*ingestor);
  auto set = index->ReachableSet(0, options.span);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(*set, BruteForceClosure(network, 0, options.span));
  EXPECT_EQ((*set)[2], 8);   // Infected the tick the crossing run opens.
  EXPECT_EQ((*set)[3], 12);  // Relayed on the far side of the boundary.
  EXPECT_EQ((*set)[4], 30);
}

TEST(StreamingEquivalence, FixpointFlowsBackwardAcrossSegments) {
  // The long {0,1} run [0,30] closes last, so it seals into a LATER
  // segment whose cover reaches back before the earlier segment's.
  // Infection enters it first (0 -> 1 at tick 0) and must then flow
  // into the earlier-sealed {1,2}@[12,13]. One pass over the segments
  // in seal order would miss that; the one sweep over the window's
  // contact list relaxes contacts in arrival-time order, whichever
  // segment holds them.
  StreamingOptions options;
  options.num_objects = 4;
  options.span = TimeInterval(0, 39);
  options.seal_interval_ticks = 10;
  auto ingestor = StreamingIngestor::Create(options);
  ASSERT_TRUE(ingestor.ok());
  const std::vector<Contact> contacts = {
      Contact(1, 2, TimeInterval(12, 13)),
      Contact(0, 1, TimeInterval(0, 30)),
  };
  std::vector<Contact> arrivals = contacts;
  SortBySinkOrder(&arrivals);
  for (const Contact& c : arrivals) {
    ASSERT_TRUE((*ingestor)->Append(c).ok());
  }
  ASSERT_TRUE((*ingestor)->SealRemaining().ok());

  const ContactNetwork network(4, options.span, contacts);
  auto index = MakeStreamingBackend(*ingestor);
  auto set = index->ReachableSet(0, options.span);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(*set, BruteForceClosure(network, 0, options.span));
  EXPECT_EQ((*set)[1], 0);
  EXPECT_EQ((*set)[2], 12);
}

TEST(StreamingStats, PerQueryStatsSumTheSegmentsRead) {
  // Sealed segments plus a live head. A query's stats are summed from
  // the segments it read: every overlapping contact counted once, and
  // exactly the IO the session's pools performed during the call.
  std::vector<Contact> arrivals = MakeRandomContacts(7, 400);
  SortBySinkOrder(&arrivals);
  BuildSpec spec;
  spec.seal_interval = 40;
  spec.seal_remaining = false;
  spec.label = "stats";
  auto ingestor = BuildIngestor(arrivals, spec);
  const TimeInterval window(30, 190);
  const StreamingIngestor::Snapshot snapshot = ingestor->SnapshotFor(window);
  ASSERT_GE(snapshot.segments.size(), 2u);
  ASSERT_FALSE(snapshot.head.empty());
  const uint64_t overlapping = static_cast<uint64_t>(
      std::count_if(arrivals.begin(), arrivals.end(), [&](const Contact& c) {
        return c.validity.Overlaps(window);
      }));

  auto index = MakeStreamingBackend(ingestor);
  const auto session_io = [&index] {
    IoStats io;
    for (const IoStats& shard : index->shard_io_stats()) io += shard;
    return io;
  };
  const std::vector<ObjectId> sources = {0, 1, 2};
  const IoStats before = session_io();
  ASSERT_TRUE(index->ReachableSets(sources, window).ok());
  const QueryStats first = index->last_query_stats();
  EXPECT_EQ(first.items_visited, overlapping);
  EXPECT_EQ(first.io_cost, (session_io() - before).NormalizedReadCost());
  EXPECT_GT(first.pages_fetched, 0u);
  EXPECT_FALSE(first.degraded);

  // A repeat is served from the session's pools: every page the first
  // call requested is now a hit.
  ASSERT_TRUE(index->ReachableSets(sources, window).ok());
  const QueryStats repeat = index->last_query_stats();
  EXPECT_EQ(repeat.pages_fetched, 0u);
  EXPECT_EQ(repeat.io_cost, 0.0);
  EXPECT_EQ(repeat.pool_hits, first.pages_fetched + first.pool_hits);
  EXPECT_EQ(repeat.items_visited, overlapping);

  // Emptied pools make the call cold again.
  index->ClearCache();
  ASSERT_TRUE(index->ReachableSets(sources, window).ok());
  const QueryStats cold = index->last_query_stats();
  EXPECT_EQ(cold.pages_fetched, first.pages_fetched);
  EXPECT_EQ(cold.pool_hits, first.pool_hits);
  EXPECT_EQ(cold.io_cost, first.io_cost);
  EXPECT_EQ(cold.items_visited, overlapping);
}

TEST(StreamingIngestor, RejectsInvalidAndLateAppends) {
  StreamingOptions options;
  options.num_objects = 10;
  options.span = TimeInterval(0, 99);
  options.seal_interval_ticks = 10;
  options.max_lateness_ticks = 2;
  auto ingestor = StreamingIngestor::Create(options);
  ASSERT_TRUE(ingestor.ok());

  EXPECT_TRUE((*ingestor)
                  ->Append(Contact(0, 12, TimeInterval(5, 6)))
                  .IsInvalidArgument());
  EXPECT_TRUE((*ingestor)
                  ->Append(Contact(3, 3, TimeInterval(5, 6)))
                  .IsInvalidArgument());
  EXPECT_TRUE((*ingestor)
                  ->Append(Contact(0, 1, TimeInterval(90, 120)))
                  .IsInvalidArgument());

  // Advance the stream far enough that tick 6 is sealed history.
  ASSERT_TRUE((*ingestor)->Append(Contact(0, 1, TimeInterval(0, 50))).ok());
  const Status late =
      (*ingestor)->Append(Contact(1, 2, TimeInterval(5, 6)));
  EXPECT_TRUE(late.IsInvalidArgument()) << late.ToString();

  // The sink path latches the first failure instead of losing it.
  (*ingestor)->OnContact(Contact(2, 3, TimeInterval(1, 2)));
  EXPECT_TRUE((*ingestor)->status().IsInvalidArgument());
}

TEST(StreamingIngestor, ValidatesOptions) {
  StreamingOptions options;  // num_objects == 0.
  options.span = TimeInterval(0, 10);
  EXPECT_TRUE(StreamingIngestor::Create(options).status().IsInvalidArgument());
  options.num_objects = 5;
  options.seal_interval_ticks = 0;
  EXPECT_TRUE(StreamingIngestor::Create(options).status().IsInvalidArgument());
  options.seal_interval_ticks = 8;
  options.max_lateness_ticks = -1;
  EXPECT_TRUE(StreamingIngestor::Create(options).status().IsInvalidArgument());
  options.max_lateness_ticks = 0;
  EXPECT_TRUE(StreamingIngestor::Create(options).ok());
}

TEST(StreamingEngine, EngineOptionsBridgeAndCodecGuard) {
  // A streaming backend declares its codec, so the engine's
  // mis-declared-decode guard applies to the live tier too.
  const std::vector<Contact> contacts = MakeRandomContacts(23, 120);
  std::vector<Contact> canonical = contacts;
  SortBySinkOrder(&canonical);
  BuildSpec spec;
  spec.codec = PageCodecKind::kDeltaVarint;
  spec.seal_interval = 40;
  spec.label = "engine";
  auto ingestor = BuildIngestor(canonical, spec);
  auto backend = MakeStreamingBackend(ingestor);

  QueryEngineOptions mismatched;
  mismatched.page_codec = PageCodecKind::kRaw;
  const QueryEngine wrong(mismatched);
  const std::vector<ReachQuery> queries = MakeQueries(29, 20);
  EXPECT_TRUE(wrong.Run(backend.get(), queries).status().IsInvalidArgument());

  QueryEngineOptions matched;
  matched.page_codec = PageCodecKind::kDeltaVarint;
  matched.num_threads = 4;
  matched.io_queue_depth = 4;
  const QueryEngine engine(matched);
  auto report = engine.Run(backend.get(), queries);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ContactNetwork network(kObjects, kSpan, contacts);
  std::vector<ReachAnswer> oracle;
  for (const ReachQuery& q : queries) {
    oracle.push_back(
        BruteForceReach(network, q.source, q.destination, q.interval));
  }
  EXPECT_EQ(SerializeAnswers(report->answers), SerializeAnswers(oracle));

  // Closure workloads batch through the engine too.
  QueryEngineOptions closure_options = matched;
  closure_options.batch_sources = 3;
  const QueryEngine closures(closure_options);
  const std::vector<ObjectId> sources = {1, 4, 9, 16, 25, 36};
  const TimeInterval window(10, 150);
  auto closure_report =
      closures.RunClosures(backend.get(), sources, window);
  ASSERT_TRUE(closure_report.ok()) << closure_report.status().ToString();
  EXPECT_EQ(closure_report->summary.failed_queries, 0u);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(closure_report->sets[i],
              BruteForceClosure(network, sources[i], window));
  }
}

TEST(StreamingSink, ExtractContactsToFeedsTheHeadDirectly) {
  RandomWaypointParams params;
  params.num_objects = 60;
  params.area = Rect(0, 0, 600, 400);
  params.duration = 80;
  params.seed = 99;
  auto store = GenerateRandomWaypoint(params);
  ASSERT_TRUE(store.ok());
  const double dt = 30.0;
  const std::vector<Contact> contacts = ExtractContacts(*store, dt);

  StreamingOptions options;
  options.num_objects = store->num_objects();
  options.span = store->span();
  options.seal_interval_ticks = 20;
  auto ingestor = StreamingIngestor::Create(options);
  ASSERT_TRUE(ingestor.ok());
  ExtractContactsTo(*store, dt, store->span(), JoinOptions{},
                    ingestor->get());
  ASSERT_TRUE((*ingestor)->status().ok())
      << (*ingestor)->status().ToString();
  EXPECT_EQ((*ingestor)->appended_contacts(), contacts.size());
  // Sink order is in-order by close tick, so the grid sealed as the
  // stream flowed — before any end-of-stream flush.
  EXPECT_GT((*ingestor)->sealed_segments(), 0u);

  const ContactNetwork network(store->num_objects(), store->span(),
                               contacts);
  auto index = MakeStreamingBackend(*ingestor);
  const TimeInterval window(0, 60);
  for (const ObjectId source : {0u, 11u, 37u, 59u}) {
    auto set = index->ReachableSet(source, window);
    ASSERT_TRUE(set.ok());
    EXPECT_EQ(*set, BruteForceClosure(network, source, window))
        << "source " << source;
  }
}

TEST(StreamingConcurrency, AppendsSealsAndQueriesRace) {
  std::vector<Contact> contacts = MakeRandomContacts(31, 400);
  const ContactNetwork network(kObjects, kSpan, contacts);
  std::vector<Contact> arrivals = contacts;
  SortBySinkOrder(&arrivals);

  StreamingOptions options;
  options.num_objects = kObjects;
  options.span = kSpan;
  options.seal_interval_ticks = 16;
  options.num_shards = 2;
  options.block_contacts = 16;
  options.build.page_codec = PageCodecKind::kDeltaVarint;
  auto created = StreamingIngestor::Create(options);
  ASSERT_TRUE(created.ok());
  std::shared_ptr<StreamingIngestor> ingestor = *created;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    size_t n = 0;
    for (const Contact& c : arrivals) {
      EXPECT_TRUE(ingestor->Append(c).ok());
      if (++n % 37 == 0) EXPECT_TRUE(ingestor->Seal().ok());
    }
    done.store(true);
  });

  // Readers race the writer; they may see any prefix of the stream, so
  // only wellformedness is asserted here — exact answers come after the
  // writer joins.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      auto session = MakeStreamingBackend(ingestor);
      std::mt19937 rng(100 + static_cast<uint32_t>(r));
      std::uniform_int_distribution<ObjectId> object(0, kObjects - 1);
      while (!done.load()) {
        const ObjectId source = object(rng);
        auto set = session->ReachableSet(source, TimeInterval(0, 150));
        ASSERT_TRUE(set.ok()) << set.status().ToString();
        ASSERT_EQ(set->size(), kObjects);
        EXPECT_EQ((*set)[source], 0);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(ingestor->SealRemaining().ok());

  auto index = MakeStreamingBackend(ingestor);
  const std::vector<ReachQuery> queries = MakeQueries(41, 40);
  std::vector<ReachAnswer> oracle;
  for (const ReachQuery& q : queries) {
    oracle.push_back(
        BruteForceReach(network, q.source, q.destination, q.interval));
  }
  EXPECT_EQ(SerializeAnswers(Answers(index.get(), queries)),
            SerializeAnswers(oracle));
}

}  // namespace
}  // namespace streach
