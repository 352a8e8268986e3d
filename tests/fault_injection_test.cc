// Fault-injection suite: the storage stack's integrity and retry layers
// under a deterministic seeded fault schedule.
//
// The contracts under test:
//  * transient (Unavailable) read faults are fully masked by any retry
//    budget >= the per-page failure count, and surfaced as per-query
//    statuses (never aborting the batch, never wrong answers) otherwise;
//  * permanent (IOError) faults are never masked by retries;
//  * corrupted media — whether the page-checksum sidecar is stale or
//    freshly recomputed over the damage — is always detected as
//    Corruption, under every codec including raw, and never produces a
//    silently wrong answer;
//  * a streaming segment that fails verification is quarantined: by
//    default every overlapping query keeps failing with Corruption;
//    under degraded serving queries skip it and flag the answer.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/spj.h"
#include "common/check.h"
#include "common/encoding.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/query_spec.h"
#include "engine/reachability_index.h"
#include "generators/random_waypoint.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/block_device.h"
#include "storage/block_file.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/fault_injector.h"
#include "storage/page_codec.h"
#include "storage/storage_topology.h"
#include "stream/sealed_segment.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"
#include "test_util.h"

namespace streach {
namespace {

constexpr double kContactRange = 25.0;

bool SameAnswer(const ReachAnswer& x, const ReachAnswer& y) {
  return x.reachable == y.reachable && x.arrival_time == y.arrival_time;
}

// ------------------------------------------------------------ injector

TEST(FaultInjector, ClassificationIsDeterministicAndSeedSensitive) {
  FaultInjectorOptions options;
  options.seed = 42;
  options.transient_rate = 0.3;
  options.permanent_rate = 0.1;
  options.bitflip_rate = 0.2;
  const FaultInjector a(options);
  const FaultInjector b(options);
  options.seed = 43;
  const FaultInjector c(options);

  int transients = 0, permanents = 0, flips = 0, seed_diffs = 0;
  for (uint32_t shard = 0; shard < 4; ++shard) {
    for (uint64_t page = 0; page < 500; ++page) {
      EXPECT_EQ(a.IsTransient(shard, page), b.IsTransient(shard, page));
      EXPECT_EQ(a.IsPermanent(shard, page), b.IsPermanent(shard, page));
      EXPECT_EQ(a.IsBitFlip(shard, page), b.IsBitFlip(shard, page));
      transients += a.IsTransient(shard, page);
      permanents += a.IsPermanent(shard, page);
      flips += a.IsBitFlip(shard, page);
      seed_diffs += a.IsTransient(shard, page) != c.IsTransient(shard, page);
    }
  }
  // Rates are honored roughly (2000 draws each) and the seed matters.
  EXPECT_NEAR(transients / 2000.0, 0.3, 0.05);
  EXPECT_NEAR(permanents / 2000.0, 0.1, 0.05);
  EXPECT_NEAR(flips / 2000.0, 0.2, 0.05);
  EXPECT_GT(seed_diffs, 0);
}

TEST(FaultInjector, TransientPagesHealAfterBudgetAndResetRearms) {
  FaultInjectorOptions options;
  options.seed = 7;
  options.transient_rate = 0.5;
  options.transient_failures = 2;
  const FaultInjector injector(options);

  uint64_t afflicted = kInvalidPage;
  for (uint64_t page = 0; page < 64; ++page) {
    if (injector.IsTransient(0, page) && !injector.IsPermanent(0, page)) {
      afflicted = page;
      break;
    }
  }
  ASSERT_NE(afflicted, kInvalidPage);

  // First two attempts fail Unavailable (with page context), then heal.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status status = injector.OnRead(0, afflicted);
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
    EXPECT_NE(status.message().find("page " + std::to_string(afflicted)),
              std::string::npos)
        << status.ToString();
  }
  EXPECT_TRUE(injector.OnRead(0, afflicted).ok());
  EXPECT_EQ(injector.transient_injected(), 2u);

  injector.ResetAttempts();
  EXPECT_TRUE(injector.OnRead(0, afflicted).IsUnavailable());
}

// ------------------------------------------------- device & pool layer

TEST(FaultInjection, BufferPoolRetriesMaskTransientsAndAccountThem) {
  BlockDevice dev(64);
  dev.AllocatePages(16);
  for (PageId p = 0; p < 16; ++p) {
    ASSERT_TRUE(dev.WritePage(p, std::string(8, static_cast<char>(p))).ok());
  }
  FaultInjectorOptions options;
  options.seed = 11;
  options.transient_rate = 0.5;
  options.transient_failures = 2;
  const FaultInjector injector(options);
  dev.set_fault_injector(&injector, /*shard_label=*/0);

  // Budget below the failure count: afflicted pages surface Unavailable.
  {
    BufferPool pool(&dev, 16);
    pool.set_max_read_retries(1);
    bool saw_unavailable = false;
    for (PageId p = 0; p < 16; ++p) {
      const auto page = pool.Fetch(p);
      if (!page.ok()) {
        EXPECT_TRUE(page.status().IsUnavailable()) << page.status().ToString();
        saw_unavailable = true;
      }
    }
    EXPECT_TRUE(saw_unavailable);
  }

  // Budget >= failure count: every read succeeds; the stats expose both
  // the faults observed and the reissues that masked them. (The pool
  // above already burned one failed attempt per afflicted page, so
  // re-arm the schedule for a clean count.)
  injector.ResetAttempts();
  BufferPool pool(&dev, 16);
  pool.set_max_read_retries(3);
  for (PageId p = 0; p < 16; ++p) {
    const auto page = pool.Fetch(p);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ((*page)[0], static_cast<char>(p));
  }
  EXPECT_GT(pool.io_stats().transient_faults, 0u);
  // Fully masked run: every observed fault was answered by a reissue.
  EXPECT_EQ(pool.io_stats().read_retries, pool.io_stats().transient_faults);

  dev.set_fault_injector(nullptr, 0);
}

TEST(FaultInjection, PermanentFaultsAreNeverMaskedByRetries) {
  BlockDevice dev(64);
  dev.AllocatePages(8);
  FaultInjectorOptions options;
  options.seed = 3;
  options.permanent_rate = 1.0;  // Every page is dead media.
  const FaultInjector injector(options);
  dev.set_fault_injector(&injector, 2);

  BufferPool pool(&dev, 8);
  pool.set_max_read_retries(10);
  const auto page = pool.Fetch(5);
  ASSERT_FALSE(page.ok());
  EXPECT_TRUE(page.status().IsIOError()) << page.status().ToString();
  // The error names the page and the shard label it was attached with.
  EXPECT_NE(page.status().message().find("page 5"), std::string::npos);
  EXPECT_NE(page.status().message().find("shard 2"), std::string::npos);
  // No retry was spent on a non-transient failure.
  EXPECT_EQ(pool.io_stats().read_retries, 0u);
}

TEST(FaultInjection, CorruptionDetectedUnderBothChecksumLayersAndCodecs) {
  for (const PageCodecKind kind :
       {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
    for (const bool refresh : {false, true}) {
      StorageTopologyOptions topology_options;
      topology_options.num_shards = 1;
      topology_options.page_size = 128;
      StorageTopology topology(topology_options);
      ExtentWriter writer(topology.shard(0), 0, 1, GetPageCodec(kind));
      Encoder enc;
      RecordShape shape;
      enc.PutVarint(200);
      shape.Bytes(enc.size());
      uint32_t v = 0;
      for (int i = 0; i < 200; ++i) {
        v += 5;
        enc.PutU32(v);
      }
      shape.U32Delta(200);
      const auto extent = writer.Append(enc.buffer(), shape);
      ASSERT_TRUE(extent.ok());
      ASSERT_TRUE(writer.Flush().ok());

      // Pre-damage sanity: the stored blob reads back exactly.
      {
        BufferPool pool(&topology, 64);
        pool.set_page_codec(GetPageCodec(kind));
        const auto record = ReadExtent(&pool, *extent, 128);
        ASSERT_TRUE(record.ok()) << record.status().ToString();
        EXPECT_EQ(*record, enc.buffer());
      }

      FaultInjectorOptions options;
      options.seed = 99;
      options.bitflip_rate = 1.0;  // Damage every stored page.
      const FaultInjector injector(options);
      ASSERT_TRUE(CorruptMedia(topology, injector, refresh).ok());

      // With a stale sidecar the page-level verify trips; with refreshed
      // sidecars only the blob footer can catch it. Either way: a
      // Corruption with locating context, never garbage bytes.
      BufferPool pool(&topology, 64);
      pool.set_page_codec(GetPageCodec(kind));
      const auto record = ReadExtent(&pool, *extent, 128);
      ASSERT_FALSE(record.ok())
          << "codec=" << static_cast<int>(kind) << " refresh=" << refresh;
      EXPECT_TRUE(record.status().IsCorruption())
          << record.status().ToString();
      EXPECT_NE(record.status().message().find(
                    refresh ? "blob checksum mismatch"
                            : "page checksum mismatch"),
                std::string::npos)
          << record.status().ToString();
    }
  }
}

// ------------------------------------------------- backend fault matrix

struct Matrix {
  std::shared_ptr<const TrajectoryStore> store;
  std::shared_ptr<const ContactNetwork> network;
  std::vector<ReachQuery> queries;
};

Matrix MakeMatrixInputs() {
  Matrix m;
  RandomWaypointParams params;
  params.num_objects = 60;
  params.area = Rect(0, 0, 800, 800);
  params.duration = 200;
  params.seed = 20260808;
  auto store = GenerateRandomWaypoint(params);
  STREACH_CHECK(store.ok());
  m.store = std::make_shared<const TrajectoryStore>(std::move(*store));
  m.network = std::make_shared<const ContactNetwork>(
      m.store->num_objects(), m.store->span(),
      ExtractContacts(*m.store, kContactRange));
  std::mt19937 rng(5);
  std::uniform_int_distribution<ObjectId> object(
      0, static_cast<ObjectId>(m.store->num_objects() - 1));
  std::uniform_int_distribution<Timestamp> tick(m.store->span().start,
                                                m.store->span().end);
  for (int i = 0; i < 40; ++i) {
    ReachQuery q;
    q.source = object(rng);
    q.destination = object(rng);
    const Timestamp a = tick(rng);
    const Timestamp b = tick(rng);
    q.interval = TimeInterval(std::min(a, b), std::max(a, b));
    m.queries.push_back(q);
  }
  return m;
}

/// One disk-resident backend variant of the lattice: a factory for fresh
/// sessions plus the topologies faults attach to.
struct BackendVariant {
  std::string label;
  std::function<std::unique_ptr<ReachabilityIndex>()> session;
  std::vector<const StorageTopology*> topologies;
  // Keeps the underlying indexes/ingestors alive.
  std::vector<std::shared_ptr<const void>> pins;
  // Streaming only: the sealed segments, in `topologies` order.
  std::vector<std::shared_ptr<const SealedSegment>> segments;
};

std::vector<BackendVariant> BuildVariants(const Matrix& m, int num_shards,
                                          PageCodecKind codec) {
  std::vector<BackendVariant> variants;
  BuildOptions build;
  build.page_codec = codec;

  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 20;
  grid_options.spatial_cell_size = 120.0;
  grid_options.contact_range = kContactRange;
  grid_options.num_shards = num_shards;
  grid_options.build = build;
  auto grid = ReachGridIndex::Build(*m.store, grid_options);
  STREACH_CHECK(grid.ok());
  std::shared_ptr<const ReachGridIndex> grid_sp = std::move(*grid);
  variants.push_back({"grid",
                      [grid_sp] { return MakeReachGridBackend(grid_sp); },
                      {&grid_sp->topology()},
                      {grid_sp}});

  ReachGraphOptions graph_options;
  graph_options.num_shards = num_shards;
  graph_options.build = build;
  auto graph = ReachGraphIndex::Build(*m.network, graph_options);
  STREACH_CHECK(graph.ok());
  std::shared_ptr<const ReachGraphIndex> graph_sp = std::move(*graph);
  variants.push_back(
      {"graph",
       [graph_sp] {
         return MakeReachGraphBackend(graph_sp, ReachGraphTraversal::kBmBfs);
       },
       {&graph_sp->topology()},
       {graph_sp}});

  SpjOptions spj_options;
  spj_options.contact_range = kContactRange;
  spj_options.num_shards = num_shards;
  spj_options.build = build;
  auto spj = SpjEvaluator::Build(*m.store, spj_options);
  STREACH_CHECK(spj.ok());
  std::shared_ptr<const SpjEvaluator> spj_sp = std::move(*spj);
  variants.push_back({"spj", [spj_sp] { return MakeSpjBackend(spj_sp); },
                      {&spj_sp->topology()},
                      {spj_sp}});

  StreamingOptions stream_options;
  stream_options.num_objects = m.store->num_objects();
  stream_options.span = m.store->span();
  stream_options.seal_interval_ticks = 50;
  stream_options.num_shards = num_shards;
  stream_options.block_contacts = 16;
  // Small pages: each segment spans enough pages that the fault
  // lottery reliably afflicts some at every tested rate.
  stream_options.page_size = 128;
  stream_options.build = build;
  auto ingestor = StreamingIngestor::Create(stream_options);
  STREACH_CHECK(ingestor.ok());
  std::vector<Contact> contacts = m.network->contacts();
  std::sort(contacts.begin(), contacts.end(),
            [](const Contact& x, const Contact& y) {
              return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
                     std::tie(y.validity.end, y.validity.start, y.a, y.b);
            });
  for (const Contact& c : contacts) {
    STREACH_CHECK((*ingestor)->Append(c).ok());
  }
  STREACH_CHECK((*ingestor)->SealRemaining().ok());
  std::shared_ptr<const StreamingIngestor> ingestor_sp = *ingestor;
  BackendVariant streaming;
  streaming.label = "streaming";
  streaming.session = [ingestor_sp] {
    return MakeStreamingBackend(ingestor_sp);
  };
  streaming.segments = ingestor_sp->SnapshotFor(m.store->span()).segments;
  for (const auto& segment : streaming.segments) {
    streaming.topologies.push_back(&segment->topology());
  }
  streaming.pins.push_back(ingestor_sp);
  STREACH_CHECK(!streaming.topologies.empty());
  variants.push_back(std::move(streaming));
  return variants;
}

TEST(FaultMatrix, TransientFaultsMaskedWithinBudgetSurfacedBeyondIt) {
  const Matrix m = MakeMatrixInputs();
  for (const int num_shards : {1, 4}) {
    for (const PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      for (BackendVariant& variant : BuildVariants(m, num_shards, codec)) {
        const std::string label = variant.label + " shards=" +
                                  std::to_string(num_shards) + " codec=" +
                                  std::to_string(static_cast<int>(codec));
        QueryEngineOptions engine_options;
        engine_options.page_codec = codec;

        // Fault-free baseline.
        auto baseline_session = variant.session();
        const auto baseline = QueryEngine(engine_options)
                                  .Run(baseline_session.get(), m.queries);
        ASSERT_TRUE(baseline.ok()) << label << ": "
                                   << baseline.status().ToString();
        const std::string baseline_bytes =
            SerializeAnswers(baseline->answers);

        FaultInjectorOptions fault_options;
        fault_options.seed = 1234;
        fault_options.transient_rate = 0.5;
        fault_options.transient_failures = 2;
        const FaultInjector injector(fault_options);
        for (const StorageTopology* topology : variant.topologies) {
          topology->AttachFaultInjector(&injector);
        }

        for (const int retries : {0, 3}) {
          injector.ResetAttempts();
          QueryEngineOptions faulted_options = engine_options;
          faulted_options.max_read_retries = retries;
          auto session = variant.session();
          const auto report =
              QueryEngine(faulted_options).Run(session.get(), m.queries);
          ASSERT_TRUE(report.ok())
              << label << " retries=" << retries << ": "
              << report.status().ToString();
          ASSERT_EQ(report->statuses.size(), m.queries.size());
          uint64_t failed = 0;
          for (size_t i = 0; i < m.queries.size(); ++i) {
            if (report->statuses[i].ok()) {
              // Never a silent wrong answer: a query that succeeded
              // under faults answers exactly like the fault-free run.
              EXPECT_TRUE(SameAnswer(report->answers[i], baseline->answers[i]))
                  << label << " retries=" << retries << " query " << i;
            } else {
              EXPECT_TRUE(report->statuses[i].IsUnavailable())
                  << report->statuses[i].ToString();
              ++failed;
            }
          }
          EXPECT_EQ(report->summary.failed_queries, failed);
          if (retries >= fault_options.transient_failures) {
            // Budget covers the schedule: everything masked.
            EXPECT_EQ(failed, 0u) << label;
            EXPECT_EQ(SerializeAnswers(report->answers), baseline_bytes)
                << label;
          }
        }
        EXPECT_GT(injector.transient_injected(), 0u) << label;

        for (const StorageTopology* topology : variant.topologies) {
          topology->AttachFaultInjector(nullptr);
        }
      }
    }
  }
}

TEST(FaultMatrix, PermanentFaultsSurfaceAsIOErrorsDespiteRetries) {
  const Matrix m = MakeMatrixInputs();
  // The same queries as boolean specs, and closures of ten of their
  // sources in batches of 3 (the last batch holds one source).
  std::vector<QuerySpec> specs;
  std::vector<ObjectId> sources;
  for (const ReachQuery& q : m.queries) {
    QuerySpec spec;
    spec.source = q.source;
    spec.destination = q.destination;
    spec.interval = q.interval;
    specs.push_back(spec);
    if (sources.size() < 10) sources.push_back(q.source);
  }
  constexpr size_t kBatch = 3;
  QueryEngineOptions closure_options;
  closure_options.batch_sources = static_cast<int>(kBatch);
  for (BackendVariant& variant :
       BuildVariants(m, /*num_shards=*/4, PageCodecKind::kRaw)) {
    auto baseline_session = variant.session();
    const auto baseline =
        QueryEngine().Run(baseline_session.get(), m.queries);
    ASSERT_TRUE(baseline.ok());
    const auto baseline_families =
        QueryEngine().RunFamilies(baseline_session.get(), specs);
    ASSERT_TRUE(baseline_families.ok());
    ASSERT_EQ(baseline_families->summary.failed_queries, 0u);
    const auto baseline_closures = QueryEngine(closure_options).RunClosures(
        baseline_session.get(), sources, m.store->span());
    ASSERT_TRUE(baseline_closures.ok());
    ASSERT_EQ(baseline_closures->summary.failed_queries, 0u);

    FaultInjectorOptions fault_options;
    fault_options.seed = 77;
    fault_options.permanent_rate = 0.05;
    const FaultInjector injector(fault_options);
    for (const StorageTopology* topology : variant.topologies) {
      topology->AttachFaultInjector(&injector);
    }

    QueryEngineOptions engine_options;
    engine_options.max_read_retries = 8;  // Budget must not help.
    auto session = variant.session();
    const auto report =
        QueryEngine(engine_options).Run(session.get(), m.queries);
    ASSERT_TRUE(report.ok()) << variant.label;
    for (size_t i = 0; i < m.queries.size(); ++i) {
      if (report->statuses[i].ok()) {
        EXPECT_TRUE(SameAnswer(report->answers[i], baseline->answers[i]))
            << variant.label << " query " << i;
      } else {
        EXPECT_TRUE(report->statuses[i].IsIOError())
            << report->statuses[i].ToString();
      }
    }

    // RunFamilies and RunClosures keep the same contract: a failed spec
    // or batch records its error and the run goes on.
    auto family_session = variant.session();
    const auto families =
        QueryEngine(engine_options).RunFamilies(family_session.get(), specs);
    ASSERT_TRUE(families.ok()) << variant.label;
    uint64_t failed_specs = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (families->statuses[i].ok()) {
        EXPECT_EQ(families->answers[i], baseline_families->answers[i])
            << variant.label << " spec " << i;
      } else {
        EXPECT_TRUE(families->statuses[i].IsIOError())
            << families->statuses[i].ToString();
        ++failed_specs;
      }
    }
    EXPECT_EQ(families->summary.failed_queries, failed_specs);

    QueryEngineOptions faulted_closures = closure_options;
    faulted_closures.max_read_retries = engine_options.max_read_retries;
    auto closure_session = variant.session();
    const auto closures = QueryEngine(faulted_closures)
                              .RunClosures(closure_session.get(), sources,
                                           m.store->span());
    ASSERT_TRUE(closures.ok()) << variant.label << ": "
                               << closures.status().ToString();
    ASSERT_EQ(closures->statuses.size(),
              (sources.size() + kBatch - 1) / kBatch);
    uint64_t failed_sources = 0;
    for (size_t b = 0; b < closures->statuses.size(); ++b) {
      const size_t end = std::min(b * kBatch + kBatch, sources.size());
      const Status& status = closures->statuses[b];
      EXPECT_TRUE(status.ok() || status.IsIOError()) << status.ToString();
      for (size_t i = b * kBatch; i < end; ++i) {
        if (status.ok()) {
          EXPECT_EQ(closures->sets[i], baseline_closures->sets[i])
              << variant.label << " source " << i;
        } else {
          EXPECT_TRUE(closures->sets[i].empty()) << variant.label;
          ++failed_sources;
        }
      }
    }
    EXPECT_GT(failed_sources, 0u) << variant.label;
    EXPECT_EQ(closures->summary.failed_queries, failed_sources);

    for (const StorageTopology* topology : variant.topologies) {
      topology->AttachFaultInjector(nullptr);
    }
  }
}

// --------------------------------------------- quarantine & degradation

TEST(Quarantine, CorruptSegmentFailsClosedByDefaultAndSticks) {
  const Matrix m = MakeMatrixInputs();
  auto variants = BuildVariants(m, /*num_shards=*/1, PageCodecKind::kRaw);
  BackendVariant& streaming = variants.back();
  ASSERT_EQ(streaming.label, "streaming");
  ASSERT_GE(streaming.topologies.size(), 2u);

  // Damage every page of the FIRST sealed segment only, with refreshed
  // sidecars — so only the blob footers can convict it.
  FaultInjectorOptions fault_options;
  fault_options.seed = 5;
  fault_options.bitflip_rate = 1.0;
  const FaultInjector injector(fault_options);
  ASSERT_TRUE(CorruptMedia(*streaming.topologies[0], injector, true).ok());

  auto session = streaming.session();
  // A query over the whole span must touch the damaged segment: fails
  // with Corruption, and keeps failing (now from the quarantine list,
  // without re-reading the media).
  const auto first = session->ReachableSet(0, m.store->span());
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsCorruption()) << first.status().ToString();
  const auto second = session->ReachableSet(0, m.store->span());
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsCorruption());
  EXPECT_NE(second.status().message().find("quarantined"),
            std::string::npos)
      << second.status().ToString();
  // The quarantine registry is shared across sessions of this backend.
  auto sibling = session->NewSession();
  const auto through_sibling = sibling->ReachableSet(0, m.store->span());
  ASSERT_FALSE(through_sibling.ok());
  EXPECT_NE(through_sibling.status().message().find("quarantined"),
            std::string::npos);
}

TEST(Quarantine, DegradedServingSkipsQuarantinedSegmentsAndFlags) {
  const Matrix m = MakeMatrixInputs();
  auto variants = BuildVariants(m, /*num_shards=*/1, PageCodecKind::kRaw);
  BackendVariant& streaming = variants.back();
  ASSERT_EQ(streaming.label, "streaming");
  ASSERT_GE(streaming.topologies.size(), 2u);

  // Before damaging the first segment, read its contacts: a degraded
  // answer must be exactly the oracle's over the rest of the stream.
  const SealedSegment& damaged = *streaming.segments[0];
  std::vector<Contact> lost;
  ASSERT_TRUE(damaged
                  .LoadOverlapping(m.store->span(),
                                   damaged.NewPool(64, 1).get(), &lost)
                  .ok());
  ASSERT_FALSE(lost.empty());
  std::vector<Contact> all = m.network->contacts();
  std::sort(all.begin(), all.end());
  std::sort(lost.begin(), lost.end());
  std::vector<Contact> kept;
  std::set_difference(all.begin(), all.end(), lost.begin(), lost.end(),
                      std::back_inserter(kept));
  ASSERT_EQ(kept.size() + lost.size(), all.size());
  const ContactNetwork readable(m.store->num_objects(), m.store->span(),
                                kept);

  FaultInjectorOptions fault_options;
  fault_options.seed = 5;
  fault_options.bitflip_rate = 1.0;
  const FaultInjector injector(fault_options);
  ASSERT_TRUE(CorruptMedia(*streaming.topologies[0], injector, true).ok());

  QueryEngineOptions engine_options;
  engine_options.degraded_serving = true;
  auto session = streaming.session();
  const auto report =
      QueryEngine(engine_options).Run(session.get(), m.queries);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every query completes; the ones that needed the dead segment carry
  // the degraded flag instead of an error.
  EXPECT_EQ(report->summary.failed_queries, 0u);
  EXPECT_GT(report->summary.degraded_queries, 0u);
  uint64_t degraded = 0;
  for (size_t i = 0; i < m.queries.size(); ++i) {
    EXPECT_TRUE(report->statuses[i].ok())
        << report->statuses[i].ToString();
    degraded += report->per_query[i].degraded;
  }
  EXPECT_EQ(degraded, report->summary.degraded_queries);
  // A degraded answer is the oracle's over the readable contacts; any
  // other query never reached the damaged segment.
  for (size_t i = 0; i < m.queries.size(); ++i) {
    const ReachQuery& q = m.queries[i];
    const ContactNetwork& served =
        report->per_query[i].degraded ? readable : *m.network;
    EXPECT_TRUE(SameAnswer(
        report->answers[i],
        BruteForceReach(served, q.source, q.destination, q.interval)))
        << "query " << i << " degraded " << report->per_query[i].degraded;
  }

  // Closure batches degrade the same way, counted per source: batches of
  // 2 over 5 sources, the last holding one.
  QueryEngineOptions closure_options = engine_options;
  closure_options.batch_sources = 2;
  const std::vector<ObjectId> sources = {0, 1, 2, 3, 4};
  const auto closures = QueryEngine(closure_options)
                            .RunClosures(session.get(), sources,
                                         m.store->span());
  ASSERT_TRUE(closures.ok()) << closures.status().ToString();
  EXPECT_EQ(closures->summary.failed_queries, 0u);
  uint64_t degraded_sources = 0;
  for (size_t b = 0; b < closures->per_batch.size(); ++b) {
    EXPECT_TRUE(closures->statuses[b].ok())
        << closures->statuses[b].ToString();
    if (closures->per_batch[b].degraded) {
      degraded_sources += std::min<size_t>(2, sources.size() - 2 * b);
    }
  }
  EXPECT_EQ(degraded_sources, sources.size());
  EXPECT_EQ(closures->summary.degraded_queries, degraded_sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    EXPECT_EQ(closures->sets[i],
              BruteForceClosure(readable, sources[i], m.store->span()))
        << "source " << sources[i];
  }
}

}  // namespace
}  // namespace streach
