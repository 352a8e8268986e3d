// Quickstart: build both stReach indexes over the paper's Figure 1
// contact scenario and evaluate the reachability queries discussed in the
// introduction.
//
//   build/quickstart [--num_shards=N] [--io_queue_depth=D]
//                    [--write_queue_depth=W] [--build_workers=B]
//                    [--page_codec=raw|delta-varint] [--batch_sources=K]
//                    [--join_threads=J]
//
// --num_shards splits each index's simulated disk into N per-shard
// devices (default 1, the paper's single-disk layout); answers are
// identical, only the per-shard IO distribution changes.
// --io_queue_depth lets each worker session keep D page reads in flight
// per shard (default 1, the paper's one-read-at-a-time model); answers are
// identical — watch the `inflight` figure in the engine summary move.
// --write_queue_depth / --build_workers drive the build side the same
// way: W pages in flight per shard write queue and B build workers
// (0 = one per shard). The defaults (1, 1) are the paper's synchronous
// single-threaded build; the on-disk indexes are bit-identical at any
// setting — watch the per-shard write stats printed after each build.
// --page_codec selects the on-disk record codec: raw (default, the
// paper's fixed-width format) or delta-varint (compressed records —
// fewer pages, same answers); each build prints the compression ratio
// its codec achieved.
// --batch_sources groups the closing multi-source trace into batches of
// K seeds sharing one frontier sweep (default 1, the per-seed loop);
// answers are identical, the page reads drop as K grows.
// --join_threads parallelizes the contact-extraction front end (default
// 1, the sequential scan); the extracted contacts are byte-identical at
// any J — watch the extraction wall time printed next to the build
// times.
//
// The extraction is streamed: the join drives a ContactSink as each
// contact run closes, and a tee feeds the runs both into a
// StreamingIngestor (LSM-style mutable head that seals into immutable
// segments mid-stream) and into the contact vector the batch indexes
// build from. The live SegmentedIndex then answers every query alongside
// ReachGrid/ReachGraph/brute-force — byte-identically, sealed segments
// and unsealed head included.
//
// Objects o1..o4 (0-indexed o0..o3 here) move over T=[0,3]; the contacts
// are c1={o1,o2}@[0,0], c2={o2,o4}@[1,1], c3={o3,o4}@[1,2],
// c4={o1,o2}@[2,3]. The paper's worked example: o4 is reachable from o1
// during [0,1], but o1 is NOT reachable from o4 during the same interval.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/query_spec.h"
#include "engine/reachability_index.h"
#include "join/contact.h"
#include "join/contact_extractor.h"
#include "join/contact_sink.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "storage/page_codec.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"
#include "trajectory/trajectory_store.h"

using namespace streach;  // NOLINT — example brevity.

namespace {

/// Builds trajectories that realize Figure 1's contacts with dT = 1 m.
TrajectoryStore Figure1Trajectories() {
  const double kFar = 100.0;
  // Four objects, four ticks; positions chosen so that exactly the
  // paper's contacts occur.
  const std::vector<std::vector<Point>> paths = {
      // o1: meets o2 at t=0 and again at t=2..3.
      {{0, 0}, {-kFar, 0}, {30, 5}, {31, 5}},
      // o2: with o1 at 0, with o4 at 1, with o1 at 2..3.
      {{0.5, 0}, {10.0, 0}, {30.5, 5}, {31.5, 5}},
      // o3: with o4 during 1..2.
      {{kFar, 0}, {11.4, 0}, {50, 0}, {70, 0}},
      // o4: with o2 and o3 at 1, with o3 at 2.
      {{2 * kFar, 0}, {10.7, 0}, {50.5, 0}, {3 * kFar, 0}},
  };
  TrajectoryStore store;
  for (size_t i = 0; i < paths.size(); ++i) {
    STREACH_CHECK_OK(
        store.Add(Trajectory(static_cast<ObjectId>(i), 0, paths[i])));
  }
  return store;
}

/// Prints a build's per-shard write profile: pages written per shard
/// device, how many went through the batched write queue, and the mean
/// write-queue occupancy (1.0 = synchronous).
void ShowBuildIo(const std::vector<IoStats>& build_io) {
  IoStats total;
  for (size_t s = 0; s < build_io.size(); ++s) {
    const IoStats& io = build_io[s];
    total += io;
    std::printf("  shard %zu: %llu pages written (%llu seq, %llu rand), "
                "%llu batched, mean write inflight %.2f\n",
                s, static_cast<unsigned long long>(io.total_writes()),
                static_cast<unsigned long long>(io.sequential_writes),
                static_cast<unsigned long long>(io.random_writes),
                static_cast<unsigned long long>(io.batched_writes),
                io.batched_writes == 0 ? 1.0 : io.mean_write_inflight());
  }
  std::printf("  compression: %llu raw -> %llu stored bytes (ratio %.2fx)\n",
              static_cast<unsigned long long>(total.decoded_bytes),
              static_cast<unsigned long long>(total.encoded_bytes),
              total.compression_ratio());
}

/// Fans the extraction stream out to the streaming ingestor AND a
/// contact vector (the batch families still build from the materialized
/// network) — one join pass feeds both pipelines.
class TeeSink : public ContactSink {
 public:
  TeeSink(ContactSink* live, std::vector<Contact>* collected)
      : live_(live), collected_(collected) {}
  void OnContact(const Contact& contact) override {
    collected_->push_back(contact);
    live_->OnContact(contact);
  }
  void OnFinish() override { live_->OnFinish(); }

 private:
  ContactSink* live_;
  std::vector<Contact>* collected_;
};

void Show(const char* index, const ReachQuery& q, const ReachAnswer& a) {
  std::printf("  [%-10s] %-22s -> %s", index, q.ToString().c_str(),
              a.reachable ? "REACHABLE" : "not reachable");
  if (a.reachable && a.arrival_time != kInvalidTime) {
    std::printf(" (arrives at t=%d)", a.arrival_time);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  int num_shards = 1;
  int io_queue_depth = 1;
  int write_queue_depth = 1;
  int build_workers = 1;
  int batch_sources = 1;
  int join_threads = 1;
  PageCodecKind page_codec = PageCodecKind::kRaw;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--num_shards=", 13) == 0) {
      num_shards = std::atoi(argv[i] + 13);
    } else if (std::strncmp(argv[i], "--io_queue_depth=", 17) == 0) {
      io_queue_depth = std::atoi(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--write_queue_depth=", 20) == 0) {
      write_queue_depth = std::atoi(argv[i] + 20);
    } else if (std::strncmp(argv[i], "--build_workers=", 16) == 0) {
      build_workers = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--batch_sources=", 16) == 0) {
      batch_sources = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--join_threads=", 15) == 0) {
      join_threads = std::atoi(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--page_codec=", 13) == 0) {
      auto parsed = ParsePageCodecKind(argv[i] + 13);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
        return 1;
      }
      page_codec = *parsed;
    }
  }
  if (num_shards < 1) num_shards = 1;
  if (io_queue_depth < 1) io_queue_depth = 1;
  if (write_queue_depth < 1) write_queue_depth = 1;
  if (build_workers < 0) build_workers = 0;
  if (batch_sources < 1) batch_sources = 1;
  if (join_threads < 1) join_threads = 1;
  BuildOptions build_options;
  build_options.write_queue_depth = write_queue_depth;
  build_options.build_workers = build_workers;
  build_options.page_codec = page_codec;

  std::printf("stReach quickstart — the paper's Figure 1 scenario "
              "(%d storage shard%s, IO queue depth %d, write queue depth "
              "%d, %d build worker%s, %s codec)\n\n",
              num_shards, num_shards == 1 ? "" : "s", io_queue_depth,
              write_queue_depth, build_workers,
              build_workers == 1 ? "" : "s (0 = one per shard)",
              ToString(page_codec));
  TrajectoryStore store = Figure1Trajectories();
  const double dt = 1.0;  // Contact threshold dT in meters.

  // 1. Extract the contact network from the raw trajectories — streamed,
  //    not materialized: the join drives a sink as each contact run
  //    closes, and a tee fans the stream into the streaming ingestor's
  //    mutable head segment (sealing on the fly) while also collecting
  //    the vector the batch families below build from. The extraction
  //    front end is the first wall-clock cost of every pipeline, so its
  //    time is printed alongside the build times.
  StreamingOptions streaming_options;
  streaming_options.num_objects = store.num_objects();
  streaming_options.span = store.span();
  streaming_options.seal_interval_ticks = 2;  // Seal every 2 ticks.
  streaming_options.build.page_codec = page_codec;
  auto ingestor = StreamingIngestor::Create(streaming_options);
  STREACH_CHECK(ingestor.ok());
  std::vector<Contact> contacts;
  TeeSink tee(ingestor->get(), &contacts);
  JoinOptions join_options;
  join_options.threads = join_threads;
  Stopwatch extract_timer;
  ExtractContactsTo(store, dt, store.span(), join_options, &tee);
  const double extract_ms = extract_timer.ElapsedMillis();
  STREACH_CHECK_OK((*ingestor)->status());
  auto network = std::make_shared<const ContactNetwork>(
      store.num_objects(), store.span(), std::move(contacts));
  std::printf("Contacts extracted in %.3f ms (join_threads=%d):\n",
              extract_ms, join_threads);
  for (const Contact& c : network->contacts()) {
    std::printf("  %s\n", c.ToString().c_str());
  }
  std::printf(
      "Streaming ingestor absorbed the same stream: %llu contacts, "
      "%zu sealed segment%s + %zu run%s still in the mutable head\n",
      static_cast<unsigned long long>((*ingestor)->appended_contacts()),
      (*ingestor)->sealed_segments(),
      (*ingestor)->sealed_segments() == 1 ? "" : "s",
      (*ingestor)->head_contacts(),
      (*ingestor)->head_contacts() == 1 ? "" : "s");

  // 2. Build ReachGrid directly over the trajectories. The build runs
  //    through the per-shard worker pool and write queues configured
  //    above; its wall time and per-shard write profile are printed so
  //    the write side of the IO model is visible from the demo.
  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 2;  // RT: ticks per temporal bucket.
  grid_options.spatial_cell_size = 20;   // RS: meters per grid cell.
  grid_options.contact_range = dt;
  grid_options.num_shards = num_shards;  // Per-shard simulated devices.
  grid_options.build = build_options;
  auto grid = ReachGridIndex::Build(store, grid_options);
  STREACH_CHECK(grid.ok());
  std::printf("\nReachGrid built in %.3f ms:\n",
              (*grid)->build_stats().build_seconds * 1e3);
  ShowBuildIo((*grid)->build_io_stats());

  // 3. Build ReachGraph over the contact network.
  ReachGraphOptions graph_options;
  graph_options.num_shards = num_shards;
  graph_options.build = build_options;
  auto graph = ReachGraphIndex::Build(*network, graph_options);
  STREACH_CHECK(graph.ok());
  std::printf(
      "\nReachGraph: %zu hypergraph vertices in %llu disk partitions, "
      "placed in %.3f ms:\n",
      (*graph)->num_vertices(),
      static_cast<unsigned long long>((*graph)->num_partitions()),
      (*graph)->build_stats().placement_seconds * 1e3);
  ShowBuildIo((*graph)->build_io_stats());

  // 4. Put every evaluator behind the uniform ReachabilityIndex
  //    interface — the seam benchmarks and the QueryEngine program
  //    against. The brute-force oracle rides along as ground truth.
  std::vector<std::unique_ptr<ReachabilityIndex>> backends;
  backends.push_back(MakeReachGridBackend(std::move(*grid)));
  backends.push_back(MakeReachGraphBackend(std::move(*graph),
                                           ReachGraphTraversal::kBmBfs));
  backends.push_back(MakeBruteForceBackend(network));
  // The live streaming tier answers alongside the batch indexes —
  // sealed segments plus the still-mutable head, same answers.
  backends.push_back(MakeStreamingBackend(*ingestor));

  // 5. Evaluate the paper's example queries with every backend.
  const std::vector<ReachQuery> queries = {
      {0, 3, TimeInterval(0, 1)},  // o1 ~[0,1]~> o4 : reachable.
      {3, 0, TimeInterval(0, 1)},  // o4 ~[0,1]~> o1 : NOT reachable.
      {0, 1, TimeInterval(2, 3)},  // o1 ~[2,3]~> o2 : direct contact.
      {0, 3, TimeInterval(1, 3)},  // o1 ~[1,3]~> o4 : misses c1.
      {2, 0, TimeInterval(1, 3)},  // o3 ~[1,3]~> o1 : via o4? no — via o2.
  };
  std::printf("\nQueries:\n");
  for (const ReachQuery& q : queries) {
    bool expected = false;
    bool first = true;
    for (auto& backend : backends) {
      auto answer = backend->Query(q);
      STREACH_CHECK(answer.ok());
      Show(backend->DescribeIndex().c_str(), q, *answer);
      if (first) {
        expected = answer->reachable;
        first = false;
      } else {
        STREACH_CHECK_EQ(answer->reachable, expected);
      }
    }
  }

  // 6. The same workload through the concurrent QueryEngine: every
  //    backend runs the batch and reports an aggregated summary.
  QueryEngineOptions engine_options;
  engine_options.num_threads = 2;
  engine_options.io_queue_depth = io_queue_depth;
  engine_options.page_codec = page_codec;
  const QueryEngine engine(engine_options);
  std::printf("\nBatch execution through the QueryEngine (2 threads):\n");
  for (auto& backend : backends) {
    auto report = engine.Run(backend.get(), queries);
    STREACH_CHECK(report.ok());
    std::printf("  %s\n", report->summary.ToString().c_str());
    const auto& per_shard = report->summary.per_shard_io;
    if (per_shard.size() > 1) {
      for (size_t s = 0; s < per_shard.size(); ++s) {
        std::printf("    shard %zu: %s\n", s, per_shard[s].ToString().c_str());
      }
    }
  }

  // 7. Multi-source batch closure: trace every object as an epidemic
  //    seed in one engine call. At --batch_sources=K the engine hands
  //    groups of K seeds to the backend's shared-frontier sweep, so
  //    pages common to several waves are read once. Answers match the
  //    per-seed loop exactly; only the read count changes.
  QueryEngineOptions closure_options = engine_options;
  closure_options.num_threads = 1;
  closure_options.cold_cache = true;  // Measure each batch cold.
  closure_options.batch_sources = batch_sources;
  const QueryEngine closure_engine(closure_options);
  const std::vector<ObjectId> seeds = {0, 1, 2, 3};
  const TimeInterval full_span(0, 3);
  std::printf("\nMulti-source closure of all %zu objects over %s "
              "(batch_sources=%d):\n",
              seeds.size(), full_span.ToString().c_str(), batch_sources);
  for (auto& backend : backends) {
    auto report =
        closure_engine.RunClosures(backend.get(), seeds, full_span);
    STREACH_CHECK(report.ok() && report->summary.failed_queries == 0);
    std::printf("  %s\n", report->summary.ToString().c_str());
  }

  // 8. Beyond boolean reach: the transfer-decay query family. An item
  //    loses strength at every hand-off (retention = 1 - decay) and
  //    stops spreading once it would drop below the floor, so the same
  //    scenario answers "who got a *strong enough* copy", not just "who
  //    got a copy". With decay 0.5 and floor 0.4 a single hand-off
  //    survives (0.5 >= 0.4) but a second does not (0.25 < 0.4), so only
  //    o2 is reached from o1; dropping the floor to 0.2 admits two
  //    hand-offs and the t=1 component {o2,o3,o4} pulls everyone in.
  //    Every backend — both batch indexes, the live streaming tier and
  //    the brute-force oracle — must produce byte-identical profiles.
  QuerySpec decay;
  decay.family = QueryFamily::kDecayReach;
  decay.source = 0;
  decay.interval = TimeInterval(0, 3);
  decay.decay = 0.5;
  std::printf("\nDecay family from o1 over %s (decay %.1f per hand-off):\n",
              decay.interval.ToString().c_str(), decay.decay);
  for (const double floor_value : {0.4, 0.2}) {
    decay.min_strength = floor_value;
    bool first = true;
    FamilyAnswer expected;
    for (auto& backend : backends) {
      auto answer = EvaluateFamily(backend.get(), decay);
      STREACH_CHECK(answer.ok());
      if (first) {
        expected = *answer;
        first = false;
      } else {
        STREACH_CHECK(*answer == expected);
      }
    }
    size_t reached = 0;
    std::printf("  floor %.1f reaches {", floor_value);
    for (ObjectId o = 0; o < expected.profile.size(); ++o) {
      if (expected.profile[o].transfers < 0) continue;
      std::printf("%so%u(%d hand-offs, t=%d)", reached == 0 ? "" : ", ", o + 1,
                  expected.profile[o].transfers,
                  expected.profile[o].infected_at);
      ++reached;
    }
    std::printf("} — all %zu backends byte-identical\n", backends.size());
    // The worked example: floor 0.4 stops after one hand-off (o1, o2);
    // floor 0.2 admits two and the t=1 meeting infects everyone.
    STREACH_CHECK_EQ(reached, floor_value > 0.25 ? 2u : 4u);
  }

  std::printf("\nAll backends agree on every query. See README.md for the\n"
              "architecture and bench/ for the paper's full evaluation.\n");
  return 0;
}
