// Epidemic tracing — the paper's public-health motivating scenario (§1):
// a set of individuals O is known to carry a contagious virus; find
// everyone who could have been directly or indirectly contaminated within
// a time window, so medication can be administered in time.
//
//   build/examples/epidemic_tracing [num_individuals] [ticks]
//                                   [--batch_sources=K]
//                                   [--join_threads=J]
//
// Generates a random-waypoint population (GMSF-style, Bluetooth-range
// contacts), streams the contact set into the live ingestion tier (the
// LSM-style head segment seals into immutable segments as runs close —
// no materialized contact vector), builds a ReachGrid index, and
// traces every index case with the multi-source batch closure
// (`ReachableSets`): K seeds share ONE frontier sweep, so a page both
// waves need is read once, not once per seed. The sequential per-seed
// loop runs first as the baseline and the dedup'd read savings are
// printed (answers are identical at any K). --join_threads=J
// parallelizes the contact-extraction front end feeding the pipeline
// (contacts identical at any J); its wall time is printed next to the
// index build time.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "engine/backends.h"
#include "engine/query_spec.h"
#include "generators/random_waypoint.h"
#include "join/contact_extractor.h"
#include "reachgrid/reach_grid_index.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"

using namespace streach;  // NOLINT — example brevity.

int main(int argc, char** argv) {
  int num_individuals = 800;
  Timestamp ticks = 600;
  int batch_sources = 4;
  int join_threads = 1;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--batch_sources=", 16) == 0) {
      batch_sources = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--join_threads=", 15) == 0) {
      join_threads = std::atoi(argv[i] + 15);
    } else if (positional == 0) {
      num_individuals = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      ticks = std::atoi(argv[i]);
      ++positional;
    }
  }
  if (batch_sources < 1) batch_sources = 1;
  if (join_threads < 1) join_threads = 1;
  std::printf("Epidemic tracing: %d individuals, %d ticks (6 s each), "
              "batch_sources=%d, join_threads=%d\n",
              num_individuals, ticks, batch_sources, join_threads);

  // GMSF-style population: 2 m/s average walkers in a district,
  // Bluetooth-range (25 m) contacts.
  RandomWaypointParams params;
  params.num_objects = num_individuals;
  params.area = Rect(0, 0, 4000, 2000);
  params.min_speed = 6;
  params.max_speed = 18;
  params.max_pause_ticks = 5;
  params.duration = ticks;
  params.seed = 2026;
  auto store = GenerateRandomWaypoint(params);
  STREACH_CHECK(store.ok());

  // The contact stream — what a live exposure-notification pipeline
  // ingests as people move. The join drives the streaming ingestor
  // directly (no materialized contact vector): each run lands in the
  // mutable head segment the moment it closes, and closed prefixes seal
  // into immutable on-disk segments while the join is still scanning
  // later ticks. ReachGrid joins on the fly below; this pass shows the
  // front end's wall time and the live tier's segmentation.
  const double contact_range = 25.0;  // Bluetooth range, §6.
  StreamingOptions streaming_options;
  streaming_options.num_objects = store->num_objects();
  streaming_options.span = store->span();
  streaming_options.seal_interval_ticks = std::max<int>(1, ticks / 10);
  auto ingestor = StreamingIngestor::Create(streaming_options);
  STREACH_CHECK(ingestor.ok());
  JoinOptions join_options;
  join_options.threads = join_threads;
  Stopwatch extract_timer;
  ExtractContactsTo(*store, contact_range, store->span(), join_options,
                    ingestor->get());
  const double extract_seconds = extract_timer.ElapsedSeconds();
  STREACH_CHECK_OK((*ingestor)->status());
  std::printf(
      "Contacts streamed: %llu in %.3f s (join_threads=%d) — "
      "%zu sealed segments + %zu runs in the mutable head\n",
      static_cast<unsigned long long>((*ingestor)->appended_contacts()),
      extract_seconds, join_threads, (*ingestor)->sealed_segments(),
      (*ingestor)->head_contacts());

  ReachGridOptions options;
  options.temporal_resolution = 20;
  options.spatial_cell_size = 1024;
  options.contact_range = contact_range;
  auto index = ReachGridIndex::Build(*store, options);
  STREACH_CHECK(index.ok());
  std::printf("ReachGrid built: %llu buckets, %llu cells, %.1f MB on disk "
              "in %.3f s\n",
              static_cast<unsigned long long>(
                  (*index)->build_stats().num_buckets),
              static_cast<unsigned long long>(
                  (*index)->build_stats().num_nonempty_cells),
              static_cast<double>((*index)->build_stats().index_bytes) / 1e6,
              (*index)->build_stats().build_seconds);
  auto grid = MakeReachGridBackend(std::move(*index));

  // Eight index cases detected at t=0; trace everyone reachable within
  // the first half of the observation window.
  const std::vector<ObjectId> index_cases = {7, 63, 110, 191,
                                             254, 404, 555, 702};
  const TimeInterval window(0, ticks / 2);
  std::printf("\nTracing from %zu index cases over %s...\n",
              index_cases.size(), window.ToString().c_str());

  // Baseline: one cold single-source sweep per index case — the pre-batch
  // workflow. Every seed re-reads the pages its wave shares with the
  // others.
  std::vector<std::vector<Timestamp>> sequential(index_cases.size());
  double seq_io = 0;
  uint64_t seq_pages = 0;
  for (size_t i = 0; i < index_cases.size(); ++i) {
    grid->ClearCache();
    auto infected = grid->ReachableSet(index_cases[i], window);
    STREACH_CHECK(infected.ok());
    seq_io += grid->last_query_stats().io_cost;
    seq_pages += grid->last_query_stats().pages_fetched;
    sequential[i] = std::move(*infected);
  }

  // Multi-source batch closure: groups of batch_sources seeds share one
  // frontier sweep.
  double batch_io = 0;
  uint64_t batch_pages = 0;
  std::vector<std::vector<Timestamp>> batched(index_cases.size());
  for (size_t begin = 0; begin < index_cases.size();
       begin += static_cast<size_t>(batch_sources)) {
    const size_t end = std::min(begin + static_cast<size_t>(batch_sources),
                                index_cases.size());
    const std::vector<ObjectId> group(index_cases.begin() + begin,
                                      index_cases.begin() + end);
    grid->ClearCache();
    auto sets = grid->ReachableSets(group, window);
    STREACH_CHECK(sets.ok());
    batch_io += grid->last_query_stats().io_cost;
    batch_pages += grid->last_query_stats().pages_fetched;
    for (size_t i = begin; i < end; ++i) {
      batched[i] = std::move((*sets)[i - begin]);
    }
  }
  // The batch answers ARE the per-seed answers — cheaper, not different.
  for (size_t i = 0; i < index_cases.size(); ++i) {
    STREACH_CHECK(batched[i] == sequential[i]);
  }

  // The live tier answers the same trace: the streaming index over the
  // sealed segments + still-mutable head agrees with the batch-built
  // ReachGrid, seed for seed.
  auto live = MakeStreamingBackend(*ingestor);
  auto live_trace = live->ReachableSet(index_cases[0], window);
  STREACH_CHECK(live_trace.ok());
  STREACH_CHECK(*live_trace == sequential[0]);
  std::printf("Live streaming index agrees with the batch trace for "
              "index case %u.\n", index_cases[0]);

  // Contact-tracing rings via the k-hop query family: ring k is everyone
  // the contagion can reach from an index case in at most k hand-offs —
  // the set a health department would notify in round k. The spec is
  // evaluated against the LIVE streaming tier and cross-checked against
  // the batch ReachGrid's constrained profile; the unbounded ring must
  // collapse to the plain closure traced above.
  std::printf("\nContact-tracing rings for index case %u (k-hop family):\n",
              index_cases[0]);
  std::printf("%10s %12s %14s\n", "ring", "notified", "newly added");
  size_t prev_ring = 0;
  for (const int32_t ring_hops : {1, 2, 4, 8, -1}) {
    QuerySpec ring;
    ring.family = QueryFamily::kKHopReach;
    ring.source = index_cases[0];
    ring.interval = window;
    ring.max_hops = ring_hops;
    auto answer = EvaluateFamily(live.get(), ring);
    STREACH_CHECK(answer.ok());
    auto grid_profile = grid->ConstrainedProfile(
        ring.source, ring.interval, HopConstraints{ring.max_hops, -1});
    STREACH_CHECK(grid_profile.ok());
    STREACH_CHECK(answer->profile == *grid_profile);
    size_t notified = 0;
    for (const ReachProfileEntry& entry : answer->profile) {
      notified += (entry.transfers >= 0);
    }
    // Rings are nested: a larger hop budget never loses anyone.
    STREACH_CHECK(notified >= prev_ring);
    if (ring_hops < 0) {
      // Unbounded k-hop IS the boolean closure, infection time for
      // infection time.
      STREACH_CHECK_EQ(answer->profile.size(), sequential[0].size());
      for (ObjectId o = 0; o < sequential[0].size(); ++o) {
        STREACH_CHECK_EQ(answer->profile[o].infected_at, sequential[0][o]);
      }
      std::printf("%10s %12zu %14zu\n", "unbounded", notified,
                  notified - prev_ring);
    } else {
      std::printf("%10d %12zu %14zu\n", ring_hops, notified,
                  notified - prev_ring);
    }
    prev_ring = notified;
  }

  std::vector<Timestamp> earliest(store->num_objects(), kInvalidTime);
  for (const std::vector<Timestamp>& infected : batched) {
    for (ObjectId o = 0; o < store->num_objects(); ++o) {
      const Timestamp t = infected[o];
      if (t == kInvalidTime) continue;
      if (earliest[o] == kInvalidTime || t < earliest[o]) earliest[o] = t;
    }
  }

  // Infection wave: how many individuals were reached by each time.
  std::printf("\n%10s %12s\n", "by tick", "contaminated");
  for (Timestamp t = 0; t <= window.end; t += window.end / 10) {
    int count = 0;
    for (Timestamp e : earliest) count += (e != kInvalidTime && e <= t);
    std::printf("%10d %12d\n", t, count);
  }
  int total = 0;
  for (Timestamp e : earliest) total += (e != kInvalidTime);
  std::printf(
      "\n%d of %zu individuals potentially contaminated (%.1f%%).\n", total,
      store->num_objects(),
      100.0 * total / static_cast<double>(store->num_objects()));
  std::printf(
      "\nIO bill, sequential seeds : %6llu pages (%.1f normalized cost)\n"
      "IO bill, batch_sources=%-3d: %6llu pages (%.1f normalized cost)\n"
      "Dedup'd read savings      : %.1f%% fewer pages than per-seed loop\n",
      static_cast<unsigned long long>(seq_pages), seq_io, batch_sources,
      static_cast<unsigned long long>(batch_pages), batch_io,
      seq_pages == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(batch_pages) /
                               static_cast<double>(seq_pages)));
  std::printf("A raw scan of the window would read %.1f MB.\n",
              static_cast<double>(store->RawSizeBytes()) *
                  static_cast<double>(window.length()) /
                  static_cast<double>(ticks) / 1e6);
  return 0;
}
