// watchlist_mix: the paper's §1 watch-list scenario as served traffic.
//
// Set-up: RWP-S (800 pedestrians, 2000 ticks) -> ReachGrid with the
// delta-varint codec, 4 shards; sessions read at IO depth 8.
// Traffic: two closed-loop clients, each with its own warm session,
// sharing one QueryEngine whose result cache is on. Each request is one
// spec through RunFamilies. The stream keeps a clock ("now") that moves
// one 20-tick bucket every kEpochRequests requests. Each request picks
// one of three recent windows, aligned to the grid's buckets and spread
// over the last 420 ticks, so a session's pool holds most (not all) of
// the pages its windows touch. Mix (kMix): 80% boolean screening of the
// client's watch list (repeats cache keys, so the median request is a
// boolean cache hit), 8% k-hop tracing, 8% decay and threshold, 4% top-k
// ranking of the watch list. Client c serves every kClients-th request
// of the stream and draws its sources from its own half of the objects,
// so the clients never share a cache key and each session sees a fixed
// request sequence with fixed hits and misses. The stream is replayed in
// identical rounds, each with a fresh engine (empty result cache) and
// fresh sessions (empty pools); a request's latency is its least over
// the rounds.
// Loads: the engine's result cache, two concurrent clients, family
// dispatch, delta decode and batched reads, ReachGrid's closure paths
// (ReachableSet(s), ConstrainedProfile) over dense, wide frontiers.
// Device reads stay light. Bypasses: join and network in set-up (the
// grid indexes trajectories), reachgraph, stream.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/query_spec.h"
#include "generators/datasets.h"
#include "join/contact_extractor.h"
#include "network/contact_network.h"
#include "reachgrid/reach_grid_index.h"
#include "workloads.h"

namespace perfbench {

using namespace streach;

namespace {

constexpr int kClients = 2;
constexpr size_t kWatchListSize = 4;  // Per client.
constexpr int kEpochRequests = 400;
constexpr Timestamp kBucketTicks = 20;
/// The three windows: length and how far before "now" each one ends.
constexpr Timestamp kWindowTicks[] = {40, 80, 120};
constexpr Timestamp kWindowEndsBefore[] = {0, 150, 300};
/// The mix: every 50 consecutive requests of a client hold exactly these
/// many of each family, in a seeded order, so every seed sends the same
/// mix.
constexpr std::pair<QueryFamily, int> kMix[] = {
    {QueryFamily::kBoolean, 40},       {QueryFamily::kKHopReach, 4},
    {QueryFamily::kDecayReach, 2},     {QueryFamily::kThresholdReach, 2},
    {QueryFamily::kTopKSources, 2},
};

/// The generated request stream: each client's watch list and the specs
/// in stream order; spec i belongs to client i % kClients.
struct WatchlistStream {
  std::vector<ObjectId> watch_lists[kClients];
  std::vector<QuerySpec> specs;
};

WatchlistStream GenerateStream(uint64_t seed, size_t num_objects,
                               TimeInterval span, size_t count) {
  Rng rng(seed);
  const size_t per_client = num_objects / kClients;
  // An object of client c's half: c, c + kClients, c + 2 kClients, ...
  auto object_of = [&](size_t c) {
    return static_cast<ObjectId>(c + kClients * rng.Uniform(per_client));
  };
  WatchlistStream stream;
  for (size_t c = 0; c < kClients; ++c) {
    std::set<ObjectId> watch;
    while (watch.size() < kWatchListSize) watch.insert(object_of(c));
    stream.watch_lists[c].assign(watch.begin(), watch.end());
  }

  const Timestamp first_now =
      span.start + kWindowEndsBefore[2] + kWindowTicks[2] - 1;
  const Timestamp laps = (span.end - first_now) / kBucketTicks + 1;
  auto other_than = [&](ObjectId source) {
    ObjectId d = source;
    while (d == source) d = static_cast<ObjectId>(rng.Uniform(num_objects));
    return d;
  };
  std::vector<QueryFamily> decks[kClients];
  for (size_t i = 0; i < count; ++i) {
    const size_t c = i % kClients;
    const std::vector<ObjectId>& watch_list = stream.watch_lists[c];
    std::vector<QueryFamily>& deck = decks[c];
    if (deck.empty()) {
      for (const auto& [family, n] : kMix) deck.insert(deck.end(), n, family);
      for (size_t k = deck.size() - 1; k > 0; --k) {
        std::swap(deck[k], deck[rng.Uniform(k + 1)]);
      }
    }
    const QueryFamily family = deck.back();
    deck.pop_back();
    const Timestamp now =
        first_now +
        static_cast<Timestamp>((i / kEpochRequests) % laps) * kBucketTicks;
    const size_t window = rng.Uniform(3);
    const Timestamp end = now - kWindowEndsBefore[window];
    QuerySpec spec;
    spec.family = family;
    spec.interval = TimeInterval(end - kWindowTicks[window] + 1, end);
    if (family == QueryFamily::kBoolean) {
      spec.source = watch_list[rng.Uniform(kWatchListSize)];
      spec.destination = other_than(spec.source);
    } else if (family == QueryFamily::kKHopReach) {
      spec.source = object_of(c);
      spec.max_hops = static_cast<int32_t>(rng.UniformInt(1, 3));
      spec.per_hop_ticks = rng.Bernoulli(0.25)
                               ? -1
                               : static_cast<Timestamp>(rng.UniformInt(10, 40));
    } else if (family == QueryFamily::kDecayReach) {
      spec.source = object_of(c);
      spec.decay = rng.UniformDouble(0.3, 0.6);
      spec.min_strength = 0.25;
    } else if (family == QueryFamily::kThresholdReach) {
      spec.source = object_of(c);
      spec.destination = other_than(spec.source);
      spec.contact_probability = rng.UniformDouble(0.5, 0.8);
      spec.min_path_probability = rng.UniformDouble(0.1, 0.5);
    } else {
      spec.candidates = watch_list;
      spec.k = static_cast<int32_t>(rng.UniformInt(1, 3));
    }
    stream.specs.push_back(std::move(spec));
  }
  return stream;
}

/// Share of `specs` whose result-cache key (as the engine forms it)
/// already appeared earlier in the stream. Top-k answers are not cached.
double RepeatKeyShare(const std::vector<QuerySpec>& specs) {
  using Key = std::tuple<int, ObjectId, Timestamp, Timestamp, int32_t,
                         Timestamp>;
  std::set<Key> seen;
  uint64_t repeats = 0;
  for (const QuerySpec& spec : specs) {
    Key key;
    if (spec.family == QueryFamily::kTopKSources) continue;
    if (spec.family == QueryFamily::kBoolean) {
      key = {0, spec.source, spec.interval.start, spec.interval.end, 0, 0};
    } else {
      const Result<HopConstraints> hops = ResolveHops(spec);
      if (!hops.ok()) continue;
      key = {1, spec.source, spec.interval.start, spec.interval.end,
             hops->max_transfers, hops->per_hop_ticks};
    }
    if (!seen.insert(key).second) ++repeats;
  }
  return specs.empty() ? 0.0
                       : static_cast<double>(repeats) /
                             static_cast<double>(specs.size());
}

}  // namespace

Outcome RunWatchlistMix(const RunConfig& config, Tracer* tracer) {
  const Timestamp duration = config.tiny ? 600 : 2000;
  const uint64_t dataset_seed = SubSeed(config.seed, 1);

  std::vector<double> setup_s, generate_s, build_s;
  std::optional<Dataset> dataset;
  ReachGridOptions grid_options;
  grid_options.num_shards = 4;
  grid_options.build.page_codec = PageCodecKind::kDeltaVarint;
  // One bulk load, the grid built from the trajectories: one ingest
  // request.
  auto bulk_load = [&] {
    double build = 0;
    auto built = Stage(tracer, "reachgrid.Build", &build, [&] {
      return ReachGridIndex::Build(dataset->store, grid_options);
    });
    Require(built.status(), "ReachGridIndex::Build");
    build_s.push_back(build);
    return std::move(*built);
  };
  std::shared_ptr<const ReachGridIndex> grid;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    grid.reset();
    dataset.reset();
    double generate = 0;
    const int64_t start = NowNs();
    Result<Dataset> made =
        Stage(tracer, "generators.MakeRwpDataset", &generate, [&] {
          return MakeRwpDataset(DatasetScale::kSmall, duration, dataset_seed);
        });
    Require(made.status(), "MakeRwpDataset");
    dataset.emplace(std::move(made).ValueUnsafe());
    grid_options.contact_range = dataset->contact_range;
    grid = bulk_load();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    generate_s.push_back(generate);
  }
  const uint64_t input_bytes = dataset->store.RawSizeBytes();
  const uint64_t samples = dataset->num_objects() *
                           static_cast<uint64_t>(dataset->span().length());

  QueryEngineOptions engine_options;
  engine_options.io_queue_depth = 8;
  engine_options.page_codec = PageCodecKind::kDeltaVarint;
  engine_options.result_cache_capacity = 1 << 16;
  const WatchlistStream stream =
      GenerateStream(SubSeed(config.seed, 2), dataset->num_objects(),
                     dataset->span(),
                     config.tiny ? 60 : MinQueryRequests(config));
  const std::vector<QuerySpec>& specs = stream.specs;
  const size_t n = specs.size();

  // Measured phase: identical rounds over the stream, with one more bulk
  // load after each, so the ingest samples span the run. In a round,
  // client c sends specs c, c + kClients, ... on its own session. An
  // errored request leaves no answer. Peak RSS is read after the first
  // round, before the extra bulk loads (which hold a second index).
  std::vector<std::vector<std::optional<FamilyAnswer>>> answers;
  std::vector<std::vector<double>> latency_ms;  // [round][spec]
  TraceContext contexts[kClients];
  StorageTotals storage;
  uint64_t cache_hits = 0, cache_misses = 0;
  double peak_rss_mb = 0.0;
  const int64_t started = NowNs();
  const int64_t deadline =
      started + static_cast<int64_t>(config.seconds * 1e9);
  while (WantAnotherRound(static_cast<int>(answers.size()), started,
                          deadline)) {
    const QueryEngine engine(engine_options);
    std::unique_ptr<ReachabilityIndex> sessions[kClients];
    for (int c = 0; c < kClients; ++c) {
      sessions[c] = MaybeTrace(MakeReachGridBackend(grid), "reachgrid",
                               tracer, &contexts[c]);
    }
    std::vector<std::optional<FamilyAnswer>>& got =
        answers.emplace_back(n);
    std::vector<double>& ms = latency_ms.emplace_back(n, 0.0);
    StorageTotals by_client[kClients];
    auto client = [&](int c) {
      for (size_t i = static_cast<size_t>(c); i < n; i += kClients) {
        const std::vector<QuerySpec> batch{specs[i]};
        std::optional<Result<FamilyWorkloadReport>> report;
        ms[i] = 1e3 * TimeRequest(tracer, &contexts[c], "engine.RunFamilies",
                                  [&] {
                                    report.emplace(engine.RunFamilies(
                                        sessions[c].get(), batch));
                                  });
        if (!report->ok()) continue;
        FamilyWorkloadReport& r = report->ValueUnsafe();
        if (r.statuses[0].ok()) got[i] = std::move(r.answers[0]);
        by_client[c].Add(r.summary);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
    for (const StorageTotals& s : by_client) storage.Add(s);
    cache_hits += engine.result_cache()->hits();
    cache_misses += engine.result_cache()->misses();
    if (answers.size() == 1) peak_rss_mb = PeakRssMb();
    bulk_load();
  }

  // Oracle gate: the same specs through RunFamilies on the brute-force
  // backend over the dataset's contact network, once; every round must
  // match it.
  if (config.corrupt_answer && answers[0][0].has_value()) {
    FamilyAnswer& a = *answers[0][0];
    a.point.reachable = !a.point.reachable;
    a.ranked.clear();
    a.profile.clear();
  }
  JoinOptions join_options;
  join_options.threads = 2;
  auto network = std::make_shared<const ContactNetwork>(
      dataset->num_objects(), dataset->span(),
      ExtractContacts(dataset->store, dataset->contact_range, join_options));
  QueryEngineOptions oracle_options;
  oracle_options.num_threads = 2;
  oracle_options.result_cache_capacity = 1 << 16;
  std::unique_ptr<ReachabilityIndex> oracle = MakeBruteForceBackend(network);
  Result<FamilyWorkloadReport> expected =
      QueryEngine(oracle_options).RunFamilies(oracle.get(), specs);
  Require(expected.status(), "oracle RunFamilies");
  Outcome out;
  for (const std::vector<std::optional<FamilyAnswer>>& round : answers) {
    for (size_t i = 0; i < n; ++i) {
      ++out.attempted;
      if (!round[i].has_value()) {
        ++out.failed;
      } else if (!expected->statuses[i].ok() ||
                 *round[i] != expected->answers[i]) {
        ++out.failed;
        ++out.mismatched;
      }
    }
  }

  const std::vector<double> best_ms = BestOf(latency_ms);
  std::map<QueryFamily, std::vector<double>> by_family;
  for (size_t i = 0; i < n; ++i) {
    by_family[specs[i].family].push_back(best_ms[i]);
  }
  uint64_t pages_written = 0;
  for (const IoStats& shard : grid->build_io_stats()) {
    pages_written += shard.total_writes();
  }
  const ReachGridBuildStats& stats = grid->build_stats();
  MetricValues& m = out.metrics;
  m["setup_s"] = Median(setup_s);
  m["query_p50_ms"] = Percentile(best_ms, 0.50);
  m["query_p99_ms"] = Percentile(best_ms, 0.99);
  // Both clients busy at once: each spends half the summed latency.
  m["queries_per_s"] = static_cast<double>(n) * 1e3 /
                       (Sum(best_ms) / static_cast<double>(kClients));
  storage.Report(out.attempted, &m);
  // A bulk load is one ingest request; its best warm time (the first
  // also grows the process heap) sets both metrics.
  const double ingest_best_s =
      *std::min_element(build_s.begin() + 1, build_s.end());
  m["ingest_records_per_s"] = static_cast<double>(samples) / ingest_best_s;
  m["ingest_p99_ms"] = ingest_best_s * 1e3;
  m["space_amp"] = static_cast<double>(stats.index_bytes) /
                   static_cast<double>(input_bytes);
  m["peak_rss_mb"] = peak_rss_mb;
  m["generators.dataset_s"] = Median(generate_s);
  m["reachgrid.build_s"] = Median(build_s);
  m["reachgrid.index_mb"] = static_cast<double>(stats.index_bytes) / 1e6;
  m["storage.write_amp"] =
      static_cast<double>(pages_written * grid_options.page_size) /
      static_cast<double>(input_bytes);
  m["engine.cache_hit_rate"] =
      cache_hits + cache_misses == 0
          ? 0.0
          : static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses);
  m["engine.repeat_key_share"] = RepeatKeyShare(specs);
  for (const QueryFamily family :
       {QueryFamily::kBoolean, QueryFamily::kDecayReach,
        QueryFamily::kKHopReach, QueryFamily::kTopKSources,
        QueryFamily::kThresholdReach}) {
    m[std::string("engine.family_ms_p50.") + FamilyName(family)] =
        Median(by_family[family]);
  }
  if (tracer->enabled()) {
    const std::vector<Span> spans = tracer->Spans();
    const std::vector<double> set = SpanMillis(spans, "reachgrid.ReachableSet");
    const std::vector<double> sets =
        SpanMillis(spans, "reachgrid.ReachableSets");
    const std::vector<double> profile =
        SpanMillis(spans, "reachgrid.ConstrainedProfile");
    m["reachgrid.set_ms_p50"] = Median(set);
    m["reachgrid.sets_ms_p50"] = Median(sets);
    m["reachgrid.profile_ms_p50"] = Median(profile);
    m["reachgrid.profile_ms_p99"] = Percentile(profile, 0.99);
    const size_t calls = set.size() + sets.size() + profile.size();
    m["reachgrid.cells_per_call"] =
        calls == 0 ? 0.0
                   : static_cast<double>(storage.items_visited) /
                         static_cast<double>(calls);
  }

  out.properties = {
      {"index_pages", std::to_string(stats.index_pages)},
      {"pool_pages", std::to_string(grid_options.buffer_pool_pages) + " x " +
                         std::to_string(kClients) + " sessions"},
      {"engine.repeat_key_share", FormatValue(m["engine.repeat_key_share"])},
      {"stream.segments_per_query", "n/a (no stream)"},
      {"threads", "2 clients"},
      {"rounds", std::to_string(answers.size())},
  };
  return out;
}

}  // namespace perfbench
