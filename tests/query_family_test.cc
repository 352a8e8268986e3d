// Query-family equivalence suite (engine/query_spec.h).
//
// The invariant under test: every query family — boolean, transfer-decay,
// k-hop with per-hop time bounds, top-k sources, probability threshold —
// answers byte-identically on every backend (brute force, ReachGrid,
// ReachGraph, SPJ, streaming SegmentedIndex), across storage shards, page
// codecs, engine threads and arrival-order shuffles,
// and each matches an *independent* brute-force oracle implemented here
// from the E-table definition (network/hop_profile.h) without sharing the
// driver code. Plus: the algebraic properties the families must satisfy
// (decay 0 = boolean reach, monotone shrink, unbounded k-hop = plain
// reach, top-k = ranked closures), the result-cache key regressions, the
// workload-generator determinism contract, and the dormant-extension
// cross-checks (ext/non_immediate pickup counting, ext/uncertain
// max-probability paths).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/backends.h"
#include "engine/query_engine.h"
#include "engine/query_spec.h"
#include "engine/result_cache.h"
#include "ext/non_immediate.h"
#include "ext/uncertain.h"
#include "generators/datasets.h"
#include "generators/workload.h"
#include "join/contact_extractor.h"
#include "network/brute_force.h"
#include "network/contact_network.h"
#include "reachgraph/dn_builder.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"
#include "stream/segmented_index.h"
#include "stream/streaming_ingestor.h"
#include "stream/streaming_options.h"

namespace streach {
namespace {

// ---------------------------------------------------------------------
// Independent brute-force oracles.
//
// OracleETable re-implements the constrained-reachability recursion from
// its definition — per-tick components via a local union-find over the
// contact pairs, strict or folded columns by the per-hop bound — sharing
// nothing with DriveHopLevels. Only the family-semantics constants
// (MaxTransfersAtOrAbove / TransferStrength) are reused: the resolved
// transfer cap is part of the family definition, not of any evaluator.
// ---------------------------------------------------------------------

bool OracleEligible(Timestamp arrival, Timestamp t, Timestamp per_hop_ticks) {
  return arrival != kInvalidTime && arrival <= t &&
         (per_hop_ticks < 0 || t - arrival <= per_hop_ticks);
}

std::vector<ReachProfileEntry> OracleETable(const ContactNetwork& network,
                                            ObjectId source,
                                            TimeInterval interval,
                                            int32_t max_transfers,
                                            Timestamp per_hop_ticks) {
  const size_t n = network.num_objects();
  std::vector<ReachProfileEntry> profile(n);
  const TimeInterval w = interval.Intersect(network.span());
  if (w.empty() || source >= n) return profile;
  profile[source] = ReachProfileEntry{w.start, 0};

  const int64_t diameter = static_cast<int64_t>(n) - 1;
  const int64_t cap = max_transfers < 0
                          ? diameter
                          : std::min<int64_t>(max_transfers, diameter);
  const bool monotone = per_hop_ticks < 0;

  std::vector<Timestamp> prev(n, kInvalidTime);
  prev[source] = w.start;
  std::vector<Timestamp> next;
  for (int64_t level = 0; level < cap; ++level) {
    next.assign(n, kInvalidTime);
    for (Timestamp t = w.start; t <= w.end; ++t) {
      const auto& pairs = network.PairsAt(t);
      if (pairs.empty()) continue;
      // Snapshot components at t: a throwaway parent map per tick.
      std::unordered_map<ObjectId, ObjectId> parent;
      std::function<ObjectId(ObjectId)> find = [&](ObjectId x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      for (const auto& pair : pairs) {
        parent.emplace(pair.first, pair.first);
        parent.emplace(pair.second, pair.second);
        const ObjectId ra = find(pair.first);
        const ObjectId rb = find(pair.second);
        if (ra != rb) parent[rb] = ra;
      }
      std::unordered_map<ObjectId, std::vector<ObjectId>> components;
      for (const auto& [member, unused] : parent) {
        components[find(member)].push_back(member);
      }
      for (const auto& [root, members] : components) {
        int eligible = 0;
        ObjectId sole = kInvalidObject;
        for (const ObjectId m : members) {
          if (OracleEligible(prev[m], t, per_hop_ticks)) {
            ++eligible;
            sole = m;
          }
        }
        if (eligible == 0) continue;
        for (const ObjectId o : members) {
          if (eligible == 1 && o == sole) continue;  // Own item only.
          if (next[o] == kInvalidTime || t < next[o]) next[o] = t;
        }
      }
    }
    if (monotone) {
      for (size_t o = 0; o < n; ++o) {
        if (prev[o] != kInvalidTime &&
            (next[o] == kInvalidTime || prev[o] < next[o])) {
          next[o] = prev[o];
        }
      }
    }
    bool any = false;
    for (size_t o = 0; o < n; ++o) {
      if (next[o] == kInvalidTime) continue;
      any = true;
      if (profile[o].infected_at == kInvalidTime ||
          next[o] < profile[o].infected_at) {
        profile[o].infected_at = next[o];
      }
      if (profile[o].transfers < 0) {
        profile[o].transfers = static_cast<int32_t>(level) + 1;
      }
    }
    // Deterministic column map: an exact repeat is a fixpoint, an empty
    // column can never repopulate.
    if (!any || next == prev) break;
    prev.swap(next);
  }
  return profile;
}

std::vector<ReachProfileEntry> BruteForceKHop(const ContactNetwork& network,
                                              const QuerySpec& spec) {
  return OracleETable(network, spec.source, spec.interval, spec.max_hops,
                      spec.per_hop_ticks);
}

std::vector<ReachProfileEntry> BruteForceDecayReach(
    const ContactNetwork& network, const QuerySpec& spec) {
  const int32_t cap =
      MaxTransfersAtOrAbove(1.0 - spec.decay, spec.min_strength);
  return OracleETable(network, spec.source, spec.interval, cap, -1);
}

FamilyAnswer BruteForceThresholdReach(const ContactNetwork& network,
                                      const QuerySpec& spec) {
  const int32_t cap = MaxTransfersAtOrAbove(spec.contact_probability,
                                            spec.min_path_probability);
  const std::vector<ReachProfileEntry> profile =
      OracleETable(network, spec.source, spec.interval, cap, -1);
  FamilyAnswer answer;
  answer.family = spec.family;
  if (spec.destination < profile.size() &&
      profile[spec.destination].transfers >= 0) {
    answer.point.reachable = true;
    answer.point.arrival_time = profile[spec.destination].infected_at;
    answer.best_probability = TransferStrength(
        spec.contact_probability, profile[spec.destination].transfers);
  }
  return answer;
}

std::vector<TopKEntry> BruteForceTopK(const ContactNetwork& network,
                                      const QuerySpec& spec) {
  std::vector<TopKEntry> ranked;
  ranked.reserve(spec.candidates.size());
  for (const ObjectId candidate : spec.candidates) {
    uint32_t count = 0;
    for (const Timestamp t :
         BruteForceClosure(network, candidate, spec.interval)) {
      count += (t != kInvalidTime) ? 1 : 0;
    }
    ranked.push_back(TopKEntry{candidate, count});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              return a.reach_count != b.reach_count
                         ? a.reach_count > b.reach_count
                         : a.source < b.source;
            });
  if (ranked.size() > static_cast<size_t>(std::max(spec.k, 1))) {
    ranked.resize(static_cast<size_t>(spec.k));
  }
  return ranked;
}

FamilyAnswer OracleAnswer(const ContactNetwork& network,
                          const QuerySpec& spec) {
  FamilyAnswer answer;
  answer.family = spec.family;
  switch (spec.family) {
    case QueryFamily::kBoolean:
      answer.point = BruteForceReach(network, spec.source, spec.destination,
                                     spec.interval);
      break;
    case QueryFamily::kDecayReach:
      answer.profile = BruteForceDecayReach(network, spec);
      break;
    case QueryFamily::kKHopReach:
      answer.profile = BruteForceKHop(network, spec);
      break;
    case QueryFamily::kTopKSources:
      answer.ranked = BruteForceTopK(network, spec);
      break;
    case QueryFamily::kThresholdReach:
      answer = BruteForceThresholdReach(network, spec);
      break;
  }
  return answer;
}

// ---------------------------------------------------------------------
// Hand-verified anchors: a 6-object chain whose E-table is small enough
// to compute on paper, checked against both the oracle and the reference
// kernel path (brute-force backend).
//
//   0 —[5,6]— 1 —[10]— 2 —[20]— 3        (objects 4, 5 never in contact)
// ---------------------------------------------------------------------

ContactNetwork ChainNetwork() {
  return ContactNetwork(6, TimeInterval(0, 30),
                        {Contact(0, 1, TimeInterval(5, 6)),
                         Contact(1, 2, TimeInterval(10, 10)),
                         Contact(2, 3, TimeInterval(20, 20))});
}

TEST(QueryFamilyOracles, ChainAnchorsComputedByHand) {
  const ContactNetwork network = ChainNetwork();
  const TimeInterval window(0, 30);

  // Unbounded: the full closure with per-level transfers.
  auto profile = OracleETable(network, 0, window, -1, -1);
  EXPECT_EQ(profile[0], (ReachProfileEntry{0, 0}));
  EXPECT_EQ(profile[1], (ReachProfileEntry{5, 1}));
  EXPECT_EQ(profile[2], (ReachProfileEntry{10, 2}));
  EXPECT_EQ(profile[3], (ReachProfileEntry{20, 3}));
  EXPECT_EQ(profile[4], (ReachProfileEntry{}));
  EXPECT_EQ(profile[5], (ReachProfileEntry{}));

  // Transfer budget 2 stops the chain before object 3.
  profile = OracleETable(network, 0, window, 2, -1);
  EXPECT_EQ(profile[2], (ReachProfileEntry{10, 2}));
  EXPECT_EQ(profile[3], (ReachProfileEntry{}));

  // A 3-tick freshness window expires before the first contact at t=5.
  profile = OracleETable(network, 0, window, -1, 3);
  EXPECT_EQ(profile[0], (ReachProfileEntry{0, 0}));
  for (ObjectId o = 1; o < 6; ++o) {
    EXPECT_EQ(profile[o], (ReachProfileEntry{})) << "o" << o;
  }

  // A 5-tick window carries 0->1 (t=5) and 1->2 (t=10, 5 ticks after 1's
  // infection) but not 2->3 (t=20, 10 ticks after 2's).
  profile = OracleETable(network, 0, window, -1, 5);
  EXPECT_EQ(profile[1], (ReachProfileEntry{5, 1}));
  EXPECT_EQ(profile[2], (ReachProfileEntry{10, 2}));
  EXPECT_EQ(profile[3], (ReachProfileEntry{}));

  // Decay 0.5: floors 0.25 / 0.1 resolve to caps 2 / 3.
  QuerySpec decay;
  decay.family = QueryFamily::kDecayReach;
  decay.source = 0;
  decay.interval = window;
  decay.decay = 0.5;
  decay.min_strength = 0.25;
  profile = BruteForceDecayReach(network, decay);
  EXPECT_EQ(profile[2], (ReachProfileEntry{10, 2}));
  EXPECT_EQ(profile[3], (ReachProfileEntry{}));
  decay.min_strength = 0.1;
  profile = BruteForceDecayReach(network, decay);
  EXPECT_EQ(profile[3], (ReachProfileEntry{20, 3}));

  // Threshold p=0.5: floor 0.1 admits the 3-transfer chain at probability
  // 0.125; floor 0.2 caps at 2 transfers and loses the destination.
  QuerySpec threshold;
  threshold.family = QueryFamily::kThresholdReach;
  threshold.source = 0;
  threshold.destination = 3;
  threshold.interval = window;
  threshold.contact_probability = 0.5;
  threshold.min_path_probability = 0.1;
  FamilyAnswer answer = BruteForceThresholdReach(network, threshold);
  EXPECT_TRUE(answer.point.reachable);
  EXPECT_EQ(answer.point.arrival_time, 20);
  EXPECT_DOUBLE_EQ(answer.best_probability, 0.125);
  threshold.min_path_probability = 0.2;
  answer = BruteForceThresholdReach(network, threshold);
  EXPECT_FALSE(answer.point.reachable);
  EXPECT_EQ(answer.best_probability, 0.0);

  // Top-k: closure sizes 4 (from 0), 3 (from 2: object 0's only contact
  // predates 1's infection), 1 (isolated 5).
  QuerySpec topk;
  topk.family = QueryFamily::kTopKSources;
  topk.interval = window;
  topk.k = 2;
  topk.candidates = {0, 2, 5};
  const std::vector<TopKEntry> ranked = BruteForceTopK(network, topk);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0], (TopKEntry{0, 4}));
  EXPECT_EQ(ranked[1], (TopKEntry{2, 3}));

  // The reference kernel (brute-force backend) agrees with the
  // independently implemented oracle on every anchor.
  auto backend = MakeBruteForceBackend(
      std::make_shared<const ContactNetwork>(ChainNetwork()));
  for (const auto& [hops, window_ticks] :
       std::vector<std::pair<int32_t, Timestamp>>{
           {-1, -1}, {2, -1}, {-1, 3}, {-1, 5}, {0, -1}, {3, 0}}) {
    auto got = backend->ConstrainedProfile(0, window,
                                           HopConstraints{hops, window_ticks});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleETable(network, 0, window, hops, window_ticks))
        << "hops=" << hops << " window=" << window_ticks;
  }
}

// ---------------------------------------------------------------------
// The backend x shards x codec x threads lattice.
// ---------------------------------------------------------------------

/// The ContactSink delivery order: runs grouped by close tick.
void SortBySinkOrder(std::vector<Contact>* contacts) {
  std::sort(contacts->begin(), contacts->end(),
            [](const Contact& x, const Contact& y) {
              return std::tie(x.validity.end, x.validity.start, x.a, x.b) <
                     std::tie(y.validity.end, y.validity.start, y.a, y.b);
            });
}

/// A random arrival order that provably respects `lateness` (the PR 8
/// streaming shuffle): sort by end + U[0, lateness].
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

std::shared_ptr<StreamingIngestor> BuildStreamingIngestor(
    size_t num_objects, TimeInterval span, const std::vector<Contact>& arrivals,
    int seal_interval, int lateness, int num_shards, PageCodecKind codec) {
  StreamingOptions options;
  options.num_objects = num_objects;
  options.span = span;
  options.seal_interval_ticks = seal_interval;
  options.max_lateness_ticks = lateness;
  options.num_shards = num_shards;
  options.block_contacts = 16;  // Small blocks: many placement units.
  options.build.page_codec = codec;
  auto ingestor = StreamingIngestor::Create(options);
  EXPECT_TRUE(ingestor.ok()) << ingestor.status().ToString();
  for (const Contact& c : arrivals) {
    EXPECT_TRUE((*ingestor)->Append(c).ok());
  }
  EXPECT_TRUE((*ingestor)->SealRemaining().ok());
  return *ingestor;
}

/// One mixed workload covering every family: generated specs (6 per
/// family through GenerateFamilyWorkload) plus hand-picked edge cases —
/// self/out-of-range/empty/clamped queries, zero and saturating decay,
/// zero hop budgets, same-tick-only freshness, k larger than the
/// candidate list, lossless and killing thresholds.
std::vector<QuerySpec> MakeFamilySpecs(size_t num_objects, TimeInterval span) {
  std::vector<QuerySpec> specs;
  for (const QueryFamily family :
       {QueryFamily::kBoolean, QueryFamily::kDecayReach,
        QueryFamily::kKHopReach, QueryFamily::kTopKSources,
        QueryFamily::kThresholdReach}) {
    FamilyWorkloadParams params;
    params.base.num_queries = 6;
    params.base.num_objects = num_objects;
    params.base.span = span;
    params.base.min_interval_len = 30;
    params.base.max_interval_len = 120;
    params.base.seed = 4242 + static_cast<uint64_t>(family);
    params.family = family;
    params.max_hops = 4;
    const auto generated = GenerateFamilyWorkload(params);
    specs.insert(specs.end(), generated.begin(), generated.end());
  }

  const ObjectId n = static_cast<ObjectId>(num_objects);
  auto add = [&specs](QuerySpec spec) { specs.push_back(std::move(spec)); };
  QuerySpec s;
  s.family = QueryFamily::kBoolean;
  s.source = 2;
  s.destination = 2;  // Self-query.
  s.interval = TimeInterval(40, 90);
  add(s);
  s.destination = static_cast<ObjectId>(n + 3);  // Out-of-range target.
  add(s);
  s.destination = 5;
  s.interval = TimeInterval(90, 40);  // Empty interval.
  add(s);
  s.interval = TimeInterval(span.start - 50, span.end + 50);  // Clamped.
  add(s);

  s = QuerySpec{};
  s.family = QueryFamily::kDecayReach;
  s.source = 7;
  s.interval = TimeInterval(span.start + 10, span.start + 100);
  s.decay = 1.0;  // Nothing survives a transfer: source only.
  s.min_strength = 0.5;
  add(s);
  s.decay = 0.0;  // Lossless: plain reachability.
  add(s);
  s.decay = 0.5;
  s.min_strength = 0.0;  // Floor disabled: plain reachability again.
  add(s);

  s = QuerySpec{};
  s.family = QueryFamily::kKHopReach;
  s.source = 11 % n;
  s.interval = TimeInterval(span.start + 5, span.start + 140);
  s.max_hops = 0;  // Source only.
  add(s);
  s.max_hops = 3;
  s.per_hop_ticks = 0;  // Same-tick hand-offs only (strict columns).
  add(s);
  s.max_hops = -1;
  s.per_hop_ticks = -1;  // Unbounded: plain reachability.
  add(s);
  s.source = static_cast<ObjectId>(n + 1);  // Out-of-range source.
  s.max_hops = 2;
  add(s);

  s = QuerySpec{};
  s.family = QueryFamily::kTopKSources;
  s.interval = TimeInterval(span.start + 20, span.start + 110);
  s.k = 1;
  s.candidates = {0, static_cast<ObjectId>(3 % n),
                  static_cast<ObjectId>(7 % n)};
  add(s);
  s.k = 10;  // k larger than the candidate list: full ranking.
  add(s);
  s.k = 2;
  s.candidates = {static_cast<ObjectId>(5 % n)};
  add(s);

  s = QuerySpec{};
  s.family = QueryFamily::kThresholdReach;
  s.source = 1;
  s.destination = static_cast<ObjectId>(9 % n);
  s.interval = TimeInterval(span.start + 15, span.start + 130);
  s.contact_probability = 1.0;
  s.min_path_probability = 1.0;  // Lossless: plain reachability.
  add(s);
  s.contact_probability = 0.6;
  s.min_path_probability = 0.95;  // Cap 0: destination needs 0 transfers.
  add(s);
  s.contact_probability = 0.7;
  s.min_path_probability = 0.0;  // Floor disabled: plain reachability.
  add(s);
  s.destination = 1;  // Self-query at probability 1.
  s.min_path_probability = 0.5;
  add(s);
  return specs;
}

TEST(QueryFamilyEquivalence, BackendShardCodecThreadLattice) {
  auto dataset_result = MakeVnDataset(DatasetScale::kSmall, 240);
  ASSERT_TRUE(dataset_result.ok());
  const Dataset& dataset = *dataset_result;
  auto network = std::make_shared<const ContactNetwork>(
      dataset.num_objects(), dataset.span(),
      ExtractContacts(dataset.store, dataset.contact_range));

  const std::vector<QuerySpec> specs =
      MakeFamilySpecs(dataset.num_objects(), dataset.span());
  std::vector<FamilyAnswer> expected;
  expected.reserve(specs.size());
  for (const QuerySpec& spec : specs) {
    expected.push_back(OracleAnswer(*network, spec));
  }
  // The generated workload must exercise non-trivial outcomes.
  size_t reached_profiles = 0;
  for (const FamilyAnswer& answer : expected) {
    for (const ReachProfileEntry& e : answer.profile) {
      reached_profiles += (e.transfers > 0) ? 1 : 0;
    }
  }
  EXPECT_GT(reached_profiles, 10u);

  struct BackendConfig {
    std::string label;
    PageCodecKind codec = PageCodecKind::kRaw;
    std::function<std::unique_ptr<ReachabilityIndex>()> make;
  };
  std::vector<BackendConfig> configs;
  configs.push_back(
      {"brute", PageCodecKind::kRaw,
       [network] { return MakeBruteForceBackend(network); }});

  std::vector<Contact> canonical = network->contacts();
  SortBySinkOrder(&canonical);
  int streaming_variant = 0;
  for (const int num_shards : {1, 4}) {
    for (const PageCodecKind codec :
         {PageCodecKind::kRaw, PageCodecKind::kDeltaVarint}) {
      const std::string suffix = "/shards=" + std::to_string(num_shards) +
                                 "/codec=" + ToString(codec);
      ReachGridOptions grid_options;
      grid_options.temporal_resolution = 20;
      grid_options.spatial_cell_size = 1500.0;
      grid_options.contact_range = dataset.contact_range;
      grid_options.num_shards = num_shards;
      grid_options.build.page_codec = codec;
      auto grid = ReachGridIndex::Build(dataset.store, grid_options);
      ASSERT_TRUE(grid.ok()) << grid.status().ToString();
      std::shared_ptr<const ReachGridIndex> grid_sp = std::move(*grid);
      configs.push_back({"grid" + suffix, codec,
                         [grid_sp] { return MakeReachGridBackend(grid_sp); }});

      ReachGraphOptions graph_options;
      graph_options.num_shards = num_shards;
      graph_options.build.page_codec = codec;
      auto graph = ReachGraphIndex::Build(*network, graph_options);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      std::shared_ptr<const ReachGraphIndex> graph_sp = std::move(*graph);
      configs.push_back(
          {"graph" + suffix, codec, [graph_sp] {
             return MakeReachGraphBackend(graph_sp,
                                          ReachGraphTraversal::kBmBfs);
           }});

      // Streaming: one-shot in-order batch in the first cell, PR 8
      // lateness shuffles elsewhere — all must answer identically.
      const bool one_shot = streaming_variant == 0;
      const int lateness = one_shot ? 0 : 12;
      const std::vector<Contact> arrivals =
          one_shot ? canonical
                   : ShuffleWithinLateness(
                         network->contacts(), lateness,
                         static_cast<uint32_t>(13 + streaming_variant));
      auto ingestor = BuildStreamingIngestor(
          dataset.num_objects(), dataset.span(), arrivals,
          one_shot ? static_cast<int>(dataset.span().length()) : 30, lateness,
          num_shards, codec);
      ++streaming_variant;
      configs.push_back(
          {std::string("stream") + (one_shot ? "/one-shot" : "/shuffled") +
               suffix,
           codec, [ingestor] { return MakeStreamingBackend(ingestor); }});
    }
  }
  for (const auto& [num_shards, codec] :
       std::vector<std::pair<int, PageCodecKind>>{
           {1, PageCodecKind::kRaw}, {4, PageCodecKind::kDeltaVarint}}) {
    SpjOptions spj_options;
    spj_options.contact_range = dataset.contact_range;
    spj_options.num_shards = num_shards;
    spj_options.build.page_codec = codec;
    auto spj = SpjEvaluator::Build(dataset.store, spj_options);
    ASSERT_TRUE(spj.ok()) << spj.status().ToString();
    std::shared_ptr<const SpjEvaluator> spj_sp = std::move(*spj);
    configs.push_back({"spj/shards=" + std::to_string(num_shards) +
                           "/codec=" + ToString(codec),
                       codec, [spj_sp] { return MakeSpjBackend(spj_sp); }});
  }

  for (const BackendConfig& config : configs) {
    auto session = config.make();
    for (int num_threads : {1, 4}) {
      for (const size_t capacity : {size_t{0}, size_t{64}}) {
        QueryEngineOptions options;
        options.num_threads = num_threads;
        options.page_codec = config.codec;
        options.result_cache_capacity = capacity;
        const QueryEngine engine(options);
        // A cached engine runs twice: cold, then warm from its own
        // entries (64 is fewer than the workload's keys, so the warm pass
        // mixes hits, misses and evictions).
        const int passes = capacity == 0 ? 1 : 2;
        for (int pass = 0; pass < passes; ++pass) {
          const std::string label =
              config.label + " threads=" + std::to_string(num_threads) +
              " cache=" + std::to_string(capacity) +
              (capacity == 0 ? "" : pass == 0 ? " cold" : " warm");
          auto report = engine.RunFamilies(session.get(), specs);
          ASSERT_TRUE(report.ok())
              << label << ": " << report.status().ToString();
          ASSERT_EQ(report->answers.size(), specs.size()) << label;
          for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(report->answers[i], expected[i])
                << label << " " << specs[i].ToString();
          }
          // Per-family accounting covers every spec exactly once.
          uint64_t counted = 0;
          for (const uint64_t count : report->summary.family_counts) {
            counted += count;
          }
          EXPECT_EQ(counted, specs.size()) << label;
          EXPECT_GT(report->summary.family_counts[static_cast<size_t>(
                        QueryFamily::kDecayReach)],
                    0u)
              << label;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Algebraic family properties, on random contact networks (brute-force
// backend through the full EvaluateFamily path).
// ---------------------------------------------------------------------

std::vector<Contact> MakeRandomContacts(size_t num_objects, TimeInterval span,
                                        uint32_t seed, size_t count) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<ObjectId> object(
      0, static_cast<ObjectId>(num_objects - 1));
  std::uniform_int_distribution<Timestamp> start(span.start, span.end);
  std::geometric_distribution<int> run_length(0.2);
  std::vector<Contact> contacts;
  contacts.reserve(count);
  while (contacts.size() < count) {
    const ObjectId a = object(rng);
    const ObjectId b = object(rng);
    if (a == b) continue;
    const Timestamp s = start(rng);
    const Timestamp e = std::min<Timestamp>(span.end, s + run_length(rng));
    contacts.emplace_back(a, b, TimeInterval(s, e));
  }
  return contacts;
}

TEST(QueryFamilyProperties, DecayZeroAndUnboundedKHopEqualPlainReach) {
  const size_t n = 32;
  const TimeInterval span(0, 149);
  auto network = std::make_shared<const ContactNetwork>(
      n, span, MakeRandomContacts(n, span, 51, 160));
  auto backend = MakeBruteForceBackend(network);

  for (const ObjectId source : {0u, 9u, 23u}) {
    const TimeInterval window(10, 120);
    const std::vector<Timestamp> closure =
        BruteForceClosure(*network, source, window);

    QuerySpec decay;
    decay.family = QueryFamily::kDecayReach;
    decay.source = source;
    decay.interval = window;
    decay.decay = 0.0;
    decay.min_strength = 0.5;
    auto decay_answer = EvaluateFamily(backend.get(), decay);
    ASSERT_TRUE(decay_answer.ok());

    QuerySpec khop;
    khop.family = QueryFamily::kKHopReach;
    khop.source = source;
    khop.interval = window;
    khop.max_hops = -1;
    khop.per_hop_ticks = -1;
    auto khop_answer = EvaluateFamily(backend.get(), khop);
    ASSERT_TRUE(khop_answer.ok());

    // Same reach set, same infection times as the plain closure.
    ASSERT_EQ(decay_answer->profile.size(), n);
    EXPECT_EQ(decay_answer->profile, khop_answer->profile);
    for (size_t o = 0; o < n; ++o) {
      EXPECT_EQ(decay_answer->profile[o].infected_at, closure[o])
          << "source " << source << " o" << o;
      EXPECT_EQ(decay_answer->profile[o].transfers >= 0,
                closure[o] != kInvalidTime);
    }
  }
}

TEST(QueryFamilyProperties, ReachShrinksMonotonicallyAsDecayGrows) {
  const size_t n = 32;
  const TimeInterval span(0, 149);
  auto network = std::make_shared<const ContactNetwork>(
      n, span, MakeRandomContacts(n, span, 77, 180));
  auto backend = MakeBruteForceBackend(network);

  for (const ObjectId source : {2u, 17u}) {
    size_t previous_count = n + 1;
    std::vector<ReachProfileEntry> previous_profile;
    for (const double decay : {0.0, 0.2, 0.4, 0.6, 0.9, 1.0}) {
      QuerySpec spec;
      spec.family = QueryFamily::kDecayReach;
      spec.source = source;
      spec.interval = TimeInterval(5, 130);
      spec.decay = decay;
      spec.min_strength = 0.3;
      auto answer = EvaluateFamily(backend.get(), spec);
      ASSERT_TRUE(answer.ok());
      size_t count = 0;
      for (const ReachProfileEntry& e : answer->profile) {
        count += (e.transfers >= 0) ? 1 : 0;
      }
      EXPECT_LE(count, previous_count) << "decay " << decay;
      // Nesting, not just counts: everything reached at the stronger
      // decay is reached at every weaker one.
      if (!previous_profile.empty()) {
        for (size_t o = 0; o < n; ++o) {
          if (answer->profile[o].transfers >= 0) {
            EXPECT_GE(previous_profile[o].transfers, 0)
                << "decay " << decay << " o" << o;
          }
        }
      }
      previous_count = count;
      previous_profile = answer->profile;
    }
    // Saturating decay leaves exactly the source.
    EXPECT_EQ(previous_count, 1u);
  }
}

TEST(QueryFamilyProperties, TopKAgreesWithRankingFullClosures) {
  const size_t n = 28;
  const TimeInterval span(0, 119);
  auto network = std::make_shared<const ContactNetwork>(
      n, span, MakeRandomContacts(n, span, 91, 140));
  auto backend = MakeBruteForceBackend(network);

  QuerySpec spec;
  spec.family = QueryFamily::kTopKSources;
  spec.interval = TimeInterval(10, 100);
  spec.k = 3;
  spec.candidates = {1, 4, 9, 13, 20, 27};
  auto answer = EvaluateFamily(backend.get(), spec);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->ranked.size(), 3u);
  EXPECT_EQ(answer->ranked, BruteForceTopK(*network, spec));
  // Ordering invariants: counts descending, ids ascending on ties.
  for (size_t i = 1; i < answer->ranked.size(); ++i) {
    const TopKEntry& a = answer->ranked[i - 1];
    const TopKEntry& b = answer->ranked[i];
    EXPECT_TRUE(a.reach_count > b.reach_count ||
                (a.reach_count == b.reach_count && a.source < b.source));
  }
}

// ---------------------------------------------------------------------
// Result-cache regressions.
// ---------------------------------------------------------------------

TEST(QueryFamilyCache, DistinctHopParametersNeverCollide) {
  const size_t n = 24;
  const TimeInterval span(0, 99);
  auto network = std::make_shared<const ContactNetwork>(
      n, span, MakeRandomContacts(n, span, 33, 120));
  auto backend = MakeBruteForceBackend(network);

  // Seven specs over the SAME (source, interval): distinct hop
  // constraints must occupy distinct cache entries; the decay and
  // threshold specs below *resolve* to the same cap-1 constraint as the
  // first k-hop spec and legitimately share its entry.
  const ObjectId source = 3;
  const TimeInterval window(5, 80);
  std::vector<QuerySpec> specs;
  auto khop = [&](int32_t hops, Timestamp window_ticks) {
    QuerySpec s;
    s.family = QueryFamily::kKHopReach;
    s.source = source;
    s.interval = window;
    s.max_hops = hops;
    s.per_hop_ticks = window_ticks;
    specs.push_back(s);
  };
  khop(1, -1);
  khop(2, -1);
  khop(1, 7);
  khop(1, 9);
  QuerySpec decay;
  decay.family = QueryFamily::kDecayReach;
  decay.source = source;
  decay.interval = window;
  decay.decay = 0.45;  // Retention 0.55, floor 0.5 -> cap 1.
  decay.min_strength = 0.5;
  specs.push_back(decay);
  QuerySpec threshold;
  threshold.family = QueryFamily::kThresholdReach;
  threshold.source = source;
  threshold.destination = 11;
  threshold.interval = window;
  threshold.contact_probability = 0.55;  // Floor 0.5 -> cap 1 again.
  threshold.min_path_probability = 0.5;
  specs.push_back(threshold);
  QuerySpec boolean;
  boolean.family = QueryFamily::kBoolean;
  boolean.source = source;
  boolean.destination = 11;
  boolean.interval = window;
  specs.push_back(boolean);

  QueryEngineOptions uncached_options;
  const QueryEngine uncached(uncached_options);
  auto reference = uncached.RunFamilies(backend.get(), specs);
  ASSERT_TRUE(reference.ok());

  QueryEngineOptions cached_options;
  cached_options.result_cache_capacity = 64;
  const QueryEngine cached(cached_options);
  auto first = cached.RunFamilies(backend.get(), specs);
  ASSERT_TRUE(first.ok());
  auto second = cached.RunFamilies(backend.get(), specs);
  ASSERT_TRUE(second.ok());

  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(first->answers[i], reference->answers[i]) << specs[i].ToString();
    EXPECT_EQ(second->answers[i], reference->answers[i])
        << specs[i].ToString();
  }
  // 4 distinct profile keys + 1 set key; the cap-1 decay/threshold specs
  // hit the k-hop(1, unbounded) entry instead of minting their own.
  ASSERT_NE(cached.result_cache(), nullptr);
  EXPECT_EQ(cached.result_cache()->size(), 5u);
  EXPECT_EQ(cached.result_cache()->misses(), 5u);
  EXPECT_EQ(cached.result_cache()->hits(), 2u + specs.size());

  // The distinct constraints produce distinct answers on this network —
  // a collision would have been an answer corruption, not a perf bug.
  EXPECT_NE(first->answers[0].profile, first->answers[1].profile);
}

TEST(QueryFamilyCache, ResultCacheSeparatesKindsAndHopKeys) {
  ResultCache cache(8);
  auto identity = std::make_shared<int>(7);
  const ObjectId source = 4;
  const TimeInterval window(10, 60);

  auto profile_a =
      std::make_shared<const std::vector<ReachProfileEntry>>(
          std::vector<ReachProfileEntry>{{5, 1}});
  auto profile_b =
      std::make_shared<const std::vector<ReachProfileEntry>>(
          std::vector<ReachProfileEntry>{{9, 2}});
  auto profile_c =
      std::make_shared<const std::vector<ReachProfileEntry>>(
          std::vector<ReachProfileEntry>{{12, 3}});
  cache.InsertProfile(identity, source, window, HopConstraints{1, -1},
                      profile_a);
  cache.InsertProfile(identity, source, window, HopConstraints{2, -1},
                      profile_b);
  cache.InsertProfile(identity, source, window, HopConstraints{1, 5},
                      profile_c);

  EXPECT_EQ(cache.LookupProfile(identity, source, window,
                                HopConstraints{1, -1}),
            profile_a);
  EXPECT_EQ(cache.LookupProfile(identity, source, window,
                                HopConstraints{2, -1}),
            profile_b);
  EXPECT_EQ(
      cache.LookupProfile(identity, source, window, HopConstraints{1, 5}),
      profile_c);
  EXPECT_EQ(
      cache.LookupProfile(identity, source, window, HopConstraints{3, -1}),
      nullptr);
  // The set kind never aliases a profile key for the same (source,
  // interval), in either direction.
  EXPECT_EQ(cache.Lookup(identity, source, window), nullptr);
  auto set = std::make_shared<const std::vector<Timestamp>>(
      std::vector<Timestamp>{1, 2, 3});
  cache.Insert(identity, source, window, set);
  EXPECT_EQ(cache.Lookup(identity, source, window), set);
  EXPECT_EQ(cache.LookupProfile(identity, source, window,
                                HopConstraints{1, -1}),
            profile_a);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(QueryFamilyCache, PointOnlyBackendFallbackIdenticalCacheOnOff) {
  const size_t n = 24;
  const TimeInterval span(0, 99);
  auto network = std::make_shared<const ContactNetwork>(
      n, span, MakeRandomContacts(n, span, 19, 120));
  auto dn = BuildDnGraph(*network);
  ASSERT_TRUE(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  ASSERT_TRUE(grail.ok());
  std::shared_ptr<const GrailIndex> grail_sp = std::move(*grail);
  auto session = MakeGrailBackend(grail_sp, GrailMode::kMemory);

  // GRAIL answers point queries only: the boolean family downgrades from
  // the set-cacheable path to plain Query, answer-identically with the
  // cache on or off (and the cache stays empty — nothing to memoize).
  FamilyWorkloadParams params;
  params.base.num_queries = 20;
  params.base.num_objects = n;
  params.base.span = span;
  params.base.min_interval_len = 20;
  params.base.max_interval_len = 80;
  params.base.seed = 2024;
  params.family = QueryFamily::kBoolean;
  const std::vector<QuerySpec> specs = GenerateFamilyWorkload(params);

  QueryEngineOptions cached_options;
  cached_options.result_cache_capacity = 32;
  const QueryEngine cached(cached_options);
  auto with_cache = cached.RunFamilies(session.get(), specs);
  ASSERT_TRUE(with_cache.ok()) << with_cache.status().ToString();
  auto without_cache = QueryEngine().RunFamilies(session.get(), specs);
  ASSERT_TRUE(without_cache.ok());
  ASSERT_EQ(with_cache->answers.size(), without_cache->answers.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(with_cache->answers[i], without_cache->answers[i])
        << specs[i].ToString();
  }
  ASSERT_NE(cached.result_cache(), nullptr);
  EXPECT_EQ(cached.result_cache()->size(), 0u);
  EXPECT_EQ(cached.result_cache()->hits(), 0u);

  // Against the oracle too: the fallback is a downgrade, not a drift.
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(with_cache->answers[i].point.reachable,
              BruteForceReach(*network, specs[i].source,
                              specs[i].destination, specs[i].interval)
                  .reachable)
        << specs[i].ToString();
  }

  // Every non-boolean family needs set/profile primitives GRAIL lacks:
  // NotSupported in the spec's per-query status (the run itself
  // completes — per-query failures never abort the batch), identically
  // with the cache on or off.
  for (const QueryFamily family :
       {QueryFamily::kDecayReach, QueryFamily::kKHopReach,
        QueryFamily::kTopKSources, QueryFamily::kThresholdReach}) {
    QuerySpec spec;
    spec.family = family;
    spec.source = 1;
    spec.destination = 2;
    spec.interval = TimeInterval(10, 50);
    spec.candidates = {1, 2};
    const auto with_cache_report = cached.RunFamilies(session.get(), {spec});
    const auto plain_report = QueryEngine().RunFamilies(session.get(), {spec});
    ASSERT_TRUE(with_cache_report.ok()) << FamilyName(family);
    ASSERT_TRUE(plain_report.ok()) << FamilyName(family);
    EXPECT_TRUE(with_cache_report->statuses[0].IsNotSupported())
        << FamilyName(family);
    EXPECT_TRUE(plain_report->statuses[0].IsNotSupported())
        << FamilyName(family);
    EXPECT_EQ(with_cache_report->summary.failed_queries, 1u);
  }
}

// ---------------------------------------------------------------------
// Engine accounting of specs that never reach a backend.
// ---------------------------------------------------------------------

/// True when `stats` records no backend work at all.
bool NoBackendWork(const QueryStats& stats) {
  return stats.io_cost == 0.0 && stats.pages_fetched == 0 &&
         stats.pool_hits == 0 && stats.cpu_seconds == 0.0 &&
         stats.items_visited == 0;
}

TEST(QueryFamilyEngine, RejectedSpecsReportNoBackendWork) {
  auto dataset = MakeVnDataset(DatasetScale::kSmall, 240);
  ASSERT_TRUE(dataset.ok());
  ReachGridOptions grid_options;
  grid_options.temporal_resolution = 20;
  grid_options.spatial_cell_size = 1500.0;
  grid_options.contact_range = dataset->contact_range;
  auto grid = ReachGridIndex::Build(dataset->store, grid_options);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  std::shared_ptr<const ReachGridIndex> grid_sp = std::move(*grid);
  auto network = std::make_shared<const ContactNetwork>(
      dataset->num_objects(), dataset->span(),
      ExtractContacts(dataset->store, dataset->contact_range));
  auto dn = BuildDnGraph(*network);
  ASSERT_TRUE(dn.ok());
  auto grail = GrailIndex::Build(*dn, GrailOptions{});
  ASSERT_TRUE(grail.ok());
  std::shared_ptr<const GrailIndex> grail_sp = std::move(*grail);

  // A boolean spec that reads pages, then specs that fail before any
  // backend call: bad arguments on ReachGrid, and on GRAIL families whose
  // primitive it lacks. Their stats must be empty, not the boolean's.
  QuerySpec boolean;
  boolean.family = QueryFamily::kBoolean;
  boolean.source = 0;
  boolean.destination = 1;
  boolean.interval = dataset->span();
  QuerySpec bad_decay = boolean;
  bad_decay.family = QueryFamily::kDecayReach;
  bad_decay.decay = 2.0;  // Outside [0, 1].
  QuerySpec bad_topk = boolean;
  bad_topk.family = QueryFamily::kTopKSources;
  bad_topk.k = 0;
  bad_topk.candidates = {0, 1};
  QuerySpec khop = boolean;
  khop.family = QueryFamily::kKHopReach;
  khop.max_hops = 2;
  QuerySpec topk = bad_topk;
  topk.k = 1;

  struct Probe {
    std::string label;
    std::function<std::unique_ptr<ReachabilityIndex>()> session;
    std::vector<QuerySpec> specs;
    Status::Code rejected;
  };
  const std::vector<Probe> probes = {
      {"grid", [grid_sp] { return MakeReachGridBackend(grid_sp); },
       {boolean, bad_decay, bad_topk}, Status::Code::kInvalidArgument},
      {"grail-disk",
       [grail_sp] { return MakeGrailBackend(grail_sp, GrailMode::kDisk); },
       {boolean, khop, topk}, Status::Code::kNotSupported},
  };
  for (const Probe& probe : probes) {
    for (const size_t capacity : {size_t{0}, size_t{16}}) {
      const std::string label =
          probe.label + " cache=" + std::to_string(capacity);
      QueryEngineOptions options;
      options.result_cache_capacity = capacity;
      auto session = probe.session();
      const auto report =
          QueryEngine(options).RunFamilies(session.get(), probe.specs);
      ASSERT_TRUE(report.ok()) << label << ": " << report.status().ToString();
      ASSERT_TRUE(report->statuses[0].ok()) << label;
      const QueryStats& served = report->per_query[0];
      EXPECT_GT(served.pages_fetched, 0u) << label;
      for (size_t i = 1; i < probe.specs.size(); ++i) {
        EXPECT_EQ(report->statuses[i].code(), probe.rejected)
            << label << " " << report->statuses[i].ToString();
        EXPECT_TRUE(NoBackendWork(report->per_query[i]))
            << label << " " << probe.specs[i].ToString() << ": "
            << report->per_query[i].ToString();
      }
      EXPECT_EQ(report->summary.failed_queries, probe.specs.size() - 1)
          << label;
      EXPECT_EQ(report->summary.total_io_cost, served.io_cost) << label;
      EXPECT_EQ(report->summary.total_pages_fetched, served.pages_fetched)
          << label;
    }
  }
}

// ---------------------------------------------------------------------
// Top-k through the result cache. A candidate's set is the boolean
// family's set entry for the same (source, interval), so a top-k reads
// the cached sets and sweeps only its misses, in one ReachableSets batch.
// Every ranking is checked against BruteForceTopK, not only against the
// uncached path.
// ---------------------------------------------------------------------

/// True when two stats record the same backend work (CPU time is
/// measured, not counted, so it is left out).
bool SameBackendWork(const QueryStats& a, const QueryStats& b) {
  return a.io_cost == b.io_cost && a.pages_fetched == b.pages_fetched &&
         a.pool_hits == b.pool_hits && a.items_visited == b.items_visited;
}

/// ReachGrid, ReachGraph and SPJ over one VN-S dataset, built once.
class QueryFamilyTopKCache : public ::testing::Test {
 protected:
  struct Stack {
    std::shared_ptr<const ContactNetwork> network;
    TimeInterval window;
    std::vector<std::pair<std::string,
                          std::function<std::unique_ptr<ReachabilityIndex>()>>>
        backends;
  };

  static void SetUpTestSuite() {
    auto dataset = MakeVnDataset(DatasetScale::kSmall, 240);
    ASSERT_TRUE(dataset.ok());
    stack_ = new Stack();
    stack_->network = std::make_shared<const ContactNetwork>(
        dataset->num_objects(), dataset->span(),
        ExtractContacts(dataset->store, dataset->contact_range));
    stack_->window =
        TimeInterval(dataset->span().start + 20, dataset->span().start + 200);

    ReachGridOptions grid_options;
    grid_options.temporal_resolution = 20;
    grid_options.spatial_cell_size = 1500.0;
    grid_options.contact_range = dataset->contact_range;
    auto grid = ReachGridIndex::Build(dataset->store, grid_options);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    std::shared_ptr<const ReachGridIndex> grid_sp = std::move(*grid);
    stack_->backends.emplace_back(
        "grid", [grid_sp] { return MakeReachGridBackend(grid_sp); });

    auto graph = ReachGraphIndex::Build(*stack_->network, ReachGraphOptions{});
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    std::shared_ptr<const ReachGraphIndex> graph_sp = std::move(*graph);
    stack_->backends.emplace_back("graph", [graph_sp] {
      return MakeReachGraphBackend(graph_sp, ReachGraphTraversal::kBmBfs);
    });

    SpjOptions spj_options;
    spj_options.contact_range = dataset->contact_range;
    auto spj = SpjEvaluator::Build(dataset->store, spj_options);
    ASSERT_TRUE(spj.ok()) << spj.status().ToString();
    std::shared_ptr<const SpjEvaluator> spj_sp = std::move(*spj);
    stack_->backends.emplace_back(
        "spj", [spj_sp] { return MakeSpjBackend(spj_sp); });
  }

  static void TearDownTestSuite() {
    delete stack_;
    stack_ = nullptr;
  }

  static QuerySpec TopK(std::vector<ObjectId> candidates, int32_t k) {
    QuerySpec spec;
    spec.family = QueryFamily::kTopKSources;
    spec.interval = stack_->window;
    spec.k = k;
    spec.candidates = std::move(candidates);
    return spec;
  }

  /// A boolean spec whose cache key is (source, window).
  static QuerySpec Boolean(ObjectId source) {
    QuerySpec spec;
    spec.source = source;
    spec.destination = source + 1;
    spec.interval = stack_->window;
    return spec;
  }

  /// Every top-k spec of `specs` succeeded with the oracle's ranking.
  static void ExpectOracleRankings(const FamilyWorkloadReport& report,
                                   const std::vector<QuerySpec>& specs,
                                   const std::string& label) {
    ASSERT_EQ(report.answers.size(), specs.size()) << label;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].family != QueryFamily::kTopKSources) continue;
      ASSERT_TRUE(report.statuses[i].ok())
          << label << " " << report.statuses[i].ToString();
      EXPECT_EQ(report.answers[i].family, QueryFamily::kTopKSources) << label;
      EXPECT_EQ(report.answers[i].ranked,
                BruteForceTopK(*stack_->network, specs[i]))
          << label << " " << specs[i].ToString();
    }
  }

  static Stack* stack_;
};

QueryFamilyTopKCache::Stack* QueryFamilyTopKCache::stack_ = nullptr;

TEST_F(QueryFamilyTopKCache, AllHitTopKAfterBooleansDoesNoBackendWork) {
  std::vector<QuerySpec> booleans;
  for (const ObjectId o : {3u, 8u, 15u, 21u, 40u}) {
    booleans.push_back(Boolean(o));
  }
  // Every candidate is one of the booleans' sources.
  const std::vector<QuerySpec> topks = {TopK({3, 8, 15, 21, 40}, 2),
                                        TopK({40, 3}, 1),
                                        TopK({21, 15, 8}, 5), TopK({8}, 1)};
  for (const auto& [name, make] : stack_->backends) {
    for (const int threads : {1, 4}) {
      const std::string label = name + " threads=" + std::to_string(threads);
      QueryEngineOptions options;
      options.num_threads = threads;
      options.result_cache_capacity = 64;
      const QueryEngine engine(options);
      auto session = make();
      const auto warmed = engine.RunFamilies(session.get(), booleans);
      ASSERT_TRUE(warmed.ok()) << label;
      EXPECT_EQ(warmed->summary.failed_queries, 0u) << label;

      const auto report = engine.RunFamilies(session.get(), topks);
      ASSERT_TRUE(report.ok()) << label;
      ExpectOracleRankings(*report, topks, label);
      size_t candidates = 0;
      for (size_t i = 0; i < topks.size(); ++i) {
        EXPECT_TRUE(NoBackendWork(report->per_query[i]))
            << label << " " << topks[i].ToString() << ": "
            << report->per_query[i].ToString();
        candidates += topks[i].candidates.size();
      }
      EXPECT_EQ(report->summary.result_cache_hits, candidates) << label;
      EXPECT_EQ(report->summary.total_pages_fetched, 0u) << label;
    }
  }
}

TEST_F(QueryFamilyTopKCache, PartlyCachedTopKSweepsOnlyItsMissesAndCachesThem) {
  for (const auto& [name, make] : stack_->backends) {
    for (const int threads : {1, 4}) {
      const std::string label = name + " threads=" + std::to_string(threads);
      // One top-k per worker over disjoint candidates, so each runs on a
      // fresh session; booleans from another session cache half of them
      // first.
      std::vector<QuerySpec> topks;
      std::vector<QuerySpec> warm;
      std::vector<std::vector<ObjectId>> misses;
      for (int j = 0; j < threads; ++j) {
        const ObjectId base = static_cast<ObjectId>(10 * j + 1);
        topks.push_back(TopK({base, base + 2, base + 4, base + 6}, 2));
        warm.push_back(Boolean(base));
        warm.push_back(Boolean(base + 4));
        misses.push_back({base + 2, base + 6});
      }
      QueryEngineOptions options;
      options.num_threads = threads;
      options.result_cache_capacity = 64;
      const QueryEngine engine(options);
      auto warm_session = make();
      ASSERT_TRUE(engine.RunFamilies(warm_session.get(), warm).ok()) << label;

      auto session = make();
      const auto report = engine.RunFamilies(session.get(), topks);
      ASSERT_TRUE(report.ok()) << label;
      ExpectOracleRankings(*report, topks, label);
      EXPECT_EQ(report->summary.result_cache_hits, 2u * topks.size())
          << label;
      // Each top-k swept exactly its misses: the same work as one
      // ReachableSets batch over them on a fresh session.
      for (size_t j = 0; j < topks.size(); ++j) {
        auto probe = make();
        ASSERT_TRUE(probe->ReachableSets(misses[j], stack_->window).ok())
            << label;
        EXPECT_FALSE(NoBackendWork(report->per_query[j])) << label;
        EXPECT_TRUE(
            SameBackendWork(report->per_query[j], probe->last_query_stats()))
            << label << " top-k " << j << ": "
            << report->per_query[j].ToString() << " vs "
            << probe->last_query_stats().ToString();
      }

      // The sets it inserted answer later booleans with no backend work.
      std::vector<QuerySpec> later;
      for (const std::vector<ObjectId>& swept : misses) {
        for (const ObjectId o : swept) later.push_back(Boolean(o));
      }
      const auto served = engine.RunFamilies(session.get(), later);
      ASSERT_TRUE(served.ok()) << label;
      EXPECT_EQ(served->summary.result_cache_hits, later.size()) << label;
      for (size_t i = 0; i < later.size(); ++i) {
        ASSERT_TRUE(served->statuses[i].ok()) << label;
        EXPECT_TRUE(NoBackendWork(served->per_query[i])) << label;
        const ReachAnswer expected =
            BruteForceReach(*stack_->network, later[i].source,
                            later[i].destination, later[i].interval);
        EXPECT_EQ(served->answers[i].point.reachable, expected.reachable)
            << label << " " << later[i].ToString();
        EXPECT_EQ(served->answers[i].point.arrival_time,
                  expected.arrival_time)
            << label << " " << later[i].ToString();
      }
    }
  }
}

TEST_F(QueryFamilyTopKCache, DuplicateOutOfRangeAndEvictedCandidatesRank) {
  const ObjectId n = static_cast<ObjectId>(stack_->network->num_objects());
  // Booleans put some candidates in the cache first; at capacity 1 the
  // top-k's own inserts evict the entries it just read.
  const std::vector<QuerySpec> specs = {
      Boolean(9),
      TopK({5, 9, 5, 12, 9}, 2),           // Duplicates.
      TopK({n + 3, 2, n + 3, n}, 3),       // Out of range, repeated.
      Boolean(12),
      TopK({12, 5, 9, 30, 31, 32, 2}, 4),  // Hits mixed with misses.
  };
  for (const auto& [name, make] : stack_->backends) {
    for (const int threads : {1, 4}) {
      const std::string base = name + " threads=" + std::to_string(threads);
      QueryEngineOptions uncached_options;
      uncached_options.num_threads = threads;
      auto session = make();
      const auto uncached =
          QueryEngine(uncached_options).RunFamilies(session.get(), specs);
      ASSERT_TRUE(uncached.ok()) << base;
      ExpectOracleRankings(*uncached, specs, base + " uncached");
      for (const size_t capacity : {size_t{1}, size_t{64}}) {
        QueryEngineOptions options = uncached_options;
        options.result_cache_capacity = capacity;
        const QueryEngine engine(options);
        for (const bool warm : {false, true}) {
          const std::string label = base + " cache=" +
                                    std::to_string(capacity) +
                                    (warm ? " warm" : " cold");
          const auto report = engine.RunFamilies(session.get(), specs);
          ASSERT_TRUE(report.ok()) << label;
          ExpectOracleRankings(*report, specs, label);
          for (size_t i = 0; i < specs.size(); ++i) {
            EXPECT_EQ(report->answers[i], uncached->answers[i])
                << label << " " << specs[i].ToString();
          }
          if (warm && capacity == 64) {
            // Every spec finds each of its distinct keys cached.
            EXPECT_EQ(report->summary.result_cache_hits, 2u + 3u + 3u + 7u)
                << label;
            EXPECT_EQ(report->summary.total_pages_fetched, 0u) << label;
          }
        }
      }
    }
  }
}

TEST_F(QueryFamilyTopKCache, InvalidTopKSpecsDoNoBackendWork) {
  const std::vector<QuerySpec> specs = {Boolean(4), TopK({1, 2}, 0),
                                        TopK({1, 2}, -3), TopK({}, 2)};
  for (const auto& [name, make] : stack_->backends) {
    for (const int threads : {1, 4}) {
      for (const size_t capacity : {size_t{0}, size_t{64}}) {
        const std::string label = name + " threads=" +
                                  std::to_string(threads) +
                                  " cache=" + std::to_string(capacity);
        QueryEngineOptions options;
        options.num_threads = threads;
        options.result_cache_capacity = capacity;
        auto session = make();
        const auto report =
            QueryEngine(options).RunFamilies(session.get(), specs);
        ASSERT_TRUE(report.ok()) << label;
        ASSERT_TRUE(report->statuses[0].ok()) << label;
        EXPECT_FALSE(NoBackendWork(report->per_query[0])) << label;
        for (size_t i = 1; i < specs.size(); ++i) {
          EXPECT_TRUE(report->statuses[i].IsInvalidArgument())
              << label << " " << report->statuses[i].ToString();
          EXPECT_TRUE(NoBackendWork(report->per_query[i]))
              << label << " " << specs[i].ToString();
        }
        EXPECT_EQ(report->summary.failed_queries, specs.size() - 1) << label;
        EXPECT_EQ(report->summary.result_cache_hits, 0u) << label;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Workload-generator determinism.
// ---------------------------------------------------------------------

std::string SerializeSpecs(const std::vector<QuerySpec>& specs) {
  std::string bytes;
  auto put = [&bytes](const void* p, size_t size) {
    bytes.append(reinterpret_cast<const char*>(p), size);
  };
  for (const QuerySpec& s : specs) {
    const uint8_t family = static_cast<uint8_t>(s.family);
    put(&family, sizeof(family));
    put(&s.source, sizeof(s.source));
    put(&s.destination, sizeof(s.destination));
    put(&s.interval.start, sizeof(s.interval.start));
    put(&s.interval.end, sizeof(s.interval.end));
    put(&s.decay, sizeof(s.decay));
    put(&s.min_strength, sizeof(s.min_strength));
    put(&s.max_hops, sizeof(s.max_hops));
    put(&s.per_hop_ticks, sizeof(s.per_hop_ticks));
    put(&s.k, sizeof(s.k));
    const uint64_t num_candidates = s.candidates.size();
    put(&num_candidates, sizeof(num_candidates));
    for (const ObjectId candidate : s.candidates) {
      put(&candidate, sizeof(candidate));
    }
    put(&s.contact_probability, sizeof(s.contact_probability));
    put(&s.min_path_probability, sizeof(s.min_path_probability));
  }
  return bytes;
}

TEST(QueryFamilyGenerator, ByteIdenticalStreamsFromFixedSeed) {
  for (const QueryFamily family :
       {QueryFamily::kBoolean, QueryFamily::kDecayReach,
        QueryFamily::kKHopReach, QueryFamily::kTopKSources,
        QueryFamily::kThresholdReach}) {
    FamilyWorkloadParams params;
    params.base.num_queries = 40;
    params.base.num_objects = 50;
    params.base.span = TimeInterval(0, 499);
    params.base.min_interval_len = 20;
    params.base.max_interval_len = 200;
    params.base.seed = 909;
    params.family = family;

    const std::vector<QuerySpec> once = GenerateFamilyWorkload(params);
    const std::vector<QuerySpec> twice = GenerateFamilyWorkload(params);
    ASSERT_EQ(once.size(), 40u);
    EXPECT_EQ(SerializeSpecs(once), SerializeSpecs(twice))
        << FamilyName(family);

    FamilyWorkloadParams reseeded = params;
    reseeded.base.seed = 910;
    EXPECT_NE(SerializeSpecs(once),
              SerializeSpecs(GenerateFamilyWorkload(reseeded)))
        << FamilyName(family);

    // Draws respect the declared ranges.
    for (const QuerySpec& s : once) {
      EXPECT_EQ(s.family, family);
      EXPECT_FALSE(s.interval.empty());
      switch (family) {
        case QueryFamily::kBoolean:
          EXPECT_NE(s.source, s.destination);
          break;
        case QueryFamily::kDecayReach:
          EXPECT_GE(s.decay, params.min_decay);
          EXPECT_LE(s.decay, params.max_decay);
          EXPECT_EQ(s.min_strength, params.min_strength);
          break;
        case QueryFamily::kKHopReach:
          EXPECT_GE(s.max_hops, params.min_hops);
          EXPECT_LE(s.max_hops, params.max_hops);
          EXPECT_TRUE(s.per_hop_ticks == -1 ||
                      (s.per_hop_ticks >= params.min_per_hop_ticks &&
                       s.per_hop_ticks <= params.max_per_hop_ticks));
          break;
        case QueryFamily::kTopKSources: {
          EXPECT_GE(s.k, params.min_k);
          EXPECT_LE(s.k, params.max_k);
          EXPECT_GE(static_cast<int>(s.candidates.size()),
                    params.min_candidates);
          EXPECT_LE(static_cast<int>(s.candidates.size()),
                    params.max_candidates);
          EXPECT_TRUE(std::is_sorted(s.candidates.begin(),
                                     s.candidates.end()));
          EXPECT_EQ(std::adjacent_find(s.candidates.begin(),
                                       s.candidates.end()),
                    s.candidates.end());
          break;
        }
        case QueryFamily::kThresholdReach:
          EXPECT_GE(s.contact_probability, params.min_contact_probability);
          EXPECT_LE(s.contact_probability, params.max_contact_probability);
          EXPECT_GE(s.min_path_probability, params.min_path_floor);
          EXPECT_LE(s.min_path_probability, params.max_path_floor);
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dormant-extension cross-checks: on networks whose snapshot components
// never exceed a pair, the ext/ evaluators' per-edge counting coincides
// with the engine's per-component-entry counting exactly.
// ---------------------------------------------------------------------

/// Single-tick contacts from a random per-tick matching: every object is
/// in at most one pair per tick, so snapshot components are single pairs.
std::vector<Contact> MakePairMatchingContacts(size_t num_objects,
                                              TimeInterval span,
                                              uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<ObjectId> ids(num_objects);
  for (size_t i = 0; i < num_objects; ++i) {
    ids[i] = static_cast<ObjectId>(i);
  }
  std::bernoulli_distribution keep(0.4);
  std::vector<Contact> contacts;
  for (Timestamp t = span.start; t <= span.end; ++t) {
    std::shuffle(ids.begin(), ids.end(), rng);
    for (size_t i = 0; i + 1 < num_objects; i += 2) {
      if (!keep(rng)) continue;
      contacts.emplace_back(std::min(ids[i], ids[i + 1]),
                            std::max(ids[i], ids[i + 1]),
                            TimeInterval(t, t));
    }
  }
  return contacts;
}

TEST(QueryFamilyExt, NonImmediatePickupsMatchComponentEntriesOnPairs) {
  const size_t n = 20;
  const TimeInterval span(0, 119);
  const std::vector<Contact> contacts =
      MakePairMatchingContacts(n, span, 311);
  const ContactNetwork network(n, span, contacts);

  // Immediate contacts as lifetime-0 delayed contacts, both directions,
  // in ExtractNonImmediateContacts order (receive, deposit, from, to).
  std::vector<DelayedContact> delayed;
  for (const Contact& c : contacts) {
    for (Timestamp t = c.validity.start; t <= c.validity.end; ++t) {
      delayed.push_back(DelayedContact{c.a, c.b, t, t});
      delayed.push_back(DelayedContact{c.b, c.a, t, t});
    }
  }
  std::sort(delayed.begin(), delayed.end(),
            [](const DelayedContact& a, const DelayedContact& b) {
              return std::tie(a.receive_time, a.deposit_time, a.from, a.to) <
                     std::tie(b.receive_time, b.deposit_time, b.from, b.to);
            });

  for (const auto& [hops, window_ticks] :
       std::vector<std::pair<int32_t, Timestamp>>{
           {-1, -1}, {2, -1}, {4, -1}, {1, 5}, {3, 0}, {4, 2}, {0, -1}}) {
    const HopConstraints constraints{hops, window_ticks};
    for (const ObjectId source : {0u, 7u, 15u}) {
      const TimeInterval window(10, 100);
      EXPECT_EQ(
          NonImmediateHopProfile(n, delayed, source, window, constraints),
          OracleETable(network, source, window, hops, window_ticks))
          << "source " << source << " hops=" << hops
          << " window=" << window_ticks;
    }
  }
}

TEST(QueryFamilyExt, UncertainGraphMatchesThresholdFamilyOnPairs) {
  const size_t n = 20;
  const TimeInterval span(0, 119);
  const std::vector<Contact> contacts =
      MakePairMatchingContacts(n, span, 527);
  auto network =
      std::make_shared<const ContactNetwork>(n, span, contacts);
  auto backend = MakeBruteForceBackend(network);

  const double p = 0.8;
  auto graph = UReachGraph::Build(n, span, WithUniformProbability(contacts, p));
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  std::mt19937 rng(643);
  std::uniform_int_distribution<ObjectId> object(0,
                                                 static_cast<ObjectId>(n - 1));
  int reachable_checked = 0;
  for (int i = 0; i < 60; ++i) {
    QuerySpec spec;
    spec.family = QueryFamily::kThresholdReach;
    spec.source = object(rng);
    spec.destination = object(rng);
    spec.interval = TimeInterval(5, 110);
    spec.contact_probability = p;
    spec.min_path_probability =
        std::vector<double>{0.0, 0.1, 0.3, 0.6, 0.9}[i % 5];

    auto family = EvaluateFamily(backend.get(), spec);
    ASSERT_TRUE(family.ok());
    auto uncertain = EvaluateThresholdSpec(*graph, spec);
    ASSERT_TRUE(uncertain.ok());

    EXPECT_EQ(family->point.reachable, uncertain->reachable)
        << spec.ToString();
    if (family->point.reachable) {
      // Max-probability paths and min-transfer chains coincide on pair
      // components: both multiply p once per hand-off from 1.0.
      EXPECT_DOUBLE_EQ(family->best_probability, uncertain->best_probability)
          << spec.ToString();
      ++reachable_checked;
    }
  }
  EXPECT_GT(reachable_checked, 10);

  // Non-threshold specs are rejected at the bridge.
  QuerySpec wrong;
  wrong.family = QueryFamily::kDecayReach;
  EXPECT_TRUE(EvaluateThresholdSpec(*graph, wrong)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace streach
