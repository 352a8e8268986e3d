#ifndef STREACH_ENGINE_QUERY_SPEC_H_
#define STREACH_ENGINE_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "engine/reachability_index.h"

namespace streach {

/// \brief The query families the engine evaluates beyond boolean reach.
///
/// Every family reduces onto two backend primitives — `ConstrainedProfile`
/// (decay / k-hop / threshold) and `ReachableSets` (top-k) — so any
/// backend implementing those answers every family, and backends without
/// them degrade to NotSupported uniformly.
enum class QueryFamily : uint8_t {
  /// Plain boolean reach `src ~I~> dst` (the existing `Query` path).
  kBoolean = 0,
  /// Transfer-decay reachability (Strzheletska & Tsotras): the item loses
  /// strength by factor `(1 - decay)` per transfer; the answer is the
  /// profile of every object reached while strength stays
  /// >= `min_strength`.
  kDecayReach = 1,
  /// k-hop contact tracing (Ali et al.): at most `max_hops` transfers,
  /// each carrier contagious for `per_hop_ticks` ticks after infection.
  kKHopReach = 2,
  /// Top-k most-reachable sources: rank `candidates` by the size of
  /// their reachable set over the interval; return the best `k`.
  kTopKSources = 3,
  /// Probability-threshold reach: every contact transmits independently
  /// with `contact_probability`; is `destination` reachable along some
  /// chain whose success probability stays >= `min_path_probability`?
  kThresholdReach = 4,
};

/// Stable lower-case family name ("boolean", "decay", "khop", "topk",
/// "threshold") — used by summaries, bench JSON, and logs.
const char* FamilyName(QueryFamily family);

/// \brief One query of any family: the family tag plus the union of all
/// family parameters (unused ones keep their defaults and are ignored).
struct QuerySpec {
  QueryFamily family = QueryFamily::kBoolean;
  /// All families except top-k.
  ObjectId source = kInvalidObject;
  /// Boolean and threshold families.
  ObjectId destination = kInvalidObject;
  TimeInterval interval;

  /// \name kDecayReach
  /// @{
  /// Per-transfer strength loss in [0, 1]; 0 degenerates to plain reach.
  double decay = 0.0;
  /// Strength floor in (0, 1]; <= 0 disables the floor (plain reach).
  double min_strength = 0.5;
  /// @}

  /// \name kKHopReach
  /// @{
  /// Transfer budget; < 0 = unbounded.
  int32_t max_hops = -1;
  /// Carrier contagious window after infection; < 0 = unbounded.
  Timestamp per_hop_ticks = -1;
  /// @}

  /// \name kTopKSources
  /// @{
  int32_t k = 1;
  std::vector<ObjectId> candidates;
  /// @}

  /// \name kThresholdReach
  /// @{
  /// Per-contact transmission probability in [0, 1].
  double contact_probability = 1.0;
  /// Chain-probability floor in (0, 1]; <= 0 disables it.
  double min_path_probability = 0.5;
  /// @}

  std::string ToString() const;
};

/// One ranked entry of a top-k answer.
struct TopKEntry {
  ObjectId source = kInvalidObject;
  /// Objects reachable from `source` over the query interval (counting
  /// the source itself, which every non-empty-window closure contains).
  uint32_t reach_count = 0;

  bool operator==(const TopKEntry& o) const {
    return source == o.source && reach_count == o.reach_count;
  }
  bool operator!=(const TopKEntry& o) const { return !(*this == o); }
};

/// \brief Outcome of one `QuerySpec`, with exactly one family-dependent
/// payload populated.
struct FamilyAnswer {
  QueryFamily family = QueryFamily::kBoolean;
  /// kBoolean / kThresholdReach: the point answer.
  ReachAnswer point;
  /// kThresholdReach: best chain probability reaching the destination
  /// (0 when unreachable).
  double best_probability = 0.0;
  /// kDecayReach / kKHopReach: per-object arrival + transfer profile.
  std::vector<ReachProfileEntry> profile;
  /// kTopKSources: the k best candidates, reach-count descending, id
  /// ascending on ties.
  std::vector<TopKEntry> ranked;

  bool operator==(const FamilyAnswer& o) const {
    return family == o.family && point.reachable == o.point.reachable &&
           point.arrival_time == o.point.arrival_time &&
           best_probability == o.best_probability && profile == o.profile &&
           ranked == o.ranked;
  }
  bool operator!=(const FamilyAnswer& o) const { return !(*this == o); }
};

/// Strength retained after `transfers` hand-offs at per-transfer
/// `retention`: `retention^transfers` computed by sequential
/// multiplication so every call site (engine, oracles, bench) produces
/// bit-identical doubles. `transfers` must be >= 0.
double TransferStrength(double retention, int32_t transfers);

/// Largest transfer count whose retained strength stays >= `floor_value`
/// (-1 = unbounded). `floor_value` <= 0 or `retention` >= 1 are
/// unbounded; `retention` <= 0 allows only the source's own 0 transfers.
int32_t MaxTransfersAtOrAbove(double retention, double floor_value);

/// The `HopConstraints` a decay / k-hop / threshold spec evaluates under
/// (decay and threshold floors resolve to a transfer cap via
/// `MaxTransfersAtOrAbove`). InvalidArgument on out-of-domain parameters
/// (decay or probability outside [0, 1], floors above 1, NaNs) or a
/// non-hop family.
Result<HopConstraints> ResolveHops(const QuerySpec& spec);

/// Derives the family answer from the spec's constrained profile
/// (decay / k-hop: the profile itself; threshold: the destination's point
/// answer and chain probability).
FamilyAnswer AnswerFromProfile(const QuerySpec& spec,
                               std::vector<ReachProfileEntry> profile);

/// InvalidArgument unless a top-k spec asks for `k >= 1` of a non-empty
/// candidate list; checked before any backend work, cached or not.
Status ValidateTopK(const QuerySpec& spec);

/// Ranks closure sets into a top-k answer: `sets[i]` points at the set
/// of `spec.candidates[i]` (duplicate candidates may share one), so
/// cached sets are counted where they lie, never copied.
FamilyAnswer RankTopK(const QuerySpec& spec,
                      const std::vector<const std::vector<Timestamp>*>& sets);

/// Evaluates one spec of any family against a backend session, uncached:
/// boolean routes through `ReachableSet` (falling back to the point
/// `Query` on point-query-only backends, which may not track arrival
/// times), decay / k-hop / threshold through `ConstrainedProfile`, top-k
/// through `ReachableSets` (one shared-sweep batch over the candidate
/// list). Propagates NotSupported from backends lacking the underlying
/// primitive.
Result<FamilyAnswer> EvaluateFamily(ReachabilityIndex* backend,
                                    const QuerySpec& spec);

}  // namespace streach

#endif  // STREACH_ENGINE_QUERY_SPEC_H_
