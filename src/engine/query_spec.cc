#include "engine/query_spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace streach {
namespace {

/// Resolved transfer caps at or beyond this are reported as unbounded:
/// they exceed any realistic chain length, and bounding the sequential
/// floor search keeps near-1 retentions from scanning millions of
/// products. Shared by every call site (engine, oracles), so the rule is
/// part of the family semantics, not a backend divergence.
constexpr int32_t kMaxResolvedTransfers = 4096;

}  // namespace

const char* FamilyName(QueryFamily family) {
  switch (family) {
    case QueryFamily::kBoolean:
      return "boolean";
    case QueryFamily::kDecayReach:
      return "decay";
    case QueryFamily::kKHopReach:
      return "khop";
    case QueryFamily::kTopKSources:
      return "topk";
    case QueryFamily::kThresholdReach:
      return "threshold";
  }
  return "unknown";
}

std::string QuerySpec::ToString() const {
  char buf[160];
  switch (family) {
    case QueryFamily::kBoolean:
      std::snprintf(buf, sizeof(buf), "boolean: o%u ~%s~> o%u", source,
                    interval.ToString().c_str(), destination);
      break;
    case QueryFamily::kDecayReach:
      std::snprintf(buf, sizeof(buf), "decay: o%u ~%s~ decay=%g floor=%g",
                    source, interval.ToString().c_str(), decay, min_strength);
      break;
    case QueryFamily::kKHopReach:
      std::snprintf(buf, sizeof(buf), "khop: o%u ~%s~ hops=%d window=%d",
                    source, interval.ToString().c_str(), max_hops,
                    per_hop_ticks);
      break;
    case QueryFamily::kTopKSources:
      std::snprintf(buf, sizeof(buf), "topk: k=%d over %zu candidates ~%s~",
                    k, candidates.size(), interval.ToString().c_str());
      break;
    case QueryFamily::kThresholdReach:
      std::snprintf(buf, sizeof(buf), "threshold: o%u ~%s~> o%u p=%g min=%g",
                    source, interval.ToString().c_str(), destination,
                    contact_probability, min_path_probability);
      break;
  }
  return buf;
}

double TransferStrength(double retention, int32_t transfers) {
  double strength = 1.0;
  for (int32_t i = 0; i < transfers; ++i) strength *= retention;
  return strength;
}

int32_t MaxTransfersAtOrAbove(double retention, double floor_value) {
  if (!(floor_value > 0.0)) return -1;  // No floor: unbounded.
  if (retention >= 1.0) return -1;      // Lossless hand-off: unbounded.
  if (retention <= 0.0) return 0;       // Nothing survives one transfer.
  int32_t transfers = 0;
  double strength = 1.0;
  while (strength * retention >= floor_value) {
    strength *= retention;
    if (++transfers >= kMaxResolvedTransfers) return -1;
  }
  return transfers;
}

Result<HopConstraints> ResolveHops(const QuerySpec& spec) {
  switch (spec.family) {
    case QueryFamily::kDecayReach:
      if (!(spec.decay >= 0.0 && spec.decay <= 1.0)) {
        return Status::InvalidArgument("decay must be in [0, 1]");
      }
      if (!(spec.min_strength <= 1.0)) {
        return Status::InvalidArgument("min_strength must be <= 1");
      }
      return HopConstraints{
          MaxTransfersAtOrAbove(1.0 - spec.decay, spec.min_strength), -1};
    case QueryFamily::kKHopReach:
      return HopConstraints{spec.max_hops < 0 ? -1 : spec.max_hops,
                            spec.per_hop_ticks < 0
                                ? Timestamp{-1}
                                : spec.per_hop_ticks};
    case QueryFamily::kThresholdReach:
      if (!(spec.contact_probability >= 0.0 &&
            spec.contact_probability <= 1.0)) {
        return Status::InvalidArgument(
            "contact_probability must be in [0, 1]");
      }
      if (!(spec.min_path_probability <= 1.0)) {
        return Status::InvalidArgument("min_path_probability must be <= 1");
      }
      return HopConstraints{MaxTransfersAtOrAbove(spec.contact_probability,
                                                  spec.min_path_probability),
                            -1};
    default:
      return Status::InvalidArgument(
          std::string("not a hop-constrained family: ") +
          FamilyName(spec.family));
  }
}

FamilyAnswer AnswerFromProfile(const QuerySpec& spec,
                               std::vector<ReachProfileEntry> profile) {
  FamilyAnswer answer;
  answer.family = spec.family;
  if (spec.family == QueryFamily::kThresholdReach) {
    if (spec.destination < profile.size()) {
      const ReachProfileEntry& entry = profile[spec.destination];
      if (entry.transfers >= 0) {
        answer.point.reachable = true;
        answer.point.arrival_time = entry.infected_at;
        answer.best_probability =
            TransferStrength(spec.contact_probability, entry.transfers);
      }
    }
  } else {
    answer.profile = std::move(profile);
  }
  return answer;
}

FamilyAnswer RankTopK(const QuerySpec& spec,
                      const std::vector<std::vector<Timestamp>>& sets) {
  FamilyAnswer answer;
  answer.family = spec.family;
  answer.ranked.reserve(sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    uint32_t count = 0;
    for (Timestamp t : sets[i]) count += (t != kInvalidTime) ? 1 : 0;
    answer.ranked.push_back(TopKEntry{spec.candidates[i], count});
  }
  std::sort(answer.ranked.begin(), answer.ranked.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.reach_count != b.reach_count) {
                return a.reach_count > b.reach_count;
              }
              return a.source < b.source;
            });
  if (answer.ranked.size() > static_cast<size_t>(spec.k)) {
    answer.ranked.resize(static_cast<size_t>(spec.k));
  }
  return answer;
}

Result<FamilyAnswer> EvaluateFamily(ReachabilityIndex* backend,
                                    const QuerySpec& spec) {
  switch (spec.family) {
    case QueryFamily::kBoolean: {
      FamilyAnswer answer;
      answer.family = spec.family;
      // The set route reports the arrival time on every set-capable
      // backend (and is what the engine's result cache memoizes); only
      // point-query-only backends downgrade to the bare point answer. A
      // self-query goes to Query: no set shows one holding for an id
      // outside the population.
      if (spec.source != spec.destination) {
        auto set = backend->ReachableSet(spec.source, spec.interval);
        if (set.ok()) {
          answer.point = AnswerFromSet(*set, spec.destination);
          return answer;
        }
        if (!set.status().IsNotSupported()) return set.status();
      }
      ReachQuery query;
      query.source = spec.source;
      query.destination = spec.destination;
      query.interval = spec.interval;
      STREACH_ASSIGN_OR_RETURN(answer.point, backend->Query(query));
      return answer;
    }
    case QueryFamily::kDecayReach:
    case QueryFamily::kKHopReach:
    case QueryFamily::kThresholdReach: {
      STREACH_ASSIGN_OR_RETURN(HopConstraints hops, ResolveHops(spec));
      STREACH_ASSIGN_OR_RETURN(
          std::vector<ReachProfileEntry> profile,
          backend->ConstrainedProfile(spec.source, spec.interval, hops));
      return AnswerFromProfile(spec, std::move(profile));
    }
    case QueryFamily::kTopKSources: {
      if (spec.k < 1) {
        return Status::InvalidArgument("top-k requires k >= 1");
      }
      if (spec.candidates.empty()) {
        return Status::InvalidArgument("top-k requires candidate sources");
      }
      STREACH_ASSIGN_OR_RETURN(
          std::vector<std::vector<Timestamp>> sets,
          backend->ReachableSets(spec.candidates, spec.interval));
      return RankTopK(spec, sets);
    }
  }
  return Status::InvalidArgument("unknown query family");
}

}  // namespace streach
