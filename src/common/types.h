#ifndef STREACH_COMMON_TYPES_H_
#define STREACH_COMMON_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace streach {

/// Identifier of a moving object. Objects are densely numbered 0..N-1.
using ObjectId = uint32_t;

/// Sentinel for "no object".
inline constexpr ObjectId kInvalidObject =
    std::numeric_limits<ObjectId>::max();

/// Discrete time instant (tick). The paper samples object positions every
/// 5-6 seconds; one tick corresponds to one sampling period.
using Timestamp = int32_t;

/// Sentinel for "no time".
inline constexpr Timestamp kInvalidTime =
    std::numeric_limits<Timestamp>::min();

/// Identifier of a hypergraph vertex (ReachGraph / DN).
using VertexId = uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();

/// \brief Closed interval of discrete time instants [start, end].
///
/// Both endpoints are inclusive, matching the paper's validity intervals
/// (e.g. Tc=[0,0] is a single-instant contact). An interval with
/// `start > end` is empty.
struct TimeInterval {
  Timestamp start = 0;
  Timestamp end = -1;

  constexpr TimeInterval() = default;
  constexpr TimeInterval(Timestamp s, Timestamp e) : start(s), end(e) {}

  /// Number of instants covered; 0 for an empty interval.
  constexpr int64_t length() const {
    return empty() ? 0 : static_cast<int64_t>(end) - start + 1;
  }

  constexpr bool empty() const { return start > end; }

  constexpr bool Contains(Timestamp t) const { return start <= t && t <= end; }

  constexpr bool Contains(const TimeInterval& other) const {
    return other.empty() || (start <= other.start && other.end <= end);
  }

  constexpr bool Overlaps(const TimeInterval& other) const {
    return !empty() && !other.empty() && start <= other.end &&
           other.start <= end;
  }

  /// Intersection of two intervals (possibly empty).
  constexpr TimeInterval Intersect(const TimeInterval& other) const {
    return TimeInterval(std::max(start, other.start),
                        std::min(end, other.end));
  }

  /// Smallest interval covering both (treats empty operands as identity).
  constexpr TimeInterval Union(const TimeInterval& other) const {
    if (empty()) return other;
    if (other.empty()) return *this;
    return TimeInterval(std::min(start, other.start),
                        std::max(end, other.end));
  }

  constexpr bool operator==(const TimeInterval& other) const {
    return start == other.start && end == other.end;
  }
  constexpr bool operator!=(const TimeInterval& other) const {
    return !(*this == other);
  }

  std::string ToString() const {
    return "[" + std::to_string(start) + "," + std::to_string(end) + "]";
  }
};

inline std::ostream& operator<<(std::ostream& os, const TimeInterval& t) {
  return os << t.ToString();
}

/// \brief A reachability query `q : src ~interval~> dst` (§3.2).
///
/// Asks whether an item initiated by `src` at `interval.start` can reach
/// `dst` by `interval.end` through a time-respecting chain of contacts.
struct ReachQuery {
  ObjectId source = kInvalidObject;
  ObjectId destination = kInvalidObject;
  TimeInterval interval;

  std::string ToString() const {
    return "q: o" + std::to_string(source) + " ~" + interval.ToString() +
           "~> o" + std::to_string(destination);
  }
};

/// \brief Transfer-count constraints on a reachability traversal.
///
/// Hops are counted as *component entries*: the item starts at the source
/// with 0 transfers, and each time it enters a snapshot component it has
/// not been carried into before, every member of that component receives
/// it at +1 transfers (the paper's Property 5.1 — contact components
/// spread delay-free within one tick, so within-component pairwise chains
/// are not individually countable and are deliberately not counted).
struct HopConstraints {
  /// Maximum number of transfers (component entries) the item may make;
  /// < 0 means unbounded (plain reachability).
  int32_t max_transfers = -1;
  /// Per-hop freshness bound: a carrier infected at time `t0` can only
  /// hand the item on during `[t0, t0 + per_hop_ticks]`; < 0 disables
  /// the bound (a carrier transmits forever within the query window).
  Timestamp per_hop_ticks = -1;

  constexpr bool operator==(const HopConstraints& o) const {
    return max_transfers == o.max_transfers &&
           per_hop_ticks == o.per_hop_ticks;
  }
  constexpr bool operator!=(const HopConstraints& o) const {
    return !(*this == o);
  }
};

/// \brief One object's row of a constrained-reachability profile.
struct ReachProfileEntry {
  /// Earliest time the object receives the item within the constraints
  /// (kInvalidTime when unreached).
  Timestamp infected_at = kInvalidTime;
  /// Minimum number of transfers over all constraint-respecting chains
  /// that reach the object (-1 when unreached; 0 for the source itself).
  int32_t transfers = -1;

  constexpr bool operator==(const ReachProfileEntry& o) const {
    return infected_at == o.infected_at && transfers == o.transfers;
  }
  constexpr bool operator!=(const ReachProfileEntry& o) const {
    return !(*this == o);
  }
};

/// \brief Outcome of evaluating a reachability query.
struct ReachAnswer {
  /// True iff the destination is reachable from the source in the interval.
  bool reachable = false;
  /// Earliest time at which the destination becomes reachable
  /// (kInvalidTime when not reachable or when the evaluator does not track
  /// arrival times, e.g. vertex-level baselines).
  Timestamp arrival_time = kInvalidTime;
};

/// A self-query's answer, by `BruteForceReach`'s rule: the item sits at
/// its source on every tick of the clamped window `w`, so the query holds
/// iff `w` is non-empty, arriving at `w.start` — for any id, known or not.
inline ReachAnswer SelfQueryAnswer(TimeInterval w) {
  ReachAnswer answer;
  if (!w.empty()) {
    answer.reachable = true;
    answer.arrival_time = w.start;
  }
  return answer;
}

/// Point answer derived from a reachable set: the set holds every
/// object's infection time (kInvalidTime when unreached), which is
/// exactly the earliest arrival a point query reports.
inline ReachAnswer AnswerFromSet(const std::vector<Timestamp>& infection_times,
                                 ObjectId destination) {
  ReachAnswer answer;
  if (destination < infection_times.size() &&
      infection_times[destination] != kInvalidTime) {
    answer.reachable = true;
    answer.arrival_time = infection_times[destination];
  }
  return answer;
}

}  // namespace streach

#endif  // STREACH_COMMON_TYPES_H_
