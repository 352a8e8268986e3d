#include "network/brute_force.h"

#include <unordered_map>

#include "network/union_find.h"

namespace streach {

std::vector<Timestamp> BruteForceClosure(const ContactNetwork& network,
                                         ObjectId source,
                                         TimeInterval interval) {
  std::vector<Timestamp> infected_at(network.num_objects(), kInvalidTime);
  const TimeInterval w = interval.Intersect(network.span());
  if (w.empty() || source >= network.num_objects()) return infected_at;

  infected_at[source] = w.start;
  UnionFind uf(network.num_objects());
  for (Timestamp t = w.start; t <= w.end; ++t) {
    const auto& pairs = network.PairsAt(t);
    if (pairs.empty()) continue;
    uf.Reset();
    for (const auto& [a, b] : pairs) uf.Union(a, b);
    // Mark components containing an infected object; infect all members.
    std::unordered_map<uint32_t, bool> component_infected;
    for (const auto& [a, b] : pairs) {
      const uint32_t root = uf.Find(a);
      auto [it, inserted] = component_infected.try_emplace(root, false);
      if (inserted || !it->second) {
        it->second = it->second || infected_at[a] != kInvalidTime ||
                     infected_at[b] != kInvalidTime;
      }
    }
    for (const auto& [a, b] : pairs) {
      if (!component_infected[uf.Find(a)]) continue;
      if (infected_at[a] == kInvalidTime) infected_at[a] = t;
      if (infected_at[b] == kInvalidTime) infected_at[b] = t;
    }
  }
  return infected_at;
}

ReachAnswer BruteForceReach(const ContactNetwork& network, ObjectId source,
                            ObjectId destination, TimeInterval interval) {
  const TimeInterval w = interval.Intersect(network.span());
  if (source == destination) return SelfQueryAnswer(w);
  // Early-terminating sweep: stop as soon as the destination is infected.
  ReachAnswer answer;
  if (w.empty() || source >= network.num_objects() ||
      destination >= network.num_objects()) {
    return answer;
  }
  std::vector<bool> infected(network.num_objects(), false);
  infected[source] = true;
  UnionFind uf(network.num_objects());
  for (Timestamp t = w.start; t <= w.end; ++t) {
    const auto& pairs = network.PairsAt(t);
    if (pairs.empty()) continue;
    uf.Reset();
    for (const auto& [a, b] : pairs) uf.Union(a, b);
    std::unordered_map<uint32_t, bool> component_infected;
    for (const auto& [a, b] : pairs) {
      auto [it, inserted] = component_infected.try_emplace(uf.Find(a), false);
      it->second = it->second || infected[a] || infected[b];
    }
    for (const auto& [a, b] : pairs) {
      if (!component_infected[uf.Find(a)]) continue;
      infected[a] = true;
      infected[b] = true;
    }
    if (infected[destination]) {
      answer.reachable = true;
      answer.arrival_time = t;
      return answer;
    }
  }
  return answer;
}

}  // namespace streach
