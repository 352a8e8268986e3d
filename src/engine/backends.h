#ifndef STREACH_ENGINE_BACKENDS_H_
#define STREACH_ENGINE_BACKENDS_H_

#include <memory>
#include <string>

#include "baselines/grail.h"
#include "baselines/spj.h"
#include "engine/reachability_index.h"
#include "network/contact_network.h"
#include "reachgraph/reach_graph_index.h"
#include "reachgrid/reach_grid_index.h"

namespace streach {

/// Which ReachGraph query processor a backend session runs (Figure 13's
/// four traversals).
enum class ReachGraphTraversal { kBmBfs, kBBfs, kEBfs, kEDfs };

const char* ToString(ReachGraphTraversal traversal);

/// GRAIL execution mode (the two halves of Table 5).
enum class GrailMode { kMemory, kDisk };

/// \brief The ground-truth evaluator behind the `ReachabilityIndex`
/// interface.
///
/// Wraps the stateless BruteForceReach/BruteForceClosure sweeps over an
/// in-memory contact network. No IO is simulated, so its stats report CPU
/// time only. Sessions are trivially cheap: the network is shared and
/// immutable.
class BruteForceReachability : public ReachabilityIndex {
 public:
  explicit BruteForceReachability(
      std::shared_ptr<const ContactNetwork> network);

  Result<ReachAnswer> Query(const ReachQuery& query) override;
  Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) override;
  Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval,
      const HopConstraints& hops) override;
  const QueryStats& last_query_stats() const override { return stats_; }
  void ClearCache() override {}
  std::shared_ptr<const void> IndexIdentity() const override {
    return network_;
  }
  std::string DescribeIndex() const override;
  std::unique_ptr<ReachabilityIndex> NewSession() const override;

 private:
  std::shared_ptr<const ContactNetwork> network_;
  QueryStats stats_;
};

/// Adapter factories: each returns a query session implementing
/// `ReachabilityIndex` over the given (shared, immutable) index. Create
/// one per thread via the factory or via `NewSession()`.
std::unique_ptr<ReachabilityIndex> MakeReachGridBackend(
    std::shared_ptr<const ReachGridIndex> index);

std::unique_ptr<ReachabilityIndex> MakeReachGraphBackend(
    std::shared_ptr<const ReachGraphIndex> index,
    ReachGraphTraversal traversal);

std::unique_ptr<ReachabilityIndex> MakeSpjBackend(
    std::shared_ptr<const SpjEvaluator> spj);

std::unique_ptr<ReachabilityIndex> MakeGrailBackend(
    std::shared_ptr<const GrailIndex> grail, GrailMode mode);

std::unique_ptr<ReachabilityIndex> MakeBruteForceBackend(
    std::shared_ptr<const ContactNetwork> network);

}  // namespace streach

#endif  // STREACH_ENGINE_BACKENDS_H_
