#ifndef STREACH_ENGINE_REACHABILITY_INDEX_H_
#define STREACH_ENGINE_REACHABILITY_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/types.h"
#include "storage/io_stats.h"
#include "storage/page_codec.h"

namespace streach {

/// \brief Uniform interface over every reachability evaluator.
///
/// The paper evaluates five evaluator families over identical workloads —
/// ReachGrid (§4), ReachGraph's four traversals (§5), the SPJ scan-join
/// baseline (§6.1.2), GRAIL (§6.4) and the brute-force oracle (§3.2).
/// This interface is the seam that makes them interchangeable backends:
/// benchmarks, examples and the concurrent `QueryEngine` all program
/// against it, and every future backend (sharded, cached, async) plugs in
/// here.
///
/// A `ReachabilityIndex` instance is a *session*: it bundles the shared
/// index structure with one private buffer pool and one `QueryStats`
/// slot, so a single instance must only be used from one thread at a
/// time. The disk indexes (ReachGrid, ReachGraph, SPJ, GRAIL) cannot
/// change after `Build` and hold no query state; a session is the only
/// way to query one. `NewSession()` mints additional sessions over the
/// same underlying index — that is how the `QueryEngine` gives each
/// worker thread its own buffer pool while sharing the (read-only)
/// simulated disk.
class ReachabilityIndex {
 public:
  virtual ~ReachabilityIndex() = default;

  /// Evaluates one reachability query; updates `last_query_stats()`.
  virtual Result<ReachAnswer> Query(const ReachQuery& query) = 0;

  /// Infection time of every object reachable from `source` during
  /// `interval` (kInvalidTime for unreached objects): the one-source
  /// `ReachableSets`, so it is NotSupported wherever that is.
  virtual Result<std::vector<Timestamp>> ReachableSet(ObjectId source,
                                                      TimeInterval interval) {
    std::vector<std::vector<Timestamp>> sets;
    STREACH_ASSIGN_OR_RETURN(sets, ReachableSets({source}, interval));
    return std::move(sets[0]);
  }

  /// Multi-source batch closure: `result[i]` is the set of objects
  /// reachable from `sources[i]` during `interval`, with infection times.
  /// Every backend that enumerates sets runs the whole batch as ONE sweep
  /// — per-source reach tracked in a bitset slab, every page fetched once
  /// no matter how many seeds need it — and `last_query_stats()` then
  /// covers the whole batch. Backends that only answer point queries
  /// return NotSupported.
  virtual Result<std::vector<std::vector<Timestamp>>> ReachableSets(
      const std::vector<ObjectId>& sources, TimeInterval interval) {
    (void)sources;
    (void)interval;
    return Status::NotSupported(DescribeIndex() +
                                " does not enumerate reachable sets");
  }

  /// Constrained reachability profile: earliest arrival time and minimum
  /// transfer count of every object reachable from `source` during
  /// `interval` under `hops` (see network/hop_profile.h for the exact
  /// level-synchronous semantics every backend must match byte-for-byte).
  /// The decay, k-hop, and probability-threshold query families all
  /// evaluate through this one primitive. Backends without an
  /// implementation return NotSupported.
  virtual Result<std::vector<ReachProfileEntry>> ConstrainedProfile(
      ObjectId source, TimeInterval interval, const HopConstraints& hops) {
    (void)source;
    (void)interval;
    (void)hops;
    return Status::NotSupported(DescribeIndex() +
                                " does not evaluate constrained profiles");
  }

  /// Worker threads a closure sweep on this session may use for its
  /// per-round frontier expansion (`FrontierPool`). 1 — the default —
  /// keeps every sweep on the calling thread; backends without a parallel
  /// sweep ignore it. Answers never depend on the thread count. Sessions
  /// minted by `NewSession()` inherit the setting.
  virtual void SetTraversalThreads(int threads) { (void)threads; }

  /// Cost metrics of the most recent Query/ReachableSet on this session.
  virtual const QueryStats& last_query_stats() const = 0;

  /// Evicts this session's buffered pages so the next query runs cold.
  virtual void ClearCache() = 0;

  /// Sets this session's IO submission-queue depth: how many page reads
  /// the session's buffer pool may keep in flight per storage shard when
  /// a traversal step batches its page needs (`BufferPool::FetchBatch`).
  /// 1 — the default everywhere — keeps one read outstanding per shard,
  /// serviced in request order (the paper's cost model); memory-resident
  /// backends ignore it. Answers never depend on the depth, only the IO
  /// cost profile does. Sessions minted by `NewSession()` inherit the
  /// current depth.
  virtual void SetIoQueueDepth(int depth) { (void)depth; }

  /// Sets this session's bounded retry budget for transient
  /// (`Unavailable`) read failures — forwarded to the session's buffer
  /// pool (`BufferPool::set_max_read_retries`). 0 — the default — keeps
  /// the historical surface-first-failure behavior; memory-resident
  /// backends ignore it. Answers never depend on the budget (a retried
  /// read returns the same bytes), only whether transient faults are
  /// masked or surfaced. Sessions minted by `NewSession()` inherit it.
  virtual void SetMaxReadRetries(int retries) { (void)retries; }

  /// Opts this session into degraded serving: when part of the index is
  /// unreadable (a sealed segment fails verification and is
  /// quarantined), queries skip the quarantined part and answer from the
  /// rest, marking `last_query_stats().degraded` — instead of failing
  /// with `Corruption`, the default. Backends without a quarantine
  /// notion ignore it. Sessions minted by `NewSession()` inherit it.
  virtual void SetDegradedServing(bool on) { (void)on; }

  /// Stable identity of the underlying immutable index, shared by every
  /// session minted from it via `NewSession()`. The engine's result cache
  /// keys entries by this token so memoized sets are never served across
  /// different indexes/datasets; returning shared ownership (rather than
  /// a raw pointer) lets the cache detect a destroyed index whose address
  /// was reused and drop its stale entries. The default (no identity)
  /// is conservatively correct — it only opts the backend out of result
  /// caching.
  virtual std::shared_ptr<const void> IndexIdentity() const {
    return nullptr;
  }

  /// Storage shards behind this session's index (1 when unsharded or
  /// memory-resident).
  virtual int num_shards() const { return 1; }

  /// On-disk record codec of this session's index, or nullopt for
  /// memory-resident backends (no stored records). The engine checks a
  /// disk backend's codec against `QueryEngineOptions::page_codec` so a
  /// workload is never run under a mis-declared decode assumption.
  virtual std::optional<PageCodecKind> page_codec() const {
    return std::nullopt;
  }

  /// Cumulative device IO per shard performed through this session's
  /// buffer pool since the session was created (index = shard id; empty
  /// for memory-resident backends). The `QueryEngine` diffs these around
  /// a workload run to report per-shard IO breakdowns.
  virtual std::vector<IoStats> shard_io_stats() const { return {}; }

  /// Human-readable backend identifier, e.g. "ReachGraph(BM-BFS)".
  virtual std::string DescribeIndex() const = 0;

  /// A new independent session over the same immutable index: shares the
  /// on-disk structure, owns a fresh buffer pool and stats slot. Sessions
  /// may be queried concurrently with each other and with this instance.
  virtual std::unique_ptr<ReachabilityIndex> NewSession() const = 0;
};

}  // namespace streach

#endif  // STREACH_ENGINE_REACHABILITY_INDEX_H_
