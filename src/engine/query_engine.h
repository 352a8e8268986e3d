#ifndef STREACH_ENGINE_QUERY_ENGINE_H_
#define STREACH_ENGINE_QUERY_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/query_stats.h"
#include "common/result.h"
#include "common/types.h"
#include "engine/query_spec.h"
#include "engine/reachability_index.h"
#include "engine/result_cache.h"
#include "storage/io_stats.h"
#include "storage/page_codec.h"

namespace streach {

/// Execution parameters of a workload run.
struct QueryEngineOptions {
  /// Worker threads. 1 executes inline on the caller's session; N > 1
  /// mints N sessions via `NewSession()` and stripes the workload across
  /// them. Answers are deterministic regardless of thread count.
  int num_threads = 1;

  /// Clear each session's buffer pool before every query, so every query
  /// is measured cold (the paper's per-query IO measurement protocol).
  bool cold_cache = false;

  /// IO submission-queue depth per storage shard, applied to every worker
  /// session before the run (`ReachabilityIndex::SetIoQueueDepth`) and
  /// left on the caller's session afterwards. The backends batch each
  /// traversal step's page needs at every depth. At 1 (default) each
  /// shard's device services one read at a time in request order — the
  /// paper's single-outstanding-request cost model.
  /// At N > 1 the simulated per-shard devices keep up to N reads in
  /// flight, reordering service seek-aware — answers are identical, the
  /// IO cost profile (and `WorkloadSummary::mean_inflight_requests()`)
  /// changes.
  int io_queue_depth = 1;

  /// On-disk record codec the workload's disk-resident backend is
  /// expected to decode with. Purely a declared expectation: each
  /// backend session knows (and uses) the codec its index was built
  /// with, and `Run` fails with InvalidArgument when a disk backend's
  /// actual codec differs from this — the same guard a production fleet
  /// needs against pointing a reader generation at an incompatibly
  /// encoded store. Memory-resident backends are exempt. The default
  /// matches the default build codec, so existing call sites never
  /// trip it.
  PageCodecKind page_codec = PageCodecKind::kRaw;

  /// Worker threads each session's closure sweeps may use for intra-query
  /// frontier expansion (`ReachabilityIndex::SetTraversalThreads`; left
  /// on the caller's session after the run), orthogonal to `num_threads`
  /// (inter-query parallelism). 1 — the default — keeps every sweep on
  /// its session's thread; backends without a parallel sweep ignore it.
  /// Answers never depend on the setting.
  int traversal_threads = 1;

  /// Sources per `ReachableSets` batch in `RunClosures`: consecutive
  /// groups of this many sources are evaluated as one shared-frontier
  /// sweep, deduplicating page fetches across the group's seeds. 1 — the
  /// default — evaluates every source as its own one-source sweep.
  /// Answers are identical at every setting; the IO bill is not: a batch
  /// reads each hot page once instead of once per source.
  int batch_sources = 1;

  /// Bounded retry budget for transient (`Unavailable`) read failures,
  /// applied to every worker session before the run
  /// (`ReachabilityIndex::SetMaxReadRetries`) and left on the caller's
  /// session afterwards. A transiently failing page read is reissued up
  /// to this many times before the failure surfaces as that query's
  /// status. 0 — the default — surfaces the first failure; fault-free
  /// runs never retry either way. Answers never depend on the budget,
  /// only whether faults are masked.
  int max_read_retries = 0;

  /// Opts every worker session into degraded serving
  /// (`ReachabilityIndex::SetDegradedServing`; the caller's session keeps
  /// the setting after the run): queries over an index with quarantined
  /// (unreadable) parts skip them and answer from the rest, flagged per
  /// query via `QueryStats::degraded`, instead of failing with
  /// `Corruption`. Off by default: a damaged index fails loudly rather
  /// than silently under-answering.
  bool degraded_serving = false;

  /// Capacity (entries) of the engine's result cache memoizing
  /// `(index, source, interval) -> reachable set`; 0 disables it. On a
  /// cache hit a point query is answered by set lookup with zero backend
  /// work; on a miss the engine materializes the full set via
  /// `ReachableSet(source, interval)` and caches it (backends that only
  /// answer point queries fall back to a plain `Query` and are never
  /// cached). Answers are identical with the cache on or off, but the
  /// cost profile shifts: a miss pays the full-set sweep (no
  /// destination early-exit), so the cache wins on workloads that repeat
  /// `(source, interval)` keys and loses on all-unique ones. The cache
  /// persists across `Run` calls on one engine — indexes are immutable
  /// and entries are keyed by `IndexIdentity()`, so they never
  /// invalidate and never cross indexes. Ignored when `cold_cache` is
  /// set: memoized answers would defeat cold per-query measurement.
  size_t result_cache_capacity = 0;
};

/// Aggregated outcome of running one workload against one backend.
struct WorkloadSummary {
  std::string backend;
  uint64_t num_queries = 0;
  uint64_t num_reachable = 0;
  /// Sums over all queries.
  double total_io_cost = 0.0;
  uint64_t total_pages_fetched = 0;
  uint64_t total_pool_hits = 0;
  uint64_t total_items_visited = 0;
  double total_cpu_seconds = 0.0;
  /// Wall-clock of the whole run and derived throughput.
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  /// Per-query wall latency distribution (seconds).
  double mean_latency = 0.0;
  double p50_latency = 0.0;
  double p95_latency = 0.0;
  double p99_latency = 0.0;
  double max_latency = 0.0;
  /// Point queries answered from the engine's result cache.
  uint64_t result_cache_hits = 0;
  /// Queries whose status is an error (every entry point records them
  /// in the report's `statuses` and keeps going; a failed closure batch
  /// counts each of its sources; 0 on every healthy run).
  uint64_t failed_queries = 0;
  /// Queries answered under degraded serving (`QueryStats::degraded`;
  /// a degraded closure batch counts each of its sources).
  uint64_t degraded_queries = 0;
  /// Queries per family over the run, indexed by the `QueryFamily` tag
  /// value. `Run`/`RunClosures` workloads count as all-boolean;
  /// `RunFamilies` fills one slot per spec.
  std::array<uint64_t, 5> family_counts{};
  /// IO submission-queue depth the run executed at (echo of the engine
  /// option actually applied to the sessions).
  int io_queue_depth = 1;
  /// Intra-query traversal threads applied to the sessions (echo).
  int traversal_threads = 1;
  /// Sources per closure batch (`RunClosures`; 1 for point-query runs).
  int batch_sources = 1;
  /// On-disk record codec the backend decoded with during this run (the
  /// engine option's value for memory-resident backends).
  std::string page_codec = "raw";
  /// Device IO per storage shard during this run (index = shard id;
  /// empty for memory-resident backends). Sums to the workload totals.
  /// Each entry also carries the shard's queue stats: `batched_reads`
  /// and `mean_inflight()` say how much overlap that shard's submission
  /// queue actually saw.
  std::vector<IoStats> per_shard_io;

  double mean_io_cost() const {
    return num_queries == 0 ? 0.0 : total_io_cost / num_queries;
  }
  /// Device reads serviced through the batched async path, all shards —
  /// every buffer-pool read, so it equals the run's total reads.
  uint64_t total_batched_reads() const {
    uint64_t total = 0;
    for (const IoStats& shard : per_shard_io) total += shard.batched_reads;
    return total;
  }
  /// Mean in-flight requests over all batched reads of the run (1.0 at
  /// depth 1; > 1 means reads overlapped; 0 when the run read nothing).
  double mean_inflight_requests() const {
    uint64_t reads = 0;
    uint64_t accum = 0;
    for (const IoStats& shard : per_shard_io) {
      reads += shard.batched_reads;
      accum += shard.inflight_accum;
    }
    return reads == 0
               ? 0.0
               : static_cast<double>(accum) / static_cast<double>(reads);
  }
  /// Stored bytes of every record decoded during the run, all shards.
  uint64_t total_encoded_bytes() const {
    uint64_t total = 0;
    for (const IoStats& shard : per_shard_io) total += shard.encoded_bytes;
    return total;
  }
  /// Raw bytes those records expanded to.
  uint64_t total_decoded_bytes() const {
    uint64_t total = 0;
    for (const IoStats& shard : per_shard_io) total += shard.decoded_bytes;
    return total;
  }
  /// Raw : stored ratio over the run's decodes (1.0 under the raw codec,
  /// which never decodes).
  double compression_ratio() const {
    const uint64_t encoded = total_encoded_bytes();
    return encoded == 0 ? 1.0
                        : static_cast<double>(total_decoded_bytes()) /
                              static_cast<double>(encoded);
  }

  /// Buffer-pool hit rate over all fetches of the run (hits / (hits +
  /// misses)); 0 when the backend performs no IO.
  double pool_hit_rate() const {
    const uint64_t fetches = total_pool_hits + total_pages_fetched;
    return fetches == 0
               ? 0.0
               : static_cast<double>(total_pool_hits) / fetches;
  }
  std::string ToString() const;
};

/// Everything a workload run produces. `answers[i]`, `per_query[i]` and
/// `statuses[i]` correspond to the i-th input query independent of
/// execution order. `statuses[i]` is that query's own outcome: an
/// errored query (surfaced fault, detected corruption) keeps its error
/// here — with a default-constructed answer — while the rest of the
/// workload still runs and reports normally.
struct WorkloadReport {
  std::vector<ReachAnswer> answers;
  std::vector<QueryStats> per_query;
  std::vector<Status> statuses;
  WorkloadSummary summary;
};

/// Everything a family workload run produces. `answers[i]`,
/// `per_query[i]` and `statuses[i]` correspond to the i-th input spec
/// independent of execution order (per-spec statuses as in
/// `WorkloadReport`).
struct FamilyWorkloadReport {
  std::vector<FamilyAnswer> answers;
  std::vector<QueryStats> per_query;
  std::vector<Status> statuses;
  WorkloadSummary summary;
};

/// Everything a closure-workload run produces. `sets[i]` is the full
/// reachable set of the i-th input source independent of execution order;
/// `per_batch[b]` and `statuses[b]` cover the b-th batch of
/// `batch_sources` consecutive sources (one backend sweep each). A failed
/// batch keeps its error in `statuses[b]` and leaves its sources' sets
/// empty, while the other batches still run.
struct ClosureWorkloadReport {
  std::vector<std::vector<Timestamp>> sets;
  std::vector<QueryStats> per_batch;
  std::vector<Status> statuses;
  WorkloadSummary summary;
};

/// \brief Executes reachability workloads against any `ReachabilityIndex`
/// backend, sequentially or across a thread pool.
///
/// Concurrency model: the backend's immutable structure (simulated disk
/// pages, in-memory directories) is shared read-only; every worker thread
/// owns a private session — buffer pool, IO cursor, stats slot — created
/// with `NewSession()` (worker 0 reuses the caller's). Each run applies
/// `io_queue_depth`, `traversal_threads`, `max_read_retries` and
/// `degraded_serving` to every worker session and never restores them,
/// so the caller's session keeps the last run's settings. Threads claim
/// queries (or closure batches) from a shared atomic counter, and results
/// land in pre-sized slots, so no locks are held on the query path and
/// answers are byte-identical to a sequential run. All three entry points
/// share this one loop; they differ only in how one item is evaluated and
/// how its answer is tallied.
class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineOptions options = {});

  /// Runs every query; returns per-query answers/stats/statuses plus the
  /// summary. A query whose backend evaluation fails (surfaced fault,
  /// detected corruption, NotSupported) records its error in
  /// `report.statuses[i]` — counted by `summary.failed_queries` — and
  /// the run continues; one bad page never aborts the whole workload.
  /// Only setup errors (codec mismatch) fail the call itself.
  Result<WorkloadReport> Run(ReachabilityIndex* backend,
                             const std::vector<ReachQuery>& queries) const;

  /// Runs a closure workload: the full reachable set of every source over
  /// `interval`. Sources are grouped into consecutive batches of
  /// `options().batch_sources` and each batch is one
  /// `ReachableSets` call on a worker session (workers claim batches off
  /// a shared counter; `cold_cache` clears the session pool before each
  /// batch, so a batch's internal page reuse is the only warmth).
  /// Latency percentiles in the summary are per batch. Answers are
  /// byte-identical for every num_threads / traversal_threads /
  /// batch_sources combination. A batch whose sweep fails (surfaced
  /// fault, NotSupported) records its error in `report.statuses[b]`, and
  /// `summary.failed_queries` counts its sources; as in `Run`, only setup
  /// errors fail the call itself.
  Result<ClosureWorkloadReport> RunClosures(
      ReachabilityIndex* backend, const std::vector<ObjectId>& sources,
      TimeInterval interval) const;

  /// Runs a mixed-family workload (engine/query_spec.h): boolean specs
  /// share `Run`'s result-cached reachable sets (uncached, they go
  /// through `EvaluateFamily`'s set-first path, which falls back to
  /// `Query` on point-only backends), decay / k-hop / threshold specs
  /// evaluate through `ConstrainedProfile` with the resolved
  /// `HopConstraints` joining the cache key, and top-k specs rank one
  /// `ReachableSets` batch over their candidates (uncached — a top-k
  /// answer is already an aggregate). Answers are byte-identical at every
  /// num_threads and with the cache on or off; per-spec failures
  /// (including a family the backend cannot serve) land in
  /// `report.statuses[i]` like `Run`'s, without aborting. A spec rejected
  /// before any backend work (bad arguments, NotSupported) reports empty
  /// `per_query[i]` stats. The summary's `num_reachable` totals reached
  /// point answers (boolean, threshold), finite profile entries (decay,
  /// k-hop), and the reach counts of the ranked entries (top-k).
  Result<FamilyWorkloadReport> RunFamilies(
      ReachabilityIndex* backend, const std::vector<QuerySpec>& specs) const;

  const QueryEngineOptions& options() const { return options_; }

  /// The engine's result cache; nullptr when disabled.
  ResultCache* result_cache() const { return result_cache_.get(); }

 private:
  QueryEngineOptions options_;
  std::shared_ptr<ResultCache> result_cache_;  // Shared by Run's workers.
};

}  // namespace streach

#endif  // STREACH_ENGINE_QUERY_ENGINE_H_
