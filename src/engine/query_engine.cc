#include "engine/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/stopwatch.h"

namespace streach {

namespace {

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Copies the session's stats into an item's slot after a backend call
/// returned `status`. A spec rejected for its arguments (InvalidArgument)
/// or asking for a primitive the backend lacks (NotSupported) never
/// reached a traversal, so its slot stays empty instead of repeating the
/// previous query's stats.
void RecordStats(const ReachabilityIndex& session, const Status& status,
                 QueryStats* stats) {
  if (status.IsInvalidArgument() || status.IsNotSupported()) return;
  *stats = session.last_query_stats();
}

/// Moves an evaluated answer into its report slot, or returns the error.
template <typename T>
Status Store(Result<T> result, T* slot) {
  if (!result.ok()) return result.status();
  *slot = std::move(result).ValueUnsafe();
  return Status::OK();
}

/// One worker session's view of the engine's result cache. A hit answers
/// with no backend work (the item's stats stay empty); a miss computes
/// the full set or profile once and memoizes it for every later query
/// sharing its key. Backends without an index identity are never cached.
class WorkerCache {
 public:
  WorkerCache(ResultCache* cache, ReachabilityIndex* session)
      : session_(session),
        identity_(cache != nullptr ? session->IndexIdentity() : nullptr),
        cache_(identity_ != nullptr ? cache : nullptr),
        sets_(cache_ != nullptr) {}

  /// Writes the point answer from the source's cached reachable set and
  /// returns its status; nullopt when the session has no usable set
  /// cache, so the caller takes its own uncached path. A backend whose
  /// `ReachableSet` is NotSupported only answers point queries and is
  /// not probed again. Self-queries are never answered from a set: no
  /// set shows one holding for an id outside the population.
  std::optional<Status> Point(ObjectId source, ObjectId destination,
                              TimeInterval interval, ReachAnswer* answer,
                              QueryStats* stats) {
    if (!sets_ || source == destination) return std::nullopt;
    ResultCache::SetPtr set = cache_->Lookup(identity_, source, interval);
    if (set == nullptr) {
      auto computed = session_->ReachableSet(source, interval);
      if (computed.status().IsNotSupported()) {
        sets_ = false;
        return std::nullopt;
      }
      *stats = session_->last_query_stats();
      if (!computed.ok()) return computed.status();
      set = std::make_shared<const std::vector<Timestamp>>(
          std::move(computed).ValueUnsafe());
      cache_->Insert(identity_, source, interval, set);
    }
    *answer = AnswerFromSet(*set, destination);
    return Status::OK();
  }

  /// Decay / k-hop / threshold answer through `ConstrainedProfile`. The
  /// resolved `HopConstraints` join the cache key, so specs of different
  /// families that resolve to the same cap share one profile.
  Result<FamilyAnswer> Profile(const QuerySpec& spec, QueryStats* stats) {
    STREACH_ASSIGN_OR_RETURN(const HopConstraints hops, ResolveHops(spec));
    if (cache_ != nullptr) {
      if (ResultCache::ProfilePtr profile = cache_->LookupProfile(
              identity_, spec.source, spec.interval, hops)) {
        return AnswerFromProfile(spec, *profile);
      }
    }
    auto computed =
        session_->ConstrainedProfile(spec.source, spec.interval, hops);
    RecordStats(*session_, computed.status(), stats);
    if (!computed.ok()) return computed.status();
    if (cache_ == nullptr) {
      return AnswerFromProfile(spec, std::move(computed).ValueUnsafe());
    }
    auto shared = std::make_shared<const std::vector<ReachProfileEntry>>(
        std::move(computed).ValueUnsafe());
    cache_->InsertProfile(identity_, spec.source, spec.interval, hops, shared);
    return AnswerFromProfile(spec, *shared);
  }

 private:
  ReachabilityIndex* session_;
  std::shared_ptr<const void> identity_;
  ResultCache* cache_;  // nullptr: this session is never cached.
  bool sets_;           // Cleared once ReachableSet proves NotSupported.
};

/// The one run loop behind `Run`, `RunFamilies` and `RunClosures`. The
/// workload is `num_units` queries taken `per_item` at a time (1 for
/// point and family runs, `batch_sources` for closures); item i is
/// evaluated by `evaluate(i, session, cache, stats)`, which writes its
/// answers into the caller's report, fills `stats` after any backend
/// work and returns the item's status. Beyond that the loop is the same
/// for every kind of item: it checks the codec, mints and configures one
/// session per worker, lets workers claim items off an atomic counter,
/// times each item and folds everything but the reach tally into
/// `summary`. Only setup errors fail the call; a failed item is one
/// entry of `statuses` and the run keeps going.
template <typename Evaluate>
Status Schedule(ReachabilityIndex* backend, const QueryEngineOptions& options,
                ResultCache* cache, size_t num_units, size_t per_item,
                const Evaluate& evaluate, std::vector<Status>* statuses,
                std::vector<QueryStats>* stats, WorkloadSummary* summary) {
  STREACH_CHECK(backend != nullptr);
  // A disk backend decodes with the codec its index was built with; a
  // run configured for a different codec is a deployment error, not
  // something to silently paper over.
  const std::optional<PageCodecKind> backend_codec = backend->page_codec();
  if (backend_codec.has_value() && *backend_codec != options.page_codec) {
    return Status::InvalidArgument(
        std::string("page_codec mismatch: engine configured for ") +
        ToString(options.page_codec) + ", backend stores " +
        ToString(*backend_codec));
  }
  const size_t num_items = (num_units + per_item - 1) / per_item;
  statuses->resize(num_items);
  stats->resize(num_items);
  std::vector<double> latencies(num_items, 0.0);
  const size_t num_threads = std::min(
      static_cast<size_t>(options.num_threads), std::max<size_t>(num_items, 1));

  // One session per worker. Worker 0 reuses the caller's session, so a
  // single-threaded run behaves exactly like a hand-written query loop.
  std::vector<std::unique_ptr<ReachabilityIndex>> extra_sessions;
  std::vector<ReachabilityIndex*> sessions;
  sessions.push_back(backend);
  for (size_t i = 1; i < num_threads; ++i) {
    extra_sessions.push_back(backend->NewSession());
    sessions.push_back(extra_sessions.back().get());
  }
  for (ReachabilityIndex* session : sessions) {
    session->SetIoQueueDepth(options.io_queue_depth);
    session->SetTraversalThreads(options.traversal_threads);
    session->SetMaxReadRetries(options.max_read_retries);
    session->SetDegradedServing(options.degraded_serving);
  }

  // Per-shard IO is reported as the delta of each session's cumulative
  // cursors around the run, so prior traffic on a reused session never
  // leaks into this workload's breakdown.
  std::vector<std::vector<IoStats>> shard_io_before;
  shard_io_before.reserve(sessions.size());
  for (ReachabilityIndex* session : sessions) {
    shard_io_before.push_back(session->shard_io_stats());
  }
  // cold_cache wins over the result cache: the paper's protocol is
  // "measure every query cold", and a memoized answer would defeat it.
  if (options.cold_cache) cache = nullptr;
  const uint64_t cache_hits_before = cache != nullptr ? cache->hits() : 0;

  std::atomic<size_t> next{0};
  auto work = [&](ReachabilityIndex* session) {
    WorkerCache worker_cache(cache, session);
    for (size_t i = next.fetch_add(1); i < num_items; i = next.fetch_add(1)) {
      if (options.cold_cache) session->ClearCache();
      Stopwatch latency;
      (*statuses)[i] = evaluate(i, session, &worker_cache, &(*stats)[i]);
      latencies[i] = latency.ElapsedSeconds();
    }
  };

  Stopwatch wall;
  if (num_threads == 1) {
    work(sessions[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (ReachabilityIndex* session : sessions) {
      threads.emplace_back(work, session);
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall_seconds = wall.ElapsedSeconds();

  WorkloadSummary& s = *summary;
  s.backend = backend->DescribeIndex();
  s.num_queries = num_units;
  s.io_queue_depth = options.io_queue_depth;
  s.traversal_threads = std::max(options.traversal_threads, 1);
  s.batch_sources = static_cast<int>(per_item);
  s.page_codec = ToString(backend_codec.value_or(options.page_codec));
  s.wall_seconds = wall_seconds;
  s.queries_per_second =
      wall_seconds > 0 ? static_cast<double>(num_units) / wall_seconds : 0.0;
  // Cost totals and latencies are per item (one backend call each);
  // failures and degradations count every query the item covers.
  for (size_t i = 0; i < num_items; ++i) {
    const uint64_t units = std::min(per_item, num_units - i * per_item);
    if (!(*statuses)[i].ok()) s.failed_queries += units;
    const QueryStats& q = (*stats)[i];
    if (q.degraded) s.degraded_queries += units;
    s.total_io_cost += q.io_cost;
    s.total_pages_fetched += q.pages_fetched;
    s.total_pool_hits += q.pool_hits;
    s.total_items_visited += q.items_visited;
    s.total_cpu_seconds += q.cpu_seconds;
    s.mean_latency += latencies[i];
    s.max_latency = std::max(s.max_latency, latencies[i]);
  }
  if (num_items > 0) s.mean_latency /= static_cast<double>(num_items);
  std::sort(latencies.begin(), latencies.end());
  s.p50_latency = Percentile(latencies, 0.50);
  s.p95_latency = Percentile(latencies, 0.95);
  s.p99_latency = Percentile(latencies, 0.99);
  if (cache != nullptr) s.result_cache_hits = cache->hits() - cache_hits_before;
  // Per-shard breakdown: delta of every session's cumulative cursors over
  // the run, summed shard-wise across sessions.
  for (size_t k = 0; k < sessions.size(); ++k) {
    const std::vector<IoStats> after = sessions[k]->shard_io_stats();
    if (after.size() > s.per_shard_io.size()) {
      s.per_shard_io.resize(after.size());
    }
    for (size_t shard = 0; shard < after.size(); ++shard) {
      IoStats delta = after[shard];
      if (shard < shard_io_before[k].size()) {
        delta = delta - shard_io_before[k][shard];
      }
      s.per_shard_io[shard] += delta;
    }
  }
  return Status::OK();
}

}  // namespace

std::string WorkloadSummary::ToString() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%s: %llu queries (%llu reachable) in %.3fs | %.0f q/s | "
      "io/query=%.2f pages=%llu hits=%llu pool_hit_rate=%.1f%% | "
      "latency mean=%.0fus p50=%.0fus p95=%.0fus p99=%.0fus max=%.0fus | "
      "cache_hits=%llu shards=%zu qd=%d tthreads=%d batch=%d "
      "inflight=%.2f codec=%s ratio=%.2f",
      backend.c_str(), static_cast<unsigned long long>(num_queries),
      static_cast<unsigned long long>(num_reachable), wall_seconds,
      queries_per_second, mean_io_cost(),
      static_cast<unsigned long long>(total_pages_fetched),
      static_cast<unsigned long long>(total_pool_hits),
      100.0 * pool_hit_rate(), mean_latency * 1e6, p50_latency * 1e6,
      p95_latency * 1e6, p99_latency * 1e6, max_latency * 1e6,
      static_cast<unsigned long long>(result_cache_hits),
      per_shard_io.empty() ? static_cast<size_t>(1) : per_shard_io.size(),
      io_queue_depth, traversal_threads, batch_sources,
      mean_inflight_requests(), page_codec.c_str(), compression_ratio());
  std::string out = buf;
  // Family breakdown only when something beyond boolean ran: Run and
  // RunClosures workloads keep the historical one-line shape.
  bool beyond_boolean = false;
  for (size_t f = 1; f < family_counts.size(); ++f) {
    beyond_boolean = beyond_boolean || family_counts[f] > 0;
  }
  if (beyond_boolean) {
    out += " | families";
    for (size_t f = 0; f < family_counts.size(); ++f) {
      if (family_counts[f] == 0) continue;
      std::snprintf(buf, sizeof(buf), " %s=%llu",
                    FamilyName(static_cast<QueryFamily>(f)),
                    static_cast<unsigned long long>(family_counts[f]));
      out += buf;
    }
  }
  // Fault surface only when something actually went wrong: healthy runs
  // keep the historical line.
  if (failed_queries > 0 || degraded_queries > 0) {
    std::snprintf(buf, sizeof(buf), " | failed=%llu degraded=%llu",
                  static_cast<unsigned long long>(failed_queries),
                  static_cast<unsigned long long>(degraded_queries));
    out += buf;
  }
  return out;
}

QueryEngine::QueryEngine(QueryEngineOptions options)
    : options_(std::move(options)) {
  STREACH_CHECK_GT(options_.num_threads, 0);
  STREACH_CHECK_GT(options_.io_queue_depth, 0);
  if (options_.result_cache_capacity > 0) {
    result_cache_ =
        std::make_shared<ResultCache>(options_.result_cache_capacity);
  }
}

Result<WorkloadReport> QueryEngine::Run(
    ReachabilityIndex* backend, const std::vector<ReachQuery>& queries) const {
  WorkloadReport report;
  report.answers.resize(queries.size());
  auto evaluate = [&](size_t i, ReachabilityIndex* session,
                      WorkerCache* cache, QueryStats* stats) -> Status {
    const ReachQuery& query = queries[i];
    if (std::optional<Status> cached =
            cache->Point(query.source, query.destination, query.interval,
                         &report.answers[i], stats)) {
      return *std::move(cached);
    }
    // No usable cache: the point query, which stops at the destination.
    Result<ReachAnswer> answer = session->Query(query);
    *stats = session->last_query_stats();
    return Store(std::move(answer), &report.answers[i]);
  };
  STREACH_RETURN_NOT_OK(Schedule(backend, options_, result_cache_.get(),
                                 queries.size(), /*per_item=*/1, evaluate,
                                 &report.statuses, &report.per_query,
                                 &report.summary));
  WorkloadSummary& s = report.summary;
  s.family_counts[static_cast<size_t>(QueryFamily::kBoolean)] = queries.size();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (report.statuses[i].ok() && report.answers[i].reachable) {
      ++s.num_reachable;
    }
  }
  return report;
}

Result<ClosureWorkloadReport> QueryEngine::RunClosures(
    ReachabilityIndex* backend, const std::vector<ObjectId>& sources,
    TimeInterval interval) const {
  const size_t n = sources.size();
  const size_t batch =
      static_cast<size_t>(std::max(options_.batch_sources, 1));
  ClosureWorkloadReport report;
  report.sets.resize(n);
  auto evaluate = [&](size_t b, ReachabilityIndex* session, WorkerCache*,
                      QueryStats* stats) -> Status {
    const auto first = static_cast<ptrdiff_t>(b * batch);
    const auto last = static_cast<ptrdiff_t>(std::min(b * batch + batch, n));
    auto sets = session->ReachableSets(
        std::vector<ObjectId>(sources.begin() + first, sources.begin() + last),
        interval);
    RecordStats(*session, sets.status(), stats);
    if (!sets.ok()) return sets.status();  // The batch's sets stay empty.
    std::move(sets->begin(), sets->end(), report.sets.begin() + first);
    return Status::OK();
  };
  // Closures never touch the result cache.
  STREACH_RETURN_NOT_OK(Schedule(backend, options_, /*cache=*/nullptr, n,
                                 batch, evaluate, &report.statuses,
                                 &report.per_batch, &report.summary));
  WorkloadSummary& s = report.summary;
  s.family_counts[static_cast<size_t>(QueryFamily::kBoolean)] = n;
  for (const std::vector<Timestamp>& set : report.sets) {
    for (Timestamp t : set) {
      if (t != kInvalidTime) ++s.num_reachable;
    }
  }
  return report;
}

Result<FamilyWorkloadReport> QueryEngine::RunFamilies(
    ReachabilityIndex* backend, const std::vector<QuerySpec>& specs) const {
  FamilyWorkloadReport report;
  report.answers.resize(specs.size());
  auto evaluate = [&](size_t i, ReachabilityIndex* session,
                      WorkerCache* cache, QueryStats* stats) -> Status {
    const QuerySpec& spec = specs[i];
    FamilyAnswer& answer = report.answers[i];
    switch (spec.family) {
      case QueryFamily::kBoolean:
        if (std::optional<Status> cached =
                cache->Point(spec.source, spec.destination, spec.interval,
                             &answer.point, stats)) {
          return *std::move(cached);
        }
        break;  // Uncached: EvaluateFamily's set-first path.
      case QueryFamily::kDecayReach:
      case QueryFamily::kKHopReach:
      case QueryFamily::kThresholdReach:
        return Store(cache->Profile(spec, stats), &answer);
      case QueryFamily::kTopKSources:
        break;  // Uncached: a top-k answer is already an aggregate.
    }
    Result<FamilyAnswer> evaluated = EvaluateFamily(session, spec);
    RecordStats(*session, evaluated.status(), stats);
    return Store(std::move(evaluated), &answer);
  };
  STREACH_RETURN_NOT_OK(Schedule(backend, options_, result_cache_.get(),
                                 specs.size(), /*per_item=*/1, evaluate,
                                 &report.statuses, &report.per_query,
                                 &report.summary));
  WorkloadSummary& s = report.summary;
  for (size_t i = 0; i < specs.size(); ++i) {
    // Failed specs count under the family that was ASKED (their answer
    // slot is default-constructed) and contribute no reach counts.
    ++s.family_counts[static_cast<size_t>(specs[i].family)];
    if (!report.statuses[i].ok()) continue;
    const FamilyAnswer& answer = report.answers[i];
    switch (answer.family) {
      case QueryFamily::kBoolean:
      case QueryFamily::kThresholdReach:
        if (answer.point.reachable) ++s.num_reachable;
        break;
      case QueryFamily::kDecayReach:
      case QueryFamily::kKHopReach:
        for (const ReachProfileEntry& entry : answer.profile) {
          if (entry.transfers >= 0) ++s.num_reachable;
        }
        break;
      case QueryFamily::kTopKSources:
        for (const TopKEntry& entry : answer.ranked) {
          s.num_reachable += entry.reach_count;
        }
        break;
    }
  }
  return report;
}

}  // namespace streach
